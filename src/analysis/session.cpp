#include "analysis/session.hpp"

#include <map>
#include <thread>
#include <utility>

#include "ckpt/engine.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace ac::analysis {

int default_thread_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

// --- sinks -----------------------------------------------------------------

namespace {

void emit(const std::string& text, std::FILE* out, std::string* capture) {
  if (capture) {
    *capture += text;
  } else if (out) {
    std::fwrite(text.data(), 1, text.size(), out);
  }
}

}  // namespace

void TextSink::consume(const Report& report, const SessionContext&) {
  emit(report.render(), out_, capture_);
}

void JsonSink::consume(const Report& report, const SessionContext&) {
  emit(report.to_json(with_timings_), out_, capture_);
}

void DotSink::consume(const Report& report, const SessionContext&) {
  const std::string dot = report.contracted.to_dot();
  if (capture_) {
    *capture_ += dot;
    return;
  }
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  if (!f) throw Error("cannot write " + path_);
  std::fwrite(dot.data(), 1, dot.size(), f);
  std::fclose(f);
}

void ProtectSink::consume(const Report& report, const SessionContext& ctx) {
  if (!ctx.trace) {
    throw Error("ProtectSink: needs a materialized trace to resolve arena addresses "
                "(live sources never materialize one)");
  }
  // One sweep over the packed records: the last Alloca per variable name in
  // the MCL host function (or globals) is the binding live at the loop.
  const trace::SymbolPool& pool = ctx.trace->pool();
  const std::uint32_t host_func = pool.lookup(ctx.region.function);
  const std::uint32_t global_func = pool.lookup("<global>");
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> allocas;  // name -> (addr, bytes)
  for (std::size_t i = 0; i < ctx.trace->size(); ++i) {
    const trace::RecordView rec = ctx.trace->view(i);
    if (rec.opcode() != trace::Opcode::Alloca) continue;
    if (rec.func_id() != host_func && rec.func_id() != global_func) continue;
    const auto* result = rec.find(trace::OperandSlot::Result);
    if (!result) continue;
    const auto* size = rec.input(1);
    allocas[std::string(rec.name(*result))] = {
        result->value().addr, size ? static_cast<std::uint64_t>(size->value().i) : 0};
  }
  std::string text = strf("// CheckpointEngine registration for %s (function %s, lines %d..%d)\n",
                          ctx.source_name.c_str(), ctx.region.function.c_str(),
                          ctx.region.begin_line, ctx.region.end_line);
  if (!codec_spec_.empty()) {
    text += strf("cfg.set_codecs(ac::ckpt::CodecChain::parse(\"%s\"));\n", codec_spec_.c_str());
  }
  for (const auto& cv : report.critical()) {
    const auto it = allocas.find(cv.name);
    const std::uint64_t addr = it != allocas.end() ? it->second.first : 0;
    const std::uint64_t bytes =
        it != allocas.end() && it->second.second ? it->second.second : cv.bytes;
    text += strf("engine.protect(\"%s\");  // addr 0x%llx, %llu bytes, %s\n", cv.name.c_str(),
                 static_cast<unsigned long long>(addr),
                 static_cast<unsigned long long>(bytes), dep_type_name(cv.type));
  }
  emit(text, out_, capture_);
}

void EngineSink::consume(const Report& report, const SessionContext&) {
  engine_->register_report(report);
}

// --- builder ---------------------------------------------------------------

Session& Session::source(std::shared_ptr<trace::TraceSource> src) {
  source_ = std::move(src);
  return *this;
}

Session& Session::file(const std::string& path) {
  return source(std::make_shared<trace::FileSource>(path));
}

Session& Session::buffer(trace::TraceBuffer&& buf) {
  return source(std::make_shared<trace::MemorySource>(std::move(buf)));
}

Session& Session::live(trace::LiveSource::Generator gen) {
  return source(std::make_shared<trace::LiveSource>(std::move(gen)));
}

Session& Session::region(MclRegion r) {
  region_ = std::move(r);
  return *this;
}

Session& Session::region_from_markers(const std::string& source_text,
                                      const std::string& function) {
  return region(find_mcl_region(source_text, function));
}

Session& Session::options(const AnalysisOptions& opts) {
  opts_ = opts;
  return *this;
}

Session& Session::sink(std::shared_ptr<ReportSink> s) {
  sinks_.push_back(std::move(s));
  return *this;
}

// --- pipeline --------------------------------------------------------------

Report Session::run() {
  AC_CHECK(source_ != nullptr, "Session: no trace source configured");
  AC_CHECK(region_.begin_line > 0 && region_.end_line >= region_.begin_line,
           "Session: invalid MCL region (set region() or region_from_markers())");
  // Left enabled after the run so the caller can export what was recorded.
  if (opts_.telemetry) telemetry::telemetry().enable();
  AC_SPAN("analysis.session");
  source_->set_read_threads(opts_.threads);

  auto* live = dynamic_cast<trace::LiveSource*>(source_.get());
  Report report = live ? run_live(*live) : run_batch();

  const SessionContext ctx{region_, live ? nullptr : &source_->buffer(), source_->describe()};
  for (const auto& s : sinks_) s->consume(report, ctx);
  return report;
}

Report Session::run_batch() {
  Report report;
  report.region = region_;

  // The whole batch pipeline replays the interned span-based representation;
  // no owning TraceRecord is ever materialized.
  const trace::TraceBuffer& buf = source_->buffer();

  WallTimer timer;
  {
    AC_SPAN("analysis.preprocess");
    report.pre = preprocess(buf, region_, opts_.mli_mode);
  }
  // Trace parsing is attributed to pre-processing (it dominates, as the
  // paper observes); in-memory sources contribute zero.
  report.timings.preprocessing = source_->read_seconds() + timer.seconds();

  timer.reset();
  {
    AC_SPAN("analysis.dep");
    DepOptions dep_opts;
    dep_opts.build_ddg = opts_.build_ddg;
    report.dep = dep_analysis(buf, report.pre, region_, dep_opts);
  }
  report.timings.dep_analysis = timer.seconds();

  timer.reset();
  report.verdicts = classify(report.dep, report.pre);
  if (opts_.build_ddg) report.contracted = report.dep.complete.contract();
  report.timings.identify = timer.seconds();
  return report;
}

Report Session::run_live(trace::LiveSource& live) {
  // Timing attribution is whole-pass, measured by the SessionStream itself:
  // preprocessing = pass 1 (execution + MLI), dep_analysis = pass 2,
  // identify = classification.
  SessionStream stream(region_, opts_);
  live.for_each([&](const trace::TraceRecord& rec) { stream.pass1_add(rec); });
  stream.finish_pass1();
  live.for_each([&](const trace::TraceRecord& rec) { stream.pass2_add(rec); });
  return stream.finish();
}

// --- push-based stream -----------------------------------------------------

SessionStream::SessionStream(const MclRegion& region, const AnalysisOptions& opts)
    : region_(region), opts_(opts), collector_(region, opts.mli_mode) {
  report_.region = region;
}

void SessionStream::pass1_add(const trace::TraceRecord& rec) {
  // Hot path: one predictable branch, no per-record timing — a pass is timed
  // from its first record to its seal, so caller idle time before/between
  // passes is not attributed to the analysis.
  if (!pass_timer_live_) {
    pass_timer_.reset();
    pass_timer_live_ = true;
  }
  collector_.add(rec);
}

void SessionStream::finish_pass1() {
  AC_CHECK(!pass1_done_, "finish_pass1 called twice");
  report_.pre = collector_.finish();
  DepOptions dep_opts;
  dep_opts.build_ddg = opts_.build_ddg;
  analyzer_ = std::make_unique<DepAnalyzer>(report_.pre, region_, dep_opts);
  // Pass 1 = first record to here: the driving execution, the MLI
  // collection, and the partition seal above.
  pass1_seconds_ = pass_timer_live_ ? pass_timer_.seconds() : 0;
  pass_timer_live_ = false;
  pass1_done_ = true;
}

void SessionStream::pass2_add(const trace::TraceRecord& rec) {
  AC_CHECK(pass1_done_, "pass2_add before finish_pass1");
  if (!pass_timer_live_) {
    pass_timer_.reset();
    pass_timer_live_ = true;
  }
  analyzer_->add(rec);
}

Report SessionStream::finish() {
  AC_CHECK(pass1_done_, "finish before finish_pass1");
  // Pass 2 = its first record to here.
  pass2_seconds_ = pass_timer_live_ ? pass_timer_.seconds() : 0;
  pass_timer_live_ = false;
  WallTimer t;
  report_.dep = analyzer_->finish();
  report_.verdicts = classify(report_.dep, report_.pre);
  if (opts_.build_ddg) report_.contracted = report_.dep.complete.contract();
  report_.timings.preprocessing = pass1_seconds_;
  report_.timings.dep_analysis = pass2_seconds_;
  report_.timings.identify = t.seconds();
  return std::move(report_);
}

}  // namespace ac::analysis
