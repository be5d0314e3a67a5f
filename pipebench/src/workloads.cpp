#include "workloads.hpp"

#include <atomic>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "analysis/classify.hpp"
#include "analysis/depanalysis.hpp"
#include "analysis/preprocess.hpp"
#include "analysis/session.hpp"
#include "apps/app.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/engine.hpp"
#include "minic/compiler.hpp"
#include "net/remote.hpp"
#include "net/server.hpp"
#include "plan.hpp"
#include "stats.hpp"
#include "support/timer.hpp"
#include "trace/source.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

namespace pipebench {

namespace fs = std::filesystem;
using ac::WallTimer;
using ac::analysis::MclRegion;
using ac::analysis::Report;

namespace {

// --- shared helpers ---------------------------------------------------------

/// One app instance: its MiniC source and its MCL region.
struct AppCase {
  const ac::apps::App* app = nullptr;
  std::string source;
  MclRegion region;
};

/// The 14 apps at their default knobs. Table II knobs make a pass about 5x
/// longer; default knobs leave room for several passes per run, whose
/// median is what keeps the timings steady on a shared machine.
std::vector<AppCase> app_cases() {
  std::vector<AppCase> cases;
  for (const ac::apps::App& app : ac::apps::registry()) {
    cases.push_back({&app, app.source(), app.mcl()});
  }
  return cases;
}

ac::vm::MclRegion vm_region(const MclRegion& r) {
  ac::vm::MclRegion out;
  out.function = r.function;
  out.begin_line = r.begin_line;
  out.end_line = r.end_line;
  return out;
}

/// The critical set equals the paper's Table II verdicts for the app.
bool matches_table2(const ac::analysis::ClassifyResult& verdicts, const ac::apps::App& app) {
  std::map<std::string, ac::analysis::DepType> got;
  std::map<std::string, ac::analysis::DepType> want;
  for (const auto& v : verdicts.critical) got[v.name] = v.type;
  for (const auto& e : app.expected) want[e.name] = e.type;
  return got == want;
}

void add_analysis_counts(const Report& r, std::map<std::string, std::uint64_t>& counts) {
  counts["analysis.events"] += r.dep.events.size();
  counts["analysis.ddg_nodes"] += static_cast<std::uint64_t>(r.dep.complete.num_nodes());
  counts["analysis.ddg_edges"] += r.dep.complete.num_edges();
  counts["analysis.mli_vars"] += r.pre.mli.size();
  counts["analysis.critical_vars"] += r.verdicts.critical.size();
}

void copy_counts(const PassResult& r, std::initializer_list<const char*> names, Metrics& out) {
  for (const char* n : names) {
    const auto it = r.counts.find(n);
    if (it != r.counts.end()) out[n] = static_cast<double>(it->second);
  }
}

void copy_spans(const std::vector<SpanRecord>& spans, int pass,
                std::initializer_list<const char*> names, Metrics& out) {
  for (const char* n : names) out[std::string(n) + "_s"] = span_seconds(spans, n, pass);
}

void report_failure(const std::string& workload, const std::string& what,
                    const std::string& why) {
  std::fprintf(stderr, "pipebench: %s: %s: %s\n", workload.c_str(), what.c_str(), why.c_str());
}

/// Session's classification dispatch (analysis/session.cpp): the pipelined
/// variant for event streams of at least 2^20 events, the sharded one below.
ac::analysis::ClassifyResult classify_as_session(const ac::analysis::DepResult& dep,
                                                 const ac::analysis::PreprocessResult& pre,
                                                 int threads) {
  constexpr std::size_t kPipelineThreshold = std::size_t{1} << 20;
  return dep.events.size() >= kPipelineThreshold
             ? ac::analysis::classify_pipelined(dep, pre, threads)
             : ac::analysis::classify_sharded(dep, pre, threads);
}

/// The analysis Session runs on a materialized buffer, one public layer call
/// per span.
Report analyze_in_spans(Tracer& t, const ac::trace::TraceBuffer& buf, const MclRegion& region,
                        int threads) {
  Report r;
  r.region = region;
  {
    Span s(t, "analysis.preprocess");
    r.pre = ac::analysis::preprocess(buf, region);
  }
  {
    Span s(t, "analysis.dep");
    ac::analysis::DepOptions opts;
    opts.build_ddg = true;
    r.dep = ac::analysis::dep_analysis(buf, r.pre, region, opts);
  }
  {
    Span s(t, "analysis.classify");
    r.verdicts = classify_as_session(r.dep, r.pre, threads);
  }
  {
    Span s(t, "analysis.contract");
    r.contracted = r.dep.complete.contract();
  }
  return r;
}

struct FileAnalysis {
  Report report;
  std::uint64_t records = 0;
};

/// Read a trace file and analyse it: through Session when untraced, through
/// its layers in spans when traced. `read_span` names the read span.
FileAnalysis analyze_trace_file(Tracer& t, const std::string& path, const MclRegion& region,
                                int threads, const char* read_span) {
  FileAnalysis out;
  auto source = std::make_shared<ac::trace::FileSource>(path, threads);
  if (!t.enabled()) {
    ac::analysis::AnalysisOptions opts;
    opts.threads = threads;
    out.report = ac::analysis::Session().source(source).region(region).options(opts).run();
  } else {
    {
      Span s(t, read_span);
      source->buffer();
    }
    out.report = analyze_in_spans(t, source->buffer(), region, threads);
  }
  out.records = source->record_count();
  return out;
}

/// Time `fn` in a span named `name` and return the seconds it took.
template <typename Fn>
double timed(Tracer& t, const char* name, Fn&& fn) {
  Span s(t, name);
  WallTimer w;
  fn();
  return w.seconds();
}

const int kSweepThreads[] = {1, 2, 4};

/// fn(i) for every i in [0, n) on `threads` workers; set-up only. The first
/// exception is rethrown after every worker has stopped.
template <typename Fn>
void parallel_for(std::size_t n, int threads, Fn&& fn) {
  std::atomic<std::size_t> next{0};
  std::mutex mu;  // guards error
  std::exception_ptr error;
  std::vector<std::thread> pool;
  for (int w = 0; w < threads; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) {
        try {
          fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(mu);
          if (!error) error = std::current_exception();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

/// Feeds every record to two sinks: one traced run writes both formats.
class TeeSink final : public ac::trace::TraceSink {
 public:
  TeeSink(ac::trace::TraceSink& a, ac::trace::TraceSink& b) : a_(a), b_(b) {}
  void append(const ac::trace::TraceRecord& rec) override {
    a_.append(rec);
    b_.append(rec);
  }
  std::uint64_t count() const override { return a_.count(); }

 private:
  ac::trace::TraceSink& a_;
  ac::trace::TraceSink& b_;
};

// --- identify ---------------------------------------------------------------

class Identify final : public Workload {
 public:
  explicit Identify(const Context& ctx) : ctx_(ctx) {}

  void setup() override {
    cases_ = app_cases();
    for (const AppCase& c : cases_) ac::minic::compile(c.source);
    plan_ = make_plan(ctx_.seed, {static_cast<int>(cases_.size()), {}, 0, 0});
  }

  PassResult pass(Tracer& t) override {
    PassResult pr;
    WallTimer wall;
    Span pass_span(t, "pass", Track::Yes);
    for (const int idx : plan_.app_order) {
      const AppCase& c = cases_[static_cast<std::size_t>(idx)];
      Span app_span(t, "app:" + c.app->name);
      WallTimer op;
      ++pr.ops;
      try {
        ac::ir::Module module;
        {
          Span s(t, "minic.compile");
          module = ac::minic::compile(c.source);
        }
        ac::trace::MctbFileSink sink(path(c));
        ac::vm::RunResult run;
        {
          Span s(t, "vm.run_traced");
          ac::vm::RunOptions ropts;
          ropts.sink = &sink;
          run = ac::vm::run_module(module, ropts);
        }
        {
          Span s(t, "trace.mctb_close");
          sink.close();
        }
        const FileAnalysis fa = analyze_trace_file(t, path(c), c.region, ctx_.threads,
                                                   "trace.read");
        pr.records += sink.count();
        pr.io_bytes += sink.bytes();
        pr.counts["vm.steps"] += run.steps;
        pr.counts["trace.records"] += sink.count();
        pr.counts["trace_bytes"] += sink.bytes();
        add_analysis_counts(fa.report, pr.counts);
        if (fa.records != sink.count()) throw std::runtime_error("record count changed on read");
        if (!matches_table2(fa.report.verdicts, *c.app)) {
          throw std::runtime_error("verdicts differ from Table II");
        }
      } catch (const std::exception& e) {
        ++pr.failed;
        report_failure("identify", c.app->name, e.what());
      }
      pr.op_ms.emplace_back(c.app->name, op.seconds() * 1e3);
    }
    pr.wall_s = wall.seconds();
    return pr;
  }

  void layer_metrics(const std::vector<SpanRecord>& spans, int pass, const PassResult& r,
                     Metrics& out) const override {
    copy_spans(spans, pass,
               {"minic.compile", "vm.run_traced", "trace.mctb_close", "trace.read",
                "analysis.preprocess", "analysis.dep", "analysis.classify", "analysis.contract"},
               out);
    copy_counts(r,
                {"vm.steps", "trace.records", "analysis.events", "analysis.ddg_nodes",
                 "analysis.ddg_edges", "analysis.mli_vars", "analysis.critical_vars"},
                out);
  }

  /// Untraced runs of the same modules (for vm.emit_ns_per_record) and text
  /// rewrites of the MCTB files the last pass left (for the text size).
  void probes(Tracer& t, Metrics& out) override {
    double untraced_s = 0;
    std::uint64_t text_bytes = 0;
    std::uint64_t mctb_bytes = 0;
    for (const AppCase& c : cases_) {
      const ac::ir::Module module = ac::minic::compile(c.source);
      untraced_s += timed(t, "vm.run_untraced", [&] { ac::vm::run_module(module, {}); });
      ac::trace::FileSource mctb(path(c));
      const ac::trace::TraceBuffer& buf = mctb.buffer();
      ac::trace::FileSink text(path(c) + ".text");
      for (std::size_t i = 0; i < buf.size(); ++i) text.append(buf.materialize(i));
      text.close();
      text_bytes += text.bytes();
      mctb_bytes += fs::file_size(path(c));
      fs::remove(path(c) + ".text");
    }
    out["vm.run_untraced_s"] = untraced_s;
    const double records = out["trace.records"];
    if (records > 0) {
      out["vm.emit_ns_per_record"] = (out["vm.run_traced_s"] - untraced_s) / records * 1e9;
    }
    out["trace.text_bytes"] = static_cast<double>(text_bytes);
    if (mctb_bytes > 0) {
      out["trace.compress_ratio"] =
          static_cast<double>(text_bytes) / static_cast<double>(mctb_bytes);
    }
  }

 private:
  std::string path(const AppCase& c) const {
    return ctx_.work_dir + "/identify-" + c.app->name + ".mctb";
  }

  Context ctx_;
  std::vector<AppCase> cases_;
  Plan plan_;
};

// --- reanalyze --------------------------------------------------------------

class Reanalyze final : public Workload {
 public:
  explicit Reanalyze(const Context& ctx) : ctx_(ctx) {}

  /// Trace every app once into both an MCTB and a text file; the pass only
  /// reads them back.
  void setup() override {
    cases_ = app_cases();
    std::vector<std::uint64_t> text(cases_.size());
    std::vector<std::uint64_t> mctb(cases_.size());
    parallel_for(cases_.size(), ctx_.threads, [&](std::size_t i) {
      const AppCase& c = cases_[i];
      const ac::ir::Module module = ac::minic::compile(c.source);
      ac::trace::FileSink text_sink(path(c, "text"));
      ac::trace::MctbFileSink mctb_sink(path(c, "mctb"));
      TeeSink tee(text_sink, mctb_sink);
      ac::vm::RunOptions ropts;
      ropts.sink = &tee;
      ac::vm::run_module(module, ropts);
      text_sink.close();
      mctb_sink.close();
      text[i] = text_sink.bytes();
      mctb[i] = mctb_sink.bytes();
    });
    text_bytes_ = 0;
    mctb_bytes_ = 0;
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      text_bytes_ += text[i];
      mctb_bytes_ += mctb[i];
    }
    plan_ = make_plan(ctx_.seed, {static_cast<int>(cases_.size()), {}, 0, 0});
  }

  PassResult pass(Tracer& t) override {
    PassResult pr;
    WallTimer wall;
    Span pass_span(t, "pass", Track::Yes);
    for (const int idx : plan_.app_order) {
      const AppCase& c = cases_[static_cast<std::size_t>(idx)];
      Span app_span(t, "app:" + c.app->name);
      WallTimer op;
      ++pr.ops;
      try {
        const FileAnalysis text =
            analyze_trace_file(t, path(c, "text"), c.region, ctx_.threads, "trace.text_read");
        const FileAnalysis mctb =
            analyze_trace_file(t, path(c, "mctb"), c.region, ctx_.threads, "trace.mctb_read");
        pr.records += text.records + mctb.records;
        pr.counts["trace.records"] += text.records + mctb.records;
        add_analysis_counts(text.report, pr.counts);
        add_analysis_counts(mctb.report, pr.counts);
        if (text.report.verdicts.critical != mctb.report.verdicts.critical ||
            text.report.verdicts.all_mli != mctb.report.verdicts.all_mli) {
          throw std::runtime_error("text and MCTB verdicts differ");
        }
        if (!matches_table2(mctb.report.verdicts, *c.app)) {
          throw std::runtime_error("verdicts differ from Table II");
        }
      } catch (const std::exception& e) {
        ++pr.failed;
        report_failure("reanalyze", c.app->name, e.what());
      }
      pr.op_ms.emplace_back(c.app->name, op.seconds() * 1e3);
    }
    pr.io_bytes = text_bytes_ + mctb_bytes_;
    pr.wall_s = wall.seconds();
    return pr;
  }

  void layer_metrics(const std::vector<SpanRecord>& spans, int pass, const PassResult& r,
                     Metrics& out) const override {
    copy_spans(spans, pass,
               {"analysis.preprocess", "analysis.dep", "analysis.classify", "analysis.contract"},
               out);
    out["trace.read_s"] = span_seconds(spans, "trace.text_read", pass) +
                          span_seconds(spans, "trace.mctb_read", pass);
    copy_counts(r,
                {"trace.records", "analysis.events", "analysis.ddg_nodes", "analysis.ddg_edges",
                 "analysis.mli_vars", "analysis.critical_vars"},
                out);
    out["trace.text_bytes"] = static_cast<double>(text_bytes_);
    if (mctb_bytes_ > 0) {
      out["trace.compress_ratio"] =
          static_cast<double>(text_bytes_) / static_cast<double>(mctb_bytes_);
    }
  }

  /// The same files read at 1, 2 and 4 threads, and the same dependency
  /// result classified at 1 (classify), 2 and 4 (classify_pipelined) threads.
  void probes(Tracer& t, Metrics& out) override {
    for (const AppCase& c : cases_) {
      for (const int n : kSweepThreads) {
        const std::string sfx = ".t" + std::to_string(n);
        for (const char* fmt : {"text", "mctb"}) {
          ac::trace::FileSource src(path(c, fmt), n);
          out["trace." + std::string(fmt) + "_read_s" + sfx] +=
              timed(t, "trace.read_sweep", [&] { src.buffer(); });
        }
      }
      ac::trace::FileSource src(path(c, "mctb"), 1);
      ac::analysis::PreprocessResult pre = ac::analysis::preprocess(src.buffer(), c.region);
      const ac::analysis::DepResult dep = ac::analysis::dep_analysis(src.buffer(), pre, c.region);
      for (const int n : kSweepThreads) {
        out["analysis.classify_s.t" + std::to_string(n)] +=
            timed(t, "analysis.classify_sweep", [&] {
              if (n == 1) {
                ac::analysis::classify(dep, pre);
              } else {
                ac::analysis::classify_pipelined(dep, pre, n);
              }
            });
      }
    }
  }

 private:
  std::string path(const AppCase& c, const char* fmt) const {
    return ctx_.work_dir + "/reanalyze-" + c.app->name + "." + fmt;
  }

  Context ctx_;
  std::vector<AppCase> cases_;
  Plan plan_;
  std::uint64_t text_bytes_ = 0;
  std::uint64_t mctb_bytes_ = 0;
};

// --- checkpoint-restart -----------------------------------------------------

class CheckpointRestart final : public Workload {
 public:
  explicit CheckpointRestart(const Context& ctx) : ctx_(ctx) {}

  /// Per app: the production module, the critical set AutoCheck finds on a
  /// traced run of it, and the failure-free output and loop length of the
  /// untraced production run.
  void setup() override {
    const std::vector<AppCase> cases = app_cases();
    apps_.assign(cases.size(), {});
    PlanShape shape;
    shape.apps = static_cast<int>(cases.size());
    shape.iterations.resize(cases.size());
    parallel_for(cases.size(), ctx_.threads, [&](std::size_t i) {
      const AppCase& c = cases[i];
      Prepared& p = apps_[i];
      p.app = c.app;
      p.region = c.region;
      p.module = ac::minic::compile(c.source);

      ac::trace::BufferSink sink;
      ac::vm::RunOptions traced;
      traced.sink = &sink;
      ac::vm::run_module(p.module, traced);
      const Report report = ac::analysis::Session().buffer(sink.take()).region(c.region).run();
      if (!matches_table2(report.verdicts, *c.app)) {
        throw std::runtime_error(c.app->name + ": set-up verdicts differ from Table II");
      }
      p.protect = report.critical_names();

      ac::vm::RunOptions ropts;
      ropts.mcl = vm_region(c.region);
      const ac::vm::RunResult ref = ac::vm::run_module(p.module, ropts);
      p.reference_output = ref.output;
      shape.iterations[i] = ref.iterations_started;
    });
    plan_ = make_plan(ctx_.seed, shape);
  }

  PassResult pass(Tracer& t) override {
    PassResult pr;
    WallTimer wall;
    Span pass_span(t, "pass", Track::Yes);
    for (const int idx : plan_.app_order) {
      const Prepared& p = apps_[static_cast<std::size_t>(idx)];
      Span app_span(t, "app:" + p.app->name);
      // The app's latency sample is the time-to-recover of both failures: the
      // pair's restarts together redo the same iterations for every seed.
      double recover_ms = 0;
      for (const int fail_at : plan_.fail_at[static_cast<std::size_t>(idx)]) {
        ++pr.ops;
        try {
          recover_ms += fail_and_restart(t, p, fail_at, pr);
        } catch (const std::exception& e) {
          ++pr.failed;
          report_failure("checkpoint-restart", p.app->name, e.what());
        }
      }
      pr.op_ms.emplace_back(p.app->name, recover_ms);
    }
    pr.wall_s = wall.seconds();
    return pr;
  }

  void layer_metrics(const std::vector<SpanRecord>& spans, int pass, const PassResult& r,
                     Metrics& out) const override {
    copy_spans(spans, pass,
               {"ckpt.attached_run", "ckpt.flush", "ckpt.recover", "ckpt.restart_run"}, out);
    copy_counts(r, {"vm.steps", "ckpt.checkpoints", "ckpt.l1_bytes", "ckpt.l2_bytes",
                    "ckpt.l3_bytes"},
                out);
    const auto raw = r.counts.find("ckpt.payload_raw_bytes");
    const auto enc = r.counts.find("ckpt.payload_encoded_bytes");
    if (raw != r.counts.end() && enc != r.counts.end() && enc->second > 0) {
      out["ckpt.encode_ratio"] =
          static_cast<double>(raw->second) / static_cast<double>(enc->second);
    }
  }

  /// Plain untraced runs of the production modules: the VM cost the
  /// checkpointed runs pay on top of which the engine works.
  void probes(Tracer& t, Metrics& out) override {
    double untraced_s = 0;
    for (const Prepared& p : apps_) {
      untraced_s += timed(t, "vm.run_untraced", [&] { ac::vm::run_module(p.module, {}); });
    }
    out["vm.run_untraced_s"] = untraced_s;
  }

 private:
  struct Prepared {
    const ac::apps::App* app = nullptr;
    MclRegion region;
    ac::ir::Module module;
    std::vector<std::string> protect;
    std::string reference_output;
  };

  /// One C/R operation: the checkpointed run up to the fail-stop at
  /// `fail_at`, then the restart. Returns the user's time-to-recover in ms: a
  /// fresh engine over the same storage, recover(), the restart run and the
  /// diff.
  double fail_and_restart(Tracer& t, const Prepared& p, int fail_at, PassResult& pr) const {
    const ac::ckpt::EngineConfig cfg = engine_config(*p.app);
    ac::ckpt::EngineStats stats;
    ac::vm::RunResult failed;
    {
      ac::ckpt::CheckpointEngine engine(cfg);
      {
        Span s(t, "ckpt.reset");
        engine.reset();
      }
      for (const std::string& name : p.protect) engine.protect(name);
      {
        Span s(t, "ckpt.attached_run");
        ac::vm::RunOptions ropts;
        ropts.mcl = vm_region(p.region);
        ropts.engine = &engine;
        ropts.fail_at_iteration = fail_at;
        failed = ac::vm::run_module(p.module, ropts);
      }
      {
        Span s(t, "ckpt.flush");
        engine.flush();
      }
      stats = engine.stats();
    }
    if (!failed.failed) throw std::runtime_error("the fail-stop did not fire");

    WallTimer restart;
    ac::vm::RunResult restarted;
    {
      ac::ckpt::CheckpointImage image;
      {
        Span s(t, "ckpt.recover");
        const ac::ckpt::CheckpointEngine engine(cfg);
        image = engine.recover();
      }
      Span s(t, "ckpt.restart_run");
      ac::vm::RunOptions ropts;
      ropts.mcl = vm_region(p.region);
      ropts.restore = &image;
      restarted = ac::vm::run_module(p.module, ropts);
    }
    const bool same = restarted.output == p.reference_output;
    const double recover_ms = restart.seconds() * 1e3;

    pr.records += failed.steps + restarted.steps;
    pr.io_bytes += stats.total_bytes();
    pr.counts["ckpt_bytes"] += stats.total_bytes();
    pr.counts["vm.steps"] += failed.steps + restarted.steps;
    pr.counts["ckpt.checkpoints"] += static_cast<std::uint64_t>(stats.checkpoints);
    pr.counts["ckpt.l1_bytes"] += stats.l1_bytes;
    pr.counts["ckpt.l2_bytes"] += stats.l2_bytes;
    pr.counts["ckpt.l3_bytes"] += stats.l3_bytes;
    pr.counts["ckpt.payload_raw_bytes"] += stats.payload_raw_bytes;
    pr.counts["ckpt.payload_encoded_bytes"] += stats.payload_encoded_bytes;
    pr.gauges["ckpt.async_stalls"] += static_cast<double>(stats.async_stalls);
    if (!same) throw std::runtime_error("restart output differs from the failure-free run");
    return recover_ms;
  }

  ac::ckpt::EngineConfig engine_config(const ac::apps::App& app) const {
    ac::ckpt::EngineConfig cfg;
    cfg.dir = ctx_.work_dir + "/ckpt-local";
    cfg.partner_dir = ctx_.work_dir + "/ckpt-partner";
    cfg.tag = app.name;
    cfg.level = ac::ckpt::EngineLevel::L3;
    cfg.set_codecs(ac::ckpt::CodecChain::parse("xor+rle+lz"));
    cfg.async = true;
    return cfg;
  }

  Context ctx_;
  std::vector<Prepared> apps_;
  Plan plan_;
};

// --- remote -----------------------------------------------------------------

constexpr int kRemoteClients = 2;

class Remote final : public Workload {
 public:
  /// Requests per app per pass, summed over both clients: 14 apps x 8 = 112
  /// requests, so at least ten fall beyond the p90 of a single pass.
  static constexpr int kRequestsPerApp = 8;

  explicit Remote(const Context& ctx) : ctx_(ctx) {}

  /// Start the daemon; trace every app at its default knobs and keep the
  /// records and the local report each request is compared against.
  void setup() override {
    server_.reset();
    const std::vector<AppCase> cases = app_cases();
    traces_.assign(cases.size(), {});
    parallel_for(cases.size(), ctx_.threads, [&](std::size_t i) {
      const AppCase& c = cases[i];
      Trace& tr = traces_[i];
      tr.app = c.app;
      tr.region = c.region;
      ac::trace::BufferSink sink;
      ac::vm::RunOptions ropts;
      ropts.sink = &sink;
      ac::vm::run_module(ac::minic::compile(c.source), ropts);
      tr.trace = sink.take();
      tr.local_json =
          ac::analysis::Session().buffer(tr.copy()).region(c.region).run().to_json(false);
    });
    server_ = std::make_unique<ac::net::Server>(ac::net::ServerOptions{});
    server_->start();
    plan_ = make_plan(ctx_.seed, {static_cast<int>(traces_.size()), {}, kRemoteClients,
                                  kRequestsPerApp});
  }

  PassResult pass(Tracer& t) override {
    PassResult pr;
    WallTimer wall;
    Span pass_span(t, "pass");
    const std::uint64_t served_before = server_->reports_served();
    std::vector<ClientResult> results(plan_.client_requests.size());
    {
      std::vector<std::thread> clients;
      for (std::size_t ci = 0; ci < plan_.client_requests.size(); ++ci) {
        clients.emplace_back([&, ci] {
          run_client(t, pass_span.id(), plan_.client_requests[ci], results[ci]);
        });
      }
      for (std::thread& c : clients) c.join();
    }
    pr.wall_s = wall.seconds();
    last_latencies_.clear();
    for (const ClientResult& r : results) {
      pr.ops += r.ops;
      pr.failed += r.failed;
      pr.records += r.records;
      pr.io_bytes += r.wire_bytes;
      pr.counts["trace.records"] += r.records;
      pr.counts["net.wire_bytes"] += r.wire_bytes;
      for (const auto& [app, ms] : r.latency) {
        pr.op_ms.emplace_back(traces_[static_cast<std::size_t>(app)].app->name, ms);
        last_latencies_.emplace_back(app, ms);
      }
    }
    pr.counts["net.reports_served"] = server_->reports_served() - served_before;
    return pr;
  }

  void layer_metrics(const std::vector<SpanRecord>& spans, int pass, const PassResult& r,
                     Metrics& out) const override {
    out["net.append_s"] = span_seconds(spans, "net.append", pass);
    out["net.report_rtt_s"] = span_seconds(spans, "net.report_rtt", pass);
    copy_counts(r, {"trace.records", "net.wire_bytes", "net.reports_served"}, out);
  }

  /// The local Session time on each app's records, as the base of
  /// net.remote_over_local (median over the last pass's requests).
  void probes(Tracer& t, Metrics& out) override {
    std::vector<double> local_ms;
    for (const Trace& tr : traces_) {
      std::vector<double> samples;
      for (int rep = 0; rep < 5; ++rep) {
        ac::analysis::Session session;
        session.buffer(tr.copy()).region(tr.region);
        samples.push_back(timed(t, "analysis.session_local", [&] { session.run(); }) * 1e3);
      }
      local_ms.push_back(median(samples));
    }
    std::vector<double> ratios;
    for (const auto& [app, ms] : last_latencies_) {
      ratios.push_back(ms / local_ms[static_cast<std::size_t>(app)]);
    }
    if (!ratios.empty()) out["net.remote_over_local"] = median(ratios);
  }

 private:
  struct Trace {
    const ac::apps::App* app = nullptr;
    MclRegion region;
    ac::trace::TraceBuffer trace;
    std::string local_json;

    ac::trace::TraceBuffer copy() const {
      ac::trace::TraceBuffer out;
      out.append_buffer(trace);
      return out;
    }
  };

  struct ClientResult {
    std::uint64_t ops = 0;
    std::uint64_t failed = 0;
    std::uint64_t records = 0;
    std::uint64_t wire_bytes = 0;
    std::vector<std::pair<int, double>> latency;  // (app, ms) per request
  };

  /// One closed-loop client: a fresh connection per request (the daemon
  /// analyses everything a connection streamed, so one trace per connection),
  /// the next request only after the previous report arrived.
  void run_client(Tracer& t, int parent, const std::vector<int>& requests,
                  ClientResult& out) const {
    Span client(t, "client", Track::Yes, parent);
    for (const int app : requests) {
      const Trace& tr = traces_[static_cast<std::size_t>(app)];
      ++out.ops;
      try {
        std::unique_ptr<ac::net::RemoteSink> sink;
        {
          Span s(t, "net.connect");
          sink = std::make_unique<ac::net::RemoteSink>("127.0.0.1", server_->port());
        }
        ac::net::ReportSpec spec;
        spec.region = tr.region;
        spec.with_timings = false;
        WallTimer latency;
        {
          Span s(t, "net.append");
          for (std::size_t i = 0; i < tr.trace.size(); ++i) sink->append(tr.trace.materialize(i));
        }
        std::string json;
        {
          Span s(t, "net.report_rtt");
          json = sink->fetch_report(spec);
        }
        out.latency.emplace_back(app, latency.seconds() * 1e3);
        out.records += tr.trace.size();
        out.wire_bytes += sink->bytes();
        {
          Span s(t, "net.close");
          sink->close();
        }
        if (json != tr.local_json) throw std::runtime_error("remote report differs from local");
      } catch (const std::exception& e) {
        ++out.failed;
        report_failure("remote", tr.app->name, e.what());
      }
    }
  }

  Context ctx_;
  std::vector<Trace> traces_;
  std::unique_ptr<ac::net::Server> server_;
  Plan plan_;
  std::vector<std::pair<int, double>> last_latencies_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name, const Context& ctx) {
  if (name == "identify") return std::make_unique<Identify>(ctx);
  if (name == "reanalyze") return std::make_unique<Reanalyze>(ctx);
  if (name == "checkpoint-restart") return std::make_unique<CheckpointRestart>(ctx);
  if (name == "remote") return std::make_unique<Remote>(ctx);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"minic.compile_s", "s"},
      {"vm.run_traced_s", "s"},
      {"vm.run_untraced_s", "s"},
      {"vm.steps", "count"},
      {"vm.emit_ns_per_record", "ns"},
      {"trace.records", "count"},
      {"trace.mctb_close_s", "s"},
      {"trace.read_s", "s"},
      {"trace.compress_ratio", "ratio"},
      {"trace.text_bytes", "bytes"},
      {"trace.mctb_read_s.t1", "s"},
      {"trace.mctb_read_s.t2", "s"},
      {"trace.mctb_read_s.t4", "s"},
      {"trace.text_read_s.t1", "s"},
      {"trace.text_read_s.t2", "s"},
      {"trace.text_read_s.t4", "s"},
      {"analysis.preprocess_s", "s"},
      {"analysis.dep_s", "s"},
      {"analysis.classify_s", "s"},
      {"analysis.classify_s.t1", "s"},
      {"analysis.classify_s.t2", "s"},
      {"analysis.classify_s.t4", "s"},
      {"analysis.contract_s", "s"},
      {"analysis.events", "count"},
      {"analysis.ddg_nodes", "count"},
      {"analysis.ddg_edges", "count"},
      {"analysis.mli_vars", "count"},
      {"analysis.critical_vars", "count"},
      {"ckpt.attached_run_s", "s"},
      {"ckpt.flush_s", "s"},
      {"ckpt.recover_s", "s"},
      {"ckpt.restart_run_s", "s"},
      {"ckpt.checkpoints", "count"},
      {"ckpt.l1_bytes", "bytes"},
      {"ckpt.l2_bytes", "bytes"},
      {"ckpt.l3_bytes", "bytes"},
      {"ckpt.encode_ratio", "ratio"},
      {"ckpt.async_stalls", "count"},
      {"net.append_s", "s"},
      {"net.report_rtt_s", "s"},
      {"net.wire_bytes", "bytes"},
      {"net.reports_served", "count"},
      {"net.remote_over_local", "ratio"},
      {"peak_rss_mib", "MiB"},
      {"traced_wall_s", "s"},
      {"untimed_s", "s"},
      {"untimed_share", "ratio"},
      {"tracing_overhead_s", "s"},
  };
  return metrics;
}

}  // namespace pipebench
