// Analysis micro/throughput benchmark for the interned trace representation:
// legacy (owning TraceRecord) parse vs the zero-copy TraceBuffer parse
// (serial and parallel), end-to-end analysis on both representations, and
// the sharded classification with LPT event-balanced shards — plus exact
// representation-byte accounting and subprocess peak-RSS probes on the
// largest selected trace.
//
//   bench_micro [--smoke] [--scale N] [--json PATH] [--check BASELINE.json]
//
// --smoke   3-app subset at unit-test knobs (CI); full mode runs all 14
//           mini-apps at their Table II knobs.
// --json    emit the machine-readable BENCH_analysis.json trajectory record
//           (app, bytes, wall-ns, peak-RSS per app).
// --check   regression gate: the parse+classify speedup of the interned path
//           over the legacy path (measured in this same process, so the
//           number is machine-independent) must stay within 25% of the
//           checked-in baseline's. Also gates the MCTB decode (>= 2x the
//           text parse, each side the best of 5 samples of at least 25 ms;
//           subprocess peak RSS of the mmap'd FileSource read <= 70% of a
//           decode from a heap copy of the container, on the largest app's
//           trace grown through App::scaled_params until its raw container
//           crosses 64 MiB, where RSS is signal), the SIMD
//           codec kernels against their forced-scalar references
//           (shuffle/unshuffle >= 1.2x, zigzag >= 0.75x; skipped under
//           AC_NO_SIMD=1 where dispatch is scalar), and bounds the
//           disabled-telemetry cost: per-span price x spans actually
//           executed must stay <= 2% of the parse+classify wall. Exit 1 on
//           regression.
// --profile / --metrics  export the telemetry recorded while benchmarking
//           (Chrome-trace JSON / metrics JSON).
//
// Verdicts are asserted bit-identical between the legacy-records path, the
// buffer path, the MCTB-decoded buffer, and the sharded classifier on every
// measured app.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/session.hpp"
#include "apps/harness.hpp"
#include "minic/compiler.hpp"
#include "support/codec.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"
#include "trace/reader.hpp"
#include "trace/source.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

using namespace ac;

namespace {

long peak_rss_kb() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Heap bytes behind a std::string (libstdc++ SSO buffer is 15 chars).
std::uint64_t string_heap_bytes(const std::string& s) {
  return s.capacity() > 15 ? s.capacity() + 1 : 0;
}

/// Exact resident footprint of the legacy representation.
std::uint64_t legacy_rep_bytes(const std::vector<trace::TraceRecord>& recs) {
  std::uint64_t total = recs.capacity() * sizeof(trace::TraceRecord);
  for (const auto& r : recs) {
    total += string_heap_bytes(r.func) + string_heap_bytes(r.bb);
    total += r.operands.capacity() * sizeof(trace::Operand);
    for (const auto& op : r.operands) total += string_heap_bytes(op.name);
  }
  return total;
}

struct AppBench {
  std::string app;
  std::uint64_t text_bytes = 0;
  std::uint64_t records = 0;
  std::uint64_t operands = 0;
  double legacy_parse_s = 0;
  double buffer_parse_s = 0;
  double parallel_parse_s = 0;
  double legacy_analyze_s = 0;  // intern the legacy records + buffer Session
  double buffer_analyze_s = 0;  // buffer-path Session
  double classify_s = 0;
  double classify_sharded_s = 0;
  double classify_pipelined_s = 0;
  std::uint64_t legacy_bytes = 0;
  std::uint64_t buffer_bytes = 0;
  std::uint64_t mctb_bytes = 0;   // MCTB container size (rle+lz sections)
  double mctb_write_s = 0;        // TraceBuffer -> container serialization
  double mctb_parse_s = 0;        // container -> TraceBuffer, serial
  double mctb_parallel_parse_s = 0;  // same on 4 workers
  std::uint64_t mctb_raw_bytes = 0;  // raw-codec container (the RSS probe file)
  int mctb_rss_scale = 0;            // App::scaled_params scale of that trace
  long rss_legacy_kb = 0;  // only probed on the largest app
  long rss_buffer_kb = 0;
  long rss_mctb_heap_kb = 0;       // decode from a heap copy of the container
  long rss_mctb_streaming_kb = 0;  // FileSource streaming decode (mmap+madvise)

  double speedup() const {
    const double den = buffer_parse_s + buffer_analyze_s;
    return den > 0 ? (legacy_parse_s + legacy_analyze_s) / den : 0;
  }
  /// Binary-vs-text parse speedup (both produce the same TraceBuffer).
  double mctb_parse_speedup() const {
    return mctb_parse_s > 0 ? buffer_parse_s / mctb_parse_s : 0;
  }
};

/// Run `self --rss-probe MODE --trace PATH` and return the child's peak RSS.
/// (/proc/self/exe must be resolved here: inside popen's shell, "self" would
/// be the shell.)
long probe_rss(const char* mode, const std::string& trace_path) {
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return 0;
  exe[n] = '\0';
  const std::string cmd = strf("%s --rss-probe %s --trace %s", exe, mode, trace_path.c_str());
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (!p) return 0;
  char line[128];
  long kb = 0;
  while (std::fgets(line, sizeof(line), p)) {
    std::sscanf(line, "RSS_KB=%ld", &kb);
  }
  ::pclose(p);
  return kb;
}

int rss_probe_main(const std::string& mode, const std::string& path) {
  if (mode == "legacy") {
    const auto recs = trace::read_trace_file(path);
    std::printf("RSS_KB=%ld RECORDS=%zu\n", peak_rss_kb(), recs.size());
  } else if (mode == "mctb-heap") {
    // The materializing pipeline: the whole container in a heap string, then
    // the decode.
    const std::string bytes = trace::read_file_bytes(path);
    const trace::TraceBuffer buf = trace::read_mctb(bytes, 1);
    std::printf("RSS_KB=%ld RECORDS=%zu\n", peak_rss_kb(), buf.size());
  } else if (mode == "mctb-streaming") {
    // The FileSource read: mmap'd container, consumed pages madvised away
    // behind the in-order frontier.
    trace::FileSource src(path);
    const auto& buf = src.buffer();
    std::printf("RSS_KB=%ld RECORDS=%zu\n", peak_rss_kb(), buf.size());
  } else {
    trace::FileSource src(path);
    const auto& buf = src.buffer();
    std::printf("RSS_KB=%ld RECORDS=%zu\n", peak_rss_kb(), buf.size());
  }
  return 0;
}

/// Per-call seconds of `fn` for a ratio gate: each of 5 samples repeats `fn`
/// until it lasts at least 25 ms (the repeat count is calibrated on one
/// warm-up call), and the fastest sample wins — so a gate never compares
/// one-shot millisecond samples that a busy runner can flap.
template <class Fn>
double gated_seconds(Fn&& fn) {
  constexpr double kMinSampleSeconds = 0.025;
  constexpr int kSamples = 5;
  WallTimer warm;
  fn();
  const double once = std::max(warm.seconds(), 1e-9);
  const int reps = std::max(1, static_cast<int>(std::ceil(kMinSampleSeconds / once)));
  double best = 0;
  for (int s = 0; s < kSamples; ++s) {
    WallTimer t;
    for (int r = 0; r < reps; ++r) fn();
    const double per_call = t.seconds() / reps;
    if (s == 0 || per_call < best) best = per_call;
  }
  return best;
}

bool verdicts_equal(const analysis::Report& a, const analysis::Report& b) {
  return a.verdicts.critical == b.verdicts.critical && a.verdicts.all_mli == b.verdicts.all_mli;
}

AppBench bench_app(const apps::App& app, const apps::Params& params, bool probe_largest) {
  AppBench out;
  out.app = app.name;

  // Trace generation (VM) — excluded from every measurement.
  trace::MemorySink sink;
  const ir::Module module = minic::compile(app.source(params));
  vm::RunOptions ropts;
  ropts.sink = &sink;
  vm::run_module(module, ropts);
  const std::vector<trace::TraceRecord> records = std::move(sink.records());
  std::string text;
  for (const auto& r : records) text += r.to_text();
  out.text_bytes = text.size();
  const analysis::MclRegion region = app.mcl();

  // Small traces are measured best-of-3 so the CI regression gate compares
  // stable numbers, not one-shot millisecond samples on a noisy runner.
  const int reps = text.size() < (8u << 20) ? 3 : 1;
  auto best_of = [reps](auto&& fn) {
    double best = 0;
    for (int r = 0; r < reps; ++r) {
      WallTimer t;
      fn();
      const double s = t.seconds();
      if (r == 0 || s < best) best = s;
    }
    return best;
  };

  // Parse: legacy owning records vs zero-copy interned buffer. The legacy
  // representation (~1 GiB on CoMD) is measured, analyzed and released before
  // the interned/MCTB measurements run, so those aren't timed under the
  // legacy path's memory pressure.
  analysis::AnalysisOptions opts;
  opts.build_ddg = false;
  analysis::Report legacy_report;
  {
    std::vector<trace::TraceRecord> legacy_recs;
    out.legacy_parse_s = best_of([&] { legacy_recs = trace::read_trace_text(text); });
    out.legacy_bytes = legacy_rep_bytes(legacy_recs);
    // End-to-end analysis starting from the legacy records: intern them into
    // a fresh buffer per repetition, then run the buffer Session.
    out.legacy_analyze_s = best_of([&] {
      std::size_t operand_total = 0;
      for (const auto& rec : legacy_recs) operand_total += rec.operands.size();
      trace::TraceBuffer interned;
      interned.reserve(legacy_recs.size(), operand_total);
      for (const auto& rec : legacy_recs) interned.append(rec);
      legacy_report =
          analysis::Session().buffer(std::move(interned)).region(region).options(opts).run();
    });
  }

  // Both sides of the MCTB-vs-text gate are timed by gated_seconds.
  trace::TraceBuffer buf;
  out.buffer_parse_s = gated_seconds([&] { buf = trace::read_trace_buffer(text); });
  out.buffer_bytes = buf.byte_size();
  out.records = buf.size();
  out.operands = buf.operands().size();

  trace::TraceBuffer par_buf;
  out.parallel_parse_s = best_of([&] { par_buf = trace::read_trace_buffer_parallel(text, 4); });

  // MCTB container: serialize once per rep (timed), then decode serial and on
  // 4 workers. The decoded buffer must replay to the exact text bytes.
  std::string mctb;
  out.mctb_write_s = best_of([&] { mctb = trace::mctb_to_bytes(buf); });
  out.mctb_bytes = mctb.size();
  trace::TraceBuffer mctb_buf;
  out.mctb_parse_s = gated_seconds([&] { mctb_buf = trace::read_mctb(mctb, 1); });
  out.mctb_parallel_parse_s = gated_seconds([&] { mctb_buf = trace::read_mctb(mctb, 4); });
  if (mctb_buf.size() != buf.size() || mctb_buf.operands().size() != buf.operands().size()) {
    std::fprintf(stderr, "bench_micro: MCTB round-trip SIZE MISMATCH on %s\n", app.name.c_str());
    std::exit(1);
  }

  // One Session per repetition over the same borrowed buffer source so the
  // parse isn't re-paid inside the analyze measurement.
  auto source = std::make_shared<trace::MemorySource>(std::move(par_buf));
  source->buffer();  // materialize outside the timed region
  analysis::Report buffer_report;
  out.buffer_analyze_s = best_of([&] {
    buffer_report = analysis::Session().source(source).region(region).options(opts).run();
  });

  // Classification alone, sequential vs LPT-sharded on 4 workers.
  auto pre = analysis::preprocess(buf, region);
  analysis::DepOptions dopts;
  dopts.build_ddg = false;
  auto dep = analysis::dep_analysis(buf, pre, region, dopts);
  analysis::ClassifyResult seq_verdicts, shard_verdicts, pipe_verdicts;
  out.classify_s = best_of([&] { seq_verdicts = analysis::classify(dep, pre); });
  out.classify_sharded_s =
      best_of([&] { shard_verdicts = analysis::classify_sharded(dep, pre, 4); });
  out.classify_pipelined_s =
      best_of([&] { pipe_verdicts = analysis::classify_pipelined(dep, pre, 4); });

  // The MCTB-decoded buffer must produce bit-identical verdicts too.
  analysis::Report mctb_report =
      analysis::Session().buffer(std::move(mctb_buf)).region(region).options(opts).run();

  if (!verdicts_equal(legacy_report, buffer_report) ||
      !verdicts_equal(buffer_report, mctb_report) ||
      seq_verdicts.critical != shard_verdicts.critical ||
      seq_verdicts.all_mli != shard_verdicts.all_mli ||
      seq_verdicts.critical != pipe_verdicts.critical ||
      seq_verdicts.all_mli != pipe_verdicts.all_mli) {
    std::fprintf(stderr, "bench_micro: VERDICT MISMATCH on %s\n", app.name.c_str());
    std::exit(1);
  }

  if (probe_largest) {
    const std::string path = "/tmp/ac_bench_micro_" + app.name + ".trace";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
      out.rss_legacy_kb = probe_rss("legacy", path);
      out.rss_buffer_kb = probe_rss("buffer", path);
      std::remove(path.c_str());
    }
  }
  return out;
}

/// Below this raw container size the probe child's fixed overhead (runtime,
/// code, symbol pool) drowns the materialization tax and the RSS ratio is
/// noise.
constexpr std::uint64_t kRssSignalBytes = 64u << 20;

/// Decode-side MCTB RSS probes on `app`'s trace, grown through
/// App::scaled_params from `base` until its raw-codec container crosses
/// kRssSignalBytes. Raw codec is the documented fastest-parse configuration:
/// under rle+lz the file is 10-60x smaller than the decoded arrays, so holding
/// it in memory costs almost nothing and the probe would measure noise
/// instead of the materialization tax.
void probe_streaming_rss(const apps::App& app, const apps::Params& base, AppBench& out) {
  constexpr int kMaxScale = 32;
  const std::string path = "/tmp/ac_bench_micro_" + app.name + ".mctb";
  try {
    trace::MctbOptions raw_opts;
    raw_opts.codec = CodecChain{};
    int scale = 1;
    for (;;) {
      trace::BufferSink sink;
      vm::RunOptions ropts;
      ropts.sink = &sink;
      vm::run_module(minic::compile(app.source(app.scaled_params(base, scale))), ropts);
      out.mctb_raw_bytes = trace::write_mctb_file(sink.buffer(), path, raw_opts);
      out.mctb_rss_scale = scale;
      if (out.mctb_raw_bytes >= kRssSignalBytes || scale >= kMaxScale) break;
      // Containers grow about linearly with the scale; aim 10% past the floor.
      const double want = 1.1 * static_cast<double>(kRssSignalBytes) * scale /
                          static_cast<double>(std::max<std::uint64_t>(out.mctb_raw_bytes, 1));
      scale = std::min(kMaxScale, std::max(scale + 1, static_cast<int>(std::ceil(want))));
    }
    out.rss_mctb_heap_kb = probe_rss("mctb-heap", path);
    out.rss_mctb_streaming_kb = probe_rss("mctb-streaming", path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_micro: mctb rss probe failed: %s\n", e.what());
  }
  std::remove(path.c_str());
}

void app_json(JsonWriter& w, const AppBench& r) {
  // Nanosecond walls keep the historical "%.0f" BENCH number format; the
  // same-process ratios stay "%.3f".
  w.begin_object();
  w.field("app", r.app);
  w.field("text_bytes", r.text_bytes);
  w.field("records", r.records);
  w.field("operands", r.operands);
  w.raw_field("legacy_parse_ns", strf("%.0f", r.legacy_parse_s * 1e9));
  w.raw_field("buffer_parse_ns", strf("%.0f", r.buffer_parse_s * 1e9));
  w.raw_field("parallel_parse_ns", strf("%.0f", r.parallel_parse_s * 1e9));
  w.field("mctb_bytes", r.mctb_bytes);
  w.raw_field("mctb_write_ns", strf("%.0f", r.mctb_write_s * 1e9));
  w.raw_field("mctb_parse_ns", strf("%.0f", r.mctb_parse_s * 1e9));
  w.raw_field("mctb_parallel_parse_ns", strf("%.0f", r.mctb_parallel_parse_s * 1e9));
  w.raw_field("speedup_mctb_parse", strf("%.3f", r.mctb_parse_speedup()));
  w.raw_field("legacy_analyze_ns", strf("%.0f", r.legacy_analyze_s * 1e9));
  w.raw_field("buffer_analyze_ns", strf("%.0f", r.buffer_analyze_s * 1e9));
  w.raw_field("classify_ns", strf("%.0f", r.classify_s * 1e9));
  w.raw_field("classify_sharded_ns", strf("%.0f", r.classify_sharded_s * 1e9));
  w.raw_field("classify_pipelined_ns", strf("%.0f", r.classify_pipelined_s * 1e9));
  w.field("legacy_rep_bytes", r.legacy_bytes);
  w.field("buffer_rep_bytes", r.buffer_bytes);
  w.field("peak_rss_legacy_kb", r.rss_legacy_kb);
  w.field("peak_rss_buffer_kb", r.rss_buffer_kb);
  w.field("mctb_raw_bytes", r.mctb_raw_bytes);
  w.field("mctb_rss_scale", r.mctb_rss_scale);
  w.field("peak_rss_mctb_heap_kb", r.rss_mctb_heap_kb);
  w.field("peak_rss_mctb_streaming_kb", r.rss_mctb_streaming_kb);
  w.raw_field("wall_ns", strf("%.0f", (r.buffer_parse_s + r.buffer_analyze_s) * 1e9));
  w.raw_field("speedup_parse_classify", strf("%.3f", r.speedup()));
  w.end_object();
}

struct KernelBench;
void kernel_json(JsonWriter& w, const KernelBench& kb);

std::string to_json(const std::vector<std::pair<int, std::vector<AppBench>>>& groups,
                    const KernelBench& kernels) {
  std::string out;
  JsonWriter w(&out);
  w.begin_object();
  w.field("bench", "analysis");
  kernel_json(w, kernels);
  if (groups.size() == 1) {
    // Single-scale mode keeps the historical shape (the --check baseline and
    // external consumers parse it).
    w.field("scale", groups[0].first);
    w.key("apps").begin_array();
    for (const auto& r : groups[0].second) app_json(w, r);
    w.end_array();
  } else {
    // --scale sweep: one entry per scale, tracking the linearity curve.
    w.key("scales").begin_array();
    for (const auto& [sc, results] : groups) {
      w.begin_object();
      w.field("scale", sc);
      w.key("apps").begin_array();
      for (const auto& r : results) app_json(w, r);
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  out += '\n';
  return out;
}

/// Minimal extraction of "speedup_parse_classify" per app from a baseline
/// JSON produced by --json (no general JSON parser needed for our own file).
double baseline_speedup(const std::string& json, const std::string& app) {
  const std::string needle = "\"app\": \"" + app + "\"";
  const std::size_t at = json.find(needle);
  if (at == std::string::npos) return 0;
  const std::string key = "\"speedup_parse_classify\": ";
  const std::size_t kat = json.find(key, at);
  if (kat == std::string::npos) return 0;
  return std::atof(json.c_str() + kat + key.size());
}

/// Disabled-telemetry overhead gate: the documented contract is that with
/// telemetry off every AC_SPAN costs one relaxed atomic load. This bounds the
/// aggregate: (per-span disabled cost) x (spans the parse+classify path
/// actually executes) must stay <= 2% of that path's wall time. Resets the
/// process-wide telemetry state — run it after any --profile/--metrics export.
bool telemetry_overhead_ok(const apps::App& app, const apps::Params& params) {
  // Per-span disabled price on this machine, amortized over 1M probes. The
  // empty asm keeps the loop from being collapsed around the dead span.
  auto& tel = telemetry::telemetry();
  tel.disable();
  constexpr int kProbes = 1 << 20;
  WallTimer probe;
  for (int i = 0; i < kProbes; ++i) {
    AC_SPAN("bench.overhead_probe");
    asm volatile("" ::: "memory");
  }
  const double span_cost_s = probe.seconds() / kProbes;

  // Trace once (untimed), then run the instrumented parse+classify path
  // twice: enabled to count the spans it emits, disabled to time it.
  trace::MemorySink sink;
  const ir::Module module = minic::compile(app.source(params));
  vm::RunOptions ropts;
  ropts.sink = &sink;
  vm::run_module(module, ropts);
  std::string text;
  for (const auto& r : sink.records()) text += r.to_text();
  const analysis::MclRegion region = app.mcl();

  const auto parse_classify = [&] {
    trace::TraceBuffer buf = trace::read_trace_buffer_parallel(text, 4);
    auto pre = analysis::preprocess(buf, region);
    analysis::DepOptions dopts;
    dopts.build_ddg = false;
    auto dep = analysis::dep_analysis(buf, pre, region, dopts);
    (void)analysis::classify_sharded(dep, pre, 4);
  };

  tel.reset();
  tel.enable();
  parse_classify();
  tel.disable();
  const std::uint64_t spans = tel.collect().size() + tel.dropped();
  tel.reset();

  WallTimer wall;
  parse_classify();
  const double base_s = wall.seconds();

  const double overhead = base_s > 0 ? span_cost_s * (double)spans / base_s : 0;
  const bool ok = overhead <= 0.02;
  std::printf("check telemetry  disabled span %.1f ns x %llu spans / %.3fs parse+classify "
              "= %.4f%% -> %s\n",
              span_cost_s * 1e9, (unsigned long long)spans, base_s, overhead * 100,
              ok ? "ok" : "OVER 2% BUDGET");
  return ok;
}

/// SIMD codec kernel speedups over the forced-scalar references (dispatched
/// call vs the `scalar::` variant, same process, same buffer — machine-
/// independent ratios like the other gates).
struct KernelBench {
  const char* level = "scalar";
  double shuffle_x = 0;
  double unshuffle_x = 0;
  double zigzag_enc_x = 0;
  double zigzag_dec_x = 0;
};

KernelBench bench_kernels() {
  KernelBench out;
  out.level = simd_level_name(active_simd_level());

  // MCTB-shaped inputs: an 8 MiB stride-8 column slab for the plane shuffle,
  // a near-monotone dyn_id stream for zigzag-delta.
  constexpr std::size_t kElems = 1u << 20;
  SplitMix64 rng(42);
  std::string plain(kElems * 8, '\0');
  for (auto& ch : plain) ch = static_cast<char>(rng.next());
  std::vector<std::uint64_t> ids(kElems);
  std::uint64_t cur = 0;
  for (auto& v : ids) {
    cur += rng.below(1u << 12);
    v = cur;
  }

  auto best_of = [](auto&& fn) {
    double best = 0;
    for (int r = 0; r < 5; ++r) {
      WallTimer t;
      fn();
      const double s = t.seconds();
      if (r == 0 || s < best) best = s;
    }
    return best;
  };

  std::string shuffled, shuffled_ref;
  const double shuf = best_of([&] { shuffled = shuffle_planes(plain.data(), kElems, 8); });
  const double shuf_ref =
      best_of([&] { shuffled_ref = scalar::shuffle_planes(plain.data(), kElems, 8); });
  std::string back(plain.size(), '\0');
  const double unshuf = best_of([&] { unshuffle_planes(shuffled, kElems, 8, back.data()); });
  const bool shuffle_ok = shuffled == shuffled_ref && back == plain;
  const double unshuf_ref =
      best_of([&] { scalar::unshuffle_planes(shuffled, kElems, 8, back.data()); });

  std::vector<std::uint64_t> work;
  double enc = 0, dec = 0, enc_ref = 0, dec_ref = 0;
  for (int r = 0; r < 5; ++r) {
    work = ids;
    WallTimer te;
    zigzag_delta_encode(work.data(), kElems);
    const double e = te.seconds();
    WallTimer td;
    zigzag_delta_decode(work.data(), kElems);
    const double d = td.seconds();
    if (r == 0 || e < enc) enc = e;
    if (r == 0 || d < dec) dec = d;
  }
  const bool zigzag_ok = work == ids;
  for (int r = 0; r < 5; ++r) {
    work = ids;
    WallTimer te;
    scalar::zigzag_delta_encode(work.data(), kElems);
    const double e = te.seconds();
    WallTimer td;
    scalar::zigzag_delta_decode(work.data(), kElems);
    const double d = td.seconds();
    if (r == 0 || e < enc_ref) enc_ref = e;
    if (r == 0 || d < dec_ref) dec_ref = d;
  }
  if (!shuffle_ok || !zigzag_ok || work != ids) {
    std::fprintf(stderr, "bench_micro: SIMD KERNEL MISMATCH vs scalar reference\n");
    std::exit(1);
  }

  out.shuffle_x = shuf > 0 ? shuf_ref / shuf : 0;
  out.unshuffle_x = unshuf > 0 ? unshuf_ref / unshuf : 0;
  out.zigzag_enc_x = enc > 0 ? enc_ref / enc : 0;
  out.zigzag_dec_x = dec > 0 ? dec_ref / dec : 0;
  return out;
}

void kernel_json(JsonWriter& w, const KernelBench& kb) {
  w.key("simd").begin_object();
  w.field("level", kb.level);
  w.raw_field("shuffle_x", strf("%.3f", kb.shuffle_x));
  w.raw_field("unshuffle_x", strf("%.3f", kb.unshuffle_x));
  w.raw_field("zigzag_encode_x", strf("%.3f", kb.zigzag_enc_x));
  w.raw_field("zigzag_decode_x", strf("%.3f", kb.zigzag_dec_x));
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool sweep = false;
  int scale = 1;
  std::string json_path, check_path, probe_mode, probe_trace;
  std::string profile_path, metrics_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_micro: missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--scale") {
      scale = std::atoi(next());
      if (scale < 1) scale = 1;
    } else if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--check") {
      check_path = next();
    } else if (arg == "--rss-probe") {
      probe_mode = next();
    } else if (arg == "--trace") {
      probe_trace = next();
    } else if (arg == "--profile") {
      profile_path = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: bench_micro [--smoke] [--scale N | --sweep] [--json PATH] "
                   "[--check BASELINE] [--profile TRACE.json] [--metrics METRICS.json]\n");
      return 2;
    }
  }
  if (!probe_mode.empty()) return rss_probe_main(probe_mode, probe_trace);
  if (!profile_path.empty() || !metrics_path.empty()) telemetry::telemetry().enable();
  if (sweep && !check_path.empty()) {
    // The baseline is measured at a single scale; silently gating only one
    // sweep group would imply coverage the check doesn't have.
    std::fprintf(stderr, "bench_micro: --check cannot be combined with --sweep\n");
    return 2;
  }

  std::printf("=== bench_micro: legacy vs interned vs MCTB trace representation%s ===\n\n",
              smoke ? " (smoke subset)" : "");

  // --sweep: the linearity-curve profile, one result group per scale.
  std::vector<int> scales = sweep ? std::vector<int>{1, 2, 4} : std::vector<int>{scale};
  std::vector<std::pair<int, std::vector<AppBench>>> groups;
  for (const int sc : scales) {
    std::vector<std::pair<apps::App, apps::Params>> suite;
    for (const auto& app : apps::registry()) {
      if (smoke && app.name != "CG" && app.name != "IS" && app.name != "HACC") continue;
      const apps::Params base = smoke ? app.default_params : app.table2_params;
      suite.emplace_back(app, app.scaled_params(base, sc));
    }

    // Probe peak RSS on the app with the largest trace (measured text size is
    // not known up front; use the last run's sizes by benchmarking in two
    // passes: everything first, then re-run the largest with probes). The
    // subprocess probes are skipped in sweep mode — the curve tracks wall
    // time, and re-running the largest app per scale would double the cost.
    std::vector<AppBench> results;
    for (const auto& [app, params] : suite) {
      results.push_back(bench_app(app, params, /*probe_largest=*/false));
    }
    std::size_t largest = 0;
    for (std::size_t i = 1; i < results.size(); ++i) {
      if (results[i].text_bytes > results[largest].text_bytes) largest = i;
    }
    if (!sweep) {
      results[largest] = bench_app(suite[largest].first, suite[largest].second,
                                   /*probe_largest=*/true);
      probe_streaming_rss(suite[largest].first, suite[largest].second, results[largest]);
    }

    if (sweep) std::printf("--- scale %d ---\n", sc);
    TextTable table({"App", "Trace", "MCTB", "Records", "Parse(legacy)", "Parse(buf)",
                     "Parse(mctb)", "MCTB speedup", "Analyze(buf)", "Speedup", "Rep ratio"});
    for (const auto& r : results) {
      table.add_row({r.app, human_bytes(r.text_bytes), human_bytes(r.mctb_bytes),
                     strf("%llu", (unsigned long long)r.records),
                     strf("%.3fs", r.legacy_parse_s), strf("%.3fs", r.buffer_parse_s),
                     strf("%.3fs", r.mctb_parse_s),
                     strf("%.1fx", r.mctb_parse_speedup()),
                     strf("%.3fs", r.buffer_analyze_s), strf("%.2fx", r.speedup()),
                     strf("%.1fx", r.buffer_bytes
                                       ? (double)r.legacy_bytes / (double)r.buffer_bytes
                                       : 0.0)});
    }
    std::printf("%s\n", table.render().c_str());

    const AppBench& big = results[largest];
    if (!sweep) {
      std::printf("Largest trace: %s (%s text, %s MCTB, %.1fx smaller on disk). "
                  "Peak RSS parsing it in a fresh process:\n"
                  "  legacy representation %s, interned buffer %s (%.1fx lower)\n",
                  big.app.c_str(), human_bytes(big.text_bytes).c_str(),
                  human_bytes(big.mctb_bytes).c_str(),
                  big.mctb_bytes ? (double)big.text_bytes / (double)big.mctb_bytes : 0.0,
                  human_bytes((std::uint64_t)big.rss_legacy_kb * 1024).c_str(),
                  human_bytes((std::uint64_t)big.rss_buffer_kb * 1024).c_str(),
                  big.rss_buffer_kb ? (double)big.rss_legacy_kb / (double)big.rss_buffer_kb
                                    : 0.0);
      if (big.rss_mctb_heap_kb > 0) {
        std::printf("MCTB decode of the same app at scale %d (raw-codec container, %s): "
                    "from a heap copy %s, mmap'd FileSource %s (%.0f%% lower)\n",
                    big.mctb_rss_scale, human_bytes(big.mctb_raw_bytes).c_str(),
                    human_bytes((std::uint64_t)big.rss_mctb_heap_kb * 1024).c_str(),
                    human_bytes((std::uint64_t)big.rss_mctb_streaming_kb * 1024).c_str(),
                    100.0 * (1.0 - (double)big.rss_mctb_streaming_kb /
                                       (double)big.rss_mctb_heap_kb));
      }
    }
    std::printf("Classify sequential %.4fs vs LPT-sharded(4) %.4fs vs pipelined(4) %.4fs "
                "on %s\n\n", big.classify_s, big.classify_sharded_s, big.classify_pipelined_s,
                big.app.c_str());
    groups.emplace_back(sc, std::move(results));
  }
  const std::vector<AppBench>& results = groups[0].second;

  // Codec kernel dispatch vs forced scalar (honours AC_NO_SIMD: under it the
  // dispatched call IS the scalar reference and every ratio sits near 1.0x).
  const KernelBench kernels = bench_kernels();
  std::printf("SIMD codec kernels (%s dispatch): shuffle %.1fx, unshuffle %.1fx, "
              "zigzag enc %.1fx / dec %.1fx vs scalar on 8 MiB stride-8 columns\n\n",
              kernels.level, kernels.shuffle_x, kernels.unshuffle_x, kernels.zigzag_enc_x,
              kernels.zigzag_dec_x);

  if (!json_path.empty()) {
    const std::string json = to_json(groups, kernels);
    std::FILE* f = std::fopen(json_path.c_str(), "wb");
    if (!f) {
      std::fprintf(stderr, "bench_micro: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Export before --check: the overhead gate resets the telemetry state.
  if (!profile_path.empty()) {
    telemetry::telemetry().write_chrome_trace(profile_path);
    std::printf("telemetry profile written to %s\n", profile_path.c_str());
  }
  if (!metrics_path.empty()) {
    telemetry::metrics().write_json(metrics_path);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }

  if (!check_path.empty()) {
    std::string baseline;
    try {
      baseline = trace::read_file_bytes(check_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_micro: cannot read baseline: %s\n", e.what());
      return 1;
    }
    int checked = 0;
    bool regressed = false;
    for (const auto& r : results) {
      const double want = baseline_speedup(baseline, r.app);
      if (want <= 0) continue;
      ++checked;
      // The speedup is a same-process ratio, so it transfers across machines;
      // >25% of it lost means the interned parse+classify path regressed.
      const bool bad = r.speedup() < 0.75 * want;
      std::printf("check %-8s speedup %.2fx vs baseline %.2fx -> %s\n", r.app.c_str(),
                  r.speedup(), want, bad ? "REGRESSED" : "ok");
      regressed = regressed || bad;
    }
    if (checked == 0) {
      std::fprintf(stderr, "bench_micro: baseline has no overlapping apps\n");
      return 1;
    }
    // The binary-format gate: the whole point of MCTB is that parse stops
    // being text decoding, so its decode must beat the zero-copy text parse
    // by >=2x on every measured app (another same-process ratio).
    for (const auto& r : results) {
      const bool bad = r.mctb_parse_speedup() < 2.0;
      std::printf("check %-8s mctb parse %.2fx text parse -> %s\n", r.app.c_str(),
                  r.mctb_parse_speedup(), bad ? "TOO SLOW (< 2x)" : "ok");
      regressed = regressed || bad;
    }
    // Streaming-read RSS gate: on the probed (largest) app, the mmap'd
    // FileSource read must cut decode-side peak RSS by >= 30% against a
    // decode from a heap copy of the container — the zero-materialization
    // claim — once the container is large enough for RSS to be signal.
    for (const auto& r : results) {
      if (r.rss_mctb_heap_kb <= 0) continue;  // not the probed app
      if (r.mctb_raw_bytes < kRssSignalBytes) {
        std::printf("check %-8s mctb streaming rss skipped (container %s < 64 MiB at "
                    "scale %d)\n",
                    r.app.c_str(), human_bytes(r.mctb_raw_bytes).c_str(), r.mctb_rss_scale);
        continue;
      }
      const double ratio = (double)r.rss_mctb_streaming_kb / (double)r.rss_mctb_heap_kb;
      const bool bad = ratio > 0.70;
      std::printf("check %-8s mctb streaming rss %.0f%% of heap decode -> %s\n", r.app.c_str(),
                  ratio * 100, bad ? "TOO HIGH (> 70%)" : "ok");
      regressed = regressed || bad;
    }
    // SIMD kernel gates. The shuffle pair must actually pay for its intrinsic
    // complexity (>= 1.2x scalar); zigzag only has to not regress below the
    // auto-vectorized scalar loop (>= 0.75x — GCC vectorizes the encode).
    // Skipped when dispatch resolves to scalar (AC_NO_SIMD=1 or a CPU without
    // SSSE3): there the kernels ARE the scalar reference and a ratio gate
    // would only measure noise.
    if (active_simd_level() != SimdLevel::Scalar) {
      const struct {
        const char* name;
        double got;
        double floor;
      } simd_gates[] = {{"shuffle", kernels.shuffle_x, 1.2},
                        {"unshuffle", kernels.unshuffle_x, 1.2},
                        {"zigzag-enc", kernels.zigzag_enc_x, 0.75},
                        {"zigzag-dec", kernels.zigzag_dec_x, 0.75}};
      for (const auto& g : simd_gates) {
        const bool bad = g.got < g.floor;
        std::printf("check simd %-12s %.2fx scalar (floor %.2fx, %s) -> %s\n", g.name, g.got,
                    g.floor, kernels.level, bad ? "TOO SLOW" : "ok");
        regressed = regressed || bad;
      }
    } else {
      std::printf("check simd     skipped: scalar dispatch (AC_NO_SIMD or no SIMD CPU)\n");
    }
    // Telemetry overhead gate on the largest measured app (re-traced in the
    // gate; safe here because the --profile/--metrics export already ran).
    std::size_t biggest = 0;
    for (std::size_t i = 1; i < results.size(); ++i) {
      if (results[i].text_bytes > results[biggest].text_bytes) biggest = i;
    }
    for (const auto& app : apps::registry()) {
      if (app.name != results[biggest].app) continue;
      const apps::Params base = smoke ? app.default_params : app.table2_params;
      if (!telemetry_overhead_ok(app, app.scaled_params(base, groups[0].first))) {
        regressed = true;
      }
    }
    if (regressed) {
      std::printf("FAIL: parse+classify regressed >25%% against %s, MCTB parse fell "
                  "under 2x text parse, the streaming MCTB read's peak RSS exceeded 70%% "
                  "of the heap decode, a SIMD kernel fell under its scalar floor, or "
                  "disabled telemetry cost exceeded 2%%\n",
                  check_path.c_str());
      return 1;
    }
    std::printf("parse+classify speedup within 25%% of baseline, MCTB parse >= 2x text "
                "parse, streaming read within its RSS floor, SIMD kernels at/above "
                "scalar floors, disabled telemetry <= 2%% (%d app(s) checked)\n", checked);
  }
  return 0;
}
