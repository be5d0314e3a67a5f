// The analysis pipeline API — the one way to run an analysis.
//
// A Session composes the whole AutoCheck workflow from three pluggable parts:
//
//   TraceSource  -->  analysis pipeline  -->  ReportSink(s)
//   (file, memory,    preprocess -> MLI ->    (text, JSON, DOT,
//    live execution)  dep analysis ->          Protect() emission,
//                     classification)          CheckpointEngine)
//
// Every capability is available from every source: the §V-A parallel trace
// read (AnalysisOptions::threads) and the §IX trace-file-free streaming mode
// (a LiveSource, or SessionStream for callers that push records themselves).
// Classification is always the sequential classify(): it is a few percent of
// an analysis and the sharded variants do not pay for their threads.
//
//   auto report = analysis::Session()
//                     .file("app.trace")
//                     .region(region)
//                     .options({.threads = 4})
//                     .sink(std::make_shared<analysis::JsonSink>(&json_out))
//                     .run();
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/autocheck.hpp"
#include "support/timer.hpp"
#include "trace/source.hpp"

namespace ac::ckpt {
class CheckpointEngine;
}

namespace ac::analysis {

/// Pipeline configuration. An aggregate, so designated initializers work:
/// `options({.threads = 4})`.
struct AnalysisOptions {
  MliMode mli_mode = MliMode::AddressResolved;
  bool build_ddg = true;

  /// Worker budget for the trace read (the §V-A parallel parse / MCTB
  /// decode). 1 = sequential read; the analysis itself always runs on the
  /// calling thread.
  int threads = 1;

  /// Enable the process-wide telemetry layer (support/telemetry.hpp) for this
  /// run: Session::run() turns span recording on before the pipeline and
  /// leaves it on so the caller can export (--profile/--metrics). Off, every
  /// AC_SPAN in the pipeline is a single relaxed atomic load.
  bool telemetry = false;
};

/// Runtime default worker count (hardware concurrency, at least 1).
int default_thread_count();

/// What a sink sees besides the Report itself.
struct SessionContext {
  const MclRegion& region;
  /// The materialized trace in its interned packed form, or nullptr for live
  /// sources. Sinks that need owning TraceRecords can materialize individual
  /// views (trace->materialize(i)).
  const trace::TraceBuffer* trace = nullptr;
  /// TraceSource::describe() of the session's source.
  std::string source_name;
};

/// Consumes a finished Report. Sinks run in registration order after the
/// pipeline completes; they must not mutate the report.
class ReportSink {
 public:
  virtual ~ReportSink() = default;
  virtual void consume(const Report& report, const SessionContext& ctx) = 0;
};

/// Report::render() to a stream or string.
class TextSink final : public ReportSink {
 public:
  explicit TextSink(std::FILE* out = stdout) : out_(out) {}
  explicit TextSink(std::string* capture) : capture_(capture) {}
  void consume(const Report& report, const SessionContext& ctx) override;

 private:
  std::FILE* out_ = nullptr;
  std::string* capture_ = nullptr;
};

/// Report::to_json() to a stream or string.
class JsonSink final : public ReportSink {
 public:
  explicit JsonSink(std::FILE* out = stdout) : out_(out) {}
  explicit JsonSink(std::string* capture) : capture_(capture) {}
  void consume(const Report& report, const SessionContext& ctx) override;

  /// false = omit the timings object (deterministic bytes; see
  /// Report::to_json).
  JsonSink& with_timings(bool on) {
    with_timings_ = on;
    return *this;
  }

 private:
  std::FILE* out_ = nullptr;
  std::string* capture_ = nullptr;
  bool with_timings_ = true;
};

/// Contracted-DDG DOT to a file or string (requires build_ddg).
class DotSink final : public ReportSink {
 public:
  explicit DotSink(std::string path) : path_(std::move(path)) {}
  explicit DotSink(std::string* capture) : capture_(capture) {}
  void consume(const Report& report, const SessionContext& ctx) override;

 private:
  std::string path_;
  std::string* capture_ = nullptr;
};

/// The paper's downstream story: render the CheckpointEngine registration
/// calls (FTI-style Protect()) for every critical variable, with its live
/// arena address and footprint pulled from its last Alloca in the trace.
/// Needs a materialized trace — throws ac::Error on a live source.
class ProtectSink final : public ReportSink {
 public:
  explicit ProtectSink(std::FILE* out = stdout) : out_(out) {}
  explicit ProtectSink(std::string* capture) : capture_(capture) {}
  void consume(const Report& report, const SessionContext& ctx) override;

  /// When set (a ckpt::CodecChain spec, e.g. "xor+rle+lz"), the emitted
  /// snippet also configures the engine's payload codecs. Validate the spec
  /// with CodecChain::parse before handing it over — the sink emits verbatim.
  ProtectSink& codec_spec(std::string spec) {
    codec_spec_ = std::move(spec);
    return *this;
  }

 private:
  std::FILE* out_ = nullptr;
  std::string* capture_ = nullptr;
  std::string codec_spec_;
};

/// Registers the report's critical set directly with a CheckpointEngine
/// (engine.register_report) — the no-serialization path from analysis to C/R.
class EngineSink final : public ReportSink {
 public:
  explicit EngineSink(ckpt::CheckpointEngine& engine) : engine_(&engine) {}
  void consume(const Report& report, const SessionContext& ctx) override;

 private:
  ckpt::CheckpointEngine* engine_;
};

/// Builder-style pipeline driver. Configure a source, a region and options,
/// attach any number of sinks, then run() to get the Report (sinks fire after
/// the pipeline, in registration order).
class Session {
 public:
  Session() = default;

  /// Any TraceSource implementation.
  Session& source(std::shared_ptr<trace::TraceSource> src);
  /// Trace file (serial or parallel zero-copy mmap parse, per options().threads).
  Session& file(const std::string& path);
  /// An interned trace buffer (zero-copy; e.g. from trace::BufferSink). To
  /// analyze one trace several times, share a trace::MemorySource via
  /// source() instead.
  Session& buffer(trace::TraceBuffer&& buf);
  /// Live instrumented execution; the generator is run once per pass.
  Session& live(trace::LiveSource::Generator gen);

  Session& region(MclRegion r);
  /// Scan MiniC source text for the //@mcl-begin / //@mcl-end markers.
  Session& region_from_markers(const std::string& source_text,
                               const std::string& function = "main");

  Session& options(const AnalysisOptions& opts);
  Session& sink(std::shared_ptr<ReportSink> s);

  const std::shared_ptr<trace::TraceSource>& trace_source() const { return source_; }
  const AnalysisOptions& analysis_options() const { return opts_; }

  /// Run the pipeline: read -> preprocess/MLI -> dependency analysis ->
  /// classification -> sinks. A trace::LiveSource runs the two-pass
  /// streaming pipeline; every other source the single-pass one over its
  /// buffer(). Throws ac::Error when no source is set or the region is
  /// invalid.
  Report run();

 private:
  std::shared_ptr<trace::TraceSource> source_;
  MclRegion region_;
  AnalysisOptions opts_;
  std::vector<std::shared_ptr<ReportSink>> sinks_;

  Report run_batch();
  Report run_live(trace::LiveSource& live);
};

/// Push-based incremental session: trace-file-free AutoCheck, the paper's
/// stated future work (§IX). Instead of materializing the dynamic trace, the
/// instrumented execution feeds records straight into the analysis, twice:
///   pass 1 — partition discovery + MLI identification (MliCollector);
///   pass 2 — dependency analysis over the identical re-execution
///            (DepAnalyzer; deterministic programs replay identically).
/// For callers that drive record emission themselves (an instrumented
/// execution that cannot be wrapped in a LiveSource generator); Session's
/// live path is built on this class. Timing attribution is whole-pass wall
/// clock, from a pass's first record to its seal (the driving execution
/// included, caller idle time between passes excluded): preprocessing =
/// pass 1, dep_analysis = pass 2, identify = classification.
class SessionStream {
 public:
  SessionStream(const MclRegion& region, const AnalysisOptions& opts = {});

  /// Pass 1: feed every record of the first execution, then seal it.
  void pass1_add(const trace::TraceRecord& rec);
  void finish_pass1();

  /// Pass 2: feed every record of the (identical) second execution.
  /// Throws if pass 1 was not finished.
  void pass2_add(const trace::TraceRecord& rec);

  /// Classification + DDG contraction; returns the same Report as the batch
  /// pipeline on the materialized trace.
  Report finish();

 private:
  MclRegion region_;
  AnalysisOptions opts_;
  Report report_;
  MliCollector collector_;
  std::unique_ptr<DepAnalyzer> analyzer_;
  WallTimer pass_timer_;  // restarted at each pass's first record
  bool pass_timer_live_ = false;
  double pass1_seconds_ = 0;
  double pass2_seconds_ = 0;
  bool pass1_done_ = false;
};

}  // namespace ac::analysis
