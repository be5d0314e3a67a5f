// The benchmark's four workloads. Each drives the program through the public
// functions of its modules (minic, vm, trace, analysis, ckpt, net) from this
// one process:
//
//   identify            MiniC source -> compile -> traced VM run into an MCTB
//                       file -> FileSource -> analysis -> Table II verdicts.
//   reanalyze           the same traces, written in set-up as text and MCTB
//                       files, read back and analysed; both formats must agree.
//   checkpoint-restart  untraced production runs with a CheckpointEngine (L3,
//                       xor+rle+lz, async) protecting the critical set, a
//                       seeded fail-stop, recover() in a fresh engine, restart,
//                       diff against the failure-free output.
//   remote              an in-process net::Server and a closed loop of two
//                       clients, each streaming app traces through RemoteSink
//                       and fetching the report, diffed against the local one.
//
// Untraced, a pass calls analysis::Session like a user would; traced, the same
// pass calls the layers Session is built from (FileSource::buffer, preprocess,
// dep_analysis, classify, Ddg::contract) one by one inside spans, so the spans
// add up to the pass.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace pipebench {

struct Context {
  std::uint64_t seed = 0;
  std::string work_dir;  // scratch space for trace files and checkpoints
  int threads = 1;       // analysis / read worker budget: min(4, nproc)
};

/// One timed pass over a workload's inputs.
struct PassResult {
  double wall_s = 0;
  /// (operation kind, latency) samples. The kind is the app: the reported
  /// latency percentiles are taken over the per-kind medians of a run, which
  /// a handful of slow samples cannot move.
  std::vector<std::pair<std::string, double>> op_ms;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t records = 0;   // dynamic-instruction records processed
  std::uint64_t io_bytes = 0;  // bytes written, read or shipped
  /// Exact counts that must repeat across passes of one seed.
  std::map<std::string, std::uint64_t> counts;
  /// Per-pass layer numbers that may vary between passes.
  std::map<std::string, double> gauges;
};

using Metrics = std::map<std::string, double>;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build every input a pass needs (repeatable; each call starts over).
  virtual void setup() = 0;

  /// One pass over the inputs, in the seed's order. Spans go to `tracer`
  /// when it is enabled.
  virtual PassResult pass(Tracer& tracer) = 0;

  /// Per-layer metrics of traced pass `pass`, from its spans and result.
  virtual void layer_metrics(const std::vector<SpanRecord>& spans, int pass,
                             const PassResult& result, Metrics& out) const = 0;

  /// Traced runs only, after the passes: layer measurements that are not
  /// part of a pass (thread-count sweeps, untraced reference runs).
  virtual void probes(Tracer& tracer, Metrics& out) = 0;
};

/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name, const Context& ctx);

/// Every per-layer metric name with its unit, in report order. A traced run
/// reports all of them; a layer the workload bypasses reads 0.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

}  // namespace pipebench
