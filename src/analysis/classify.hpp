// Identification of critical variables (paper §IV-C, Fig. 7).
//
// Per MLI variable, on its element-granular R/W event stream:
//  * a read that consumes a value produced in an *earlier loop iteration* is
//    a stale consumption — the variable cannot be reconstructed by re-running
//    initialization, so it must be checkpointed. The consumption is labelled
//    RAPO when the current iteration had already partially overwritten the
//    array before the read (and the read element is not refreshed by this
//    iteration at all); otherwise WAR.
//  * values produced only by initialization (Part A) are reconstructed by a
//    restart's re-execution of init, so read-only inputs are not critical.
//  * written inside the loop and read after it, with no stale consumption:
//    Outcome.
//  * variables read by the loop-header condition and written inside the loop
//    (for-loop induction via their self-dependent header store, or while-loop
//    control flags): Index — which takes precedence over the dataflow labels,
//    as in the paper's treatment of `it`.
#pragma once

#include <string>
#include <vector>

#include "analysis/depanalysis.hpp"

namespace ac::analysis {

enum class DepType : std::uint8_t { WAR, Outcome, RAPO, Index, NotCritical };

const char* dep_type_name(DepType t);

struct CriticalVar {
  int var_id = -1;
  std::string name;
  DepType type = DepType::NotCritical;
  int decl_line = 0;
  std::uint64_t bytes = 0;
  /// Witness for the verdict, e.g. "value written in iteration 1 is consumed
  /// at line 22 in iteration 2". Empty for NotCritical.
  std::string reason;

  bool operator==(const CriticalVar&) const = default;
};

struct ClassifyResult {
  /// Variables to checkpoint (WAR/RAPO/Outcome/Index), MLI discovery order
  /// with Index-only variables appended.
  std::vector<CriticalVar> critical;
  /// Every MLI variable with its verdict (including NotCritical).
  std::vector<CriticalVar> all_mli;
};

/// The classifier the Session runs (sequential; the variants below are kept
/// for the benchmarks that measure them and do not pay off at this scale).
ClassifyResult classify(const DepResult& dep, const PreprocessResult& pre);

/// Parallel sharded classification: the per-variable event streams are
/// independent (every map the scan keeps is keyed by variable), so the event
/// stream is partitioned per variable into `threads` shards, the shards are
/// scanned concurrently, and the per-variable verdicts are merged back in MLI
/// discovery order. Bit-identical to classify() by construction — same scan
/// per variable, same deterministic assembly. `threads` <= 1 is the
/// sequential path.
///
/// Shards are assigned by event-count balance (LPT over per-variable event
/// totals, see lpt_shard_assignment), and the per-variable event extraction
/// itself fans out onto the same worker pool: each worker sweeps the shared
/// event array once and keeps its own shard's variables, so a skewed app
/// (one hot array) no longer serializes both the extraction and the scan.
ClassifyResult classify_sharded(const DepResult& dep, const PreprocessResult& pre, int threads);

/// Pipelined producer/consumer variant of classify_sharded. Instead of every
/// worker sweeping the whole event array (N full sweeps, then a barrier
/// before scanning), extraction workers sweep disjoint event chunks once,
/// routing each chunk's events to per-shard mailboxes, and the per-shard
/// scanners consume slices in chunk order as they arrive —
/// pass-1 accumulation overlaps extraction; no barrier between the stages.
/// Verdicts are bit-identical to classify() and classify_sharded() by
/// construction (same per-variable two-pass scan over the same in-order
/// stream) and pinned by tests. `threads` <= 1 is the sequential path.
ClassifyResult classify_pipelined(const DepResult& dep, const PreprocessResult& pre, int threads);

/// Longest-processing-time assignment of variables to shards: variables
/// sorted by descending event count (ties by ascending var id) each go to the
/// currently lightest shard (ties to the lowest shard index) — deterministic,
/// and within 4/3 of the optimal makespan. `loads[i]` of the returned
/// assignment is the shard index of `counts[i].first`. Exposed for tests and
/// benchmarks.
///   counts: (var id, event count) pairs; nshards >= 1.
std::vector<int> lpt_shard_assignment(const std::vector<std::pair<int, std::uint64_t>>& counts,
                                      int nshards);

}  // namespace ac::analysis
