// The seeded operation plan: everything the benchmark seed decides. The
// program under test never sees the seed, only the inputs this plan orders.
//
//   app_order        the order a pass visits the 14 apps (identify,
//                    reanalyze, checkpoint-restart);
//   fail_at          per app, the two iterations at which checkpoint-restart
//                    injects a fail-stop: one drawn from the middle third of
//                    the app's main loop, and its mirror image in that window
//                    (an antithetic pair: the two failing runs always write
//                    the same number of checkpoints together, so the work of
//                    a pass does not depend on the seed);
//   client_requests  per remote client, the apps it requests in order. Every
//                    seed gives every client the same multiset (each app
//                    requests_per_app / clients times), so the clients of a
//                    closed loop carry equal work, and the per-pass totals
//                    of every exact count are seed-independent; only the
//                    order changes.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "support/rng.hpp"

namespace pipebench {

struct PlanShape {
  int apps = 0;                 // app indices are 0 .. apps-1
  std::vector<int> iterations;  // per app MCL iterations; empty = no fail_at
  int clients = 0;
  int requests_per_app = 0;     // per pass, summed over all clients
};

struct Plan {
  std::vector<int> app_order;
  std::vector<std::array<int, 2>> fail_at;  // indexed by app, not by position in app_order
  std::vector<std::vector<int>> client_requests;

  bool operator==(const Plan&) const = default;
};

/// A fail-stop pair {k, lo + hi - k} for a loop that runs `iterations` times:
/// k is drawn from the window [lo, hi], the middle third of the loop and
/// never below 2 (a checkpoint must exist before the failure). Throws
/// std::invalid_argument for loops shorter than 2.
std::array<int, 2> fail_iterations(ac::SplitMix64& rng, int iterations);

Plan make_plan(std::uint64_t seed, const PlanShape& shape);

}  // namespace pipebench
