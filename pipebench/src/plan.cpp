#include "plan.hpp"

#include <algorithm>
#include <stdexcept>

namespace pipebench {

namespace {

// Independent streams per decision, so adding a client does not reshuffle the
// app order of the same seed.
constexpr std::uint64_t kOrderStream = 0x6f72646572ull;
constexpr std::uint64_t kFailStream = 0x6661696cull;
constexpr std::uint64_t kRequestStream = 0x72657173ull;

void shuffle(std::vector<int>& v, ac::SplitMix64& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.below(i))]);
  }
}

}  // namespace

std::array<int, 2> fail_iterations(ac::SplitMix64& rng, int iterations) {
  if (iterations < 2) throw std::invalid_argument("fail_iterations: loop runs fewer than 2 times");
  const int lo = std::max(2, (iterations + 2) / 3);
  const int hi = std::clamp(2 * iterations / 3, lo, iterations);
  const int k = static_cast<int>(rng.range(lo, hi));
  return {k, lo + hi - k};
}

Plan make_plan(std::uint64_t seed, const PlanShape& shape) {
  Plan plan;

  ac::SplitMix64 order_rng(seed ^ kOrderStream);
  for (int a = 0; a < shape.apps; ++a) plan.app_order.push_back(a);
  shuffle(plan.app_order, order_rng);

  ac::SplitMix64 fail_rng(seed ^ kFailStream);
  for (const int n : shape.iterations) plan.fail_at.push_back(fail_iterations(fail_rng, n));

  ac::SplitMix64 request_rng(seed ^ kRequestStream);
  if (shape.clients > 0 && shape.requests_per_app % shape.clients != 0) {
    throw std::invalid_argument("make_plan: requests_per_app must divide among the clients");
  }
  for (int c = 0; c < shape.clients; ++c) {
    std::vector<int> requests;
    for (int a = 0; a < shape.apps; ++a) {
      for (int r = 0; r < shape.requests_per_app / shape.clients; ++r) requests.push_back(a);
    }
    shuffle(requests, request_rng);
    plan.client_requests.push_back(std::move(requests));
  }
  return plan;
}

}  // namespace pipebench
