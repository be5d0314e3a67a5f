// Robustness: randomly mutated trace text must never crash the parser or the
// analysis — every malformed input surfaces as a TraceFormatError (or parses
// into records that the analysis handles/reports cleanly). The test is
// differential: the production parser (read_trace_buffer) and the reference
// parser (read_trace_text) must agree on every mutant.
#include <gtest/gtest.h>

#include <typeinfo>

#include "analysis/session.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "trace/reader.hpp"

#include "helpers.hpp"

namespace ac::trace {
namespace {

/// What one parser made of a mutant: the re-rendered text on success, or the
/// dynamic exception type and message of the typed error it raised.
struct ParseOutcome {
  bool threw = false;
  std::string error_type;
  std::string what;
  std::string text;
};

template <typename Parse>
ParseOutcome outcome_of(Parse&& parse) {
  ParseOutcome out;
  try {
    out.text = parse();
  } catch (const ac::Error& e) {
    out.threw = true;
    out.error_type = typeid(e).name();
    out.what = e.what();
  }
  return out;
}

class TraceFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceFuzz, MutatedTraceNeverCrashes) {
  static const std::string base_text = [] {
    auto run = test::run_pipeline(test::fig4_source());
    std::string text;
    for (const auto& r : run.records) text += r.to_text();
    return text;
  }();
  static const analysis::MclRegion region = analysis::find_mcl_region(test::fig4_source());

  SplitMix64 rng(GetParam());
  std::string text = base_text;
  // Apply a handful of random byte edits: overwrite, delete, duplicate.
  const int edits = static_cast<int>(rng.range(1, 8));
  for (int e = 0; e < edits; ++e) {
    if (text.empty()) break;
    const std::size_t pos = rng.below(text.size());
    switch (rng.below(3)) {
      case 0: text[pos] = static_cast<char>(rng.range(32, 126)); break;
      case 1: text.erase(pos, rng.range(1, 20)); break;
      case 2: text.insert(pos, std::string(rng.range(1, 5), ',')); break;
    }
  }

  TraceBuffer buf;
  const ParseOutcome production = outcome_of([&] {
    buf = read_trace_buffer(text);
    std::string out;
    for (std::size_t i = 0; i < buf.size(); ++i) out += buf.view(i).to_text();
    return out;
  });
  const ParseOutcome reference = outcome_of([&] {
    std::string out;
    for (const auto& r : read_trace_text(text)) out += r.to_text();
    return out;
  });
  ASSERT_EQ(production.threw, reference.threw)
      << "production: " << production.what << " | reference: " << reference.what;
  if (production.threw) {
    EXPECT_EQ(production.error_type, reference.error_type);
    EXPECT_EQ(production.what, reference.what);
    return;
  }
  EXPECT_EQ(production.text, reference.text);

  // If it still parses, the analysis must either succeed or throw a typed
  // library error — never crash or hang.
  try {
    auto report = analysis::Session().buffer(std::move(buf)).region(region).run();
    (void)report;
  } catch (const ac::Error&) {
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceFuzz, testing::Range<std::uint64_t>(7000, 7050));

}  // namespace
}  // namespace ac::trace
