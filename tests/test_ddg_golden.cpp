// Complete-DDG pin: for each of the 14 benchmarks at the Table II size, the
// node count, edge count and an FNV-1a hash of the GraphViz export of both the
// complete DDG and its Algorithm 1 contraction must match
// tests/golden/ddg.txt. The report goldens hold only DDG statistics; this pins
// every node label, node kind and edge, in order.
//
// Golden line format (one per app, '#' lines are comments):
//   <app> <complete nodes> <complete edges> <complete dot fnv1a>
//         <contracted nodes> <contracted edges> <contracted dot fnv1a>
// A mismatch prints the recomputed line, which is the replacement when a DDG
// change is intended.
#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <string>

#include "apps/harness.hpp"
#include "support/strings.hpp"
#include "trace/reader.hpp"

namespace ac::apps {
namespace {

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

std::string ddg_fields(const analysis::Ddg& g) {
  return strf("%d %zu 0x%016" PRIx64, g.num_nodes(), g.num_edges(), fnv1a(g.to_dot()));
}

/// The golden line for `app`, or "" when the file has none.
std::string golden_line(const std::string& app) {
  const std::string text = trace::read_file_bytes(std::string(AC_GOLDEN_DIR) + "/ddg.txt");
  for (const std::string_view line : split_view(text, '\n')) {
    if (line.empty() || line.front() == '#') continue;
    if (line.substr(0, line.find(' ')) == app) return std::string(line);
  }
  return "";
}

class DdgGolden : public testing::TestWithParam<std::string> {};

TEST_P(DdgGolden, Table2DdgMatchesGolden) {
  const App& app = find_app(GetParam());
  const AnalysisRun run = analyze_app(app, app.table2_params);
  const std::string line = app.name + " " + ddg_fields(run.report.dep.complete) + " " +
                           ddg_fields(run.report.contracted);
  EXPECT_EQ(line, golden_line(app.name)) << "recomputed: " << line;
}

INSTANTIATE_TEST_SUITE_P(
    All14, DdgGolden,
    testing::Values("Himeno", "HPCCG", "CG", "MG", "FT", "SP", "EP", "IS", "BT", "LU",
                    "CoMD", "miniAMR", "AMG", "HACC"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ac::apps
