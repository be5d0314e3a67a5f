// Shared helpers for the AutoCheck test suite.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "analysis/session.hpp"
#include "minic/compiler.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

namespace ac::test {

struct PipelineRun {
  ir::Module module;
  /// The emitted records as-is, for SessionStream tests and record inspection.
  std::vector<trace::TraceRecord> records;
  /// The same trace interned — the analysis input.
  trace::TraceBuffer trace;
  vm::RunResult run;
  analysis::Report report;
};

/// Compile MiniC source, execute it under the tracing VM, run AutoCheck.
/// The MCL region comes from //@mcl-begin / //@mcl-end markers.
inline PipelineRun run_pipeline(const std::string& source,
                                const analysis::AnalysisOptions& opts = {}) {
  PipelineRun out;
  out.module = minic::compile(source);
  const analysis::MclRegion region = analysis::find_mcl_region(source);
  trace::MemorySink sink;
  vm::RunOptions ropts;
  ropts.sink = &sink;
  out.run = vm::run_module(out.module, ropts);
  out.records = std::move(sink.records());
  for (const auto& rec : out.records) out.trace.append(rec);
  out.report = analysis::Session()
                   .buffer(trace::TraceBuffer(out.trace))
                   .region(region)
                   .options(opts)
                   .run();
  return out;
}

/// Execute without analysis (for VM-focused tests).
inline vm::RunResult run_source(const std::string& source, trace::TraceSink* sink = nullptr) {
  const ir::Module module = minic::compile(source);
  vm::RunOptions ropts;
  ropts.sink = sink;
  return vm::run_module(module, ropts);
}

/// name -> dependency-type-name map of the identified critical variables.
inline std::map<std::string, std::string> critical_map(const analysis::Report& report) {
  std::map<std::string, std::string> out;
  for (const auto& cv : report.verdicts.critical) {
    out[cv.name] = analysis::dep_type_name(cv.type);
  }
  return out;
}

inline std::vector<std::string> mli_names(const analysis::Report& report) {
  std::vector<std::string> out;
  for (const auto& m : report.pre.mli) out.push_back(m.name);
  return out;
}

}  // namespace ac::test

namespace ac::test {

/// The paper's Fig. 4 example program, MiniC-ported with MCL markers.
/// Expected: MLI = {a, b, sum, s, r}; critical = {r WAR, a RAPO,
/// sum Outcome, it Index} (paper §IV-C).
inline std::string fig4_source() {
  return R"(
void foo(int p[], int q[]) {
  for (int i = 0; i < 10; i = i + 1) {
    q[i] = p[i] * 2;
  }
}
int main() {
  int a[10];
  int b[10];
  int sum = 0;
  int s = 0;
  int r = 1;
  for (int i = 0; i < 10; i = i + 1) {
    a[i] = 0;
    b[i] = 0;
  }
  //@mcl-begin
  for (int it = 0; it < 10; it = it + 1) {
    int m;
    s = it + 1;
    a[it] = s * r;
    foo(a, b);
    r = r + 1;
    m = a[it] + b[it];
    sum = m;
  }
  //@mcl-end
  print_int(sum);
  return 0;
}
)";
}

}  // namespace ac::test
