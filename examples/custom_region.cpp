// §VII "Use of AutoCheck": the analysis applies to *any* block of
// continuously executed code, not just the main computation loop — given its
// start and end line numbers. This example runs AutoCheck twice on a program
// with two phases, showing that each loop gets its own (different) checkpoint
// set.
//
// Build & run:  ./examples/custom_region
#include <cstdio>

#include "analysis/session.hpp"
#include "minic/compiler.hpp"
#include "trace/source.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

int main() {
  // Two computation phases: a relaxation loop over `field` (lines 8-13) and
  // a reduction loop over `total`/`peak` (lines 15-21). No markers this time:
  // regions are given explicitly by line numbers, as the paper's tool takes.
  const std::string source =
      "int main() {\n"                                          // 1
      "  double field[16];\n"                                   // 2
      "  double total = 0.0;\n"                                 // 3
      "  double peak = 0.0;\n"                                  // 4
      "  int i;\n"                                              // 5
      "  for (i = 0; i < 16; i = i + 1) { field[i] = i * 0.5; }\n"  // 6
      "\n"                                                      // 7
      "  for (int t = 0; t < 6; t = t + 1) {\n"                 // 8
      "    for (i = 1; i < 15; i = i + 1) {\n"                  // 9
      "      field[i] = field[i] * 0.6 + field[i - 1] * 0.2 + field[i + 1] * 0.2;\n"  // 10
      "    }\n"                                                 // 11
      "  }\n"                                                   // 12
      "\n"                                                      // 13
      "\n"                                                      // 14
      "  for (int k = 0; k < 16; k = k + 1) {\n"                // 15
      "    total = total + field[k];\n"                         // 16
      "    if (field[k] > peak) {\n"                            // 17
      "      peak = peak + (field[k] - peak);\n"                // 18
      "    }\n"                                                 // 19
      "  }\n"                                                   // 20
      "  print_float(total + peak);\n"                          // 21
      "  return 0;\n"                                           // 22
      "}\n";                                                    // 23

  const ac::ir::Module module = ac::minic::compile(source);
  ac::trace::BufferSink trace;
  ac::vm::RunOptions opts;
  opts.sink = &trace;
  ac::vm::run_module(module, opts);

  // One shared MemorySource holds the interned trace and serves both region
  // analyses; each run() is an independent Session over the same buffer.
  const auto memory = std::make_shared<ac::trace::MemorySource>(trace.take());
  auto analyze = [&](const char* label, int begin, int end) {
    ac::analysis::MclRegion region;
    region.function = "main";
    region.begin_line = begin;
    region.end_line = end;
    const auto report = ac::analysis::Session().source(memory).region(region).run();
    std::printf("=== %s (lines %d-%d) ===\n", label, begin, end);
    std::printf("%s\n", report.render().c_str());
  };

  // Phase 1: the stencil loop — the carried field plus t must be saved.
  analyze("relaxation phase", 8, 12);
  // Phase 2: the reduction loop — total/peak accumulate, field is read-only
  // *within this region* and is rebuilt by re-running everything before it.
  analyze("reduction phase", 15, 20);
  return 0;
}
