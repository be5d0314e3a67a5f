// pipebench: the repository's pipeline benchmark.
//
//   pipebench --workload NAME --seed N --seconds S --trace 0|1 --work DIR
//             [--spans PATH]
//
// Sets the workload up several times (setup_s is the median), then runs timed
// passes over its inputs until S seconds have passed (at least two, so every
// exact count is seen to repeat). The last line of stdout is one JSON object:
//
//   {"correct": bool, "attempted": ops, "failed": ops_failed, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (median over passes);
// with --trace 1 they are the per-layer ones, from spans the benchmark wraps
// around every layer call of a traced pass (written to --spans PATH). A
// traced run first makes one untraced pass, so the difference between the
// two is reported as the tracing overhead. Exit status 0 iff every operation
// succeeded and every exact count repeated.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"
#include "workloads.hpp"

namespace {

using pipebench::Metrics;
using pipebench::PassResult;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;
  std::string spans_path;
};

int usage() {
  std::fprintf(stderr,
               "usage: pipebench --workload NAME --seed N --seconds S --trace 0|1 --work DIR\n"
               "                 [--spans PATH]\n");
  return 2;
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = val;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end) return false;
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end || !(a.seconds > 0)) return false;
    } else if (arg == "--trace") {
      if (val != "0" && val != "1") return false;
      a.trace = val == "1";
    } else if (arg == "--work") {
      a.work_dir = val;
    } else if (arg == "--spans") {
      a.spans_path = val;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && !a.work_dir.empty();
}

/// Hand freed memory back to the kernel, then reset the peak-RSS mark (Linux
/// /proc/self/clear_refs "5"), so peak_rss_mib() covers what follows: one
/// pass, not the set-up or the passes before it.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set size in MiB: VmHWM, else the process-lifetime maximum.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Median of each key over the per-pass maps (a key missing from a pass
/// counts as 0 there).
Metrics median_per_key(const std::vector<Metrics>& per_pass) {
  Metrics out;
  for (const Metrics& m : per_pass) {
    for (const auto& kv : m) out[kv.first] = 0;
  }
  for (auto& [key, value] : out) {
    std::vector<double> v;
    for (const Metrics& m : per_pass) {
      const auto it = m.find(key);
      v.push_back(it == m.end() ? 0.0 : it->second);
    }
    value = pipebench::median(v);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage();

  try {
    std::filesystem::create_directories(args.work_dir);
    pipebench::Context ctx;
    ctx.seed = args.seed;
    ctx.work_dir = args.work_dir;
    ctx.threads = static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
    std::unique_ptr<pipebench::Workload> wl = pipebench::make_workload(args.workload, ctx);

    // At least three set-ups, more while they add up to under a second, so a
    // set-up of a few milliseconds still gets a steady median.
    std::vector<double> setup_s;
    ac::WallTimer setup_total;
    while (setup_s.size() < 3 ||
           (setup_total.seconds() < 1.0 && setup_s.size() < 25)) {
      ac::WallTimer t;
      wl->setup();
      setup_s.push_back(t.seconds());
    }

    pipebench::Tracer off(false, args.workload);
    pipebench::Tracer on(true, args.workload);

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool counts_repeat = true;
    std::map<std::string, std::uint64_t> first_counts;
    bool have_counts = false;
    auto account = [&](const PassResult& pr) {
      attempted += pr.ops;
      failed += pr.failed;
      if (!have_counts) {
        first_counts = pr.counts;
        have_counts = true;
      } else if (pr.counts != first_counts) {
        counts_repeat = false;
        std::fprintf(stderr, "pipebench: %s: exact counts differ between passes\n",
                     args.workload.c_str());
      }
    };

    double untraced_wall = 0;
    if (args.trace) {
      const PassResult base = wl->pass(off);
      account(base);
      untraced_wall = base.wall_s;
    }

    std::vector<PassResult> passes;
    std::vector<double> peaks;  // per-pass peak RSS
    ac::WallTimer measure;
    constexpr int kMinPasses = 2;
    while (static_cast<int>(passes.size()) < kMinPasses || measure.seconds() < args.seconds) {
      pipebench::Tracer& tracer = args.trace ? on : off;
      tracer.set_pass(static_cast<int>(passes.size()));
      reset_peak_rss();
      passes.push_back(wl->pass(tracer));
      peaks.push_back(peak_rss_mib());
      account(passes.back());
    }
    on.set_pass(-1);

    std::vector<double> walls;
    std::vector<double> rates;
    std::map<std::string, std::vector<double>> op_ms;  // samples per operation kind
    std::size_t samples = 0;
    for (const PassResult& pr : passes) {
      walls.push_back(pr.wall_s);
      rates.push_back(static_cast<double>(pr.records) / pr.wall_s);
      for (const auto& [kind, ms] : pr.op_ms) op_ms[kind].push_back(ms);
      samples += pr.op_ms.size();
    }
    std::vector<double> kind_ms;  // median latency of each operation kind
    for (const auto& kv : op_ms) kind_ms.push_back(pipebench::median(kv.second));

    Metrics metrics;
    std::vector<std::pair<std::string, std::string>> units;
    if (!args.trace) {
      metrics = {
          {"setup_s", pipebench::median(setup_s)},
          {"wall_s", pipebench::median(walls)},
          {"records_per_s", pipebench::median(rates)},
          {"op_p50_ms", pipebench::median(kind_ms)},
          {"op_p90_ms", pipebench::percentile(kind_ms, 90)},
          {"io_bytes", static_cast<double>(passes.front().io_bytes)},
      };
      units = {{"setup_s", "s"},    {"wall_s", "s"},    {"records_per_s", "1/s"},
               {"op_p50_ms", "ms"}, {"op_p90_ms", "ms"}, {"io_bytes", "bytes"}};
      std::fprintf(stderr,
                   "pipebench: %s: %zu pass(es), %zu latency samples of %zu operation kinds, "
                   "wall_s per pass:",
                   args.workload.c_str(), passes.size(), samples, kind_ms.size());
      for (const double w : walls) std::fprintf(stderr, " %.3f", w);
      std::fprintf(stderr, "\n");
    } else {
      const std::vector<pipebench::SpanRecord> spans = on.spans();
      std::vector<Metrics> per_pass;
      for (std::size_t p = 0; p < passes.size(); ++p) {
        Metrics m;
        wl->layer_metrics(spans, static_cast<int>(p), passes[p], m);
        for (const auto& kv : passes[p].gauges) m[kv.first] = kv.second;
        const pipebench::Coverage cov = pipebench::coverage(spans, static_cast<int>(p));
        m["traced_wall_s"] = passes[p].wall_s;
        m["untimed_s"] = cov.untimed_s;
        m["untimed_share"] = cov.track_s > 0 ? cov.untimed_s / cov.track_s : 0.0;
        per_pass.push_back(std::move(m));
      }
      Metrics layer = median_per_key(per_pass);
      layer["peak_rss_mib"] = pipebench::median(peaks);
      layer["tracing_overhead_s"] = layer["traced_wall_s"] - untraced_wall;
      wl->probes(on, layer);
      for (const auto& [name, unit] : pipebench::per_layer_metrics()) {
        metrics[name] = layer.count(name) ? layer[name] : 0.0;
        units.emplace_back(name, unit);
      }
      std::fprintf(stderr,
                   "pipebench: %s: traced wall %.3f s, untraced wall %.3f s, untimed %.3f s "
                   "(%.1f%% of the traced pass)\n",
                   args.workload.c_str(), layer["traced_wall_s"], untraced_wall,
                   layer["untimed_s"], 100.0 * layer["untimed_share"]);
      if (!args.spans_path.empty()) {
        std::ofstream(args.spans_path) << on.to_json();
      }
    }

    const bool correct = failed == 0 && counts_repeat;
    // One line: callers read the result from the last line of stdout.
    std::string out = ac::strf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                               "\"metrics\": {",
                               correct ? "true" : "false",
                               static_cast<unsigned long long>(attempted),
                               static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < units.size(); ++i) {
      const double v = metrics[units[i].first];
      out += ac::strf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                      units[i].first.c_str(), std::isfinite(v) ? v : 0.0,
                      units[i].second.c_str());
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipebench: %s\n", e.what());
    return 1;
  }
}
