// Analysis-service throughput benchmark: 1/4/16 concurrent tracing clients
// streaming MCTB chunk frames at one in-process acd Server over loopback,
// each fetching verdicts as it goes. Reports:
//
//   MB/s decoded   aggregate TraceChunk payload bytes the daemon decoded and
//                  merged per second of wall time (the ingest ceiling);
//   verdicts/s     reports served per second across all connections.
//
// Every client's first report is checked byte-for-byte against a local
// analysis of the same records — the bench doubles as a load-test of the
// socket-path identity guarantee; any mismatch fails the run. `--smoke` runs
// the 1- and 4-client points only (CI). `--json PATH` writes the
// BENCH_net.json trajectory record.
#include <cstdio>
#include <cstring>
#include <thread>
#include <vector>

#include "analysis/session.hpp"
#include "apps/app.hpp"
#include "minic/compiler.hpp"
#include "net/remote.hpp"
#include "net/server.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

using namespace ac;

namespace {

struct Workload {
  trace::TraceBuffer trace;
  analysis::MclRegion region;
  std::string expected_json;  // local reference bytes (no timings)
};

/// Compile + trace one mini-app and precompute the local reference report.
Workload make_workload(const std::string& app_name) {
  const apps::App& app = apps::find_app(app_name);
  Workload w;
  const ir::Module module = minic::compile(app.source());
  trace::BufferSink sink;
  vm::RunOptions ropts;
  ropts.sink = &sink;
  vm::run_module(module, ropts);
  w.trace = sink.take();
  w.region = app.mcl();
  trace::TraceBuffer copy;
  copy.append_buffer(w.trace);
  const analysis::Report report =
      analysis::Session().buffer(std::move(copy)).region(w.region).run();
  w.expected_json = report.to_json(/*with_timings=*/false);
  return w;
}

struct RunPoint {
  int clients = 0;
  std::uint64_t payload_bytes = 0;  // decoded TraceChunk payload, server side
  std::uint64_t verdicts = 0;
  double seconds = 0;
  bool identical = true;
};

RunPoint run_point(const std::vector<Workload>& workloads, int n_clients, int reports_each) {
  net::ServerOptions sopts;
  sopts.idle_timeout_ms = 0;  // the bench saturates; never reap under load
  net::Server server(sopts);
  server.start();

  std::vector<std::uint64_t> wire_bytes(static_cast<std::size_t>(n_clients), 0);
  std::vector<bool> ok(static_cast<std::size_t>(n_clients), true);
  std::uint64_t total_verdicts = 0;

  WallTimer timer;
  {
    std::vector<std::thread> clients;
    for (int ci = 0; ci < n_clients; ++ci) {
      clients.emplace_back([&, ci] {
        const Workload& w = workloads[static_cast<std::size_t>(ci) % workloads.size()];
        net::RemoteSinkOptions ropts;
        ropts.chunk_records = 4096;  // many chunks per stream, like a live app
        net::RemoteSink sink("127.0.0.1", server.port(), ropts);
        net::ReportSpec spec;
        spec.region = w.region;
        spec.with_timings = false;
        for (int rep = 0; rep < reports_each; ++rep) {
          for (std::size_t i = 0; i < w.trace.size(); ++i) sink.append(w.trace.materialize(i));
          const std::string json = sink.fetch_report(spec);
          // The first report covers exactly one copy of the trace: it must
          // match the local bytes. Later reports analyze the accumulated
          // stream (1..rep copies) — checked non-empty only.
          if (rep == 0 && json != w.expected_json) ok[static_cast<std::size_t>(ci)] = false;
          if (json.empty()) ok[static_cast<std::size_t>(ci)] = false;
        }
        wire_bytes[static_cast<std::size_t>(ci)] = sink.bytes();
        sink.close();
      });
    }
    for (auto& t : clients) t.join();
  }

  RunPoint pt;
  pt.seconds = timer.seconds();
  pt.clients = n_clients;
  total_verdicts = server.reports_served();
  server.stop();
  for (int ci = 0; ci < n_clients; ++ci) {
    pt.payload_bytes += wire_bytes[static_cast<std::size_t>(ci)];
    if (!ok[static_cast<std::size_t>(ci)]) pt.identical = false;
  }
  pt.verdicts = total_verdicts;
  return pt;
}

double mbps(std::uint64_t bytes, double seconds) {
  return seconds > 0 ? static_cast<double>(bytes) / (1024.0 * 1024.0) / seconds : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) json_path = argv[++i];
  }

  std::printf("=== bench_net: concurrent tracing clients vs one acd daemon (loopback)%s ===\n\n",
              smoke ? " (smoke subset)" : "");

  // A spread of dependency shapes; client i streams workloads[i % 4].
  const std::vector<Workload> workloads = {
      make_workload("CG"), make_workload("HPCCG"), make_workload("IS"), make_workload("EP")};

  const std::vector<int> points = smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 4, 16};
  const int reports_each = smoke ? 2 : 4;

  TextTable table({"Clients", "Wire", "Wall s", "MB/s decoded", "Verdicts", "Verdicts/s",
                   "Identical"});
  std::vector<RunPoint> results;
  bool all_identical = true;
  for (const int n : points) {
    const RunPoint pt = run_point(workloads, n, reports_each);
    results.push_back(pt);
    all_identical = all_identical && pt.identical;
    table.add_row({strf("%d", pt.clients), human_bytes(pt.payload_bytes),
                   strf("%.3f", pt.seconds), strf("%.1f", mbps(pt.payload_bytes, pt.seconds)),
                   strf("%llu", static_cast<unsigned long long>(pt.verdicts)),
                   strf("%.1f", static_cast<double>(pt.verdicts) / pt.seconds),
                   pt.identical ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());

  if (!json_path.empty()) {
    std::string json;
    JsonWriter w(&json);
    w.begin_object();
    w.field("bench", "net");
    w.key("runs").begin_array();
    for (const RunPoint& pt : results) {
      w.begin_object();
      w.field("clients", pt.clients);
      w.field("payload_bytes", pt.payload_bytes);
      w.raw_field("seconds", strf("%.6f", pt.seconds));
      w.raw_field("mb_per_s_decoded", strf("%.2f", mbps(pt.payload_bytes, pt.seconds)));
      w.field("verdicts", pt.verdicts);
      w.raw_field("verdicts_per_s", strf("%.2f", static_cast<double>(pt.verdicts) / pt.seconds));
      w.field("identical", pt.identical);
      w.end_object();
    }
    w.end_array().end_object();
    json += '\n';
    std::FILE* f = std::fopen(json_path.c_str(), "wb");
    if (!f) {
      std::fprintf(stderr, "bench_net: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!all_identical) {
    std::printf("FAIL: a socket-served report differed from the local reference bytes\n");
    return 1;
  }
  return 0;
}
