// The Session pipeline API: builder contract, AnalysisOptions::threads as the
// read-stage budget, the sharded/pipelined classifier variants (bit-identical
// to classify()), TraceSource equivalence (memory / file / live, identical
// verdicts across all 14 mini-apps), and ReportSink
// round-trips (JSON -> engine registration matches direct in-memory
// registration).
#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/session.hpp"
#include "apps/harness.hpp"
#include "ckpt/engine.hpp"
#include "support/error.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

#include "helpers.hpp"

namespace ac::analysis {
namespace {

AnalysisOptions with_threads(int n) {
  AnalysisOptions opts;
  opts.threads = n;
  return opts;
}

void expect_timing_structure(const Report& report) {
  EXPECT_GE(report.timings.preprocessing, 0.0);
  EXPECT_GE(report.timings.dep_analysis, 0.0);
  EXPECT_GE(report.timings.identify, 0.0);
  EXPECT_DOUBLE_EQ(report.timings.total(), report.timings.preprocessing +
                                               report.timings.dep_analysis +
                                               report.timings.identify);
}

// --- builder contract -------------------------------------------------------

TEST(SessionBuilder, RequiresSourceAndValidRegion) {
  EXPECT_THROW(Session().run(), Error);  // no source

  auto run = test::run_pipeline(test::fig4_source());
  EXPECT_THROW(Session().records(run.records).run(), Error);  // no region

  MclRegion inverted{"main", 20, 10};
  EXPECT_THROW(Session().records(run.records).region(inverted).run(), Error);
}

TEST(SessionBuilder, MarkersMatchExplicitRegion) {
  auto run = test::run_pipeline(test::fig4_source());
  const Report direct = Session()
                            .records(run.records)
                            .region_from_markers(test::fig4_source())
                            .run();
  EXPECT_EQ(test::critical_map(direct), test::critical_map(run.report));
  EXPECT_EQ(direct.verdicts.critical, run.report.verdicts.critical);
  expect_timing_structure(direct);
}

// --- options semantics ------------------------------------------------------

/// A memory source that records the read budget the Session hands it.
class ReadThreadsProbe final : public trace::TraceSource {
 public:
  explicit ReadThreadsProbe(std::vector<trace::TraceRecord> recs) : inner_(std::move(recs)) {}
  std::string describe() const override { return "probe"; }
  void set_read_threads(int n) override { read_threads = n; }
  const trace::TraceBuffer& buffer() override { return inner_.buffer(); }
  std::uint64_t record_count() const override { return inner_.record_count(); }

  int read_threads = 0;

 private:
  trace::MemorySource inner_;
};

TEST(SessionOptions, ThreadsIsTheReadBudget) {
  auto run = test::run_pipeline(test::fig4_source());
  for (const int threads : {1, 4}) {
    auto probe = std::make_shared<ReadThreadsProbe>(run.records);
    const Report report = Session()
                              .source(probe)
                              .region_from_markers(test::fig4_source())
                              .options(with_threads(threads))
                              .run();
    EXPECT_EQ(probe->read_threads, threads);
    EXPECT_EQ(report.verdicts.critical, run.report.verdicts.critical) << threads;
  }
}

// --- sharded classification -------------------------------------------------

TEST(SessionParallel, ClassifyShardedDirectApi) {
  auto run = test::run_pipeline(test::fig4_source());
  const ClassifyResult serial = classify(run.report.dep, run.report.pre);
  const ClassifyResult sharded = classify_sharded(run.report.dep, run.report.pre, 4);
  EXPECT_EQ(serial.critical, sharded.critical);
  EXPECT_EQ(serial.all_mli, sharded.all_mli);
}

TEST(SessionParallel, ClassifyPipelinedBitIdenticalAcrossCorners) {
  // The pipelined producer/consumer path must be bit-identical to sequential and to the barrier path across the same
  // corner matrix: small counts, clamp-triggering absurd counts, and the
  // degenerate empty input.
  auto run = test::run_pipeline(test::fig4_source());
  const ClassifyResult serial = classify(run.report.dep, run.report.pre);
  for (const int threads : {2, 3, 4, 7, 64, 257, 100000}) {
    const ClassifyResult barrier = classify_sharded(run.report.dep, run.report.pre, threads);
    const ClassifyResult pipelined =
        classify_pipelined(run.report.dep, run.report.pre, threads);
    EXPECT_EQ(serial.critical, pipelined.critical) << threads;
    EXPECT_EQ(serial.all_mli, pipelined.all_mli) << threads;
    EXPECT_EQ(barrier.critical, pipelined.critical) << threads;
    EXPECT_EQ(barrier.all_mli, pipelined.all_mli) << threads;
  }

  const DepResult empty_dep;
  const PreprocessResult empty_pre;
  const ClassifyResult empty = classify_pipelined(empty_dep, empty_pre, 8);
  EXPECT_TRUE(empty.critical.empty());
  EXPECT_TRUE(empty.all_mli.empty());
}

TEST(SessionParallel, ThreadsExceedingVariableCountClampAndMatch) {
  // fig4 has 5 MLI variables; 64 (and an absurd 100000) worker requests must
  // clamp to the variable count and still produce bit-identical verdicts —
  // never 100000 threads, never an empty-shard crash.
  auto run = test::run_pipeline(test::fig4_source());
  const ClassifyResult serial = classify(run.report.dep, run.report.pre);
  for (const int threads : {64, 257, 100000}) {
    const ClassifyResult sharded = classify_sharded(run.report.dep, run.report.pre, threads);
    EXPECT_EQ(serial.critical, sharded.critical) << threads;
    EXPECT_EQ(serial.all_mli, sharded.all_mli) << threads;
  }
}

TEST(SessionParallel, ZeroVariableTraceClassifiesEmpty) {
  // Degenerate inputs: no events, no MLI variables. Both paths must agree on
  // the empty verdict instead of dividing by a zero shard count.
  const DepResult dep;
  const PreprocessResult pre;
  const ClassifyResult serial = classify(dep, pre);
  const ClassifyResult sharded = classify_sharded(dep, pre, 8);
  EXPECT_TRUE(serial.critical.empty());
  EXPECT_TRUE(serial.all_mli.empty());
  EXPECT_EQ(serial.critical, sharded.critical);
  EXPECT_EQ(serial.all_mli, sharded.all_mli);

  // Source-level version: a computation loop that touches only its induction
  // variable and a loop-invariant scalar read.
  const std::string src = R"(
int main() {
  int it;
  int bound = 6;
  int ticks = 0;
  //@mcl-begin
  for (it = 0; it < bound; it = it + 1) {
    ticks = it;
  }
  //@mcl-end
  print_int(ticks);
  return 0;
}
)";
  auto run = test::run_pipeline(src);
  const ClassifyResult source_sharded = classify_sharded(run.report.dep, run.report.pre, 16);
  EXPECT_EQ(run.report.verdicts.critical, source_sharded.critical);
  EXPECT_EQ(run.report.verdicts.all_mli, source_sharded.all_mli);
}

TEST(SessionParallel, SkewedSingleHotArrayMatchesSequential) {
  // Nearly every event lands on one array, so var % threads puts almost the
  // whole stream into a single shard — the load-balance worst case must
  // still be bit-identical to sequential (the ROADMAP's balance follow-up is
  // about speed, not correctness).
  const std::string src = R"(
double hot[128];
int main() {
  int it;
  int i;
  double checksum = 0.0;
  for (i = 0; i < 128; i = i + 1) { hot[i] = 1.0; }
  //@mcl-begin
  for (it = 0; it < 6; it = it + 1) {
    for (i = 1; i < 128; i = i + 1) {
      hot[i] = hot[i] + hot[i - 1] * 0.5;
    }
    checksum = checksum + hot[127];
  }
  //@mcl-end
  print_float(checksum);
  return 0;
}
)";
  auto run = test::run_pipeline(src);
  const ClassifyResult serial = classify(run.report.dep, run.report.pre);
  for (const int threads : {2, 4, 7}) {
    for (const ClassifyResult& parallel :
         {classify_sharded(run.report.dep, run.report.pre, threads),
          classify_pipelined(run.report.dep, run.report.pre, threads)}) {
      EXPECT_EQ(serial.critical, parallel.critical) << threads;
      EXPECT_EQ(serial.all_mli, parallel.all_mli) << threads;
    }
  }
  // The hot array itself must be in the verdict set (stale consumption of
  // hot[i-1] across iterations), or the test is not exercising the skew.
  bool hot_found = false;
  for (const auto& cv : serial.critical) hot_found |= cv.name == "hot";
  EXPECT_TRUE(hot_found);
}

// --- event-count-balanced shard assignment (LPT) -----------------------------

TEST(LptAssignment, IsolatesTheHotVariable) {
  // One variable carries nearly every event: LPT must give it a shard of its
  // own and spread the rest, instead of `var % threads` landing everything in
  // one shard.
  const std::vector<std::pair<int, std::uint64_t>> counts = {
      {0, 100000}, {1, 10}, {2, 12}, {3, 8}};
  const std::vector<int> shard = lpt_shard_assignment(counts, 2);
  ASSERT_EQ(shard.size(), counts.size());
  const int hot = shard[0];
  EXPECT_NE(shard[1], hot);
  EXPECT_NE(shard[2], hot);
  EXPECT_NE(shard[3], hot);
}

TEST(LptAssignment, BalancesEqualLoads) {
  std::vector<std::pair<int, std::uint64_t>> counts;
  for (int v = 0; v < 8; ++v) counts.emplace_back(v, 100);
  const std::vector<int> shard = lpt_shard_assignment(counts, 4);
  std::vector<int> per_shard(4, 0);
  for (const int s : shard) {
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 4);
    ++per_shard[static_cast<std::size_t>(s)];
  }
  for (const int n : per_shard) EXPECT_EQ(n, 2);  // perfectly even
}

TEST(LptAssignment, DegenerateCornersAndDeterminism) {
  // threads > vars: every variable gets its own shard; empty shards are fine.
  const std::vector<std::pair<int, std::uint64_t>> few = {{5, 7}, {9, 3}};
  const std::vector<int> wide = lpt_shard_assignment(few, 16);
  EXPECT_NE(wide[0], wide[1]);

  // Zero variables / single shard / zero-count ties are all well-defined.
  EXPECT_TRUE(lpt_shard_assignment({}, 4).empty());
  EXPECT_EQ(lpt_shard_assignment(few, 1), (std::vector<int>{0, 0}));
  const std::vector<std::pair<int, std::uint64_t>> ties = {{3, 0}, {1, 0}, {2, 0}};
  const std::vector<int> a = lpt_shard_assignment(ties, 2);
  const std::vector<int> b = lpt_shard_assignment(ties, 2);
  EXPECT_EQ(a, b);  // deterministic under ties (ordered by var id)
}

TEST(LptAssignment, SkewedHotArrayStillBitIdentical) {
  // The skewed single-hot-array program under the *balanced* assignment: the
  // hot shard now isolates `hot`, and the verdicts must remain bit-identical
  // to sequential for every worker count (including threads > vars).
  const std::string src = R"(
double hot[96];
int main() {
  int it;
  int i;
  double checksum = 0.0;
  double aux = 0.0;
  for (i = 0; i < 96; i = i + 1) { hot[i] = 1.0; }
  //@mcl-begin
  for (it = 0; it < 5; it = it + 1) {
    for (i = 1; i < 96; i = i + 1) {
      hot[i] = hot[i] + hot[i - 1] * 0.5;
    }
    aux = aux + hot[95];
    checksum = checksum + aux;
  }
  //@mcl-end
  print_float(checksum);
  return 0;
}
)";
  auto run = test::run_pipeline(src);
  const ClassifyResult serial = classify(run.report.dep, run.report.pre);
  for (const int threads : {2, 3, 5, 64}) {
    const ClassifyResult sharded = classify_sharded(run.report.dep, run.report.pre, threads);
    EXPECT_EQ(serial.critical, sharded.critical) << threads;
    EXPECT_EQ(serial.all_mli, sharded.all_mli) << threads;
  }
  bool hot_found = false;
  for (const auto& cv : serial.critical) hot_found |= cv.name == "hot";
  EXPECT_TRUE(hot_found);
}

// --- trace sources ----------------------------------------------------------

TEST(SessionSources, FileSerialAndParallelMatchMemory) {
  auto run = test::run_pipeline(test::fig4_source());
  const MclRegion region = find_mcl_region(test::fig4_source());

  const std::string path = testing::TempDir() + "/ac_session_fig4.trace";
  {
    trace::FileSink sink(path);
    for (const auto& rec : run.records) sink.append(rec);
  }

  const Report from_memory = Session().records(run.records).region(region).run();
  const Report serial_file = Session().file(path).region(region).run();
  const Report parallel_file =
      Session().file(path).region(region).options(with_threads(4)).run();

  EXPECT_EQ(from_memory.verdicts.critical, serial_file.verdicts.critical);
  EXPECT_EQ(from_memory.verdicts.critical, parallel_file.verdicts.critical);
  EXPECT_EQ(serial_file.dep.events.size(), parallel_file.dep.events.size());
  EXPECT_GT(serial_file.timings.preprocessing, 0.0);  // parse attributed here
  std::remove(path.c_str());
}

TEST(SessionSources, LiveSourceMatchesBatchAndNeverMaterializes) {
  const std::string src = test::fig4_source();
  auto run = test::run_pipeline(src);

  auto source = std::make_shared<trace::LiveSource>([&](trace::TraceSink& sink) {
    vm::RunOptions ropts;
    ropts.sink = &sink;
    vm::run_module(run.module, ropts);
  });
  EXPECT_TRUE(source->live());
  EXPECT_THROW(source->records(), Error);

  const Report live = Session().source(source).region_from_markers(src).run();
  EXPECT_EQ(live.verdicts.critical, run.report.verdicts.critical);
  EXPECT_EQ(source->record_count(), run.records.size());
  expect_timing_structure(live);
}

TEST(SessionSources, MissingFileThrows) {
  MclRegion region{"main", 1, 2};
  EXPECT_THROW(Session().file("/no/such/trace.txt").region(region).run(), Error);
}

// --- sinks ------------------------------------------------------------------

TEST(SessionSinks, TextJsonDotProtectCapture) {
  const std::string src = test::fig4_source();
  auto run = test::run_pipeline(src);

  std::string text, json, dot, protect;
  Session()
      .records(run.records)
      .region_from_markers(src)
      .sink(std::make_shared<TextSink>(&text))
      .sink(std::make_shared<JsonSink>(&json))
      .sink(std::make_shared<DotSink>(&dot))
      .sink(std::make_shared<ProtectSink>(&protect))
      .run();

  EXPECT_NE(text.find("Critical variables"), std::string::npos);
  EXPECT_NE(json.find("\"critical\""), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(protect.find("engine.protect(\"a\")"), std::string::npos);
  EXPECT_NE(protect.find("RAPO"), std::string::npos);
}

TEST(SessionSinks, ProtectSinkRejectsLiveSources) {
  const std::string src = test::fig4_source();
  auto run = test::run_pipeline(src);
  std::string protect;
  Session session;
  session
      .live([&](trace::TraceSink& sink) {
        vm::RunOptions ropts;
        ropts.sink = &sink;
        vm::run_module(run.module, ropts);
      })
      .region_from_markers(src)
      .sink(std::make_shared<ProtectSink>(&protect));
  EXPECT_THROW(session.run(), Error);
}

TEST(SessionSinks, JsonRoundTripMatchesDirectEngineRegistration) {
  const std::string src = test::fig4_source();
  auto run = test::run_pipeline(src);

  ckpt::EngineConfig direct_cfg;
  direct_cfg.dir = testing::TempDir();
  direct_cfg.tag = "session_sink_direct";
  ckpt::CheckpointEngine direct(direct_cfg);

  std::string json;
  Session()
      .records(run.records)
      .region_from_markers(src)
      .sink(std::make_shared<EngineSink>(direct))
      .sink(std::make_shared<JsonSink>(&json))
      .run();

  ckpt::EngineConfig json_cfg;
  json_cfg.dir = testing::TempDir();
  json_cfg.tag = "session_sink_json";
  ckpt::CheckpointEngine from_json(json_cfg);
  from_json.register_report_json(json);

  EXPECT_FALSE(direct.protected_names().empty());
  EXPECT_EQ(direct.protected_names(), from_json.protected_names());
}

// --- batch vs streaming across the suite -------------------------------------

class SessionApps : public testing::TestWithParam<std::string> {};

TEST_P(SessionApps, BatchStreamingEquivalence) {
  const apps::App& app = apps::find_app(GetParam());

  const apps::AnalysisRun serial = apps::analyze_app(app);
  const apps::StreamingRun live = apps::analyze_app_streaming(app);

  // The live two-pass pipeline agrees with batch on verdicts and structure.
  EXPECT_EQ(serial.report.verdicts.critical, live.report.verdicts.critical);
  EXPECT_EQ(serial.report.dep.events.size(), live.report.dep.events.size());
  EXPECT_EQ(serial.report.dep.iterations, live.report.dep.iterations);
  EXPECT_EQ(serial.trace_records, live.records_streamed);

  // Same timing structure from every source.
  expect_timing_structure(serial.report);
  expect_timing_structure(live.report);
}

INSTANTIATE_TEST_SUITE_P(
    All14, SessionApps,
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
}  // namespace ac::analysis
