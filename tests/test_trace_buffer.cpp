// The interned trace representation: SymbolPool unit tests (dedup, id
// stability, thread-safe bulk intern), TraceBuffer pack/materialize
// round-trips, and the zero-copy parser property suite — TraceBuffer-
// materialized to_text() must be byte-identical to the legacy parser's
// output across all 14 mini-app traces, serial and parallel — and the VM's
// record views, packed by BufferSink, must give the buffer that appending
// the owning records would.
#include <gtest/gtest.h>

#include <functional>
#include <thread>
#include <typeinfo>

#include "analysis/session.hpp"
#include "apps/harness.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "trace/buffer.hpp"
#include "trace/pool.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

#include "helpers.hpp"

namespace ac::trace {
namespace {

// --- SymbolPool -------------------------------------------------------------

TEST(SymbolPool, DedupAndIdStability) {
  SymbolPool pool;
  const auto a = pool.intern("alpha");
  const auto b = pool.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.intern("alpha"), a);  // dedup
  EXPECT_EQ(pool.intern("beta"), b);
  EXPECT_EQ(pool.size(), 2u);

  // Dense first-seen ids, stable across later interns.
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  for (int i = 0; i < 100; ++i) pool.intern(strf("sym%d", i));
  EXPECT_EQ(pool.view(a), "alpha");
  EXPECT_EQ(pool.view(b), "beta");
  EXPECT_EQ(pool.find("alpha"), a);
  EXPECT_EQ(pool.find("sym42"), pool.intern("sym42"));
}

TEST(SymbolPool, EmptyAndAbsentSentinels) {
  SymbolPool pool;
  EXPECT_EQ(pool.intern(""), SymbolPool::npos);
  EXPECT_EQ(pool.find(""), SymbolPool::npos);
  EXPECT_EQ(pool.view(SymbolPool::npos), "");
  EXPECT_EQ(pool.find("missing"), SymbolPool::npos);
  // lookup() distinguishes "empty" (matches other empties) from "absent"
  // (matches nothing).
  EXPECT_EQ(pool.lookup(""), SymbolPool::npos);
  EXPECT_EQ(pool.lookup("missing"), SymbolPool::absent);
  EXPECT_EQ(pool.view(SymbolPool::absent), "");
  pool.intern("present");
  EXPECT_EQ(pool.lookup("present"), pool.find("present"));
}

TEST(SymbolPool, CopyRebuildsIndependentIndex) {
  SymbolPool pool;
  pool.intern("one");
  pool.intern("two");
  SymbolPool copy = pool;
  pool.intern("three");  // must not affect the copy
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.find("two"), 1u);
  EXPECT_EQ(copy.find("three"), SymbolPool::npos);
  EXPECT_EQ(copy.intern("four"), 2u);
}

TEST(SymbolPool, ConcurrentBulkMerge) {
  // N workers build private pools with overlapping symbol sets and merge
  // them into one shared pool concurrently; every remap entry must resolve
  // to the right bytes.
  constexpr int kWorkers = 8;
  constexpr int kSymbols = 200;
  std::vector<SymbolPool> locals(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    for (int s = 0; s < kSymbols; ++s) {
      // Half shared across workers, half private.
      locals[static_cast<std::size_t>(w)].intern(
          s % 2 == 0 ? strf("shared%d", s) : strf("w%d_sym%d", w, s));
    }
  }

  SymbolPool shared;
  std::vector<std::vector<std::uint32_t>> remaps(kWorkers);
  {
    std::vector<std::thread> threads;
    threads.reserve(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        remaps[static_cast<std::size_t>(w)] =
            shared.merge(locals[static_cast<std::size_t>(w)]);
      });
    }
    for (auto& t : threads) t.join();
  }

  for (int w = 0; w < kWorkers; ++w) {
    const auto& local = locals[static_cast<std::size_t>(w)];
    const auto& remap = remaps[static_cast<std::size_t>(w)];
    ASSERT_EQ(remap.size(), local.size());
    for (std::uint32_t id = 0; id < local.size(); ++id) {
      EXPECT_EQ(shared.view(remap[id]), local.view(id)) << "worker " << w << " id " << id;
    }
  }
  // Shared symbols deduplicated: 100 shared + 8*100 private.
  EXPECT_EQ(shared.size(), 100u + 8u * 100u);
}

// --- TraceBuffer pack/materialize -------------------------------------------

TraceRecord sample_record() {
  TraceRecord rec;
  rec.line = 42;
  rec.func = "kernel";
  rec.bb = "42:1";
  rec.opcode = Opcode::Store;
  rec.dyn_id = 7;
  rec.operands.push_back(Operand::input(1, Value::make_float(3.25), true, "5", 64));
  rec.operands.push_back(Operand::input(2, Value::make_addr(0x1000), true, "u"));
  rec.operands.push_back(Operand::result(Value::make_int(-9), "6", 32));
  return rec;
}

TEST(TraceBuffer, AppendMaterializeRoundTrip) {
  const TraceRecord rec = sample_record();
  TraceBuffer buf;
  buf.append(rec);
  ASSERT_EQ(buf.size(), 1u);
  const TraceRecord back = buf.materialize(0);
  EXPECT_EQ(back.to_text(), rec.to_text());
  EXPECT_EQ(buf.view(0).to_text(), rec.to_text());

  const RecordView view = buf.view(0);
  EXPECT_EQ(view.func(), "kernel");
  EXPECT_EQ(view.opcode(), Opcode::Store);
  ASSERT_NE(view.input(2), nullptr);
  EXPECT_TRUE(view.input(2)->is_addr());
  EXPECT_EQ(view.input(2)->addr(), 0x1000u);
  ASSERT_NE(view.find(OperandSlot::Result), nullptr);
  EXPECT_EQ(view.find(OperandSlot::Result)->value(), Value::make_int(-9));
  EXPECT_EQ(view.find(OperandSlot::Param), nullptr);
}

TEST(TraceBuffer, EmptyNamesPackToNpos) {
  TraceRecord rec = sample_record();
  rec.operands[0].name.clear();
  TraceBuffer buf;
  buf.append(rec);
  EXPECT_EQ(buf.view(0).operands_begin()[0].name, SymbolPool::npos);
  // to_text renders empty names as the " " placeholder, exactly like the
  // legacy writer.
  EXPECT_EQ(buf.view(0).to_text(), rec.to_text());
}

TEST(TraceBuffer, AppendBufferRemapsSymbols) {
  TraceBuffer a, b;
  a.append(sample_record());
  TraceRecord other = sample_record();
  other.func = "other_fn";
  other.dyn_id = 8;
  b.append(other);

  a.append_buffer(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.view(0).func(), "kernel");
  EXPECT_EQ(a.view(1).func(), "other_fn");
  EXPECT_EQ(a.view(1).to_text(), other.to_text());
}

TEST(TraceBuffer, RepeatedAppendsGrowGeometrically) {
  // The daemon merges one decoded chunk per frame: each append must not
  // re-copy the whole accumulated arrays.
  TraceBuffer chunk;
  chunk.append(sample_record());
  TraceBuffer out;
  int moves = 0;
  const PackedRecord* last = nullptr;
  for (int i = 0; i < 1000; ++i) {
    out.append_buffer(chunk);
    if (out.records().data() != last) ++moves;
    last = out.records().data();
  }
  EXPECT_EQ(out.size(), 1000u);
  EXPECT_EQ(out.view(999).to_text(), sample_record().to_text());
  EXPECT_LT(moves, 40);  // 1.5x growth needs ~17 reallocations for 1000
}

// --- parser equivalence -----------------------------------------------------

TEST(TraceBufferParse, MatchesLegacyParserOnFig4) {
  trace::MemorySink sink;
  test::run_source(test::fig4_source(), &sink);
  std::string text;
  for (const auto& r : sink.records()) text += r.to_text();

  const auto legacy = read_trace_text(text);
  const TraceBuffer buf = read_trace_buffer(text);
  ASSERT_EQ(buf.size(), legacy.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(buf.view(i).to_text(), legacy[i].to_text()) << "record " << i;
  }
}

TEST(TraceBufferParse, RejectsMalformedInput) {
  EXPECT_THROW(read_trace_buffer("1,2,3\n"), TraceFormatError);
  EXPECT_THROW(read_trace_buffer("0,3,foo,6:1,27\n"), TraceFormatError);     // short header
  EXPECT_THROW(read_trace_buffer("0,3,foo,6:1,999,1\n"), TraceFormatError); // bad opcode
  EXPECT_THROW(read_trace_buffer("0,3,foo,6:1,27,215\n1,64,0x1\n"), TraceFormatError);
  EXPECT_THROW(read_trace_buffer("0,3,foo,6:1,27,215\n-2,64,5,0, \n"), TraceFormatError);
  EXPECT_EQ(read_trace_buffer("").size(), 0u);
  EXPECT_EQ(read_trace_buffer("\n  \n\n").size(), 0u);
}

/// Outcome of one parse: the record's fields (float payloads as raw bits, so
/// -0.0 and NaN compare exactly), or the thrown exception's type and what().
std::string parse_outcome(const std::function<TraceRecord()>& parse) {
  try {
    const TraceRecord r = parse();
    std::string out = strf("ok line=%d func=%s bb=%s op=%d dyn=%llu", r.line, r.func.c_str(),
                           r.bb.c_str(), static_cast<int>(r.opcode),
                           static_cast<unsigned long long>(r.dyn_id));
    for (const Operand& op : r.operands) {
      out += strf(" [slot=%d index=%d bits=%d kind=%d raw=%016llx reg=%d name=%s]",
                  static_cast<int>(op.slot), op.index, op.bits, static_cast<int>(op.value.kind),
                  static_cast<unsigned long long>(PackedOperand::raw_of(op.value)),
                  op.is_reg ? 1 : 0, op.name.c_str());
    }
    return out;
  } catch (const std::exception& e) {
    return std::string("throw ") + typeid(e).name() + ": " + e.what();
  }
}

TEST(TraceBufferParse, NumericSpellingsMatchReferenceParser) {
  // The buffer parser has fast paths for the spellings the writers emit
  // ([-]digits, lowercase 0x-hex, %.6f); every other spelling must fall back
  // to the reference conversions, giving the same value or the same error.
  const std::vector<std::string> spellings = {
      "+7", " 7", "7 ", "-0", "007", "7", "-12", "999999999999999999", "9223372036854775807",
      "-9223372036854775808", "9999999999999999999", "12345678901234567890", "0x", "0xABC",
      "0x7ffc", "0x1234567890abcdef", "0x1234567890abcdef0", "1.500000", "-0.000000",
      "123456789.123456", "1234567890.123456", "0.1234567", ".5", "5.", "1e5", "inf", "-nan", "",
      "-", "1-2"};
  // The numeric fields: header line, opcode, dyn id; operand index, bits,
  // value, is_reg.
  const std::vector<std::string> fields = {"0,{},main,entry,8,5\n1,64,3,1,%x\n",
                                           "0,4,main,entry,{},5\n1,64,3,1,%x\n",
                                           "0,4,main,entry,8,{}\n1,64,3,1,%x\n",
                                           "0,4,main,entry,8,5\n{},64,3,1,%x\n",
                                           "0,4,main,entry,8,5\n1,{},3,1,%x\n",
                                           "0,4,main,entry,8,5\n1,64,{},1,%x\n",
                                           "0,4,main,entry,8,5\n1,64,3,{},%x\n"};
  for (const std::string& tmpl : fields) {
    for (const std::string& s : spellings) {
      std::string text = tmpl;
      text.replace(text.find("{}"), 2, s);
      const std::string fast = parse_outcome([&] {
        const TraceBuffer buf = read_trace_buffer(text);
        if (buf.size() != 1) throw std::runtime_error("expected one record");
        return buf.materialize(0);
      });
      const std::string reference = parse_outcome([&] {
        const std::vector<TraceRecord> recs = read_trace_text(text);
        if (recs.size() != 1) throw std::runtime_error("expected one record");
        return recs[0];
      });
      EXPECT_EQ(fast, reference) << "trace: " << text;
    }
  }
}

/// The round-trip property across the whole suite: parse with the legacy
/// reader and with the zero-copy buffer reader (serial and parallel); the
/// buffer-materialized to_text() must be byte-identical to the legacy
/// records' for every app.
class BufferRoundTrip : public testing::TestWithParam<std::string> {};

TEST_P(BufferRoundTrip, ByteIdenticalToLegacyParser) {
  const apps::App& app = apps::find_app(GetParam());
  trace::MemorySink sink;
  vm::RunOptions ropts;
  ropts.sink = &sink;
  const ir::Module module = minic::compile(app.source());
  vm::run_module(module, ropts);
  std::string text;
  for (const auto& r : sink.records()) text += r.to_text();

  const auto legacy = read_trace_text(text);
  const TraceBuffer serial = read_trace_buffer(text);
  const TraceBuffer parallel = read_trace_buffer_parallel(text, 4);

  ASSERT_EQ(serial.size(), legacy.size());
  ASSERT_EQ(parallel.size(), legacy.size());
  ASSERT_EQ(serial.operands().size(), parallel.operands().size());

  std::string legacy_text, serial_text, parallel_text;
  legacy_text.reserve(text.size());
  serial_text.reserve(text.size());
  parallel_text.reserve(text.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    legacy_text += legacy[i].to_text();
    serial_text += serial.view(i).to_text();
    parallel_text += parallel.view(i).to_text();
  }
  EXPECT_EQ(serial_text, legacy_text);
  EXPECT_EQ(parallel_text, legacy_text);
  // The parse is also a fixpoint of the writer: records round-trip to the
  // original bytes.
  EXPECT_EQ(serial_text, text);
}

INSTANTIATE_TEST_SUITE_P(
    All14, BufferRoundTrip,
    testing::Values("Himeno", "HPCCG", "CG", "MG", "FT", "SP", "EP", "IS", "BT", "LU",
                    "CoMD", "miniAMR", "AMG", "HACC"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- BufferSink + Session buffer path ---------------------------------------

TEST(BufferSink, FeedsSessionWithoutLegacyRecords) {
  const std::string src = test::fig4_source();
  const ir::Module module = minic::compile(src);

  trace::BufferSink sink;
  vm::RunOptions ropts;
  ropts.sink = &sink;
  vm::run_module(module, ropts);
  const std::uint64_t streamed = sink.count();
  EXPECT_GT(streamed, 0u);

  const analysis::Report from_buffer = analysis::Session()
                                           .buffer(sink.take())
                                           .region_from_markers(src)
                                           .run();
  EXPECT_EQ(sink.count(), 0u);  // taken

  const auto run = test::run_pipeline(src);
  EXPECT_EQ(run.records.size(), streamed);
  EXPECT_EQ(from_buffer.verdicts.critical, run.report.verdicts.critical);
  EXPECT_EQ(from_buffer.verdicts.all_mli, run.report.verdicts.all_mli);
}

// --- Packed emission: the VM's views through SymbolRemap ----------------------

/// Field-by-field identity of two buffers: symbols and ids, records, operands.
void expect_same_buffer(const TraceBuffer& got, const TraceBuffer& want, const std::string& what) {
  ASSERT_EQ(got.pool().size(), want.pool().size()) << what;
  for (std::uint32_t id = 0; id < want.pool().size(); ++id) {
    ASSERT_EQ(got.pool().view(id), want.pool().view(id)) << what << " symbol " << id;
  }
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const PackedRecord& a = got.records()[i];
    const PackedRecord& b = want.records()[i];
    ASSERT_TRUE(a.dyn_id == b.dyn_id && a.func == b.func && a.bb == b.bb &&
                a.op_offset == b.op_offset && a.op_count == b.op_count && a.line == b.line &&
                a.opcode == b.opcode)
        << what << " record " << i;
  }
  ASSERT_EQ(got.operands().size(), want.operands().size()) << what;
  for (std::size_t i = 0; i < want.operands().size(); ++i) {
    const PackedOperand& a = got.operands()[i];
    const PackedOperand& b = want.operands()[i];
    ASSERT_TRUE(a.raw == b.raw && a.name == b.name && a.index == b.index && a.bits == b.bits &&
                a.flags == b.flags)
        << what << " operand " << i;
  }
}

/// `module` traced once: the records appended to `into` as owning records.
void append_materialized(const ir::Module& module, TraceBuffer& into) {
  MemorySink mem;
  vm::RunOptions ropts;
  ropts.sink = &mem;
  vm::run_module(module, ropts);
  for (const TraceRecord& rec : mem.records()) into.append(rec);
}

TEST(BufferSink, ViewPathMatchesRecordPath) {
  for (const apps::App& app : apps::registry()) {
    const ir::Module module = minic::compile(app.source());
    TraceBuffer want;
    append_materialized(module, want);
    BufferSink sink;
    vm::RunOptions ropts;
    ropts.sink = &sink;
    vm::run_module(module, ropts);
    expect_same_buffer(sink.buffer(), want, app.name);
  }
}

TEST(BufferSink, RemapFollowsPoolIdentity) {
  const ir::Module a = minic::compile(test::fig4_source());
  const ir::Module b = minic::compile(apps::find_app("IS").source());
  BufferSink sink;
  vm::RunOptions ropts;
  ropts.sink = &sink;
  vm::run_module(a, ropts);
  const TraceBuffer first = sink.take();
  // The taken buffer's pool is gone from the sink, and every run interns its
  // templates into a fresh interpreter pool: both must reset the id cache.
  vm::run_module(b, ropts);
  vm::run_module(a, ropts);

  TraceBuffer want_first;
  append_materialized(a, want_first);
  expect_same_buffer(first, want_first, "first run");
  TraceBuffer want_rest;
  append_materialized(b, want_rest);
  append_materialized(a, want_rest);
  expect_same_buffer(sink.buffer(), want_rest, "after take");
}

}  // namespace
}  // namespace ac::trace
