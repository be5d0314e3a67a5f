#include "analysis/depanalysis.hpp"

#include <algorithm>
#include <unordered_map>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"

namespace ac::analysis {

using trace::Opcode;
using trace::OperandSlot;
using trace::PackedOperand;
using trace::PackedRecord;
using trace::SymbolPool;
using trace::TraceBuffer;
using trace::TraceRecord;

namespace {

/// Immediate variable provenance of a register: the set of (var, element)
/// sources whose values flow into it (the reg-var map of §IV-B, with the
/// reg-reg map folded in by unioning across arithmetic instructions).
struct Prov {
  std::vector<std::pair<int, std::int64_t>> sources;

  void add(int var, std::int64_t elem) {
    for (const auto& s : sources) {
      if (s.first == var && s.second == elem) return;
    }
    // Reductions keep provenance small by SSA re-loading; the cap only guards
    // pathological chains.
    if (sources.size() < 64) sources.emplace_back(var, elem);
  }
  void merge(const Prov& other) {
    for (const auto& s : other.sources) add(s.first, s.second);
  }
};

const Prov kNoProv;

/// Registers are their pool ids: hashing an u32 instead of a register-name
/// string is the single biggest win of the interned replay.
struct AnalysisFrame {
  std::uint32_t func = SymbolPool::npos;
  std::unordered_map<std::uint32_t, Prov> reg_prov;
  std::uint32_t pending_dst = SymbolPool::npos;  // caller register awaiting Ret
};

}  // namespace

struct DepAnalyzer::Impl {
  PreprocessResult& pre;
  MclRegion region;
  DepOptions opts;

  // Name resolution (see MliCollector::Impl): batch binds the buffer's pool,
  // streaming interns into its own.
  const SymbolPool* pool = nullptr;
  SymbolPool owned_pool;
  bool streaming = false;
  std::uint32_t region_func_id = SymbolPool::npos;
  std::vector<PackedRecord> scratch_rec;
  std::vector<PackedOperand> scratch_ops;

  DepResult result;
  AddressMap amap;
  std::vector<AnalysisFrame> frames;
  std::ptrdiff_t idx = -1;
  Part part = Part::A;
  int iteration = 0;

  // One-record lookahead: a Call record is form 2 iff the next record
  // executes inside the callee ("a Call instruction followed by its function
  // body"). The pending record is copied (streaming scratch is overwritten).
  bool have_pending_call = false;
  PackedRecord pending_rec;
  std::vector<PackedOperand> pending_ops;

  // Alloca-site canonical-id cache (shared implementation with pre-processing).
  AllocaSiteCache alloca_ids;
  // "argN" binding registers, indexed by N-1.
  std::vector<std::uint32_t> arg_ids;
  // DDG node caches: labels are a pure function of the ids, so node ids are
  // resolved without rebuilding label strings per record.
  std::unordered_map<int, int> var_nodes;                    // var id -> node
  std::unordered_map<std::uint64_t, int> reg_nodes;          // func<<32|reg -> node
  // Merge target of on_arith / form-1 calls. It and every register's Prov
  // keep their capacity across records: provenance is copy-assigned in place,
  // so the replay stops allocating once the registers are warm.
  Prov scratch_prov;
  std::uint64_t edge_inserts = 0;  // add_edge calls, duplicates included

  Impl(PreprocessResult& p, const MclRegion& r, const DepOptions& o)
      : pre(p), region(r), opts(o) {
    result.induction.written_in_b.assign(pre.vars.size(), 0);
  }

  void bind_streaming() {
    streaming = true;
    pool = &owned_pool;
    region_func_id = owned_pool.intern(region.function);
    frames.push_back(AnalysisFrame{owned_pool.intern("main"), {}, SymbolPool::npos});
  }
  void bind_buffer(const TraceBuffer& buf) {
    pool = &buf.pool();
    region_func_id = pool->lookup(region.function);
    frames.push_back(AnalysisFrame{pool->lookup("main"), {}, SymbolPool::npos});
  }

  AnalysisFrame& frame() {
    AC_CHECK(!frames.empty(), "analysis frame stack underflow");
    return frames.back();
  }

  bool is_mli(int var) const {
    return var >= 0 && static_cast<std::size_t>(var) < pre.is_mli.size() &&
           pre.is_mli[static_cast<std::size_t>(var)];
  }

  bool at_header(const PackedRecord& r) const {
    return part == Part::B && r.func == region_func_id && r.line == region.begin_line;
  }

  void mark_written_in_b(int var) {
    auto& w = result.induction.written_in_b;
    if (static_cast<std::size_t>(var) >= w.size()) w.resize(static_cast<std::size_t>(var) + 1, 0);
    w[static_cast<std::size_t>(var)] = 1;
  }

  void push_event(int var, std::int64_t elem, bool is_write, int line) {
    if (!is_mli(var)) return;
    AccessEvent ev;
    ev.var = var;
    ev.elem = elem;
    ev.t = static_cast<std::uint64_t>(idx);
    ev.line = line;
    ev.iteration = iteration;
    ev.part = part;
    ev.is_write = is_write;
    result.events.push_back(ev);
  }

  int canonical_var(std::uint32_t func, std::uint32_t name, int line, std::uint64_t bytes) {
    return alloca_ids.canonical(pre.vars, *pool, func, name, line, bytes);
  }

  // --- DDG helpers ----------------------------------------------------------

  int ddg_var_node(int var) {
    const auto it = var_nodes.find(var);
    if (it != var_nodes.end()) return it->second;
    const VarDef& def = pre.vars.def(var);
    const std::string label = (def.is_global() || def.func == region.function)
                                  ? def.name
                                  : def.func + "." + def.name;
    const int node = result.complete.node(label, is_mli(var) ? NodeKind::MliVar : NodeKind::OtherVar);
    var_nodes.emplace(var, node);
    return node;
  }

  std::string_view func_label(std::uint32_t func) const {
    // The bottom frame is labeled "main" whether or not the trace contains a
    // function of that name (legacy behavior); every other id resolves
    // through the pool.
    return func == SymbolPool::absent ? std::string_view("main") : pool->view(func);
  }

  int ddg_reg_node(std::uint32_t func, std::uint32_t reg) {
    const std::uint64_t key = (static_cast<std::uint64_t>(func) << 32) | reg;
    const auto it = reg_nodes.find(key);
    if (it != reg_nodes.end()) return it->second;
    const std::string label =
        std::string(func_label(func)) + "%" + std::string(pool->view(reg));
    const int node = result.complete.node(label, NodeKind::Register);
    reg_nodes.emplace(key, node);
    return node;
  }

  void add_edge(int parent, int child) {
    ++edge_inserts;
    result.complete.add_edge(parent, child);
  }

  // --- record handlers --------------------------------------------------------

  void on_alloca(const PackedRecord& r, const PackedOperand* ops) {
    const PackedOperand* result_op = trace::find_operand(r, ops, OperandSlot::Result);
    const PackedOperand* size = trace::find_input(r, ops, 1);
    if (!result_op || !size || !result_op->is_addr()) {
      throw AnalysisError("malformed Alloca record");
    }
    const auto bytes = static_cast<std::uint64_t>(size->as_i64());
    const int id = canonical_var(r.func, result_op->name, r.line, bytes);
    amap.bind(result_op->addr(), bytes, id);
    if (static_cast<std::size_t>(id) >= pre.is_mli.size()) {
      pre.is_mli.resize(static_cast<std::size_t>(id) + 1, 0);
    }
  }

  void on_load(const PackedRecord& r, const PackedOperand* ops) {
    const PackedOperand* ptr = trace::find_input(r, ops, 1);
    const PackedOperand* result_op = trace::find_operand(r, ops, OperandSlot::Result);
    if (!ptr || !result_op || !ptr->is_addr()) throw AnalysisError("malformed Load record");
    const auto hit = amap.resolve(ptr->addr());
    Prov& prov = frame().reg_prov[result_op->name];  // rebuilt in place
    prov.sources.clear();
    if (hit) {
      prov.add(hit->var, hit->elem);
      if (opts.build_ddg) add_edge(ddg_var_node(hit->var), ddg_reg_node(r.func, result_op->name));
      if (at_header(r)) result.induction.cond_read.insert(hit->var);
    }
  }

  /// The operand's provenance; valid until the current frame's reg_prov map
  /// is next modified.
  const Prov& prov_of_operand(const PackedOperand& op) {
    if (!op.is_reg() || op.name == SymbolPool::npos) return kNoProv;
    const auto& reg_prov = frame().reg_prov;
    const auto it = reg_prov.find(op.name);
    return it == reg_prov.end() ? kNoProv : it->second;
  }

  void on_arith(const PackedRecord& r, const PackedOperand* ops) {
    const PackedOperand* result_op = trace::find_operand(r, ops, OperandSlot::Result);
    if (!result_op) return;
    scratch_prov.sources.clear();
    for (std::uint32_t i = 0; i < r.op_count; ++i) {
      const PackedOperand& op = ops[i];
      if (op.slot() != OperandSlot::Input) continue;
      scratch_prov.merge(prov_of_operand(op));
      if (opts.build_ddg && op.is_reg() && op.name != SymbolPool::npos) {
        add_edge(ddg_reg_node(r.func, op.name), ddg_reg_node(r.func, result_op->name));
      }
    }
    frame().reg_prov[result_op->name] = scratch_prov;
  }

  void on_store(const PackedRecord& r, const PackedOperand* ops) {
    const PackedOperand* value = trace::find_input(r, ops, 1);
    const PackedOperand* ptr = trace::find_input(r, ops, 2);
    if (!value || !ptr || !ptr->is_addr()) throw AnalysisError("malformed Store record");
    ++result.stores_seen;
    const auto hit = amap.resolve(ptr->addr());
    if (!hit) return;

    // Pointer assignment (paper §IV-A): storing an address transfers an
    // alias, it is neither a Read nor a Write of application data.
    if (value->is_addr() && amap.resolve(value->addr())) {
      ++result.pointer_assignments;
      return;
    }

    const Prov& sources = prov_of_operand(*value);
    for (const auto& [svar, selem] : sources.sources) {
      push_event(svar, selem, /*is_write=*/false, r.line);
    }
    push_event(hit->var, hit->elem, /*is_write=*/true, r.line);

    if (opts.build_ddg && value->is_reg() && value->name != SymbolPool::npos) {
      add_edge(ddg_reg_node(r.func, value->name), ddg_var_node(hit->var));
    }

    if (part == Part::B) {
      mark_written_in_b(hit->var);
      if (at_header(r)) {
        for (const auto& [svar, selem] : sources.sources) {
          (void)selem;
          if (svar == hit->var) result.induction.self_rmw.insert(hit->var);
        }
      }
    }
  }

  std::uint32_t arg_id(int n) {
    while (static_cast<int>(arg_ids.size()) < n) {
      const std::string name = strf("arg%zu", arg_ids.size() + 1);
      arg_ids.push_back(streaming ? owned_pool.intern(name) : pool->find(name));
    }
    return arg_ids[static_cast<std::size_t>(n - 1)];
  }

  void on_call(const PackedRecord& r, const PackedOperand* ops, bool with_body) {
    const PackedOperand* callee = trace::find_operand(r, ops, OperandSlot::Callee);
    if (!callee) throw AnalysisError("Call record without callee");
    const PackedOperand* result_op = trace::find_operand(r, ops, OperandSlot::Result);

    if (!with_body) {
      // Form 1: treated like an arithmetic instruction — argument registers
      // feed the result; argument reads of MLI variables are data reads
      // (this is how Outcome consumption by e.g. print_float is observed).
      scratch_prov.sources.clear();
      for (std::uint32_t i = 0; i < r.op_count; ++i) {
        const PackedOperand& op = ops[i];
        if (op.slot() != OperandSlot::Input) continue;
        const Prov& p = prov_of_operand(op);
        for (const auto& [svar, selem] : p.sources) {
          push_event(svar, selem, /*is_write=*/false, r.line);
        }
        scratch_prov.merge(p);
        if (opts.build_ddg && result_op && op.is_reg() && op.name != SymbolPool::npos) {
          add_edge(ddg_reg_node(r.func, op.name), ddg_reg_node(r.func, result_op->name));
        }
      }
      if (result_op) frame().reg_prov[result_op->name] = scratch_prov;
      return;
    }

    // Form 2: bind each argument's provenance to the callee's incoming
    // registers arg1..argN (the callee's parameter-binding stores complete
    // the argument -> parameter triplet, cf. Fig. 6(b)).
    AnalysisFrame next;
    next.func = callee->name;
    next.pending_dst = result_op ? result_op->name : SymbolPool::npos;
    int arg_index = 0;
    for (std::uint32_t i = 0; i < r.op_count; ++i) {
      const PackedOperand& op = ops[i];
      if (op.slot() != OperandSlot::Input) continue;
      ++arg_index;
      const std::uint32_t binding = arg_id(arg_index);
      // An absent "argN" symbol means no record anywhere references it — the
      // binding would be dead, so skip it rather than key on a sentinel.
      if (binding != SymbolPool::npos) next.reg_prov[binding] = prov_of_operand(op);
    }
    frames.push_back(std::move(next));
  }

  void on_ret(const PackedRecord& r, const PackedOperand* ops) {
    if (frames.size() < 2) return;  // a return from the bottom frame binds nothing
    const PackedOperand* value = trace::find_input(r, ops, 1);
    AnalysisFrame& callee = frames.back();
    AnalysisFrame& caller = frames[frames.size() - 2];
    if (callee.pending_dst != SymbolPool::npos) {
      if (opts.build_ddg && value && value->is_reg() && value->name != SymbolPool::npos) {
        // Bind the callee's return register to the caller's result register
        // so dependency chains survive function boundaries in the DDG.
        add_edge(ddg_reg_node(r.func, value->name), ddg_reg_node(caller.func, callee.pending_dst));
      }
      const Prov& ret = value ? prov_of_operand(*value) : kNoProv;  // callee's map
      caller.reg_prov[callee.pending_dst] = ret;
    }
    frames.pop_back();
  }

  void on_br(const PackedRecord& r, const PackedOperand* ops) {
    // A conditional branch at the MCL header line delimits iterations.
    if (at_header(r) && trace::find_input(r, ops, 1) != nullptr) ++iteration;
  }

  void dispatch(const PackedRecord& r, const PackedOperand* ops) {
    ++idx;
    part = pre.partition.part_of(idx);
    switch (r.opcode) {
      case Opcode::Alloca: on_alloca(r, ops); break;
      case Opcode::Load: on_load(r, ops); break;
      case Opcode::Store: on_store(r, ops); break;
      case Opcode::Call: break;  // handled by the lookahead buffer in add()
      case Opcode::Ret: on_ret(r, ops); break;
      case Opcode::Br: on_br(r, ops); break;
      case Opcode::GetElementPtr:
      case Opcode::BitCast:
        break;  // pointer computations: resolution is by runtime address
      default:
        if (trace::is_arithmetic(r.opcode)) on_arith(r, ops);
        break;
    }
  }

  void add_packed(const PackedRecord& r, const PackedOperand* ops) {
    if (have_pending_call) {
      const PackedOperand* callee = trace::find_operand(pending_rec, pending_ops.data(), OperandSlot::Callee);
      const bool with_body = callee && r.func == callee->name;
      have_pending_call = false;
      dispatch_call(pending_rec, pending_ops.data(), with_body);
    }
    if (r.opcode == Opcode::Call) {
      pending_rec = r;
      pending_ops.assign(ops, ops + r.op_count);
      have_pending_call = true;
      return;
    }
    dispatch(r, ops);
  }

  void add(const TraceRecord& rec) {
    scratch_rec.clear();
    scratch_ops.clear();
    trace::pack_record(rec, owned_pool, scratch_rec, scratch_ops);
    add_packed(scratch_rec[0], scratch_ops.data());
  }

  void dispatch_call(const PackedRecord& call, const PackedOperand* ops, bool with_body) {
    ++idx;
    part = pre.partition.part_of(idx);
    on_call(call, ops, with_body);
  }

  DepResult finish() {
    if (have_pending_call) {
      have_pending_call = false;
      dispatch_call(pending_rec, pending_ops.data(), /*with_body=*/false);
    }
    result.iterations = iteration;
    note_counters();
    return std::move(result);
  }

  /// Bulk metric update, once per replay — the record loop stays untouched.
  void note_counters() const {
    static auto& records = telemetry::metrics().counter("dep.records");
    static auto& events = telemetry::metrics().counter("dep.events");
    static auto& inserts = telemetry::metrics().counter("dep.edge_inserts");
    static auto& edges = telemetry::metrics().counter("dep.ddg_edges");
    records.add(static_cast<std::uint64_t>(idx + 1));
    events.add(result.events.size());
    inserts.add(edge_inserts);
    edges.add(result.complete.num_edges());
  }
};

DepAnalyzer::DepAnalyzer(PreprocessResult& pre, const MclRegion& region, const DepOptions& opts)
    : impl_(new Impl(pre, region, opts)) {
  impl_->bind_streaming();
}

DepAnalyzer::~DepAnalyzer() = default;

void DepAnalyzer::add(const trace::TraceRecord& rec) { impl_->add(rec); }

DepResult DepAnalyzer::finish() { return impl_->finish(); }

DepResult dep_analysis(const TraceBuffer& buf, PreprocessResult& pre, const MclRegion& region,
                       const DepOptions& opts) {
  DepAnalyzer::Impl impl(pre, region, opts);
  impl.bind_buffer(buf);
  const PackedOperand* ops = buf.operands().data();
  for (const PackedRecord& rec : buf.records()) impl.add_packed(rec, ops + rec.op_offset);
  return impl.finish();
}

}  // namespace ac::analysis
