#include "vm/interp.hpp"

#include <array>
#include <cinttypes>
#include <cmath>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"

namespace ac::vm {

using trace::Opcode;
using trace::OperandSlot;
using trace::PackedOperand;

namespace {

/// Trace opcode for a Bin instruction.
Opcode bin_opcode(ir::BinOp op, bool is_float) {
  switch (op) {
    case ir::BinOp::Add: return is_float ? Opcode::FAdd : Opcode::Add;
    case ir::BinOp::Sub: return is_float ? Opcode::FSub : Opcode::Sub;
    case ir::BinOp::Mul: return is_float ? Opcode::FMul : Opcode::Mul;
    case ir::BinOp::Div: return is_float ? Opcode::FDiv : Opcode::SDiv;
    case ir::BinOp::Rem: return is_float ? Opcode::FRem : Opcode::SRem;
    default: return is_float ? Opcode::FCmp : Opcode::ICmp;
  }
}

/// Trace opcode of a non-Call instruction.
Opcode trace_opcode(const ir::Instr& in) {
  switch (in.kind) {
    case ir::IKind::Alloca: return Opcode::Alloca;
    case ir::IKind::Load: return Opcode::Load;
    case ir::IKind::Store: return Opcode::Store;
    case ir::IKind::Gep: return Opcode::GetElementPtr;
    case ir::IKind::Bin: return bin_opcode(in.bin, in.is_float);
    case ir::IKind::Cast: return in.cast == ir::CastKind::SiToFp ? Opcode::SIToFP : Opcode::FPToSI;
    case ir::IKind::Br:
    case ir::IKind::Jmp: return Opcode::Br;
    case ir::IKind::Ret: return Opcode::Ret;
    case ir::IKind::Call: break;
  }
  return Opcode::Call;
}

/// Name of the variable in `vars[slot]`, or "" for a slot the verifier would
/// reject (executing it throws).
std::string var_name(const std::vector<ir::VarInfo>& vars, int slot) {
  return slot >= 0 && static_cast<std::size_t>(slot) < vars.size()
             ? vars[static_cast<std::size_t>(slot)].name
             : std::string();
}

/// Trace name of operand `o` of a `fn` instruction: its register number, its
/// variable's name, or "" for an immediate.
std::string opnd_name(const ir::Module& m, const ir::Function& fn, const ir::Opnd& o) {
  switch (o.kind) {
    case ir::Opnd::Kind::Reg: return strf("%d", o.reg);
    case ir::Opnd::Kind::Var: return var_name(o.var_is_global ? m.globals : fn.locals, o.var_slot);
    default: return "";
  }
}

}  // namespace

Interpreter::Interpreter(const ir::Module& module) : module_(module) {
  global_addr_.reserve(module_.globals.size());
  for (const auto& g : module_.globals) {
    global_addr_.push_back(arena_.alloc_global(static_cast<std::uint64_t>(g.bytes())));
  }

  // Globals appear in the trace as Alloca records in a synthetic "<global>"
  // function so the analysis can build its address map for them (the paper's
  // FT workaround depends on globals being visible; see DESIGN.md).
  for (const ir::VarInfo& g : module_.globals) {
    InstrTemplate t = begin_template("<global>", g.decl_line, Opcode::Alloca);
    add_operand(t, OperandSlot::Input, 1, false, "");
    add_operand(t, OperandSlot::Result, 0, true, g.name);
    global_templates_.push_back(t);
  }
  fn_templates_.resize(module_.functions.size());
  for (std::size_t i = 0; i < module_.functions.size(); ++i) {
    const ir::Function& fn = module_.functions[i];
    FunctionTemplates& ft = fn_templates_[i];
    ft.instrs.reserve(fn.instrs.size());
    for (const ir::Instr& in : fn.instrs) ft.instrs.push_back(instr_template(fn, in));
    // Argument binding: each incoming value is stored into its parameter
    // slot, traced as a Store of register "arg<i>" into the parameter
    // variable — giving the analysis the argument->parameter correlation that
    // complements the Call record's triplets.
    for (int p = 0; p < fn.num_params; ++p) {
      InstrTemplate t = begin_template(fn.name, fn.decl_line, Opcode::Store);
      add_operand(t, OperandSlot::Input, 1, true, strf("arg%d", p + 1));
      add_operand(t, OperandSlot::Input, 2, true, var_name(fn.locals, p));
      ft.params.push_back(t);
    }
  }
}

Interpreter::InstrTemplate Interpreter::begin_template(std::string_view func, int line,
                                                       Opcode opcode) {
  InstrTemplate t;
  t.rec.func = pool_.intern(func);
  t.rec.bb = pool_.intern(strf("%d:0", line));
  t.rec.line = line;
  t.rec.opcode = opcode;
  t.rec.op_offset = static_cast<std::uint32_t>(op_templates_.size());
  return t;
}

void Interpreter::add_operand(InstrTemplate& t, OperandSlot slot, int index, bool is_reg,
                              std::string_view name) {
  PackedOperand op;
  op.name = pool_.intern(name);
  op.index = index;
  op.flags = PackedOperand::pack_flags(slot, trace::ValueKind::Int, is_reg);
  op_templates_.push_back(op);
  ++t.rec.op_count;
  if (t.rec.op_count > record_ops_.size()) record_ops_.resize(t.rec.op_count);
}

void Interpreter::add_input(InstrTemplate& t, const ir::Function& fn, const ir::Opnd& o,
                            int index) {
  const bool is_reg = o.kind == ir::Opnd::Kind::Reg || o.kind == ir::Opnd::Kind::Var;
  add_operand(t, OperandSlot::Input, index, is_reg, opnd_name(module_, fn, o));
}

Interpreter::InstrTemplate Interpreter::instr_template(const ir::Function& fn,
                                                       const ir::Instr& in) {
  if (in.kind == ir::IKind::Call) return call_template(fn, in);
  InstrTemplate t = begin_template(fn.name, in.line, trace_opcode(in));
  switch (in.kind) {
    case ir::IKind::Alloca:
      add_operand(t, OperandSlot::Input, 1, false, "");
      add_operand(t, OperandSlot::Result, 0, true, var_name(fn.locals, in.var_slot));
      return t;
    case ir::IKind::Gep:
      add_input(t, fn, in.base, 1);
      for (std::size_t i = 0; i < in.indices.size(); ++i) {
        const ir::Opnd& idx = in.indices[i];
        add_operand(t, OperandSlot::Input, static_cast<int>(i) + 2,
                    idx.kind == ir::Opnd::Kind::Reg, opnd_name(module_, fn, idx));
      }
      break;
    case ir::IKind::Store:
    case ir::IKind::Bin:
      add_input(t, fn, in.a, 1);
      add_input(t, fn, in.b, 2);
      break;
    case ir::IKind::Jmp: return t;
    case ir::IKind::Ret:
      if (!in.a.is_none()) add_input(t, fn, in.a, 1);
      return t;
    default:  // Load, Cast, Br
      add_input(t, fn, in.a, 1);
      break;
  }
  if (in.kind != ir::IKind::Store && in.kind != ir::IKind::Br) {
    add_operand(t, OperandSlot::Result, 0, true, strf("%d", in.dst));
  }
  return t;
}

Interpreter::Builtin Interpreter::find_builtin(std::string_view name) {
  static constexpr std::pair<std::string_view, Builtin> kBuiltins[] = {
      {"sqrt", Builtin::Sqrt},   {"fabs", Builtin::Fabs},
      {"exp", Builtin::Exp},     {"log", Builtin::Log},
      {"sin", Builtin::Sin},     {"cos", Builtin::Cos},
      {"floor", Builtin::Floor}, {"pow", Builtin::Pow},
      {"timer", Builtin::Timer}, {"print_int", Builtin::PrintInt},
      {"print_float", Builtin::PrintFloat},
  };
  for (const auto& [n, b] : kBuiltins) {
    if (n == name) return b;
  }
  return Builtin::Unknown;
}

Interpreter::InstrTemplate Interpreter::call_template(const ir::Function& fn,
                                                      const ir::Instr& in) {
  InstrTemplate t = begin_template(fn.name, in.line, Opcode::Call);
  add_operand(t, OperandSlot::Callee, 0, false, in.callee);
  for (std::size_t i = 0; i < in.args.size(); ++i) {
    const ir::Opnd& a = in.args[i];
    add_operand(t, OperandSlot::Input, static_cast<int>(i) + 1,
                a.kind != ir::Opnd::Kind::ImmI && a.kind != ir::Opnd::Kind::ImmF,
                opnd_name(module_, fn, a));
  }
  if (in.is_builtin) {
    // Call form 1: the builtin's result row, if it has one.
    t.builtin = find_builtin(in.callee);
    const bool prints = t.builtin == Builtin::PrintInt || t.builtin == Builtin::PrintFloat;
    if (t.builtin != Builtin::Unknown && !prints) {
      add_operand(t, OperandSlot::Result, 0, true, strf("%d", in.dst));
    }
    return t;
  }
  // Call form 2 (Fig. 6(b)): argument operands followed by parameter
  // indicator rows binding each argument value to the formal parameter name,
  // plus a result placeholder naming the destination register (see DESIGN.md).
  t.callee = module_.find_function(in.callee);
  if (t.callee == nullptr) return t;  // executing the call throws
  for (std::size_t i = 0; i < in.args.size(); ++i) {
    add_operand(t, OperandSlot::Param, 0, true,
                var_name(t.callee->locals, static_cast<int>(i)));
  }
  if (in.dst >= 0) add_operand(t, OperandSlot::Result, 0, true, strf("%d", in.dst));
  return t;
}

bool Interpreter::count_step() {
  ++dyn_id_;
  ++result_.steps;
  if (result_.steps > opts_->max_steps) throw VmError("step limit exceeded (runaway program?)");
  return opts_->sink != nullptr;
}

void Interpreter::emit(const InstrTemplate& t, std::span<const Value> values) {
  AC_CHECK(values.size() == t.rec.op_count, "trace template operand count mismatch");
  record_ = t.rec;
  record_.dyn_id = dyn_id_ - 1;
  record_.op_offset = 0;
  const PackedOperand* ops = op_templates_.data() + t.rec.op_offset;
  for (std::size_t i = 0; i < values.size(); ++i) {
    record_ops_[i] = ops[i];
    record_ops_[i].set_value(values[i]);
  }
  opts_->sink->append(trace::RecordView(pool_, record_, record_ops_.data()));
}

void Interpreter::emit_global_allocas() {
  for (std::size_t i = 0; i < module_.globals.size(); ++i) {
    if (count_step()) {
      emit(global_templates_[i], std::array{Value::make_int(module_.globals[i].bytes()),
                                            Value::make_addr(global_addr_[i])});
    }
  }
}

std::uint64_t Interpreter::slot_address(const Frame& f, int slot, bool is_global) const {
  if (is_global) return global_addr_.at(static_cast<std::size_t>(slot));
  const std::uint64_t addr = f.slot_addr.at(static_cast<std::size_t>(slot));
  if (addr == 0) throw VmError("use of local before its alloca: " + f.fn->local(slot).name);
  return addr;
}

Value Interpreter::eval(const Frame& f, const ir::Opnd& o) const {
  switch (o.kind) {
    case ir::Opnd::Kind::Reg: return f.regs.at(static_cast<std::size_t>(o.reg));
    case ir::Opnd::Kind::ImmI: return Value::make_int(o.imm_i);
    case ir::Opnd::Kind::ImmF: return Value::make_float(o.imm_f);
    case ir::Opnd::Kind::Var:
      return Value::make_addr(slot_address(f, o.var_slot, o.var_is_global));
    case ir::Opnd::Kind::None: break;
  }
  throw VmError("evaluating empty operand");
}

// ---------------------------------------------------------------------------
// Frame management
// ---------------------------------------------------------------------------

void Interpreter::push_frame(const ir::Function& fn, const std::vector<Value>& args,
                             int pending_dst) {
  if (frames_.size() > 512) throw VmError("call stack overflow");
  Frame fr;
  fr.fn = &fn;
  fr.tmpl = &fn_templates_[static_cast<std::size_t>(&fn - module_.functions.data())];
  fr.slot_addr.assign(fn.locals.size(), 0);
  fr.regs.assign(static_cast<std::size_t>(fn.num_regs), Value{});
  fr.pc = 0;
  fr.stack_mark = arena_.stack_mark();
  fr.pending_dst = pending_dst;
  frames_.push_back(std::move(fr));

  // Execute the prologue allocas (codegen puts every local's Alloca first).
  Frame& f = top();
  while (f.pc < static_cast<int>(fn.instrs.size()) &&
         fn.instrs[static_cast<std::size_t>(f.pc)].kind == ir::IKind::Alloca) {
    const auto pc = static_cast<std::size_t>(f.pc);
    exec_alloca(fn.instrs[pc], f.tmpl->instrs[pc]);
    ++f.pc;
  }

  // Bind arguments: each incoming value is stored into its parameter slot
  // (the parameter templates built in the constructor).
  AC_CHECK(args.size() == static_cast<std::size_t>(fn.num_params), "call arity mismatch");
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::uint64_t addr = f.slot_addr[i];
    arena_.write(addr, args[i]);
    if (count_step()) emit(f.tmpl->params[i], std::array{args[i], Value::make_addr(addr)});
  }
}

void Interpreter::pop_frame(const Value* ret_value) {
  const int pending = top().pending_dst;
  arena_.release_stack(top().stack_mark);
  frames_.pop_back();
  if (!frames_.empty() && pending >= 0) {
    AC_CHECK(ret_value != nullptr, "non-void call returned no value");
    top().regs.at(static_cast<std::size_t>(pending)) = *ret_value;
  }
}

// ---------------------------------------------------------------------------
// Instruction execution
// ---------------------------------------------------------------------------

void Interpreter::exec_alloca(const ir::Instr& in, const InstrTemplate& t) {
  Frame& f = top();
  const ir::VarInfo& v = f.fn->local(in.var_slot);
  const std::uint64_t addr = arena_.alloc_stack(static_cast<std::uint64_t>(v.bytes()));
  f.slot_addr[static_cast<std::size_t>(in.var_slot)] = addr;
  result_.peak_memory = std::max(result_.peak_memory, arena_.peak_bytes());
  if (count_step()) emit(t, std::array{Value::make_int(v.bytes()), Value::make_addr(addr)});
}

void Interpreter::exec_load(const ir::Instr& in, const InstrTemplate& t) {
  Frame& f = top();
  const Value ptr = eval(f, in.a);
  if (!ptr.is_addr()) throw VmError("load through a non-pointer value");
  const Value v = arena_.read(ptr.addr);
  f.regs.at(static_cast<std::size_t>(in.dst)) = v;
  if (count_step()) emit(t, std::array{ptr, v});
}

void Interpreter::exec_store(const ir::Instr& in, const InstrTemplate& t) {
  Frame& f = top();
  const Value v = eval(f, in.a);
  const Value ptr = eval(f, in.b);
  if (!ptr.is_addr()) throw VmError("store through a non-pointer value");
  arena_.write(ptr.addr, v);
  if (count_step()) emit(t, std::array{v, ptr});
}

void Interpreter::exec_gep(const ir::Instr& in, const InstrTemplate& t) {
  Frame& f = top();
  const Value base = eval(f, in.base);
  if (!base.is_addr()) throw VmError("gep on a non-pointer base");
  std::int64_t elem_offset = 0;
  for (std::size_t i = 0; i < in.indices.size(); ++i) {
    const Value idx = eval(f, in.indices[i]);
    if (!idx.is_int()) throw VmError("non-integer array subscript");
    elem_offset += idx.i * in.strides[i];
  }
  const std::uint64_t addr =
      base.addr + static_cast<std::uint64_t>(elem_offset) * kCellBytes;
  f.regs.at(static_cast<std::size_t>(in.dst)) = Value::make_addr(addr);
  if (!count_step()) return;
  values_.assign(1, base);
  for (const ir::Opnd& idx : in.indices) values_.push_back(eval(f, idx));
  values_.push_back(Value::make_addr(addr));
  emit(t, values_);
}

void Interpreter::exec_bin(const ir::Instr& in, const InstrTemplate& t) {
  Frame& f = top();
  const Value a = eval(f, in.a);
  const Value b = eval(f, in.b);
  Value out;

  if (in.is_float) {
    const double x = a.as_f64();
    const double y = b.as_f64();
    switch (in.bin) {
      case ir::BinOp::Add: out = Value::make_float(x + y); break;
      case ir::BinOp::Sub: out = Value::make_float(x - y); break;
      case ir::BinOp::Mul: out = Value::make_float(x * y); break;
      case ir::BinOp::Div:
        if (y == 0.0) throw VmError(strf("float division by zero at line %d", in.line));
        out = Value::make_float(x / y);
        break;
      case ir::BinOp::Rem:
        if (y == 0.0) throw VmError(strf("float remainder by zero at line %d", in.line));
        out = Value::make_float(std::fmod(x, y));
        break;
      case ir::BinOp::CmpEQ: out = Value::make_int(x == y); break;
      case ir::BinOp::CmpNE: out = Value::make_int(x != y); break;
      case ir::BinOp::CmpLT: out = Value::make_int(x < y); break;
      case ir::BinOp::CmpLE: out = Value::make_int(x <= y); break;
      case ir::BinOp::CmpGT: out = Value::make_int(x > y); break;
      case ir::BinOp::CmpGE: out = Value::make_int(x >= y); break;
    }
  } else {
    if (a.is_addr() || b.is_addr()) throw VmError(strf("pointer arithmetic at line %d", in.line));
    const std::int64_t x = a.as_i64();
    const std::int64_t y = b.as_i64();
    switch (in.bin) {
      case ir::BinOp::Add: out = Value::make_int(x + y); break;
      case ir::BinOp::Sub: out = Value::make_int(x - y); break;
      case ir::BinOp::Mul: out = Value::make_int(x * y); break;
      case ir::BinOp::Div:
        if (y == 0) throw VmError(strf("integer division by zero at line %d", in.line));
        out = Value::make_int(x / y);
        break;
      case ir::BinOp::Rem:
        if (y == 0) throw VmError(strf("integer remainder by zero at line %d", in.line));
        out = Value::make_int(x % y);
        break;
      case ir::BinOp::CmpEQ: out = Value::make_int(x == y); break;
      case ir::BinOp::CmpNE: out = Value::make_int(x != y); break;
      case ir::BinOp::CmpLT: out = Value::make_int(x < y); break;
      case ir::BinOp::CmpLE: out = Value::make_int(x <= y); break;
      case ir::BinOp::CmpGT: out = Value::make_int(x > y); break;
      case ir::BinOp::CmpGE: out = Value::make_int(x >= y); break;
    }
  }
  f.regs.at(static_cast<std::size_t>(in.dst)) = out;
  if (count_step()) emit(t, std::array{a, b, out});
}

void Interpreter::exec_cast(const ir::Instr& in, const InstrTemplate& t) {
  Frame& f = top();
  const Value a = eval(f, in.a);
  Value out;
  if (in.cast == ir::CastKind::SiToFp) {
    out = Value::make_float(static_cast<double>(a.as_i64()));
  } else {
    out = Value::make_int(static_cast<std::int64_t>(a.as_f64()));
  }
  f.regs.at(static_cast<std::size_t>(in.dst)) = out;
  if (count_step()) emit(t, std::array{a, out});
}

void Interpreter::exec_br(const ir::Instr& in, const InstrTemplate& t) {
  Frame& f = top();

  if (in.kind == ir::IKind::Jmp) {
    if (count_step()) emit(t, {});
    f.pc = in.t_true;
    return;
  }

  // Conditional branch at the MCL header line == an iteration boundary.
  const bool is_header = f.fn == mcl_fn_ && in.line == mcl_line_;
  if (is_header) on_header_evaluation();

  const Value cond = eval(f, in.a);
  if (count_step()) emit(t, std::array{cond});

  const bool taken =
      cond.is_float() ? cond.f != 0.0 : (cond.is_addr() ? cond.addr != 0 : cond.i != 0);
  if (is_header && taken) ++result_.iterations_started;
  f.pc = taken ? in.t_true : in.t_false;
}

void Interpreter::exec_call(const ir::Instr& in, const InstrTemplate& t) {
  Frame& f = top();
  std::vector<Value> args;
  args.reserve(in.args.size());
  for (const auto& a : in.args) args.push_back(eval(f, a));

  if (in.is_builtin) {
    if (t.builtin == Builtin::Unknown) throw VmError("unknown builtin: " + in.callee);
    const std::optional<Value> ret = run_builtin(t.builtin, args);
    if (ret) {
      AC_CHECK(in.dst >= 0, "builtin result dropped");
      f.regs.at(static_cast<std::size_t>(in.dst)) = *ret;
    }
    if (!count_step()) return;
    values_.assign(1, Value::make_addr(0));  // the callee row
    values_.insert(values_.end(), args.begin(), args.end());
    if (ret) values_.push_back(*ret);
    emit(t, values_);
    return;
  }

  AC_CHECK(t.callee != nullptr, "call to unknown function " + in.callee);
  if (count_step()) {
    values_.assign(1, Value::make_addr(0));  // the callee row
    values_.insert(values_.end(), args.begin(), args.end());  // arguments
    values_.insert(values_.end(), args.begin(), args.end());  // parameter rows
    if (in.dst >= 0) values_.push_back(Value::make_int(0));   // result placeholder
    emit(t, values_);
  }
  push_frame(*t.callee, args, in.dst);
}

std::optional<Value> Interpreter::run_builtin(Builtin b, const std::vector<Value>& args) {
  auto f1 = [&](double (*fn)(double)) { return Value::make_float(fn(args.at(0).as_f64())); };
  switch (b) {
    case Builtin::Sqrt: return f1(std::sqrt);
    case Builtin::Fabs: return f1(std::fabs);
    case Builtin::Exp: return f1(std::exp);
    case Builtin::Log: return f1(std::log);
    case Builtin::Sin: return f1(std::sin);
    case Builtin::Cos: return f1(std::cos);
    case Builtin::Floor: return f1(std::floor);
    case Builtin::Pow:
      return Value::make_float(std::pow(args.at(0).as_f64(), args.at(1).as_f64()));
    case Builtin::Timer:
      // Deterministic monotonically increasing pseudo-time, so benchmarks that
      // accumulate timers (HPCCG's t1..t3, miniAMR's timer block) reproduce
      // bit-identical traces on every run.
      timer_counter_ += 0.001;
      return Value::make_float(timer_counter_);
    case Builtin::PrintInt:
      result_.output += strf("%" PRId64 "\n", args.at(0).as_i64());
      return std::nullopt;
    case Builtin::PrintFloat:
      result_.output += strf("%.6f\n", args.at(0).as_f64());
      return std::nullopt;
    case Builtin::None:
    case Builtin::Unknown: break;
  }
  throw VmError("not a builtin call");
}

void Interpreter::exec_ret(const ir::Instr& in, const InstrTemplate& t) {
  Frame& f = top();
  if (!in.a.is_none()) {
    const Value v = eval(f, in.a);
    if (count_step()) emit(t, std::array{v});
    if (frames_.size() == 1) result_.exit_code = v.as_i64();
    pop_frame(&v);
  } else {
    if (count_step()) emit(t, {});
    pop_frame(nullptr);
  }
}

void Interpreter::exec_instr(const ir::Instr& in, const InstrTemplate& t) {
  switch (in.kind) {
    case ir::IKind::Alloca: exec_alloca(in, t); break;
    case ir::IKind::Load: exec_load(in, t); break;
    case ir::IKind::Store: exec_store(in, t); break;
    case ir::IKind::Gep: exec_gep(in, t); break;
    case ir::IKind::Bin: exec_bin(in, t); break;
    case ir::IKind::Cast: exec_cast(in, t); break;
    case ir::IKind::Br:
    case ir::IKind::Jmp: exec_br(in, t); break;
    case ir::IKind::Call: exec_call(in, t); break;
    case ir::IKind::Ret: exec_ret(in, t); break;
  }
}

// ---------------------------------------------------------------------------
// MCL instrumentation
// ---------------------------------------------------------------------------

std::vector<ckpt::ProtectedRegion>
Interpreter::resolve_protected(const std::vector<std::string>& names) const {
  // Resolution scope: the MCL host function's live frame, then globals —
  // the same scope in which the paper inserts FTI_Protect calls.
  const Frame& f = frames_.back();
  std::vector<ckpt::ProtectedRegion> out;
  for (const auto& name : names) {
    bool found = false;
    for (std::size_t slot = 0; slot < f.fn->locals.size(); ++slot) {
      if (f.fn->locals[slot].name == name) {
        out.push_back({name, f.slot_addr[slot],
                       static_cast<std::uint64_t>(f.fn->locals[slot].bytes())});
        found = true;
        break;
      }
    }
    if (!found) {
      for (std::size_t g = 0; g < module_.globals.size(); ++g) {
        if (module_.globals[g].name == name) {
          out.push_back({name, global_addr_[g],
                         static_cast<std::uint64_t>(module_.globals[g].bytes())});
          found = true;
          break;
        }
      }
    }
    if (!found) throw CheckpointError("cannot resolve protected variable: " + name);
  }
  return out;
}

ckpt::CheckpointImage Interpreter::snapshot(const std::vector<std::string>& names) const {
  return ckpt::snapshot_regions(arena_, resolve_protected(names));
}

void Interpreter::apply_restore(const ckpt::CheckpointImage& img) {
  for (const auto& snap : img.vars()) {
    const ckpt::ProtectedRegion region = resolve_protected({snap.name}).front();
    if (snap.cells.size() * kCellBytes != region.bytes) {
      throw CheckpointError("size mismatch restoring variable: " + snap.name);
    }
    for (std::size_t i = 0; i < snap.cells.size(); ++i) {
      arena_.write_raw(region.addr + i * kCellBytes,
                       Arena::RawCell{snap.cells[i].payload,
                                      static_cast<ValueKind>(snap.cells[i].kind)});
    }
  }
}

ckpt::MachineState Interpreter::machine_state() const {
  ckpt::MachineState st;
  st.arena_bytes = arena_.bytes_in_use();
  st.num_frames = frames_.size();
  for (const auto& f : frames_) {
    st.total_regs += f.regs.size();
    st.total_slots += f.slot_addr.size();
  }
  return st;
}

void Interpreter::on_header_evaluation() {
  // Restore normally fires before the condition loads (see run()); this is
  // the fallback for degenerate headers without loads.
  if (opts_->restore && !restored_) {
    apply_restore(*opts_->restore);
    restored_ = true;
    ++iteration_;
    return;
  }

  ++iteration_;
  const bool completed_an_iteration = iteration_ >= 2;

  if (completed_an_iteration && opts_->on_machine_state) {
    opts_->on_machine_state(machine_state());
  }
  const int interval = std::max(1, opts_->checkpoint_interval);
  const bool interval_due = (iteration_ - 1) % interval == 0;
  if (completed_an_iteration && interval_due && opts_->on_checkpoint &&
      !opts_->protect.empty()) {
    ckpt::CheckpointImage img = snapshot(opts_->protect);
    img.set_iteration(iteration_ - 1);
    opts_->on_checkpoint(img);
  }
  if (completed_an_iteration && opts_->engine) {
    if (!engine_regions_bound_) {
      engine_regions_ = resolve_protected(opts_->engine->protected_names());
      engine_regions_bound_ = true;
    }
    opts_->engine->on_iteration(iteration_ - 1, arena_, engine_regions_);
  }
  if (opts_->fail_at_iteration > 0 && iteration_ == opts_->fail_at_iteration) {
    throw FailStop{iteration_};
  }
}

// ---------------------------------------------------------------------------
// Top-level run loop
// ---------------------------------------------------------------------------

RunResult Interpreter::run(const RunOptions& opts) {
  // One coarse span per run plus a bulk instruction-counter update at the
  // end — the dispatch loop itself stays free of instrumentation.
  AC_SPAN("vm.run");
  opts_ = &opts;
  result_ = RunResult{};
  mcl_fn_ = opts.mcl ? module_.find_function(opts.mcl->function) : nullptr;
  mcl_line_ = opts.mcl ? opts.mcl->begin_line : 0;
  const ir::Function* main_fn = module_.find_function("main");
  if (!main_fn) throw VmError("module has no main()");
  if (main_fn->num_params != 0) throw VmError("main() must take no parameters");

  emit_global_allocas();
  push_frame(*main_fn, {}, -1);

  try {
    while (!frames_.empty()) {
      Frame& f = top();
      AC_CHECK(f.pc >= 0 && f.pc < static_cast<int>(f.fn->instrs.size()),
               "pc out of range in " + f.fn->name);
      const auto pc = static_cast<std::size_t>(f.pc);
      const ir::Instr& in = f.fn->instrs[pc];
      const InstrTemplate& t = f.tmpl->instrs[pc];

      // Restart path: apply the checkpoint the first time execution reaches
      // the loop header — after the (constant) loop-init store, but *before*
      // the condition loads, so the restored induction value governs whether
      // the loop body runs at all. This is the paper's "reading checkpoints
      // ... right before the main computation loop" insertion point (§II-B).
      if (opts_->restore && !restored_ && f.fn == mcl_fn_ && in.line == mcl_line_ &&
          in.kind != ir::IKind::Store && in.kind != ir::IKind::Alloca) {
        apply_restore(*opts_->restore);
        restored_ = true;
      }

      ++f.pc;  // control-flow instructions overwrite pc below
      exec_instr(in, t);
    }
  } catch (const FailStop& fs) {
    result_.failed = true;
    result_.iterations_started = fs.iteration - 1;
  }
  result_.peak_memory = std::max(result_.peak_memory, arena_.peak_bytes());
  static auto& instrs = telemetry::metrics().counter("vm.instructions");
  instrs.add(result_.steps);
  return result_;
}

RunResult run_module(const ir::Module& module, const RunOptions& opts) {
  Interpreter interp(module);
  return interp.run(opts);
}

}  // namespace ac::vm
