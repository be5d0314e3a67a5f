// The tracing interpreter: executes a mini-IR module and emits a dynamic
// instruction execution trace in the LLVM-Tracer block format.
//
// Everything about an instruction's trace record that does not change between
// executions — function and block names, opcode, operand names and flags — is
// resolved once per ir::Instr when the Interpreter is built, into a template
// whose names live in the interpreter's SymbolPool. An executed instruction
// fills in only its dyn_id and operand values and hands the sink a
// trace::RecordView; with no sink it only counts the step.
//
// Besides plain execution it provides the three capabilities the paper's
// validation methodology needs (§VI-B):
//   * main-computation-loop (MCL) iteration tracking — a conditional branch
//     at the MCL header line delimits iterations;
//   * checkpoint hook — at every iteration boundary the protected variables
//     are snapshotted into a ckpt::CheckpointImage (the paper inserts FTI
//     calls at the bottom of the loop; the boundary is the same program
//     point);
//   * fail-stop injection and restore-at-loop-entry — the paper raises
//     SIGTERM inside the loop and restarts reading checkpoints right before
//     the main loop.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ckpt/blcr.hpp"
#include "ckpt/engine.hpp"
#include "ckpt/image.hpp"
#include "ir/ir.hpp"
#include "trace/writer.hpp"
#include "vm/memory.hpp"

namespace ac::vm {

/// Identifies the main computation loop by host function + source line range
/// (the MCLR column of Table II). begin_line must be the loop-header line.
struct MclRegion {
  std::string function = "main";
  int begin_line = 0;
  int end_line = 0;
};

/// Thrown (and caught internally by run()) when fail-stop injection fires.
struct FailStop {
  int iteration = 0;
};

struct RunOptions {
  /// Trace output: every executed instruction is appended as a RecordView
  /// over its per-instruction template. nullptr = do not trace: no record is
  /// built, and steps/max_steps count exactly as in a traced run.
  trace::TraceSink* sink = nullptr;

  /// Loop instrumentation (checkpoint/failure/restore need this).
  std::optional<MclRegion> mcl;

  /// Variables to checkpoint at each iteration boundary: resolved against the
  /// MCL host function's locals, then module globals.
  std::vector<std::string> protect;

  /// Called with a fresh image at the end of every `checkpoint_interval`-th
  /// completed iteration (the paper's "periodically ... with a certain
  /// interval", §II-B).
  std::function<void(const ckpt::CheckpointImage&)> on_checkpoint;

  /// Checkpoint every N completed iterations (N >= 1).
  int checkpoint_interval = 1;

  /// Called at every iteration boundary with the live machine state
  /// (BLCR-style full-image cost measurements).
  std::function<void(const ckpt::MachineState&)> on_machine_state;

  /// Full checkpoint-engine integration: at every iteration boundary the
  /// engine's registered variables are bound to their arena ranges and the
  /// engine decides (per its policy) whether to capture an incremental or
  /// full snapshot. Independent of the on_checkpoint hook above.
  ckpt::CheckpointEngine* engine = nullptr;

  /// Inject a fail-stop when this iteration is about to start (1-based);
  /// -1 disables. The failure fires after iteration N-1's checkpoint.
  int fail_at_iteration = -1;

  /// Restore this image when execution first reaches the MCL header
  /// (restart path). Variables resolve like `protect`.
  const ckpt::CheckpointImage* restore = nullptr;

  /// Runaway guard.
  std::uint64_t max_steps = 2'000'000'000ull;
};

struct RunResult {
  std::string output;           // concatenated print_int/print_float lines
  std::int64_t exit_code = 0;   // main's return value
  std::uint64_t steps = 0;      // dynamic instructions executed
  std::uint64_t peak_memory = 0;
  int iterations_started = 0;   // MCL header evaluations that entered the body
  bool failed = false;          // fail-stop injection fired
};

class Interpreter {
 public:
  explicit Interpreter(const ir::Module& module);

  /// Execute main() to completion (or injected failure). Reusable only once.
  RunResult run(const RunOptions& opts);

 private:
  enum class Builtin : std::uint8_t {
    None, Sqrt, Fabs, Exp, Log, Sin, Cos, Floor, Pow, Timer, PrintInt, PrintFloat, Unknown
  };

  /// One instruction's trace record minus what changes per execution, plus
  /// its call target. rec.op_offset/op_count index op_templates_; names are
  /// ids in pool_.
  struct InstrTemplate {
    trace::PackedRecord rec;
    const ir::Function* callee = nullptr;  // Call of a module function
    Builtin builtin = Builtin::None;       // Call of a builtin
  };

  /// A function's templates: one per instruction (same index as fn.instrs)
  /// and one per parameter (the argument-binding Store push_frame emits).
  struct FunctionTemplates {
    std::vector<InstrTemplate> instrs;
    std::vector<InstrTemplate> params;
  };

  struct Frame {
    const ir::Function* fn = nullptr;
    const FunctionTemplates* tmpl = nullptr;
    std::vector<std::uint64_t> slot_addr;
    std::vector<Value> regs;
    int pc = 0;
    std::uint64_t stack_mark = 0;
    int pending_dst = -1;  // caller-side register awaiting our Ret value
  };

  const ir::Module& module_;
  Arena arena_;
  std::vector<std::uint64_t> global_addr_;
  std::vector<Frame> frames_;
  const RunOptions* opts_ = nullptr;
  RunResult result_;
  std::uint64_t dyn_id_ = 0;
  // The MCL host function and header line, resolved once per run.
  const ir::Function* mcl_fn_ = nullptr;
  int mcl_line_ = 0;

  // Trace templates and the emission scratch.
  trace::SymbolPool pool_;
  std::vector<trace::PackedOperand> op_templates_;
  std::vector<FunctionTemplates> fn_templates_;  // parallel to module_.functions
  std::vector<InstrTemplate> global_templates_;  // parallel to module_.globals
  trace::PackedRecord record_;
  std::vector<trace::PackedOperand> record_ops_;
  std::vector<Value> values_;
  double timer_counter_ = 0.0;
  int iteration_ = 0;      // completed header evaluations
  bool restored_ = false;
  // Engine registrations bound once at the first iteration boundary — the
  // MCL frame stays live across iterations, so the addresses are invariant.
  std::vector<ckpt::ProtectedRegion> engine_regions_;
  bool engine_regions_bound_ = false;

  Frame& top() { return frames_.back(); }

  // Template construction (constructor only).
  InstrTemplate begin_template(std::string_view func, int line, trace::Opcode opcode);
  void add_operand(InstrTemplate& t, trace::OperandSlot slot, int index, bool is_reg,
                   std::string_view name);
  void add_input(InstrTemplate& t, const ir::Function& fn, const ir::Opnd& o, int index);
  InstrTemplate instr_template(const ir::Function& fn, const ir::Instr& in);
  InstrTemplate call_template(const ir::Function& fn, const ir::Instr& in);
  static Builtin find_builtin(std::string_view name);

  /// Counts one executed instruction (dyn_id, steps, the max_steps guard).
  /// True when a sink wants its record.
  bool count_step();
  /// Hands the sink the record of the instruction just counted: template `t`
  /// with `values` as its operand values, in operand order.
  void emit(const InstrTemplate& t, std::span<const Value> values);
  void emit_global_allocas();

  Value eval(const Frame& f, const ir::Opnd& o) const;
  std::uint64_t slot_address(const Frame& f, int slot, bool is_global) const;

  void push_frame(const ir::Function& fn, const std::vector<Value>& args, int pending_dst);
  void pop_frame(const Value* ret_value);

  void exec_instr(const ir::Instr& in, const InstrTemplate& t);
  void exec_alloca(const ir::Instr& in, const InstrTemplate& t);
  void exec_load(const ir::Instr& in, const InstrTemplate& t);
  void exec_store(const ir::Instr& in, const InstrTemplate& t);
  void exec_gep(const ir::Instr& in, const InstrTemplate& t);
  void exec_bin(const ir::Instr& in, const InstrTemplate& t);
  void exec_cast(const ir::Instr& in, const InstrTemplate& t);
  void exec_br(const ir::Instr& in, const InstrTemplate& t);
  void exec_call(const ir::Instr& in, const InstrTemplate& t);
  void exec_ret(const ir::Instr& in, const InstrTemplate& t);

  /// The builtin's result; nullopt for the print builtins.
  std::optional<Value> run_builtin(Builtin b, const std::vector<Value>& args);

  // MCL instrumentation at a conditional header-line branch.
  void on_header_evaluation();
  std::vector<ckpt::ProtectedRegion>
  resolve_protected(const std::vector<std::string>& names) const;
  ckpt::CheckpointImage snapshot(const std::vector<std::string>& names) const;
  void apply_restore(const ckpt::CheckpointImage& img);
  ckpt::MachineState machine_state() const;
};

/// Convenience: compile-free single-shot execution of a prepared module.
RunResult run_module(const ir::Module& module, const RunOptions& opts);

}  // namespace ac::vm
