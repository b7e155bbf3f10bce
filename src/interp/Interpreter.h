//===- Interpreter.h - Bytecode interpreter ---------------------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stack interpreter executing BytecodeProgram methods on a MiniJVM
/// thread. Every array/field access is a simulated memory access (cache,
/// TLB, NUMA, PMU), every instruction burns a cycle, and the thread's
/// shadow stack tracks (method, BCI) so AsyncGetCallTrace sees exact
/// positions. Interpreter frames are GC roots via a root provider, so a
/// collection triggered mid-execution relocates live operands correctly.
///
/// Execution is a flat frame loop over a contiguous Value arena: every
/// activation's locals and operand stack are slices of one growable
/// buffer, and Invoke pushes a frame whose locals alias the caller's
/// argument slots (zero-copy argument passing, as on a real JVM stack).
/// A frame reserves its locals plus the Verifier's max_stack when it is
/// pushed, so operand pushes never check for room. There is no C++
/// recursion and no per-call heap allocation. Steps, the simulated clock
/// and the shadow stack's bci are charged lazily, at the points where
/// something can observe them (see loop()).
/// Re-entering run() from an allocation hook or a JVMTI allocation
/// observer is supported (the frame state is synced around those
/// dispatches); re-entering from a PMU overflow handler is not.
///
/// Execution can also be driven in *quanta* (startCall()/resume()) — the
/// Executor slices each simulated thread into fixed step budgets and runs
/// them on host workers. The flat frame loop makes suspension trivial:
/// all activation state already lives in the member CallStack/Arena, so a
/// pause is one state sync. In executor mode a failed allocation throws
/// GcRequest; allocation opcodes read their operands without popping and
/// commit only after the allocation succeeds, so the unwound instruction
/// re-executes cleanly after the safepoint GC. (Hooks that re-enter run()
/// and allocate are not supported in executor mode.)
///
/// The AllocHookPre/AllocHookPost pseudo-instructions inserted by the
/// instrumenter dispatch to registered hooks — the runtime half of the
/// paper's ASM-based Java agent.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_INTERP_INTERPRETER_H
#define DJX_INTERP_INTERPRETER_H

#include "bytecode/ClassFile.h"
#include "interp/TraceCache.h"
#include "jvm/JavaVm.h"

#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace djx {

/// One operand-stack / local slot. References are tagged so the GC root
/// provider can distinguish them.
struct Value {
  uint64_t Bits = 0;
  bool IsRef = false;

  static Value fromInt(int64_t V) {
    return Value{static_cast<uint64_t>(V), false};
  }
  static Value fromRef(ObjectRef R) { return Value{R, true}; }
  int64_t asInt() const { return static_cast<int64_t>(Bits); }
  ObjectRef asRef() const { return Bits; }
};

/// Hooks called by the AllocHook pseudo-instructions; the DJXPerf Java
/// agent installs these when it instruments a program.
struct AllocationHooks {
  /// Before the allocation executes.
  std::function<void(uint64_t SiteId)> Pre;
  /// After the allocation; \p Obj is the fresh object.
  std::function<void(uint64_t SiteId, ObjectRef Obj)> Post;
};

/// Outcome of one resume() quantum.
enum class RunState {
  Done,   ///< The pending call returned; takeResult() has the value.
  Paused, ///< Step budget exhausted; call resume() again to continue.
};

/// Executes bytecode on one JavaThread.
class Interpreter {
public:
  Interpreter(JavaVm &Vm, BytecodeProgram &Program, JavaThread &Thread);
  ~Interpreter();

  Interpreter(const Interpreter &) = delete;
  Interpreter &operator=(const Interpreter &) = delete;

  /// Installs instrumentation hooks (may be empty functions).
  void setAllocationHooks(AllocationHooks Hooks) {
    this->Hooks = std::move(Hooks);
  }

  /// When false (default true), the VM-level allocation event is the Java
  /// agent's information channel; instrumented programs set this to false
  /// so the bytecode hooks are the only channel (no double counting).
  void setPublishVmAllocationEvents(bool On);

  /// Runs "Class.method" with \p Args; returns the method's return value,
  /// or std::nullopt for void methods.
  std::optional<Value> run(const std::string &QualifiedName,
                           const std::vector<Value> &Args = {});

  // --- Resumable execution (Executor quanta) ------------------------------
  /// Begins a top-level call without executing any instruction; drive it
  /// with resume(). Exactly one call may be pending at a time.
  void startCall(const std::string &QualifiedName,
                 const std::vector<Value> &Args = {});

  /// Executes up to \p MaxSteps instructions of the pending call. Frame
  /// state is fully synced whenever this returns — and also when a
  /// GcRequest propagates out of an allocation opcode, whose operands stay
  /// on the stack until the allocation commits, so the instruction
  /// re-executes cleanly on the next resume() after the safepoint GC.
  RunState resume(uint64_t MaxSteps);

  /// True while startCall()'s call has not yet returned.
  bool hasPendingCall() const { return !CallStack.empty(); }

  /// Return value of the completed call (nullopt for void methods).
  std::optional<Value> takeResult();

  /// Upper bound on executed instructions per run() (runaway-loop guard).
  /// Enforced in every build mode; exceeding it is a fatal error.
  void setStepLimit(uint64_t Limit) { StepLimit = Limit; }

  // --- Tiered execution ---------------------------------------------------
  /// Selects the execution tier. The super tier installs a per-interpreter
  /// TraceCache: hot straight-line regions compile into superinstruction
  /// traces executed without per-opcode dispatch, deopting back to the
  /// flat loop at side exits, calls, hooks and allocation faults — with
  /// observably identical semantics (profiles are byte-identical). Must be
  /// selected before any instruction executes.
  void setTier(const TierConfig &Cfg);

  ExecTier tier() const {
    return Traces ? ExecTier::Super : ExecTier::Interp;
  }

  /// Safepoint hook: drops compiled traces so the flat loop owns every
  /// resumed frame (mirrors JVM deopt-at-safepoint). Hot sites recompile
  /// on their next flat visit. No-op in the interp tier.
  void invalidateTraces() {
    if (Traces)
      Traces->invalidate();
  }

  /// Null in the interp tier.
  const TraceCache *traceCache() const { return Traces.get(); }

  /// Text listing of every live compiled trace (--dump-traces).
  std::string renderTraces() const {
    return Traces ? Traces->renderAll(Program) : std::string();
  }

  uint64_t stepsExecuted() const { return Steps; }

  JavaThread &thread() { return Thread; }
  JavaVm &vm() { return Vm; }

private:
  /// One activation record. Locals and operand stack are slices of the
  /// shared arena: locals at [LocalsBase, LocalsBase + M->NumLocals),
  /// operands at [StackBase, StackBase + Sp).
  struct Frame {
    const BytecodeMethod *M = nullptr;
    size_t MethodIndex = 0;
    uint32_t LocalsBase = 0;
    uint32_t StackBase = 0;
    uint32_t Sp = 0;
    uint32_t Pc = 0;
  };

  std::optional<Value> execute(size_t MethodIndex,
                               const std::vector<Value> &Args);

  /// Pushes the entry activation for \p MethodIndex over \p Args; shared
  /// prologue of execute() and startCall().
  void beginCall(size_t MethodIndex, const std::vector<Value> &Args);

  /// The dispatch loop: executes until the call stack returns to
  /// \p BaseDepth (true; \p Out holds the return value) or the cumulative
  /// step counter reaches \p QuantumEnd (false; state synced for resume).
  /// Steps, cycles and the top frame's Bci are exact wherever a sample,
  /// an allocation context, a hook or an error can read them, and on
  /// return.
  bool loop(size_t BaseDepth, uint32_t BaseTop, uint64_t QuantumEnd,
            std::optional<Value> &Out);

  void collectRoots(std::vector<ObjectRef *> &Slots);

  /// Pushes the activation of \p MethodIndex whose arguments already sit
  /// at [ArgsBase, ArgsBase + NumArgs) in the arena; zero-fills the
  /// remaining locals and reserves arena space for the locals and the
  /// method's verified max_stack.
  Frame &pushActivation(size_t MethodIndex, uint32_t ArgsBase);

  /// Grows the arena to hold at least \p Needed slots (geometric). Only
  /// frame creation calls it: beginCall() and pushActivation().
  void growArena(size_t Needed);

  /// Whether the agent installed a hook for allocation-hook opcode \p Op.
  bool hasHook(Opcode Op) const {
    return Op == Opcode::AllocHookPre ? bool(Hooks.Pre) : bool(Hooks.Post);
  }

  /// Dispatches the hook of allocation-hook opcode \p Op for site \p Site
  /// (the post hook receives the fresh reference on top of [S, S + Sp)).
  /// The caller syncs the frame first: a hook may re-enter run().
  void callHook(Opcode Op, int64_t Site, const Value *S, uint32_t Sp);

  // --- Super tier (SuperTier.cpp) -----------------------------------------
  /// Runs the compiled trace at the top frame's pc, whose hot site is
  /// \p Site, end-to-end or to an exit; false (nothing executed) to
  /// dispatch flat instead. Each call is one flat visit of the site: it
  /// counts toward the hot threshold, except the re-dispatch of an
  /// instruction a GcRequest unwound. Admission is all-or-nothing
  /// against both budgets: a trace whose full length does not fit runs
  /// flat this quantum -- observationally identical, since a trace is
  /// the same instruction stream. Entry contract: the caller synced the
  /// top frame and charged Steps/cycles. Exit contract (true): frame
  /// state (Pc, Sp, ArenaTop) is synced and Steps/cycles charged for
  /// exactly the constituents retired.
  bool execTrace(TraceCache::Site &Site, uint64_t QuantumEnd);

  [[noreturn]] void fatalStepLimit() const;

  JavaVm &Vm;
  BytecodeProgram &Program;
  JavaThread &Thread;
  AllocationHooks Hooks;
  /// Contiguous locals + operand-stack storage for all live frames.
  std::vector<Value> Arena;
  /// First free arena slot (top frame's stack end, kept in sync at any
  /// point where a GC can occur).
  uint32_t ArenaTop = 0;
  std::vector<Frame> CallStack;
  uint64_t RootToken = 0;
  uint64_t StepLimit = 1ULL << 32;
  uint64_t Steps = 0;
  /// Cumulative Steps value at which the current run() overruns its
  /// per-run StepLimit (saturated; recomputed at each top-level entry).
  uint64_t StepDeadline = ~0ULL;
  /// Result of the last completed startCall() session.
  std::optional<Value> SessionResult;
  /// Super tier only (null in the interp tier).
  std::unique_ptr<TraceCache> Traces;
  /// Set when a GcRequest unwound resume(): the next flat dispatch
  /// re-executes the faulting instruction, and its hot-site counter must
  /// not be bumped again — double-counting would make trace selection
  /// GC-timing-dependent and break --jobs invariance.
  bool GcRetryPending = false;
};

} // namespace djx

#endif // DJX_INTERP_INTERPRETER_H
