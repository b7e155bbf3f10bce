//===- Executor.h - Host-thread executor for simulated threads --*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs N simulated JavaThreads concurrently on a pool of host workers,
/// with results invariant to host parallelism.
///
/// Logical schedule: execution proceeds in rounds. Each round, every live
/// simulated thread runs one fixed interpreter quantum (QuantumSteps
/// bytecodes) against state only it owns — its heap shard, its
/// worker-private memory hierarchy, its PMU/CCT/profile — so quanta of
/// different threads commute and may run on any workers in any order.
/// Cross-thread effects happen only at the round barrier: a thread whose
/// allocation faults parks (GcRequest unwind, bytecode not yet executed),
/// the barrier drains the remaining quanta, the SafepointController runs
/// one stop-the-world collection in thread-id order over all shards, and
/// parked threads finish their quantum budget. Because parking depends
/// only on shard occupancy (logical state) and the barrier is jobs-
/// independent, the merged profile is byte-identical for --jobs 1/2/4.
/// Every Jobs value runs the same session: the calling thread is worker
/// 0 and min(Jobs, tasks) - 1 more are spawned, so with --jobs 1 the
/// calling thread is the only worker.
///
/// Barrier elision: the round transition is coordinator-free. Workers
/// claim quanta from one atomic claim word; the worker that completes an
/// iteration's last quantum *is* the barrier — it checks for GC
/// requests, rewrites the work list, republishes the claim word and
/// advances an atomic round ticket that its peers spin on (falling back
/// to a condvar sleep after a bounded spin, so few-core hosts don't burn
/// the GC's timeslice). Only when some task parked with GcRequest does
/// the transition widen into the stop-the-world safepoint — run by that
/// same last finisher, with every peer provably quiesced on the ticket.
///
/// Shared layers are made safe under this protocol rather than by locks on
/// hot paths: registries are frozen for the duration of run() (immutable
/// after load), the live-object index is sharded by address range, the
/// Profiles map and thread list take leaf spin locks, and per-CPU
/// cache/TLB/NUMA state is worker-private with a deterministic merge
/// (mergedMachineStats(), summed in thread-id order).
///
//===----------------------------------------------------------------------===//

#ifndef DJX_RUNTIME_EXECUTOR_H
#define DJX_RUNTIME_EXECUTOR_H

#include "interp/Interpreter.h"
#include "jvm/JavaVm.h"
#include "runtime/Safepoint.h"
#include "support/VmError.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace djx {

/// Seed-driven schedule fuzzing: every knob the determinism guarantee
/// claims to be robust against, randomized from one printed seed. The
/// perturbations come in two classes with one shared oracle — for a given
/// seed, every observable byte must be identical across --jobs values:
///
///  * *Logical-schedule* perturbations (per-round-per-task quantum sizes,
///    forced safepoint GCs at round barriers, mid-quantum drain points).
///    These change results versus the unfuzzed schedule — that is the
///    point, they move where GCs and drains land — but each decision is a
///    pure hash of (Seed, logical state), never of host timing, so the
///    jobs-invariance argument must survive any draw.
///
///  * *Host-side* perturbations (random worker claim jitter). These may
///    never change results at all; they only shake the interleavings the
///    ticket barrier must already tolerate.
///
/// All decisions are stateless hashes rather than a shared PRNG stream:
/// concurrent workers would otherwise consume the stream in host order
/// and the schedule would stop being a function of logical state.
struct FuzzSchedule {
  bool Enabled = false;
  uint64_t Seed = 0;
  /// Each round draws every task's quantum from [MinQuantumSteps,
  /// MaxQuantumSteps] — randomized quantum boundaries.
  uint64_t MinQuantumSteps = 256;
  uint64_t MaxQuantumSteps = 8192;
  /// Chance that a round barrier widens into a forced safepoint GC even
  /// with no allocation fault parked (randomized GC trigger timing).
  double ForcedGcChance = 0.15;
  /// Chance that a task's quantum is split mid-run with a sample-ring
  /// drain published between the chunks (randomized drain points).
  double SplitDrainChance = 0.25;
  /// Chance (per claim, host-side only) that a worker spins/yields before
  /// claiming its next quantum (randomized worker interleavings).
  double WorkerJitterChance = 0.5;
};

struct ExecutorConfig {
  /// Host worker threads. 0 = hardware concurrency; 1 = the calling
  /// thread is the only worker (quanta run in thread-id order). Affects
  /// wall-clock only — never results.
  unsigned Jobs = 0;
  /// Interpreter steps per simulated thread per round. Part of the
  /// *logical* schedule: changing it changes where GCs land, so it is a
  /// workload parameter, not a tuning knob derived from Jobs.
  uint64_t QuantumSteps = 65536;
  /// Heap-shard placement policy (see NumaPolicy). Applied to every
  /// attached hierarchy at run() start and re-applied after each
  /// safepoint compaction. Like QuantumSteps it is a *workload* knob: it
  /// changes simulated placement (and therefore remote-access counts),
  /// never the schedule, and results stay independent of Jobs.
  NumaPolicy Policy = NumaPolicy::FirstTouch;
  /// Execution tier for every task's interpreter (`--tier`). Like Jobs it
  /// may never change results: the super tier's traces are observationally
  /// identical to flat dispatch, and compiled traces are invalidated at
  /// every safepoint (deopt-at-safepoint) so the flat loop owns all
  /// resumed frames after a stop-the-world pause.
  TierConfig Tier;
  /// Schedule fuzzing (tests only). When enabled, QuantumSteps is
  /// superseded by per-round seed draws; see FuzzSchedule.
  FuzzSchedule Fuzz;
  /// Host-time watchdog: when > 0, a monitor thread converts a session
  /// that makes no forward progress for this many host milliseconds into
  /// a VmError::WorkerStall (with a per-worker state dump) instead of a
  /// hang. Host time never feeds back into the logical schedule — the
  /// watchdog only ever *ends* a session that is already stuck. 0
  /// disables it (and disarms the QuantumClaim fault-injection site,
  /// which needs the watchdog to unwind the stall it creates).
  uint64_t StallTimeoutMs = 120000;
  /// Round-barrier hook: fired once per completed round, on the worker
  /// closing the iteration with every peer quiesced on the ticket (with
  /// Jobs 1, the calling thread is the only worker) — a safe point to
  /// read profiles or flush a journal. The argument is the just-completed
  /// round (1-based). Return true to end the session cleanly after this
  /// round. Fires at identical logical points for any Jobs value. A
  /// VmError it throws is captured like a quantum's (see run()).
  std::function<bool(uint64_t)> OnRoundEnd;
  /// End the session cleanly once this many rounds completed (0 =
  /// unlimited). The reference oracle for journal recovery: a run
  /// truncated at round N must match `recover` of a journal whose last
  /// durable commit is round N.
  uint64_t MaxRounds = 0;
};

/// Drives simulated threads to completion on host workers.
class Executor {
public:
  Executor(JavaVm &Vm, ExecutorConfig Config = ExecutorConfig());
  ~Executor();

  Executor(const Executor &) = delete;
  Executor &operator=(const Executor &) = delete;

  /// Adds a simulated thread: starts a JavaThread named \p Name pinned to
  /// \p Cpu (kAnyCpu: cpuForTask's node-spread round-robin), attaches a
  /// worker-private memory hierarchy, assigns heap shard = task index
  /// (one shard per task is mandatory — lock-free shard allocation
  /// assumes a single owner; aborts if the VM has too few shards), and
  /// prepares an interpreter session for \p Entry(\p Args) of \p Program.
  /// Call before run(), after any profiler is constructed (so its
  /// thread-start hooks fire). \returns the task index.
  size_t addThread(BytecodeProgram &Program, const std::string &Entry,
                   const std::vector<Value> &Args, const std::string &Name,
                   uint32_t Cpu = JavaVm::kAnyCpu);

  /// Runs every task to completion under the round/safepoint protocol.
  /// Never throws and never aborts the process: a VmError raised by any
  /// task (OOM after a fruitless safepoint GC, interpreter step limit,
  /// a watchdog-detected stall) or by the round barrier (the OnRoundEnd
  /// hook, a safepoint GC) is captured first-error-wins, the
  /// session is ended (peers unwind at their next claim or ticket
  /// check), and the error is exposed via error() so callers can
  /// salvage the profile data collected so far.
  void run();

  /// First VmError captured during run(), if any. Empty after a clean
  /// run. Read only after run() returns.
  const std::optional<VmError> &error() const { return FirstError; }

  // --- Results ------------------------------------------------------------
  size_t numTasks() const { return Tasks.size(); }
  JavaThread &thread(size_t Task) { return *Tasks[Task]->Thread; }
  Interpreter &interpreter(size_t Task) { return *Tasks[Task]->Interp; }
  /// Return value of task \p Task's entry call (after run()).
  std::optional<Value> result(size_t Task) {
    return Tasks[Task]->Interp->takeResult();
  }

  /// Aggregate interpreter steps across all tasks.
  uint64_t totalSteps() const;
  /// Deterministic merge of the shared machine plus every worker-private
  /// hierarchy, in thread-id order.
  HierarchyStats mergedMachineStats() const;
  /// Stop-the-world pauses taken during run().
  uint64_t safepoints() const { return Safepoint.safepoints(); }
  /// Rounds executed (quantum barriers crossed).
  uint64_t rounds() const { return Rounds; }

  unsigned jobs() const { return Jobs; }

  /// Deterministic default CPU for task \p Index: round-robin across NUMA
  /// nodes first (task 0 -> node 0's first CPU, task 1 -> node 1's first
  /// CPU, ...), then across each node's CPUs — so simulated threads spread
  /// over the machine's sockets the way a real scheduler spreads runnable
  /// threads. A function of the task index and the machine shape only,
  /// never of Jobs.
  uint32_t cpuForTask(size_t Index) const;

private:
  struct Task {
    size_t Index = 0;
    JavaThread *Thread = nullptr;
    /// Worker-private machine: same config as the VM's, private state.
    std::unique_ptr<MemoryHierarchy> Machine;
    std::unique_ptr<Interpreter> Interp;
    bool Done = false;
    /// Set when a quantum unwound with GcRequest; cleared at the safepoint.
    bool Parked = false;
    /// Remaining step budget within the current round.
    uint64_t StepsLeft = 0;
    /// Step count at the last GC park: parking twice at the same count
    /// means the safepoint collection did not help — OutOfMemory.
    uint64_t LastParkSteps = ~0ULL;
    /// Round this task's current budget was drawn for (1-based). A
    /// logical coordinate: FaultInjector keys forced-stall draws on
    /// (Round, Index) so injections stay jobs-invariant.
    uint64_t Round = 0;
  };

  /// Deopt-at-safepoint: drops every task's compiled traces after a
  /// stop-the-world pause (hot sites recompile on their next flat visit).
  /// Runs in the safepoint's single-threaded window, so the sweep is
  /// race-free by the same happens-before as the collection itself.
  void invalidateTraces();

  /// Imposes Config.Policy on every attached hierarchy (the VM's shared
  /// machine and each task's worker-private one): each heap shard's page
  /// range is placed per the policy, with the shard's owner node derived
  /// from its task's CPU. Idempotent and a function of logical state only,
  /// so calling it at run() start and after every safepoint compaction
  /// keeps placement identical for any Jobs value.
  void applyNumaPlacement();

  /// Executes one quantum of \p T (worker context) and publishes the
  /// quantum-end JVMTI event (the batched sample resolver's drain point).
  /// Under FuzzSchedule the budget may be split into chunks with a drain
  /// published between them; the split is a hash of logical state only.
  void runQuantum(Task &T);
  /// One resume() call of up to \p Budget steps: charges the task's
  /// StepsLeft, handles Done, and turns a GcRequest unwind into a park
  /// (\p Parked set). Factored out of runQuantum so fuzzed chunking
  /// reuses the exact park/OOM bookkeeping of the unfuzzed path.
  void runChunk(Task &T, uint64_t Budget, bool &Parked);
  /// Round-barrier bookkeeping: fires Config.OnRoundEnd for the
  /// just-completed round and evaluates MaxRounds. \returns true when the
  /// session should end cleanly.
  bool roundBarrierStop();

  // --- Failure capture and the stall watchdog ----------------------------
  /// Captures \p E first-error-wins and ends the session: SessionDone is
  /// released and sleepers are notified, so every worker unwinds at its
  /// next claim or ticket check (the "next round barrier" in practice).
  void recordError(VmError &&E);
  /// Injected QuantumClaim fault: publish which task stalled, then stop
  /// making progress until the watchdog ends the session. Models a
  /// worker that wedges mid-quantum (the safepoint can never complete).
  void simulateStall(Task &T);
  /// Watchdog body: declare WorkerStall when Heartbeat stops advancing
  /// for Config.StallTimeoutMs host milliseconds.
  void watchdogLoop();
  /// WorkerStall error with a per-worker state dump built from atomics
  /// only (claim slots, ticket) — never from racy task state.
  VmError buildStallError() const;

  // --- FuzzSchedule draws (pure hashes of Seed + logical state) -----------
  /// Quantum budget for \p TaskIndex in the round about to open (current
  /// Rounds value, pre-increment). Config.QuantumSteps when fuzz is off.
  uint64_t quantumFor(size_t TaskIndex) const;
  /// Runs a forced safepoint GC at the round barrier when the seed says
  /// round \p Round widens (world must be stopped by the caller's
  /// construction). No-op when fuzz is off.
  void maybeFuzzForcedGc(uint64_t Round);

  // --- Ticket-barrier session --------------------------------------------
  /// Runs on the worker that finished an iteration's last quantum (and
  /// once on the calling thread to open the first iteration), with every
  /// other worker quiesced (spinning or asleep on the ticket): the elided
  /// round barrier. Performs the safepoint GC if any task parked, then
  /// publishes the next iteration or ends the session. A VmError raised
  /// there (round hook, safepoint GC) goes to recordError.
  void closeIteration();
  /// Rewrites Work with the inner-iteration work list ({!Done,
  /// StepsLeft > 0}), or — when that is empty — opens a new round.
  /// \returns false when the session should end (every task is done, or
  /// the round barrier asked to stop).
  bool nextIteration();
  /// Worker body: claim-run-close loop until the session ends. \p Worker
  /// indexes this worker's claim slot; worker 0 is the calling thread.
  void sessionLoop(unsigned Worker);
  /// Spin-then-sleep wait for the round ticket to move past \p Seen.
  uint64_t waitForTicket(uint64_t Seen);
  /// Wakes ticket-waiters asleep on WakeCv after a RoundTicket or
  /// SessionDone store.
  void wakeWaiters();

  JavaVm &Vm;
  ExecutorConfig Config;
  unsigned Jobs;
  std::vector<std::unique_ptr<Task>> Tasks;
  SafepointController Safepoint;
  uint64_t Rounds = 0;

  // Session state. The round transition is coordinator-free: the last
  // finisher rewrites Work, stores a fresh claim word (release) and bumps
  // RoundTicket; peers acquire the claim word and take tasks from it.
  std::vector<std::thread> Workers;
  /// The current iteration's tasks. Rewritten only by the closer, while
  /// every claim of the previous iteration has completed.
  std::vector<Task *> Work;
  /// (Work.size() << 32) | next. Claimants fetch_add it; a claim at or
  /// past the size never reads Work, so a late worker holding no task
  /// can race the closer's rewrite harmlessly. On its own cache line,
  /// with Remaining, away from the words waiting workers spin on.
  alignas(64) std::atomic<uint64_t> Claim{0};
  /// Unfinished quanta of the current iteration; the worker whose
  /// decrement reaches zero is the closer.
  std::atomic<size_t> Remaining{0};
  alignas(64) std::atomic<uint64_t> RoundTicket{0};
  std::atomic<bool> SessionDone{false};
  unsigned NumWorkers = 0;
  std::mutex WakeMutex;
  std::condition_variable WakeCv; // Sleeping ticket-waiters.

  // Failure capture + watchdog state.
  std::optional<VmError> FirstError;
  std::mutex ErrorLock;
  /// Bumped on every completed chunk — the watchdog's forward-progress
  /// signal.
  std::atomic<uint64_t> Heartbeat{0};
  /// Per-worker claim slot: task index + 1 while a quantum runs, 0 when
  /// idle. Watchdog dump input.
  std::unique_ptr<std::atomic<uint64_t>[]> WorkerClaims;
  /// Task index + 1 of an injected stall, 0 otherwise.
  std::atomic<uint64_t> StalledTask{0};
  /// True while a watchdog thread is running; gates stall injection.
  std::atomic<bool> WatchdogArmed{false};
  std::atomic<bool> WatchdogStop{false};
  std::mutex WatchdogMutex;
  std::condition_variable WatchdogCv;
};

} // namespace djx

#endif // DJX_RUNTIME_EXECUTOR_H
