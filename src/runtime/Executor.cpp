//===- Executor.cpp - Host-thread executor for simulated threads -----------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "runtime/Executor.h"

#include "core/Analyzer.h"
#include "support/FaultInjector.h"
#include "support/Random.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>

using namespace djx;

namespace {

/// Stateless mix for FuzzSchedule decisions (splitmix64 finalizer over a
/// combined key). A shared PRNG stream would be consumed in host order by
/// concurrent workers; hashing (seed, logical coordinates) keeps every
/// draw a function of logical state, so fuzzed schedules stay
/// jobs-invariant.
uint64_t fuzzMix(uint64_t Seed, uint64_t A, uint64_t B, uint64_t C) {
  uint64_t Z = Seed ^ (A * 0x9E3779B97F4A7C15ULL) ^
               (B * 0xBF58476D1CE4E5B9ULL) ^ (C * 0x94D049BB133111EBULL);
  Z ^= Z >> 30;
  Z *= 0xBF58476D1CE4E5B9ULL;
  Z ^= Z >> 27;
  Z *= 0x94D049BB133111EBULL;
  Z ^= Z >> 31;
  return Z;
}

/// Uniform double in [0, 1) from a mixed value.
double fuzzUnit(uint64_t Mixed) {
  return static_cast<double>(Mixed >> 11) * 0x1.0p-53;
}

} // namespace

Executor::Executor(JavaVm &Vm, ExecutorConfig Cfg)
    : Vm(Vm), Config(Cfg) {
  assert(Config.QuantumSteps > 0 && "quantum must be positive");
  assert((!Config.Fuzz.Enabled ||
          (Config.Fuzz.MinQuantumSteps > 0 &&
           Config.Fuzz.MinQuantumSteps <= Config.Fuzz.MaxQuantumSteps)) &&
         "fuzz quantum range must be a nonempty positive interval");
  Jobs = Config.Jobs ? Config.Jobs
                     : std::max(1u, std::thread::hardware_concurrency());
}

uint64_t Executor::quantumFor(size_t TaskIndex) const {
  const FuzzSchedule &F = Config.Fuzz;
  if (!F.Enabled)
    return Config.QuantumSteps;
  uint64_t Span = F.MaxQuantumSteps - F.MinQuantumSteps + 1;
  // Key 1: the per-round quantum draw. Rounds is read pre-increment
  // (nextIteration assigns budgets before bumping it).
  return F.MinQuantumSteps +
         fuzzMix(F.Seed, Rounds, TaskIndex, 1) % Span;
}

void Executor::maybeFuzzForcedGc(uint64_t Round) {
  const FuzzSchedule &F = Config.Fuzz;
  // Key 2: the forced-GC draw. Runs with the world stopped (on the
  // iteration closer, with every peer quiesced on the ticket), exactly
  // where a park-triggered safepoint would run. An empty
  // requester list charges no pause, but the collection itself — moves,
  // frees, index relocations, hierarchy flushes — is real, which is the
  // point: GC timing becomes a seed draw instead of a shard-occupancy
  // accident.
  if (!F.Enabled || fuzzUnit(fuzzMix(F.Seed, Round, 0, 2)) >= F.ForcedGcChance)
    return;
  Safepoint.stopTheWorldGc(Vm, {});
  invalidateTraces();
  applyNumaPlacement();
}

void Executor::invalidateTraces() {
  for (auto &T : Tasks)
    T->Interp->invalidateTraces();
}

Executor::~Executor() {
  // run() joins its own workers; this only matters if run() unwound
  // exceptionally.
  SessionDone.store(true, std::memory_order_release);
  wakeWaiters();
  for (std::thread &W : Workers)
    if (W.joinable())
      W.join();
}

size_t Executor::addThread(BytecodeProgram &Program,
                           const std::string &Entry,
                           const std::vector<Value> &Args,
                           const std::string &Name, uint32_t Cpu) {
  auto T = std::make_unique<Task>();
  T->Index = Tasks.size();
  // One heap shard per task is a hard requirement: Heap::allocate is
  // lock-free precisely because each shard has a single owner, and the
  // determinism argument rests on it. Configure VmConfig.HeapShards >=
  // the number of simulated threads (parallelVmConfig does).
  if (T->Index >= Vm.heap().numShards())
    throw VmError(VmErrorKind::Internal,
                  "Executor task " + std::to_string(T->Index) +
                      " needs its own heap shard but the VM has only " +
                      std::to_string(Vm.heap().numShards()) +
                      " (set VmConfig.HeapShards >= task count)");
  // Deterministic CPU placement spread across NUMA nodes, independent of
  // the VM's own NextCpu state (and of Jobs).
  if (Cpu == JavaVm::kAnyCpu)
    Cpu = cpuForTask(T->Index);
  T->Thread = &Vm.startThread(Name, Cpu);
  // Worker-private hierarchy: same machine configuration, private
  // cache/TLB/NUMA/stats state. Merged deterministically afterwards.
  T->Machine = std::make_unique<MemoryHierarchy>(Vm.config().Machine);
  T->Thread->setMachine(T->Machine.get());
  T->Thread->setHeapShard(static_cast<unsigned>(T->Index));
  T->Interp = std::make_unique<Interpreter>(Vm, Program, *T->Thread);
  T->Interp->setTier(Config.Tier);
  T->Interp->startCall(Entry, Args);
  Tasks.push_back(std::move(T));
  return Tasks.size() - 1;
}

uint32_t Executor::cpuForTask(size_t Index) const {
  const NumaConfig &N = Vm.config().Machine.Numa;
  uint32_t Node = static_cast<uint32_t>(Index % N.NumNodes);
  uint32_t Slot = static_cast<uint32_t>((Index / N.NumNodes) % N.CpusPerNode);
  return Node * N.CpusPerNode + Slot;
}

void Executor::applyNumaPlacement() {
  const Heap &H = Vm.heap();
  auto Apply = [&](MemoryHierarchy &M) {
    NumaTopology &Numa = M.numa();
    uint32_t NumNodes = Numa.numNodes();
    uint64_t PageBytes = Numa.config().PageBytes;
    for (unsigned S = 0; S < H.numShards(); ++S) {
      uint64_t Base = H.shardBase(S);
      uint64_t Limit = H.shardLimit(S);
      if (Limit <= Base)
        continue;
      switch (Config.Policy) {
      case NumaPolicy::FirstTouch: {
        // Shard pages are home on the owner's node: the owner's
        // allocation zero-fill is the first touch of every page of its
        // shard, so this *is* global first-touch, made deterministic.
        NumaNodeId Owner = S < Tasks.size()
                               ? Numa.nodeOfCpu(Tasks[S]->Thread->cpu())
                               : Numa.nodeOfCpu(cpuForTask(S));
        Numa.bindRange(Base, Limit - Base, Owner);
        break;
      }
      case NumaPolicy::Bind:
        // numa_alloc_onnode / membind: one node serves the whole heap.
        Numa.bindRange(Base, Limit - Base, 0);
        break;
      case NumaPolicy::Interleave:
        // Absolute page-number round-robin (rather than the cursor-based
        // interleaveRange) so re-application after a compaction maps each
        // page to the same node it had before.
        for (uint64_t A = Base; A < Limit; A += PageBytes)
          Numa.movePage(A, static_cast<NumaNodeId>(Numa.pageOf(A) %
                                                   NumNodes));
        break;
      }
    }
  };
  Apply(Vm.machine());
  for (auto &T : Tasks)
    Apply(*T->Machine);
}

void Executor::runQuantum(Task &T) {
  // Injected QuantumClaim fault: keyed on (round, task) — pure logical
  // coordinates, so the same quantum stalls for every --jobs value. Only
  // armed under a running watchdog; without one the stall would be the
  // very hang this machinery exists to prevent.
  if (WatchdogArmed.load(std::memory_order_relaxed) &&
      FaultInjector::shouldFail(FaultSite::QuantumClaim, T.Round, T.Index)) {
    simulateStall(T);
    return;
  }
  const FuzzSchedule &F = Config.Fuzz;
  for (;;) {
    // Key 3: the split-drain draw. Chunking the budget with a drain
    // between chunks must be invisible to results — the batched resolver
    // only guarantees rings drain *at least* at quantum ends — so fuzzing
    // inserts extra drain points at positions keyed to logical progress
    // (the task's step count), never to host timing.
    uint64_t Chunk = T.StepsLeft;
    uint64_t Steps0 = T.Interp->stepsExecuted();
    if (F.Enabled && Chunk > 1) {
      uint64_t H = fuzzMix(F.Seed, Steps0, T.Index, 3);
      if (fuzzUnit(H) < F.SplitDrainChance)
        Chunk = 1 + fuzzMix(F.Seed, Steps0, T.Index, 4) % Chunk;
    }
    bool Parked = false;
    runChunk(T, Chunk, Parked);
    // Drain after every chunk, not just the last: each publish is a legal
    // quantum-end drain point for the owning worker.
    Vm.jvmti().publishQuantumEnd(*T.Thread);
    Heartbeat.fetch_add(1, std::memory_order_relaxed);
    if (Parked || T.Done || T.StepsLeft == 0)
      return;
  }
}

void Executor::runChunk(Task &T, uint64_t Budget, bool &Parked) {
  uint64_t Before = T.Interp->stepsExecuted();
  try {
    RunState St = T.Interp->resume(Budget);
    uint64_t Used = T.Interp->stepsExecuted() - Before;
    T.StepsLeft -= std::min(T.StepsLeft, Used);
    if (St == RunState::Done) {
      T.Done = true;
      T.StepsLeft = 0;
    }
    // Paused: chunk budget exhausted; the quantum loop or next round
    // picks the task up again.
  } catch (const GcRequest &R) {
    // The faulting bytecode did not execute (and the interpreter rolled
    // back its step/tick), so a park that repeats at the same step count
    // means the previous safepoint collection freed nothing useful:
    // OutOfMemory, reported like the serial path. (Only shard-local data
    // goes in the message — other workers are still mutating their own
    // shards, so whole-heap queries are off limits here.)
    uint64_t Now = T.Interp->stepsExecuted();
    if (T.LastParkSteps == Now) {
      VmError E(VmErrorKind::OutOfMemory,
                std::to_string(R.Bytes) + " bytes requested in heap shard " +
                    std::to_string(T.Thread->heapShard()) + " (" +
                    std::to_string(Vm.heap().shardLimit(T.Thread->heapShard()) -
                                   Vm.heap().shardBase(T.Thread->heapShard())) +
                    "-byte shard) after a safepoint GC freed nothing");
      E.ThreadId = T.Thread->id();
      E.Steps = Now;
      E.Shard = T.Thread->heapShard();
      throw E;
    }
    T.LastParkSteps = Now;
    uint64_t Used = Now - Before;
    T.StepsLeft -= std::min(T.StepsLeft, Used);
    // Guarantee forward progress after the safepoint even when the fault
    // landed exactly on the quantum's last step.
    if (T.StepsLeft == 0)
      T.StepsLeft = 1;
    T.Parked = true;
    Parked = true;
  }
  // The caller (runQuantum) publishes the quantum-end drain: the batched
  // sample resolver drains this thread's ring on the worker that owns the
  // quantum (before any safepoint can mutate the index under the buffered
  // addresses).
}

bool Executor::roundBarrierStop() {
  // Runs on the iteration closer with peers quiesced, so the hook may read
  // every task's profile race-free. Hook first, then MaxRounds: a journal
  // flush for round N must land even when N is the last round.
  bool Stop = false;
  if (Config.OnRoundEnd)
    Stop = Config.OnRoundEnd(Rounds);
  if (Config.MaxRounds != 0 && Rounds >= Config.MaxRounds)
    Stop = true;
  return Stop;
}

bool Executor::nextIteration() {
  // Continue the current round: parked tasks that still owe quantum
  // budget (their peers already finished theirs, so StepsLeft > 0 only
  // survives an iteration via a park).
  Work.clear();
  for (auto &T : Tasks)
    if (!T->Done && T->StepsLeft > 0)
      Work.push_back(T.get());
  if (!Work.empty())
    return true;
  // Round barrier crossed (also true for the final barrier, where no task
  // has budget left): fire the hook before opening the next round.
  if (Rounds > 0 && roundBarrierStop())
    return false; // Clean early end (hook request or MaxRounds).
  // Open the next round, drawing budgets against the pre-increment Rounds.
  for (auto &T : Tasks)
    if (!T->Done) {
      T->StepsLeft = quantumFor(T->Index);
      T->Round = Rounds + 1;
      Work.push_back(T.get());
    }
  if (Work.empty())
    return false; // Every task is done: session over.
  ++Rounds;
  maybeFuzzForcedGc(Rounds);
  return true;
}

void Executor::closeIteration() {
  // Error abort: a captured VmError already ended the session; do not
  // publish further work (peers are unwinding on SessionDone).
  if (SessionDone.load(std::memory_order_acquire))
    return;
  // Reached by exactly one worker per iteration (its Remaining decrement
  // hit zero, or it is the calling thread opening the session), with
  // every peer quiesced on the round ticket — the world is stopped by
  // construction, without a handshake.
  try {
    std::vector<JavaThread *> Requesters;
    for (auto &T : Tasks)
      if (T->Parked)
        Requesters.push_back(T->Thread);
    if (!Requesters.empty()) {
      // The sense-reversing fallback: this quiescent point widens into a
      // full stop-the-world safepoint, run right here on the last
      // finisher.
      Safepoint.stopTheWorldGc(Vm, Requesters);
      // Deopt-at-safepoint: compiled traces die with the pause; the flat
      // loop owns every resumed frame (hot sites recompile on next visit).
      invalidateTraces();
      // Re-bind after compaction: objects slid within their shard, and a
      // future heap recycle may have released pages — placement must be
      // restored before any post-GC access.
      applyNumaPlacement();
      for (auto &T : Tasks)
        T->Parked = false;
    }
    if (nextIteration()) {
      // Every closer-side write — task state, Rounds, Work, Remaining —
      // is sequenced before this release store; a claimant's acquiring
      // fetch_add of the fresh word sees them all, and may race ahead the
      // instant it is visible.
      Remaining.store(Work.size(), std::memory_order_relaxed);
      Claim.store(static_cast<uint64_t>(Work.size()) << 32,
                  std::memory_order_release);
    } else {
      SessionDone.store(true, std::memory_order_release);
    }
  } catch (VmError &E) {
    // First-error capture for the barrier itself: the round hook, the
    // safepoint GC or the fuzz-forced GC failed. Ends the session exactly
    // like a failed quantum.
    recordError(std::move(E));
    return;
  }
  RoundTicket.fetch_add(1, std::memory_order_release);
  wakeWaiters();
}

void Executor::wakeWaiters() {
  // Empty lock/unlock rendezvous after the store: a worker mid-wait either
  // saw the store in its predicate or is registered for this notify.
  { std::lock_guard<std::mutex> L(WakeMutex); }
  WakeCv.notify_all();
}

uint64_t Executor::waitForTicket(uint64_t Seen) {
  // Short spin: round transitions are fast when peers are actually
  // running. Then sleep — a safepoint GC (or an oversubscribed host) can
  // hold the ticket arbitrarily long, and spinning through it would
  // steal the closer's cycles.
  for (int I = 0; I < 256; ++I) {
    if (RoundTicket.load(std::memory_order_acquire) != Seen ||
        SessionDone.load(std::memory_order_acquire))
      return RoundTicket.load(std::memory_order_acquire);
    cpuRelax();
  }
  std::unique_lock<std::mutex> L(WakeMutex);
  WakeCv.wait(L, [&] {
    return RoundTicket.load(std::memory_order_acquire) != Seen ||
           SessionDone.load(std::memory_order_acquire);
  });
  return RoundTicket.load(std::memory_order_acquire);
}

void Executor::sessionLoop(unsigned Worker) {
  // Host-side fuzz jitter: a per-worker PRNG (free-running, *not* keyed
  // to logical state) perturbs when this worker claims work. Results must
  // be interleaving-invariant, so this may shake out races but can never
  // legally change a byte of output.
  const FuzzSchedule &F = Config.Fuzz;
  Random Jitter(F.Seed ^ (0x5DEECE66DULL * (Worker + 1)));
  uint64_t Seen = RoundTicket.load(std::memory_order_acquire);
  for (;;) {
    if (SessionDone.load(std::memory_order_acquire))
      return;
    if (F.Enabled && Jitter.nextBool(F.WorkerJitterChance)) {
      uint64_t Spins = Jitter.nextBelow(512);
      if (Spins == 0)
        std::this_thread::yield();
      for (uint64_t I = 0; I < Spins; ++I)
        cpuRelax();
    }
    uint64_t Word = Claim.fetch_add(1, std::memory_order_acquire);
    uint32_t I = static_cast<uint32_t>(Word);
    if (I >= (Word >> 32)) {
      // Iteration exhausted: wait for the closer to publish the next.
      // (Every exhausted claim is followed by a ticket wait, so a worker
      // over-claims each published word at most twice and the index half
      // never carries into the size half.)
      Seen = waitForTicket(Seen);
      continue;
    }
    Task &T = *Work[I];
    WorkerClaims[Worker].store(T.Index + 1, std::memory_order_release);
    try {
      runQuantum(T);
    } catch (VmError &E) {
      // First-error capture: this worker's quantum failed. Attribute the
      // error to its task where the throw site could not, record it, and
      // unwind — peers observe SessionDone at their next claim or ticket
      // check (the next round barrier, in effect).
      if (E.ThreadId == VmError::kNoThread)
        E.ThreadId = T.Thread->id();
      if (E.Steps == 0)
        E.Steps = T.Interp->stepsExecuted();
      WorkerClaims[Worker].store(0, std::memory_order_release);
      recordError(std::move(E));
      return;
    }
    WorkerClaims[Worker].store(0, std::memory_order_release);
    if (Remaining.fetch_sub(1, std::memory_order_acq_rel) == 1)
      closeIteration();
  }
}

void Executor::recordError(VmError &&E) {
  {
    std::lock_guard<std::mutex> L(ErrorLock);
    if (!FirstError)
      FirstError = std::move(E);
  }
  // End the session: peers unwind at their next claim or ticket check.
  SessionDone.store(true, std::memory_order_release);
  wakeWaiters();
}

void Executor::simulateStall(Task &T) {
  StalledTask.store(T.Index + 1, std::memory_order_release);
  while (!SessionDone.load(std::memory_order_acquire))
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

VmError Executor::buildStallError() const {
  // Built from atomics and immutable fields only: the stalled workers
  // are still alive and their Task/Interpreter state is in motion.
  std::string Dump =
      "no forward progress for " + std::to_string(Config.StallTimeoutMs) +
      " ms (round ticket " +
      std::to_string(RoundTicket.load(std::memory_order_acquire)) +
      ", heartbeat " +
      std::to_string(Heartbeat.load(std::memory_order_acquire)) + ")";
  uint64_t Stalled = StalledTask.load(std::memory_order_acquire);
  if (Stalled)
    Dump += "; injected stall on task " + std::to_string(Stalled - 1);
  for (unsigned W = 0; W < NumWorkers; ++W) {
    uint64_t Slot = WorkerClaims[W].load(std::memory_order_acquire);
    Dump += "; worker " + std::to_string(W) +
            (Slot ? ": running task " + std::to_string(Slot - 1) : ": idle");
  }
  VmError E(VmErrorKind::WorkerStall, Dump);
  if (Stalled)
    E.ThreadId = Tasks[Stalled - 1]->Thread->id();
  return E;
}

void Executor::watchdogLoop() {
  uint64_t LastBeat = Heartbeat.load(std::memory_order_acquire);
  auto LastChange = std::chrono::steady_clock::now();
  auto Timeout = std::chrono::milliseconds(Config.StallTimeoutMs);
  auto Poll = std::chrono::milliseconds(
      std::min<uint64_t>(std::max<uint64_t>(Config.StallTimeoutMs / 4, 1),
                         100));
  std::unique_lock<std::mutex> L(WatchdogMutex);
  for (;;) {
    WatchdogCv.wait_for(L, Poll, [&] {
      return WatchdogStop.load(std::memory_order_acquire);
    });
    if (WatchdogStop.load(std::memory_order_acquire))
      return;
    uint64_t Beat = Heartbeat.load(std::memory_order_acquire);
    auto Now = std::chrono::steady_clock::now();
    if (Beat != LastBeat) {
      LastBeat = Beat;
      LastChange = Now;
      continue;
    }
    if (SessionDone.load(std::memory_order_acquire))
      continue; // Already unwinding; nothing to convert.
    if (Now - LastChange >= Timeout) {
      recordError(buildStallError());
      return;
    }
  }
}

void Executor::run() {
  if (Tasks.empty())
    return;
  // Shared layers become parallel-safe for the duration of the run:
  // registries freeze (immutable after load), and a failed allocation
  // defers GC to the safepoint protocol instead of collecting inline.
  Vm.setDeferGcToSafepoint(true);
  Vm.types().freeze();
  Vm.methods().freeze();
  // Place each shard's pages per the NUMA policy before the first access
  // (every hierarchy, shared and worker-private, sees the same placement).
  applyNumaPlacement();

  // Session state, set before the watchdog thread starts (its stall dump
  // reads the claim slots).
  NumWorkers = static_cast<unsigned>(std::min<size_t>(Jobs, Tasks.size()));
  WorkerClaims.reset(new std::atomic<uint64_t>[NumWorkers]);
  for (unsigned I = 0; I < NumWorkers; ++I)
    WorkerClaims[I].store(0, std::memory_order_relaxed);
  SessionDone.store(false, std::memory_order_relaxed);

  // Host-time watchdog: converts a hung session (a wedged worker, a
  // safepoint that can never complete) into a WorkerStall error.
  std::thread Watchdog;
  WatchdogStop.store(false, std::memory_order_relaxed);
  StalledTask.store(0, std::memory_order_relaxed);
  if (Config.StallTimeoutMs > 0) {
    WatchdogArmed.store(true, std::memory_order_release);
    Watchdog = std::thread([this] { watchdogLoop(); });
  }

  // One session for every Jobs value: the calling thread opens the first
  // iteration, then runs as worker 0 beside NumWorkers - 1 spawned peers.
  closeIteration();
  Workers.reserve(NumWorkers - 1);
  for (unsigned I = 1; I < NumWorkers; ++I)
    Workers.emplace_back([this, I] { sessionLoop(I); });
  sessionLoop(0);
  for (std::thread &W : Workers)
    W.join();
  Workers.clear();

  WatchdogArmed.store(false, std::memory_order_release);
  WatchdogStop.store(true, std::memory_order_release);
  { std::lock_guard<std::mutex> L(WatchdogMutex); }
  WatchdogCv.notify_all();
  if (Watchdog.joinable())
    Watchdog.join();

  Vm.methods().unfreeze();
  Vm.types().unfreeze();
  Vm.setDeferGcToSafepoint(false);
}

uint64_t Executor::totalSteps() const {
  uint64_t Sum = 0;
  for (const auto &T : Tasks)
    Sum += T->Interp->stepsExecuted();
  return Sum;
}

HierarchyStats Executor::mergedMachineStats() const {
  std::vector<HierarchyStats> Parts;
  Parts.reserve(Tasks.size() + 1);
  Parts.push_back(Vm.machine().stats());
  for (const auto &T : Tasks)
    Parts.push_back(T->Machine->stats());
  return mergeHierarchyStats(Parts);
}
