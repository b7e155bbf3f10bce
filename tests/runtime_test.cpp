//===- runtime_test.cpp - Executor / safepoint runtime tests ---------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Covers the parallel profiling runtime: the Executor's round/quantum
/// schedule, the safepoint GC protocol (allocation-fault parking and
/// re-execution), worker-private machine state with deterministic merge,
/// attach-mode profiling from worker threads, and jobs-invariance of every
/// observable outcome. Run under the tsan preset these tests double as the
/// data-race check for the runtime.
///
//===----------------------------------------------------------------------===//

#include "bytecode/MethodBuilder.h"
#include "core/DjxPerf.h"
#include "core/Report.h"
#include "runtime/Executor.h"
#include "support/FaultInjector.h"
#include "workloads/BytecodePrograms.h"
#include "workloads/Parallel.h"

#include <gtest/gtest.h>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(runtime_test, 79.0, 50.0,
    "src/runtime/Executor.cpp",
    "src/runtime/Executor.h",
    "src/runtime/Safepoint.cpp",
    "src/runtime/Safepoint.h",
    "src/workloads/Parallel.cpp",
    "src/workloads/Parallel.h");

ParallelConfig smallConfig(unsigned Jobs) {
  ParallelConfig Pc;
  Pc.SimThreads = 4;
  Pc.Jobs = Jobs;
  Pc.QuantumSteps = 4096; // Small quanta: many rounds, many barriers.
  Pc.Iters = 250;         // 250 x 512 B churn > the shard's free space.
  Pc.Nlen = 128;
  Pc.HotElems = 4096;                // 32 KiB hot array.
  Pc.HeapBytesPerThread = 128 << 10; // Churn forces safepoint GCs.
  return Pc;
}

struct Outcome {
  ParallelOutcome Run;
  uint64_t TotalCycles = 0;
  uint64_t Collections = 0;
  uint64_t PeakHeap = 0;
  std::vector<int64_t> Results;
};

Outcome runNative(const ParallelConfig &Pc) {
  JavaVm Vm(parallelVmConfig(Pc));
  Outcome O;
  O.Run = runParallelWorkload(Vm, nullptr, Pc);
  O.TotalCycles = Vm.totalCycles();
  O.Collections = Vm.gcTotals().Collections;
  O.PeakHeap = Vm.peakHeapBytes();
  return O;
}

TEST(Executor, RunsTasksToCompletion) {
  ParallelConfig Pc = smallConfig(2);
  JavaVm Vm(parallelVmConfig(Pc));
  BytecodeProgram Program = buildParallelWorkerProgram(Vm.types());
  Program.load(Vm);

  ExecutorConfig Ec;
  Ec.Jobs = 2;
  Ec.QuantumSteps = Pc.QuantumSteps;
  Executor Ex(Vm, Ec);
  for (unsigned I = 0; I < 3; ++I)
    Ex.addThread(Program, "Main.run",
                 {Value::fromInt(Pc.Iters), Value::fromInt(Pc.Nlen),
                  Value::fromInt(Pc.HotElems)},
                 "w" + std::to_string(I));
  Ex.run();

  EXPECT_GT(Ex.totalSteps(), 0u);
  EXPECT_GT(Ex.rounds(), 1u);
  // All three ran the same program: identical return values.
  std::optional<Value> R0 = Ex.result(0);
  ASSERT_TRUE(R0.has_value());
  for (size_t I = 1; I < 3; ++I) {
    std::optional<Value> R = Ex.result(I);
    ASSERT_TRUE(R.has_value());
    EXPECT_EQ(R->asInt(), R0->asInt());
  }
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_FALSE(Ex.interpreter(I).hasPendingCall());
    EXPECT_TRUE(Ex.thread(I).isAlive());
    Vm.endThread(Ex.thread(I));
  }
  // Each thread burned simulated cycles. (Clocks are NOT equal across
  // threads: shard bases shift every object's cache-line alignment, so
  // identical programs see different — but deterministic — miss counts.)
  for (size_t I = 0; I < 3; ++I)
    EXPECT_GT(Ex.thread(I).cycles(), 0u);
}

TEST(Executor, SafepointGcRunsAndPreservesLiveObjects) {
  ParallelConfig Pc = smallConfig(2);
  Outcome O = runNative(Pc);
  // The churn exceeds each 128 KiB shard: safepoint GCs must have fired,
  // via the deferred (GcRequest) protocol, and the workload still
  // completed with the full step count.
  EXPECT_GT(O.Run.Safepoints, 0u);
  EXPECT_EQ(O.Collections, O.Run.Safepoints);
  EXPECT_GT(O.Run.Steps, 0u);
}

TEST(Executor, OutcomeIsInvariantAcrossJobs) {
  Outcome O1 = runNative(smallConfig(1));
  Outcome O2 = runNative(smallConfig(2));
  Outcome O4 = runNative(smallConfig(4));
  for (const Outcome *O : {&O2, &O4}) {
    EXPECT_EQ(O->Run.Steps, O1.Run.Steps);
    EXPECT_EQ(O->Run.Safepoints, O1.Run.Safepoints);
    EXPECT_EQ(O->Run.Rounds, O1.Run.Rounds);
    EXPECT_EQ(O->TotalCycles, O1.TotalCycles);
    EXPECT_EQ(O->Collections, O1.Collections);
    EXPECT_EQ(O->PeakHeap, O1.PeakHeap);
    EXPECT_EQ(O->Run.Machine.Accesses, O1.Run.Machine.Accesses);
    EXPECT_EQ(O->Run.Machine.L1Misses, O1.Run.Machine.L1Misses);
    EXPECT_EQ(O->Run.Machine.L2Misses, O1.Run.Machine.L2Misses);
    EXPECT_EQ(O->Run.Machine.L3Misses, O1.Run.Machine.L3Misses);
    EXPECT_EQ(O->Run.Machine.TlbMisses, O1.Run.Machine.TlbMisses);
    EXPECT_EQ(O->Run.Machine.TotalLatency, O1.Run.Machine.TotalLatency);
  }
}

// A shard too small for its thread's live data must surface a typed
// OutOfMemory error, not loop park -> safepoint GC -> park forever (and
// not abort the process: the profile up to the failure is salvageable).
TEST(Executor, ReportsOutOfMemoryWhenGcCannotHelp) {
  for (unsigned Jobs : {1u, 2u}) {
    ParallelConfig Pc = smallConfig(Jobs);
    Pc.SimThreads = Jobs == 1 ? 1 : 2;
    Pc.HotElems = 1 << 20; // 8 MiB hot array vs a 128 KiB shard.
    JavaVm Vm(parallelVmConfig(Pc));
    try {
      runParallelWorkload(Vm, nullptr, Pc);
      FAIL() << "undersized shard must raise VmError (jobs=" << Jobs << ")";
    } catch (const VmError &E) {
      EXPECT_EQ(E.Kind, VmErrorKind::OutOfMemory);
      EXPECT_NE(E.Shard, VmError::kNoShard);
      EXPECT_NE(std::string(E.what()).find("safepoint GC freed nothing"),
                std::string::npos);
    }
  }
}

TEST(Executor, AttachModeProfilingFromWorkers) {
  ParallelConfig Pc = smallConfig(4);
  JavaVm Vm(parallelVmConfig(Pc));
  DjxPerf Prof(Vm, parallelAgentConfig(Pc));
  Prof.start(); // Attach before any simulated thread exists.
  ParallelOutcome Out = runParallelWorkload(Vm, &Prof, Pc);
  Prof.stop();

  EXPECT_GT(Out.Steps, 0u);
  EXPECT_GT(Prof.samplesHandled(), 0u);
  EXPECT_GT(Prof.allocationsTracked(), 0u);
  EXPECT_EQ(Prof.profiles().size(), Pc.SimThreads);
  // The sharded index served concurrent inserts/lookups/erases.
  EXPECT_EQ(Prof.index().numShards(), Pc.SimThreads);
  EXPECT_GT(Prof.index().inserts(), 0u);
  EXPECT_GT(Prof.index().erases(), 0u);
  // GC moves flowed through the relocation batch at the safepoint.
  EXPECT_GT(Out.Safepoints, 0u);
  MergedProfile P = Prof.analyze();
  EXPECT_EQ(P.ThreadsMerged, Pc.SimThreads);
  EXPECT_FALSE(renderObjectCentric(P, Vm.methods()).empty());
}

// multianewarray in executor mode is GC-atomic: the whole multi-level
// footprint is preflighted against the shard, so a safepoint park happens
// *before* any inner array commits (no double-published events) and the
// workload still completes identically for any jobs value.
TEST(Executor, MultiArrayAllocationIsGcAtomic) {
  auto Run = [](unsigned Jobs) {
    VmConfig Vc;
    Vc.HeapShards = 2;
    Vc.HeapBytes = 2 * (96 << 10); // 96 KiB per shard: GCs guaranteed.
    JavaVm Vm(Vc);
    // Pre-register the nested ref-array type: registries freeze during
    // run(), so lazy creation inside multianewarray would assert.
    Vm.types().refArrayType("long[]");

    // Main.run(iters): for (i = 0; i < iters; i++) new long[8][32];
    BytecodeProgram P;
    {
      MethodBuilder B("Main", "run", /*NumArgs=*/1, /*NumLocals=*/2);
      B.iconst(0).istore(1);
      Label Loop = B.newLabel(), End = B.newLabel();
      B.bind(Loop);
      B.iload(1).iload(0).ifICmp(Opcode::IfICmpGe, End);
      B.iconst(8).iconst(32);
      B.multiANewArray(Vm.types().longArray(), 2);
      B.pop();
      B.iload(1).iconst(1).iadd().istore(1);
      B.jmp(Loop);
      B.bind(End);
      B.ret();
      ClassFile C;
      C.Name = "Main";
      C.Methods.push_back(B.build());
      P.addClass(std::move(C));
    }
    P.load(Vm);

    ExecutorConfig Ec;
    Ec.Jobs = Jobs;
    Ec.QuantumSteps = 512;
    Executor Ex(Vm, Ec);
    for (unsigned I = 0; I < 2; ++I)
      Ex.addThread(P, "Main.run", {Value::fromInt(200)},
                   "m" + std::to_string(I));
    Ex.run();
    return std::make_tuple(Ex.totalSteps(), Ex.safepoints(),
                           Vm.gcTotals().Collections, Vm.totalCycles());
  };
  auto A = Run(1);
  auto B = Run(2);
  EXPECT_GT(std::get<0>(A), 0u);
  EXPECT_GT(std::get<1>(A), 0u); // Parks happened mid-loop.
  EXPECT_EQ(A, B);               // ...identically for any jobs value.
}

TEST(Executor, InstrumentedBytecodeAgentAcrossInterpreters) {
  ParallelConfig Pc = smallConfig(2);
  Pc.Instrumented = true;
  JavaVm Vm(parallelVmConfig(Pc));
  DjxPerf Prof(Vm, parallelAgentConfig(Pc));
  Prof.start();
  ParallelOutcome Out = runParallelWorkload(Vm, &Prof, Pc);
  Prof.stop();
  EXPECT_GT(Out.Steps, 0u);
  // The ASM-style hooks (not VM events) delivered the callbacks.
  EXPECT_GT(Prof.allocationCallbacks(), 0u);
  EXPECT_GT(Prof.allocationsTracked(), 0u);
  EXPECT_EQ(Vm.jvmti().allocationCallbacksDelivered(), 0u);
}

// Executor flavour of the zero-lock guarantee: once the hot arrays are
// tracked (setup phase), a GC-free parallel run delivers and resolves
// every sample — including cross-shard neighbour sweeps — without a
// single index lock acquisition.
TEST(Executor, SteadyStateSamplePathAcquiresNoIndexLocks) {
  ParallelConfig Pc;
  Pc.SimThreads = 2;
  Pc.Jobs = 2;
  Pc.QuantumSteps = 4096;
  Pc.Iters = 40;
  Pc.Nlen = 64;                     // 512 B churn arrays: untracked.
  Pc.HotElems = 16384;              // 128 KiB hot arrays: tracked.
  Pc.HeapBytesPerThread = 8 << 20;  // Roomy shards: no safepoint GCs.
  JavaVm Vm(parallelVmConfig(Pc));
  DjxPerfConfig Agent = parallelAgentConfig(Pc);
  Agent.MinObjectSize = 16 << 10; // Only the setup-phase arrays qualify.
  DjxPerf Prof(Vm, Agent);
  Prof.start();

  // Setup phase (the numaRemote shape): one thread allocates each
  // worker's hot array into that worker's shard; workers then sweep
  // their *neighbour's* array, so every lookup crosses shards.
  BytecodeProgram Program = buildNumaWorkerProgram(Vm.types());
  Program.load(Vm);
  TypeId LongArr = Vm.types().longArray();
  MethodId AllocM =
      Vm.methods().getOrRegister("Steady", "allocateHot", {{0, 1}});
  RootScope Roots(Vm);
  std::vector<ObjectRef *> Hot(Pc.SimThreads);
  JavaThread &Setup = Vm.startThread("steady-setup", 0);
  for (unsigned I = 0; I < Pc.SimThreads; ++I) {
    Setup.setHeapShard(I);
    FrameScope F(Setup, AllocM, I);
    Hot[I] = &Roots.add();
    *Hot[I] = Vm.allocateArray(Setup, LongArr, Pc.HotElems);
  }
  Setup.setHeapShard(0);
  Vm.endThread(Setup);

  ExecutorConfig Ec;
  Ec.Jobs = Pc.Jobs;
  Ec.QuantumSteps = Pc.QuantumSteps;
  Executor Ex(Vm, Ec);
  for (unsigned I = 0; I < Pc.SimThreads; ++I)
    Ex.addThread(Program, "Main.run",
                 {Value::fromInt(Pc.Iters), Value::fromInt(Pc.Nlen),
                  Value::fromRef(*Hot[(I + 1) % Pc.SimThreads]),
                  Value::fromInt(Pc.HotElems)},
                 "steady-" + std::to_string(I));

  uint64_t Locks = Prof.index().lockAcquisitions();
  uint64_t Samples = Prof.samplesHandled();
  Ex.run();
  ASSERT_EQ(Ex.safepoints(), 0u) << "test premise: a GC-free steady run";
  EXPECT_GT(Prof.samplesHandled(), Samples);
  EXPECT_EQ(Prof.index().lockAcquisitions(), Locks)
      << "sample resolution must run lock-free in steady state";
  Prof.stop();
  for (size_t I = 0; I < Ex.numTasks(); ++I)
    Vm.endThread(Ex.thread(I));
}

TEST(Executor, ProfiledOutcomeInvariantAcrossJobs) {
  auto RunProfiled = [](unsigned Jobs) {
    ParallelConfig Pc = smallConfig(Jobs);
    JavaVm Vm(parallelVmConfig(Pc));
    DjxPerf Prof(Vm, parallelAgentConfig(Pc));
    Prof.start();
    runParallelWorkload(Vm, &Prof, Pc);
    Prof.stop();
    MergedProfile P = Prof.analyze();
    return std::make_tuple(renderObjectCentric(P, Vm.methods()),
                           Prof.samplesHandled(), Prof.allocationsTracked(),
                           Prof.index().inserts(), Vm.totalCycles());
  };
  auto A = RunProfiled(1);
  auto B = RunProfiled(4);
  EXPECT_EQ(std::get<0>(A), std::get<0>(B));
  EXPECT_EQ(std::get<1>(A), std::get<1>(B));
  EXPECT_EQ(std::get<2>(A), std::get<2>(B));
  EXPECT_EQ(std::get<3>(A), std::get<3>(B));
  EXPECT_EQ(std::get<4>(A), std::get<4>(B));
}

// --- Session-ending paths ---------------------------------------------------

/// Runs two tasks of smallConfig's worker program on \p Jobs host
/// workers, after \p Tune adjusts the executor config and \p Arm the
/// fresh executor. Returns the executor's captured error, if any, and
/// the rounds it ran.
std::pair<std::optional<VmError>, uint64_t>
runSession(unsigned Jobs, const std::function<void(ExecutorConfig &)> &Tune,
           const std::function<void(Executor &)> &Arm = nullptr) {
  ParallelConfig Pc = smallConfig(Jobs);
  Pc.SimThreads = 2;
  JavaVm Vm(parallelVmConfig(Pc));
  BytecodeProgram Program = buildParallelWorkerProgram(Vm.types());
  Program.load(Vm);
  ExecutorConfig Ec;
  Ec.Jobs = Jobs;
  Ec.QuantumSteps = Pc.QuantumSteps;
  Tune(Ec);
  Executor Ex(Vm, Ec);
  for (unsigned I = 0; I < Pc.SimThreads; ++I)
    Ex.addThread(Program, "Main.run",
                 {Value::fromInt(Pc.Iters), Value::fromInt(Pc.Nlen),
                  Value::fromInt(Pc.HotElems)},
                 "w" + std::to_string(I));
  if (Arm)
    Arm(Ex);
  Ex.run();
  for (size_t I = 0; I < Ex.numTasks(); ++I)
    Vm.endThread(Ex.thread(I));
  return {Ex.error(), Ex.rounds()};
}

TEST(Executor, CapturesTheFirstErrorOnBothDrivers) {
  // An allocation observer fails on task 1's first allocation past 5000
  // steps -- a fixed logical point, so every jobs value ends the session
  // in the same round. The session attributes the bare error to the task
  // whose quantum raised it.
  for (unsigned Jobs : {1u, 2u}) {
    uint64_t FailingThread = 0;
    uint64_t FailingSteps = 0;
    auto [Err, Rounds] = runSession(
        Jobs, [](ExecutorConfig &) {},
        [&](Executor &Ex) {
          FailingThread = Ex.thread(1).id();
          Ex.interpreter(1).vm().jvmti().onAllocation(
              [&Ex, &FailingSteps](const AllocationEvent &E) {
                if (E.Thread != &Ex.thread(1) || FailingSteps != 0 ||
                    Ex.interpreter(1).stepsExecuted() <= 5000)
                  return;
                FailingSteps = Ex.interpreter(1).stepsExecuted();
                throw VmError(VmErrorKind::Internal, "observer failed");
              });
        });
    ASSERT_TRUE(Err.has_value()) << "jobs=" << Jobs;
    EXPECT_EQ(Err->Kind, VmErrorKind::Internal);
    EXPECT_NE(std::string(Err->what()).find("observer failed"),
              std::string::npos);
    EXPECT_EQ(Rounds, 3u) << "jobs=" << Jobs;
    EXPECT_EQ(Err->ThreadId, FailingThread) << "jobs=" << Jobs;
    EXPECT_EQ(Err->Steps, FailingSteps) << "jobs=" << Jobs;
  }
}

TEST(Executor, RoundHookErrorIsCapturedOnEveryJobsValue) {
  // The round barrier runs on whichever worker closes the iteration; a
  // VmError from the hook there must end the session through first-error
  // capture, not escape the worker.
  for (unsigned Jobs : {1u, 2u}) {
    auto [Err, Rounds] = runSession(Jobs, [](ExecutorConfig &Ec) {
      Ec.OnRoundEnd = [](uint64_t Round) {
        if (Round == 2)
          throw VmError(VmErrorKind::Internal, "round hook failed");
        return false;
      };
    });
    ASSERT_TRUE(Err.has_value()) << "jobs=" << Jobs;
    EXPECT_EQ(Err->Kind, VmErrorKind::Internal);
    EXPECT_NE(std::string(Err->what()).find("round hook failed"),
              std::string::npos);
    EXPECT_EQ(Rounds, 2u) << "jobs=" << Jobs;
  }
}

TEST(Executor, RoundLimitsEndSessionsCleanlyOnBothDrivers) {
  for (unsigned Jobs : {1u, 2u}) {
    auto [Err, Rounds] = runSession(
        Jobs, [](ExecutorConfig &Ec) { Ec.MaxRounds = 2; });
    EXPECT_FALSE(Err.has_value());
    EXPECT_EQ(Rounds, 2u) << "jobs=" << Jobs;
    std::vector<uint64_t> Seen;
    auto [HookErr, HookRounds] =
        runSession(Jobs, [&](ExecutorConfig &Ec) {
          Ec.OnRoundEnd = [&](uint64_t Round) {
            Seen.push_back(Round);
            return Round == 3;
          };
        });
    EXPECT_FALSE(HookErr.has_value());
    EXPECT_EQ(HookRounds, 3u) << "jobs=" << Jobs;
    EXPECT_EQ(Seen, (std::vector<uint64_t>{1, 2, 3})) << "jobs=" << Jobs;
  }
}

/// Clears the process-global injector on scope exit.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::clear(); }
};

TEST(Executor, WatchdogStopsAStalledSessionOnBothDrivers) {
  // Every quantum claim stalls; the watchdog must convert the hang into
  // a WorkerStall naming the stalled task and every worker's state.
  InjectorGuard Guard;
  FaultPlan Plan;
  Plan.Seed = 7;
  Plan.rate(FaultSite::QuantumClaim) = 1.0;
  for (unsigned Jobs : {1u, 2u}) {
    FaultInjector::install(Plan);
    auto [Err, Rounds] = runSession(
        Jobs, [](ExecutorConfig &Ec) { Ec.StallTimeoutMs = 40; });
    FaultInjector::clear();
    ASSERT_TRUE(Err.has_value()) << "jobs=" << Jobs;
    EXPECT_EQ(Err->Kind, VmErrorKind::WorkerStall);
    const std::string What = Err->what();
    EXPECT_NE(What.find("no forward progress for 40 ms"), std::string::npos)
        << What;
    EXPECT_NE(What.find("injected stall on task"), std::string::npos)
        << What;
    for (unsigned W = 0; W < Jobs; ++W) {
      const std::string Worker = "; worker " + std::to_string(W) + ": ";
      EXPECT_TRUE(What.find(Worker + "running task ") != std::string::npos ||
                  What.find(Worker + "idle") != std::string::npos)
          << What;
    }
    EXPECT_EQ(What.find("; worker " + std::to_string(Jobs) + ":"),
              std::string::npos)
        << What;
    EXPECT_NE(Err->ThreadId, VmError::kNoThread);
    EXPECT_EQ(Rounds, 1u);
  }
}

} // namespace
