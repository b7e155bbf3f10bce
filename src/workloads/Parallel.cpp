//===- Parallel.cpp - Multi-threaded executor workloads --------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "workloads/Parallel.h"

#include "runtime/Executor.h"
#include "workloads/BytecodePrograms.h"

#include <cassert>
#include <functional>
#include <string>
#include <vector>

using namespace djx;

VmConfig djx::parallelVmConfig(const ParallelConfig &Config) {
  VmConfig Vc;
  Vc.HeapBytes = Config.HeapBytesPerThread * Config.SimThreads;
  Vc.HeapShards = Config.SimThreads;
  return Vc;
}

VmConfig djx::numaRemoteVmConfig(const ParallelConfig &Config) {
  VmConfig Vc = parallelVmConfig(Config);
  Vc.Machine.L2 = CacheConfig{64 * 1024, 64, 8};
  Vc.Machine.L3 = CacheConfig{128 * 1024, 64, 16};
  return Vc;
}

DjxPerfConfig djx::parallelAgentConfig(const ParallelConfig &Config,
                                       DjxPerfConfig Base) {
  Base.IndexShards = Config.SimThreads;
  return Base;
}

namespace {

/// Runs one Executor session configured from \p Config over the tasks
/// \p AddTasks adds, then ends every task's thread in task (= thread-id)
/// order. A failed session ends the threads first (their rings drain into
/// the profile — the salvage substrate), then rethrows the captured
/// error to the caller, who still holds the profiler with all pre-failure
/// data.
ParallelOutcome runSession(JavaVm &Vm, const ParallelConfig &Config,
                           const std::function<void(Executor &)> &AddTasks) {
  ExecutorConfig Ec;
  Ec.Jobs = Config.Jobs;
  Ec.QuantumSteps = Config.QuantumSteps;
  Ec.Policy = Config.Policy;
  Ec.Tier = Config.Tier;
  Ec.Fuzz = Config.Fuzz;
  Ec.StallTimeoutMs = Config.StallTimeoutMs;
  Ec.OnRoundEnd = Config.OnRoundEnd;
  Ec.MaxRounds = Config.MaxRounds;
  Executor Ex(Vm, Ec);
  AddTasks(Ex);

  Ex.run();

  auto EndThreads = [&] {
    for (size_t I = 0; I < Ex.numTasks(); ++I)
      Vm.endThread(Ex.thread(I));
  };
  if (Ex.error()) {
    EndThreads();
    throw *Ex.error();
  }
  ParallelOutcome Out;
  Out.Steps = Ex.totalSteps();
  Out.Safepoints = Ex.safepoints();
  Out.Rounds = Ex.rounds();
  Out.Machine = Ex.mergedMachineStats();
  if (Config.DumpTraces)
    for (size_t I = 0; I < Ex.numTasks(); ++I)
      Out.TraceDump += "== task " + std::to_string(I) + " ==\n" +
                       Ex.interpreter(I).renderTraces();
  EndThreads();
  return Out;
}

} // namespace

ParallelOutcome djx::runParallelWorkload(JavaVm &Vm, DjxPerf *Prof,
                                         const ParallelConfig &Config) {
  BytecodeProgram Program = buildParallelWorkerProgram(Vm.types());
  Program.load(Vm);
  std::vector<StaticSiteFacts> StaticSites;
  if (Prof && Config.Instrumented) {
    Prof->instrument(Program);
    StaticSites = collectStaticSiteFacts(Program, Prof->sites());
  }

  ParallelOutcome Out = runSession(Vm, Config, [&](Executor &Ex) {
    for (unsigned I = 0; I < Config.SimThreads; ++I) {
      size_t Task = Ex.addThread(
          Program, "Main.run",
          {Value::fromInt(Config.Iters), Value::fromInt(Config.Nlen),
           Value::fromInt(Config.HotElems)},
          "worker-" + std::to_string(I));
      if (Prof && Config.Instrumented)
        Prof->attachInterpreter(Ex.interpreter(Task));
    }
  });
  Out.StaticSites = std::move(StaticSites);
  return Out;
}

ParallelOutcome djx::runNumaRemoteWorkload(JavaVm &Vm, DjxPerf *Prof,
                                           const ParallelConfig &Config) {
  (void)Prof; // Attach-mode: VM allocation events feed the agent.
  assert(Config.SimThreads >= 2 && "neighbour handoff needs >= 2 threads");
  BytecodeProgram Program = buildNumaWorkerProgram(Vm.types());
  Program.load(Vm);

  // Setup phase (serial, before the Executor exists, so it is trivially
  // Jobs-independent): one thread allocates every worker's hot array into
  // that worker's shard, each at its own source line — the paper's "one
  // thread initialises the shared structures" scenario, with per-array
  // object groups in the report.
  TypeId LongArr = Vm.types().longArray();
  std::vector<LineEntry> Lines;
  for (unsigned I = 0; I < Config.SimThreads; ++I)
    Lines.push_back(LineEntry{I, 90 + I});
  MethodId AllocM =
      Vm.methods().getOrRegister("NumaRemote", "allocateHot", Lines);
  RootScope Roots(Vm);
  std::vector<ObjectRef *> Hot(Config.SimThreads);
  JavaThread &Setup = Vm.startThread("numa-setup", 0);
  for (unsigned I = 0; I < Config.SimThreads; ++I) {
    Setup.setHeapShard(I);
    FrameScope F(Setup, AllocM, I);
    Hot[I] = &Roots.add();
    *Hot[I] = Vm.allocateArray(Setup, LongArr, Config.HotElems);
  }
  Setup.setHeapShard(0);
  Vm.endThread(Setup);

  return runSession(Vm, Config, [&](Executor &Ex) {
    for (unsigned I = 0; I < Config.SimThreads; ++I) {
      // Worker I sweeps its neighbour's array: the producer/consumer
      // handoff that first-touch placement punishes with all-remote sweeps.
      ObjectRef Neighbour = *Hot[(I + 1) % Config.SimThreads];
      Ex.addThread(Program, "Main.run",
                   {Value::fromInt(Config.Iters), Value::fromInt(Config.Nlen),
                    Value::fromRef(Neighbour),
                    Value::fromInt(Config.HotElems)},
                   "numa-worker-" + std::to_string(I));
    }
  });
}
