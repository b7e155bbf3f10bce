//===- Parallel.h - Multi-threaded executor workloads -----------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Multi-threaded workloads driven through the runtime Executor: N
/// simulated threads, each interpreting a worker program (batik-style
/// makeRoom churn plus a hot-array sweep) on its own heap shard with a
/// worker-private machine model.
/// The paper's measurement setting is exactly this shape — per-thread PMU
/// sampling feeding one shared live-object index — so these workloads are
/// what exercises DJXPerf's cross-thread path. Host parallelism (--jobs)
/// changes wall-clock only; the profile is byte-identical for any value.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_WORKLOADS_PARALLEL_H
#define DJX_WORKLOADS_PARALLEL_H

#include "analysis/StaticReport.h"
#include "core/DjxPerf.h"
#include "jvm/JavaVm.h"
#include "runtime/Executor.h"
#include "sim/MemoryHierarchy.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace djx {

/// Shape of one parallel run. SimThreads/QuantumSteps/Iters/Nlen define
/// the *logical* workload (they change results); Jobs is host-side only.
struct ParallelConfig {
  unsigned SimThreads = 4;
  /// Host worker threads (0 = hardware concurrency, 1 = the calling
  /// thread is the only worker).
  unsigned Jobs = 1;
  /// Interpreter steps per simulated thread per round.
  uint64_t QuantumSteps = 32768;
  /// Per-thread iterations / churn-array length / hot-array length
  /// (Main.run arguments; see buildParallelWorkerProgram). The default
  /// hot array (16384 longs = 128 KiB) exceeds L1, so sweeps produce
  /// attributable L1-miss samples.
  int64_t Iters = 400;
  int64_t Nlen = 256;
  int64_t HotElems = 16384;
  /// Heap bytes *per simulated thread* (one shard each). Small enough by
  /// default that safepoint GCs actually happen.
  uint64_t HeapBytesPerThread = 4ULL << 20;
  /// Route allocations through ASM-style bytecode instrumentation instead
  /// of VM allocation events (requires a profiler).
  bool Instrumented = false;
  /// Shard placement policy the Executor applies (`--numa-policy`).
  /// Logical-workload knob: it changes simulated placement and remote
  /// counts, never the schedule; results stay Jobs-independent.
  NumaPolicy Policy = NumaPolicy::FirstTouch;
  /// Seed-driven schedule fuzzing, forwarded to the Executor. A fuzzed
  /// logical schedule is still a *workload* (quantum sizes and GC points
  /// become seed draws), so for one seed the results remain byte-identical
  /// across Jobs values — the fuzzsched test's oracle.
  FuzzSchedule Fuzz;
  /// Forwarded to ExecutorConfig.StallTimeoutMs (stall watchdog).
  uint64_t StallTimeoutMs = 120000;
  /// Execution tier for every simulated thread's interpreter (`--tier`),
  /// forwarded to ExecutorConfig.Tier. Like Jobs it never changes
  /// results: super-tier profiles are byte-identical to interp-tier ones
  /// (the tier tests' oracle).
  TierConfig Tier;
  /// Render every compiled trace into ParallelOutcome.TraceDump after the
  /// run (`--dump-traces`; super tier only).
  bool DumpTraces = false;
  /// Round-barrier hook forwarded to ExecutorConfig.OnRoundEnd (the
  /// CLI's journal flush point; see Executor.h for the contract).
  std::function<bool(uint64_t)> OnRoundEnd;
  /// Forwarded to ExecutorConfig.MaxRounds: end the run cleanly after
  /// this many rounds (`--max-rounds`; 0 = unlimited).
  uint64_t MaxRounds = 0;
};

/// VM configuration matching \p Config: sharded heap (one shard per
/// simulated thread) and the default machine model.
VmConfig parallelVmConfig(const ParallelConfig &Config);

/// VM configuration for the numaRemote pair: parallelVmConfig on a
/// machine whose outer cache levels are scaled down (L2 64 KiB, L3
/// 128 KiB per node) so the neighbour sweeps are DRAM-bound. The paper's
/// NUMA case studies concern structures that exceed the LLC — remote
/// traffic that actually reaches the memory controllers — and the
/// simulator's hot arrays must exceed *its* (scaled) LLC for the same
/// physics to emerge.
VmConfig numaRemoteVmConfig(const ParallelConfig &Config);

/// Profiler configuration matching \p Config: the live-object index is
/// sharded like the heap. Workload-determined, never Jobs-determined.
DjxPerfConfig parallelAgentConfig(const ParallelConfig &Config,
                                  DjxPerfConfig Base = DjxPerfConfig());

/// Everything observable from one parallel run.
struct ParallelOutcome {
  uint64_t Steps = 0;       ///< Aggregate interpreter steps.
  uint64_t Safepoints = 0;  ///< Stop-the-world pauses taken.
  uint64_t Rounds = 0;      ///< Executor rounds (quantum barriers).
  HierarchyStats Machine;   ///< Deterministic merge across hierarchies.
  /// Per-task compiled-trace listings (Config.DumpTraces; empty
  /// otherwise — including in the interp tier, which compiles nothing).
  std::string TraceDump;
  /// Static analysis facts per instrumented allocation site (populated
  /// only on instrumented runs; the CLI's --static-report joins these
  /// against the merged dynamic profile). Deterministic: derived from
  /// the instrumented bytecode alone.
  std::vector<StaticSiteFacts> StaticSites;
};

/// Runs SimThreads interpreted batik instances to completion under the
/// Executor. \p Prof may be null (native run); when given and
/// Config.Instrumented is set, the program is instrumented and every
/// interpreter attached — otherwise VM allocation events feed the agent.
/// The caller owns profiler start()/stop().
ParallelOutcome runParallelWorkload(JavaVm &Vm, DjxPerf *Prof,
                                    const ParallelConfig &Config);

/// The NUMA case-study workload (remote-heavy producer/consumer handoff,
/// the shape of the paper's §7.5/§7.6 studies): a setup thread allocates
/// one hot long[HotElems] array *into each worker's heap shard* (distinct
/// allocation sites, so the profiler reports one group per array), then
/// every worker churns its own shard while sweeping its *neighbour's* hot
/// array. Under the default first-touch placement each array is home on
/// its owner's node, so every sweep access is remote; Config.Policy =
/// Interleave (or Bind) is the placement fix that lowers the remote
/// ratio. Config.Instrumented is ignored (the hot arrays are API-level
/// allocations, so VM events feed the agent). Drive it on a
/// numaRemoteVmConfig(Config) VM with HotElems * 8 above that machine's
/// L3, so the sweeps reach DRAM instead of being absorbed by the LLC.
/// The caller owns profiler start()/stop().
ParallelOutcome runNumaRemoteWorkload(JavaVm &Vm, DjxPerf *Prof,
                                      const ParallelConfig &Config);

} // namespace djx

#endif // DJX_WORKLOADS_PARALLEL_H
