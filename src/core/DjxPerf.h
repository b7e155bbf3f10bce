//===- DjxPerf.h - The DJXPerf object-centric profiler ----------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Public entry point of the profiler. DjxPerf bundles the paper's two
/// agents:
///
///  * the **Java agent** (§4.1): captures object allocations — either from
///    the VM's allocation events, or from bytecode rewritten by
///    instrument() exactly as ASM would rewrite new/newarray/anewarray/
///    multianewarray — applies the size filter S, walks the allocation call
///    path, and inserts the object's address range into the shared
///    interval splay tree;
///
///  * the **JVMTI agent** (§4.1, §4.2): programs per-thread PMU events at
///    thread start, handles overflow "signals", attributes each sampled
///    effective address to the enclosing object, and diagnoses NUMA
///    remote accesses via the move_pages analogue (§4.3). Attribution
///    is batched: the handler buffers samples in a thread-private ring,
///    and a drain resolves them against the index's lock-free epoch
///    snapshot. Drains run at every point where the index or page
///    placement may change under a buffered sample — allocation commit
///    and GC start — plus quantum ends, a full ring, stop() and result
///    reads, so each sample gets its sample-time answer.
///
/// GC interference (§4.5) is handled by the memmove/finalize
/// interpositions feeding a relocation map that is applied in batch on the
/// GC-finish (MXBean) notification.
///
/// Typical usage:
/// \code
///   JavaVm Vm;
///   DjxPerf Profiler(Vm);          // launch mode: before the workload
///   Profiler.start();
///   runWorkload(Vm);
///   Profiler.stop();
///   MergedProfile P = Profiler.analyze();
///   puts(renderObjectCentric(P, Vm.methods()).c_str());
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef DJX_CORE_DJXPERF_H
#define DJX_CORE_DJXPERF_H

#include "core/Analyzer.h"
#include "core/LiveObjectIndex.h"
#include "core/ThreadProfile.h"
#include "instrument/AllocationInstrumenter.h"
#include "interp/Interpreter.h"
#include "jvm/JavaVm.h"
#include "pmu/SampleRing.h"
#include "support/SpinLock.h"
#include "support/ThreadAnnotations.h"

#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace djx {

/// Profiler configuration, including the measurement cost model used for
/// the overhead experiments (cycles charged to monitored threads for the
/// work the profiler performs on their behalf).
struct DjxPerfConfig {
  /// PMU events to sample. The default is the paper's preset: L1 cache
  /// misses. Periods are scaled to the simulator's event rates; the paper
  /// uses 5M on real hardware targeting 20-200 samples/s/thread (§5.1).
  std::vector<PerfEventAttr> Events = {
      PerfEventAttr{PerfEventKind::L1Miss, 512, 64}};
  /// Size filter S: allocations below this are not tracked (§5.1;
  /// default 1 KiB, 0 monitors every object).
  uint64_t MinObjectSize = 1024;
  /// GC handling (§4.5); disabling either is the abl-gc ablation.
  bool HandleGcMoves = true;
  bool HandleGcFrees = true;
  /// NUMA remote-access diagnosis (§4.3).
  bool TrackNuma = true;
  /// Also collect the code-centric (perf-style) view.
  bool CollectCodeCentric = true;
  /// Shards for the live-object index (1 = the paper's single splay tree;
  /// parallel workloads set one shard per simulated thread so inserts and
  /// lookups from different threads don't serialize). The shard span is
  /// derived from the VM's heap geometry. Part of the workload
  /// configuration, NOT of --jobs: results must not depend on host
  /// parallelism.
  unsigned IndexShards = 1;
  /// Execution tier for interpreters this profiler launches with
  /// (`--tier`): instrument(Program, Interp) applies it before the first
  /// instruction runs. Executor-driven interpreters take their tier from
  /// ExecutorConfig/ParallelConfig instead (the CLI forwards this field
  /// there). Never changes results — super-tier profiles are
  /// byte-identical to interp-tier ones.
  TierConfig Tier;

  // --- Measurement cost model (cycles) ----------------------------------
  /// Dispatch of an allocation hook, paid even when the size filter
  /// rejects the object. The inserted hook is a call into the agent (a
  /// JNI crossing on a real JVM), so it costs ~100 cycles even when it
  /// does no work — the reason callback-heavy benchmarks dominate
  /// Figure 4's runtime overhead.
  uint32_t HookDispatchCycles = 100;
  /// Call-path capture + splay insertion for a tracked allocation.
  uint32_t AllocCaptureCycles = 180;
  /// Overflow signal handling + index lookup + CCT update per sample.
  uint32_t SampleHandleCycles = 350;
  /// move_pages query per sample when TrackNuma.
  uint32_t NumaQueryCycles = 120;
  /// finalize interposition per reclaimed object.
  uint32_t FreePerObjectCycles = 25;
  /// memmove interposition per moved object (relocation-map append).
  uint32_t MovePerObjectCycles = 30;
  /// Batched splay update per relocation at GC finish.
  uint32_t GcBatchPerObjectCycles = 45;
};

/// The profiler. Construct against a VM, start() before (launch mode) or
/// during (attach mode) the workload, stop() when done, then analyze().
/// The DjxPerf object must outlive all monitored execution.
class DjxPerf {
public:
  explicit DjxPerf(JavaVm &Vm, DjxPerfConfig Config = DjxPerfConfig());

  DjxPerf(const DjxPerf &) = delete;
  DjxPerf &operator=(const DjxPerf &) = delete;

  /// Begins monitoring. In attach mode (threads already running), enables
  /// PMUs on every live thread; allocations made before attach are
  /// untracked, exactly as in the paper's attach mode.
  void start();

  /// Stops monitoring (detach). Profiles remain available.
  void stop();

  bool isActive() const { return Active; }

  /// Bytecode mode: rewrites \p Program's allocation opcodes with ASM-style
  /// hooks and routes them to this agent via \p Interp. Disables the VM's
  /// own allocation events to avoid double counting.
  /// \returns the number of allocation sites instrumented.
  unsigned instrument(BytecodeProgram &Program, Interpreter &Interp);

  /// Rewrite-only half of instrument(): instruments \p Program without
  /// binding an interpreter. Use with attachInterpreter() when several
  /// interpreters (one per simulated thread) execute the same program.
  unsigned instrument(BytecodeProgram &Program);

  /// Routes \p Interp's allocation hooks to this agent and disables the
  /// VM-level allocation channel (no double counting). One call per
  /// interpreter; must precede execution.
  void attachInterpreter(Interpreter &Interp);

  // --- Results ------------------------------------------------------------
  std::vector<const ThreadProfile *> profiles() const;
  const ThreadProfile *profileForThread(uint64_t ThreadId) const;

  /// Runs the offline analyzer over all per-thread profiles.
  MergedProfile analyze() const;

  LiveObjectIndex &index() { return Index; }
  const AllocationSiteTable &sites() const { return Sites; }

  // --- Instrumentation statistics ------------------------------------------
  // Relaxed atomics: bumped from concurrent host workers under the
  // Executor; sums are interleaving-independent, so still deterministic.
  uint64_t samplesHandled() const {
    return Samples.load(std::memory_order_relaxed);
  }
  uint64_t allocationCallbacks() const {
    return AllocCallbacks.load(std::memory_order_relaxed);
  }
  uint64_t allocationsTracked() const {
    return Tracked.load(std::memory_order_relaxed);
  }
  /// Profiler work not attributable to one thread (GC batch updates).
  uint64_t auxOverheadCycles() const {
    return AuxCycles.load(std::memory_order_relaxed);
  }
  /// Samples dropped at ring-append time (injected overflow). Counted in
  /// samplesHandled() but absent from every profile: captured =
  /// samplesHandled() - samplesDropped().
  uint64_t samplesDropped() const {
    return RingDrops.load(std::memory_order_relaxed);
  }
  /// Capacity-forced mid-quantum ring self-drains (previously silent).
  uint64_t ringOverflowDrains() const {
    return RingDrains.load(std::memory_order_relaxed);
  }
  /// Bytes held by profiler data structures (splay tree, CCTs, tables).
  size_t memoryFootprint() const;

  const DjxPerfConfig &config() const { return Config; }

private:
  /// Context for the devirtualised PMU overflow handler (one per
  /// monitored thread; deque keeps addresses stable). Owns the thread's
  /// sample ring; Ring is thread-confined to whichever host worker is
  /// executing the thread's quantum.
  struct SampleCtx {
    DjxPerf *Prof;
    JavaThread *Thread;
    SampleRing Ring;
  };

  void onThreadStart(JavaThread &T);
  void onThreadEnd(JavaThread &T);
  void recordAllocation(JavaThread &T, ObjectRef Obj, TypeId Type,
                        const std::string &TypeName, uint64_t Size);
  void handleSample(SampleCtx &Ctx, const PerfSample &S);
  /// Sample resolution: sorts \p Ctx's ring by address and resolves it
  /// against the index's epoch snapshot with zero locks. Must run on the
  /// worker owning the thread's quantum, or with the world stopped.
  void drainSampleRing(SampleCtx &Ctx);
  /// Drains every thread's ring. Only legal at quiescent points (GC
  /// start, stop(), post-run analysis): no quantum may be in flight.
  /// Serialized by DrainAllLock so concurrent result readers (two
  /// threads calling analyze()/profiles() after a run) cannot race each
  /// other over the same rings.
  void drainAllRings();
  ThreadProfile &profileOf(JavaThread &T);

  JavaVm &Vm;
  DjxPerfConfig Config;
  LiveObjectIndex Index;
  AllocationSiteTable Sites;
  std::deque<SampleCtx> SampleCtxs DJX_GUARDED_BY(AgentLock);
  std::map<uint64_t, std::unique_ptr<ThreadProfile>> Profiles
      DJX_GUARDED_BY(ProfilesLock);
  std::set<uint64_t> PmuProgrammed DJX_GUARDED_BY(AgentLock);
  // Locking order (innermost last; a thread never holds two of these):
  //   1. LiveObjectIndex shard locks (leaf; applyRelocations takes all
  //      shard locks in index order, and is the only multi-lock site),
  //   2. AgentLock  — guards SampleCtxs + PmuProgrammed (thread start/end,
  //      attach enumeration),
  //   3. ProfilesLock — guards the Profiles map (find-or-create only; the
  //      per-thread ThreadProfile itself is owned by the simulated
  //      thread's worker and needs no lock).
  // JavaVm's ThreadsLock/RootsLock are independent leaves; DjxPerf code
  // never calls into the VM while holding AgentLock/ProfilesLock.
  SpinLock AgentLock;
  // Mutable: the read-side accessors (profiles(), profileForThread()) are
  // logically const but still synchronize.
  mutable SpinLock ProfilesLock;
  /// Outermost drain-all serialization (held across AgentLock and the
  /// per-ring drains; never taken while holding another profiler lock).
  std::mutex DrainAllLock;
  bool Active = false;
  std::atomic<uint64_t> Samples{0};
  std::atomic<uint64_t> AllocCallbacks{0};
  std::atomic<uint64_t> Tracked{0};
  std::atomic<uint64_t> AuxCycles{0};
  std::atomic<uint64_t> RingDrops{0};
  std::atomic<uint64_t> RingDrains{0};
};

} // namespace djx

#endif // DJX_CORE_DJXPERF_H
