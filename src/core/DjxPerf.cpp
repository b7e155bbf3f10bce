//===- DjxPerf.cpp - The DJXPerf object-centric profiler -------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/DjxPerf.h"

#include "support/FaultInjector.h"

#include <algorithm>

using namespace djx;

namespace {
/// Type name of samples on objects of unknown provenance.
const std::string kUnknownTypeName = "<unknown>";
} // namespace

DjxPerf::DjxPerf(JavaVm &Vm, DjxPerfConfig Cfg)
    : Vm(Vm), Config(std::move(Cfg)) {
  if (Config.IndexShards > 1) {
    // Mirror the heap's shard geometry so a thread's inserts and lookups
    // land in "its" index shard (correct for any geometry; contention-free
    // for this one).
    uint64_t Span = Vm.config().HeapBytes / Config.IndexShards;
    Index.configureShards(Config.IndexShards, Span ? Span : 1);
  }
  JvmtiEnv &Jvmti = Vm.jvmti();

  Jvmti.onThreadStart([this](JavaThread &T) { onThreadStart(T); });
  Jvmti.onThreadEnd([this](JavaThread &T) { onThreadEnd(T); });

  // The Java agent's allocation channel (VM events stand in for the
  // instrumented hooks when the workload is API-level; see instrument()).
  Jvmti.onAllocation([this](const AllocationEvent &E) {
    if (!Active)
      return;
    recordAllocation(*E.Thread, E.Object, E.Type, E.TypeName, E.Size);
  });

  // GC start: resolve every buffered sample against the pre-GC index
  // state — the free/move interpositions below are about to mutate it.
  // The world is stopped wherever a GC runs (the single mutator in
  // serial mode, a safepoint under the Executor), so draining all rings
  // here is race-free.
  Jvmti.onGcStart([this] { drainAllRings(); });

  // Executor quantum boundary: drain the thread's ring on the worker
  // that just ran it (the per-quantum batch point of the hot path).
  Jvmti.onQuantumEnd([this](JavaThread &T) {
    auto *Ctx = static_cast<SampleCtx *>(T.agentData());
    if (Ctx && Ctx->Prof == this)
      drainSampleRing(*Ctx);
  });

  // memmove interposition: append to the relocation map (§4.5).
  Jvmti.onObjectMove([this](const ObjectMoveEvent &E) {
    if (!Active || !Config.HandleGcMoves)
      return;
    Index.recordMove(E.OldAddr, E.NewAddr, E.Size);
    AuxCycles.fetch_add(Config.MovePerObjectCycles,
                        std::memory_order_relaxed);
  });

  // finalize interposition: remove reclaimed intervals.
  Jvmti.onObjectFree([this](const ObjectFreeEvent &E) {
    if (!Active || !Config.HandleGcFrees)
      return;
    if (Index.erase(E.Addr))
      AuxCycles.fetch_add(Config.FreePerObjectCycles,
                          std::memory_order_relaxed);
  });

  // MXBean GC-finish notification: apply the relocation batch. Under the
  // Executor this fires at the stop-the-world safepoint — same code path,
  // same batch semantics.
  Jvmti.onGcFinish([this](const GcStats &) {
    if (Active && Config.HandleGcMoves) {
      LiveObject Unknown; // AllocThread 0 / root node = unknown provenance.
      unsigned Applied = Index.applyRelocations(Unknown);
      AuxCycles.fetch_add(static_cast<uint64_t>(Applied) *
                              Config.GcBatchPerObjectCycles,
                          std::memory_order_relaxed);
    }
    // GC finish is the one point where the world is provably stopped
    // and every ring was drained (at GC start), so no snapshot reader
    // can be in flight: reclaim the epochs retired by the relocation
    // batch, by evicting inserts and by this cycle's appends. Done in
    // every config — without the move interposition, evictions of stale
    // intervals would otherwise retain one epoch each for good.
    Index.reclaimRetiredSnapshots();
  });
}

void DjxPerf::onThreadStart(JavaThread &T) {
  // Program the PMU once per thread, whether or not we are active yet; the
  // enable bit is what start()/stop() toggle. Lock-guarded: threads may be
  // started from host workers, and attach-mode start() enumerates
  // concurrently.
  SampleCtx *Ctx = nullptr;
  {
    SpinLockGuard G(AgentLock);
    if (PmuProgrammed.insert(T.id()).second) {
      // Deque keeps context addresses stable across later insertions.
      SampleCtxs.push_back(SampleCtx{this, &T, SampleRing()});
      Ctx = &SampleCtxs.back();
    }
  }
  if (Ctx) {
    for (const PerfEventAttr &Attr : Config.Events)
      T.pmu().openEvent(Attr);
    // JVMTI thread-local storage: quantum-end callbacks reach the
    // thread's ring through this slot without a registry lookup.
    T.setAgentData(Ctx);
    // Devirtualised handler: a raw function pointer + stable context
    // instead of a std::function dispatch per delivered sample.
    T.pmu().setSampleHandler(
        [](void *C, const PerfSample &S) {
          auto *Sc = static_cast<SampleCtx *>(C);
          Sc->Prof->handleSample(*Sc, S);
        },
        Ctx);
  }
  if (Active)
    T.pmu().enable();
}

void DjxPerf::onThreadEnd(JavaThread &T) { T.pmu().disable(); }

void DjxPerf::start() {
  Active = true;
  // Attach mode: threads may already be running. allThreads() snapshots
  // the lock-guarded, reference-stable thread list, so enumeration is safe
  // even while workers start further threads.
  for (JavaThread *T : Vm.allThreads()) {
    if (!T->isAlive())
      continue;
    onThreadStart(*T);
    T->pmu().enable();
  }
}

void DjxPerf::stop() {
  Active = false;
  for (JavaThread *T : Vm.allThreads())
    T->pmu().disable();
  // Samples buffered since the last drain point still belong to the
  // profile; the world is quiescent by the stop() contract (no monitored
  // execution in flight).
  drainAllRings();
}

unsigned DjxPerf::instrument(BytecodeProgram &Program) {
  return instrumentProgram(Program, Sites);
}

void DjxPerf::attachInterpreter(Interpreter &Interp) {
  Interp.setPublishVmAllocationEvents(false);
  AllocationHooks Hooks;
  Hooks.Pre = [this, &Interp](uint64_t) {
    if (Active)
      Vm.tick(Interp.thread(), Config.HookDispatchCycles / 2);
  };
  Hooks.Post = [this, &Interp](uint64_t SiteId, ObjectRef Obj) {
    (void)SiteId;
    if (!Active)
      return;
    JavaThread &T = Interp.thread();
    const ObjectInfo &Info = Vm.heap().info(Obj);
    recordAllocation(T, Obj, Info.Type, Vm.types().get(Info.Type).Name,
                     Info.Size);
  };
  Interp.setAllocationHooks(std::move(Hooks));
}

unsigned DjxPerf::instrument(BytecodeProgram &Program, Interpreter &Interp) {
  // Launch mode: the profiler config carries the execution tier, applied
  // here before any instruction has run. (Executor-driven interpreters
  // get theirs from ExecutorConfig; attachInterpreter cannot retier an
  // interpreter whose call is already pending.)
  if (Config.Tier.Tier == ExecTier::Super &&
      Interp.tier() != ExecTier::Super)
    Interp.setTier(Config.Tier);
  unsigned Count = instrument(Program);
  attachInterpreter(Interp);
  return Count;
}

ThreadProfile &DjxPerf::profileOf(JavaThread &T) {
  SpinLockGuard G(ProfilesLock);
  auto It = Profiles.find(T.id());
  if (It == Profiles.end())
    It = Profiles
             .emplace(T.id(),
                      std::make_unique<ThreadProfile>(T.id(), T.name()))
             .first;
  return *It->second;
}

void DjxPerf::recordAllocation(JavaThread &T, ObjectRef Obj, TypeId Type,
                               const std::string &TypeName, uint64_t Size) {
  AllocCallbacks.fetch_add(1, std::memory_order_relaxed);
  // The hook dispatch itself costs cycles even when the size filter
  // rejects the object — this is why callback-heavy benchmarks (mnemonics,
  // scrabble, ...) show the highest overheads in Figure 4.
  T.addCycles(Config.HookDispatchCycles);
  if (Size < Config.MinObjectSize)
    return;
  T.addCycles(Config.AllocCaptureCycles);
  ThreadProfile &P = profileOf(T);
  CctNodeId Node = P.cct().insertPath(Vm.asyncGetCallTrace(T));
  P.recordAllocation(Node, TypeName, Size);
  // Allocation commit is a mutation batch point: buffered samples (this
  // thread's zero-fill stores included) predate the insert and must
  // resolve against the pre-insert index, as they would at sample time.
  // Without the GC interpositions the insert can evict a stale interval
  // that another thread's buffered samples fall in. With no Executor
  // session running, one host thread runs every simulated thread and so
  // owns every ring: drain them all. Under the Executor, other threads'
  // rings are empty between their quanta, and a thread running on
  // another worker races this insert at sample time too.
  if (!Vm.deferGcToSafepoint())
    drainAllRings();
  else if (auto *Ctx = static_cast<SampleCtx *>(T.agentData()))
    if (Ctx->Prof == this)
      drainSampleRing(*Ctx);
  Index.insert(Obj, Size, LiveObject{T.id(), Node, Type, Size});
  Tracked.fetch_add(1, std::memory_order_relaxed);
}

void DjxPerf::handleSample(SampleCtx &Ctx, const PerfSample &S) {
  if (!Active)
    return;
  JavaThread &T = *Ctx.Thread;
  Samples.fetch_add(1, std::memory_order_relaxed);
  T.addCycles(Config.SampleHandleCycles);
  ThreadProfile &P = profileOf(T);
  // The access context must be interned while the shadow stack is live —
  // and interning order defines CCT node ids — so it happens at sample
  // time; the code-centric view needs nothing else.
  CctNodeId AccessNode = P.cct().insertPath(Vm.asyncGetCallTrace(T));
  if (Config.CollectCodeCentric)
    P.recordCodeSample(AccessNode, S.Kind);

  // Injected ring overflow (FaultInjector): the sample is dropped and
  // counted instead of buffered. Keyed on (thread, per-ring append
  // ordinal) — logical coordinates, so the same samples drop for every
  // --jobs value. Surfaced in reports as captured-vs-dropped.
  if (FaultInjector::shouldFail(FaultSite::RingPush, T.id(),
                                Ctx.Ring.totalAppends())) {
    Ctx.Ring.noteDrop();
    T.pmu().noteRingDroppedSample();
    RingDrops.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Identity resolution and the NUMA query are deferred to the drain. A
  // full ring drains in place on the owning worker, bounding memory for
  // long GC-free windows. A capacity-forced self-drain is counted so
  // overhead accounting can see how often the mid-quantum path fires.
  if (Ctx.Ring.push(BufferedSample{S.EffectiveAddress, AccessNode, S.Cpu,
                                   S.Kind})) {
    Ctx.Ring.noteCapacityDrain();
    T.pmu().noteRingOverflowDrain();
    RingDrains.fetch_add(1, std::memory_order_relaxed);
    drainSampleRing(Ctx);
  }
}

void DjxPerf::drainSampleRing(SampleCtx &Ctx) {
  if (Ctx.Ring.empty())
    return;
  JavaThread &T = *Ctx.Thread;
  ThreadProfile &P = profileOf(T);
  std::vector<BufferedSample> &Batch = Ctx.Ring.entries();
  // Address order turns the batch's index walk into runs over the same
  // interval and page: the snapshot hint and the page memo below make
  // consecutive hits O(1). Deferral is result-invariant — lookups and
  // move_pages queries answer the same at the drain as at sample time,
  // because erases/relocations only happen inside a GC (which drains
  // first), inserts drain first too (see recordAllocation), and a page's
  // home node cannot change between its first touch and the next
  // placement mutation (also GC-fenced). stable_sort keeps equal
  // addresses in sample order, so aggregation order is deterministic
  // too. A batch of one is already sorted; skipping the call skips
  // stable_sort's temporary buffer, a heap allocation per single-sample
  // drain.
  if (Batch.size() > 1)
    std::stable_sort(Batch.begin(), Batch.end(),
                     [](const BufferedSample &A, const BufferedSample &B) {
                       return A.EffectiveAddress < B.EffectiveAddress;
                     });
  NumaTopology *Numa = Config.TrackNuma ? &T.machine().numa() : nullptr;
  LiveObjectIndex::SnapshotHint Hint;
  uint64_t MemoPage = ~0ULL;
  NumaNodeId MemoHome = kInvalidNode;
  for (const BufferedSample &B : Batch) {
    std::optional<LiveObject> Obj =
        Index.lookupSnapshot(B.EffectiveAddress, &Hint);
    if (!Obj) {
      P.recordUnattributed(B.Kind);
      continue;
    }
    bool Remote = false;
    NumaNodeId Home = kInvalidNode;
    NumaNodeId CpuNode = kInvalidNode;
    if (Numa) {
      // §4.3: move_pages gives the page's home node; PERF_SAMPLE_CPU
      // gives the accessing CPU's node.
      T.addCycles(Config.NumaQueryCycles);
      uint64_t Page = Numa->pageOf(B.EffectiveAddress);
      if (Page != MemoPage) {
        MemoPage = Page;
        MemoHome = Numa->nodeOfAddr(B.EffectiveAddress);
      }
      Home = MemoHome;
      CpuNode = Numa->nodeOfCpu(B.Cpu);
      Remote = Home != kInvalidNode && Home != CpuNode;
    }
    bool Unknown = Obj->AllocThread == 0 && Obj->AllocNode == kCctRoot;
    const std::string &TypeName =
        Unknown ? kUnknownTypeName : Vm.types().get(Obj->Type).Name;
    P.recordObjectSample(AllocKey{Obj->AllocThread, Obj->AllocNode},
                         TypeName, B.Kind, B.AccessNode, Remote, Home,
                         CpuNode);
  }
  Ctx.Ring.clear();
}

void DjxPerf::drainAllRings() {
  // Serialize whole-profiler drains against each other (concurrent
  // analyze()/profiles() callers); quantum-end and capacity drains stay
  // outside this lock because they are confined to the owning worker.
  std::lock_guard<std::mutex> DrainGuard(DrainAllLock);
  // Snapshot the context list under the agent lock, then drain without
  // it: draining touches the Profiles leaf lock and the index, and the
  // documented lock order forbids holding two profiler locks at once.
  std::vector<SampleCtx *> All;
  {
    SpinLockGuard G(AgentLock);
    All.reserve(SampleCtxs.size());
    for (SampleCtx &Ctx : SampleCtxs)
      All.push_back(&Ctx);
  }
  for (SampleCtx *Ctx : All)
    drainSampleRing(*Ctx);
}

std::vector<const ThreadProfile *> DjxPerf::profiles() const {
  // Results must reflect every delivered sample: flush rings that have
  // not hit a drain point yet (mid-run reads were already specified as
  // quiescent-only; see drainAllRings).
  const_cast<DjxPerf *>(this)->drainAllRings();
  SpinLockGuard G(ProfilesLock);
  std::vector<const ThreadProfile *> Out;
  Out.reserve(Profiles.size());
  for (const auto &[Tid, P] : Profiles) {
    (void)Tid;
    Out.push_back(P.get());
  }
  return Out;
}

const ThreadProfile *DjxPerf::profileForThread(uint64_t ThreadId) const {
  const_cast<DjxPerf *>(this)->drainAllRings();
  SpinLockGuard G(ProfilesLock);
  auto It = Profiles.find(ThreadId);
  return It == Profiles.end() ? nullptr : It->second.get();
}

MergedProfile DjxPerf::analyze() const { return mergeProfiles(profiles()); }

size_t DjxPerf::memoryFootprint() const {
  size_t Bytes = const_cast<LiveObjectIndex &>(Index).memoryFootprint();
  SpinLockGuard G(ProfilesLock);
  for (const auto &[Tid, P] : Profiles) {
    (void)Tid;
    Bytes += P->memoryFootprint();
  }
  Bytes += Sites.size() * sizeof(AllocationSite);
  return Bytes;
}
