//===- LiveObjectIndex.h - Sharded object interval index --------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiler's only cross-thread data structure (§5.1): interval splay
/// trees mapping live object address ranges to their allocation identity,
/// each guarded by a spin lock. The index is *sharded by address range* so
/// allocation inserts and sample lookups from different threads (whose
/// heap shards occupy disjoint address ranges) serialize only when they
/// genuinely touch the same region; with one shard (the default) it is
/// exactly the paper's single splay-tree-plus-spin-lock design. Also owns
/// the GC relocation map of §4.5: moves recorded per memmove interposition
/// are applied to the trees in one batch when the GC-finish (MXBean)
/// notification arrives — under the Executor that notification fires at a
/// stop-the-world safepoint, through this same code path.
///
/// Epoch-snapshot read path: each shard additionally publishes a flat,
/// Start-sorted array of its live intervals through an atomic pointer +
/// release-stored entry count. Mutators maintain it under the existing
/// shard lock — allocation inserts append (bump allocation keeps shard
/// addresses monotonic, so appends stay sorted), reclamation tombstones
/// the entry in place, and relocation batches / overlap evictions rebuild
/// the array wholesale — while readers (the PMU sample-ring drain) walk
/// the published snapshot with *zero* locks: an acquire load of the
/// pointer, an acquire load of the count, and a binary search. Retired
/// snapshot buffers are kept alive — a concurrent reader can never
/// chase a freed epoch — until reclaimRetiredSnapshots(), which the
/// profiler calls at the stop-the-world GC-finish point, bounding
/// retention to the growth since the previous collection. The splay
/// trees remain the mutation-side structure (§4.2), and the locked
/// lookup() is the index-level reference the snapshot path is tested and
/// benchmarked against (index_concurrency_test,
/// bench_ablation_splay_tree).
///
//===----------------------------------------------------------------------===//

#ifndef DJX_CORE_LIVEOBJECTINDEX_H
#define DJX_CORE_LIVEOBJECTINDEX_H

#include "core/Cct.h"
#include "jvm/ObjectModel.h"
#include "support/IntervalSplayTree.h"
#include "support/SpinLock.h"
#include "support/ThreadAnnotations.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace djx {

/// Allocation identity of a tracked object: which thread allocated it, at
/// which context (a node of that thread's CCT), and what it is.
struct LiveObject {
  uint64_t AllocThread = 0;
  CctNodeId AllocNode = kCctRoot;
  TypeId Type = 0;
  uint64_t Size = 0;
};

/// Thread-shared, address-sharded splay-tree index of live monitored
/// objects. All entry points are safe to call concurrently; see the
/// locking-order note in DjxPerf.h.
class LiveObjectIndex {
public:
  /// Resolution memo carried across one batch of snapshot lookups. A
  /// drain sorted by address revisits the same hot interval for runs of
  /// consecutive samples; the hint turns those into one containment check
  /// (after validating that the hinted snapshot is still the published
  /// epoch of the address's shard).
  struct SnapshotHint {
    const void *Buf = nullptr;
    size_t Idx = 0;
  };

  /// Single-shard index (the original design).
  LiveObjectIndex() { configureShards(1, 0); }

  /// Splits the address space into \p NumShards ranges of \p SpanBytes
  /// each (addresses at or beyond the last boundary map to the last
  /// shard). Must be called before any object is tracked. Matching the
  /// heap's shard geometry gives contention-free operation for
  /// thread-private data. Geometry constraint: every tracked interval
  /// must be smaller than \p SpanBytes — an interval is keyed by its
  /// start address and lookups fall back to exactly one preceding shard
  /// on a miss, so an interval spanning more than two shards would be
  /// unfindable for its tail addresses (DjxPerf derives the span from
  /// the heap, where no object can exceed a shard). Runs before any
  /// concurrent use (and asserts the shards are empty), so it touches
  /// guarded members lock-free by design.
  void configureShards(unsigned NumShards,
                       uint64_t SpanBytes) DJX_NO_THREAD_SAFETY_ANALYSIS;

  unsigned numShards() const { return static_cast<unsigned>(Shards.size()); }

  /// Tracks a freshly allocated object.
  void insert(uint64_t Addr, uint64_t Size, const LiveObject &Obj);

  /// Splay lookup by address: the index-level reference for
  /// lookupSnapshot() (takes the shard spin lock and restructures the
  /// tree).
  std::optional<LiveObject> lookup(uint64_t Addr);

  /// Lock-free lookup against the shard's published epoch snapshot: the
  /// sample-resolution path. Never touches a SpinLock and never
  /// restructures anything; misses fall back to the preceding shard
  /// exactly like lookup(). \p Hint (optional) memoizes the last hit.
  std::optional<LiveObject> lookupSnapshot(uint64_t Addr,
                                           SnapshotHint *Hint = nullptr);

  /// Object reclaimed (finalize interposition): drop its interval.
  /// \returns true when the address was tracked.
  bool erase(uint64_t Addr);

  /// memmove interposition: records a move into the relocation map; the
  /// trees are not touched until applyRelocations().
  void recordMove(uint64_t OldAddr, uint64_t NewAddr, uint64_t Size);

  /// GC-finish notification: applies the batched relocation maps across
  /// all shards (moves may cross shard boundaries). Objects missing from
  /// the trees (allocations the attach mode missed, §4.5) are inserted
  /// fresh with \p UnknownIdentity. Takes every shard lock in index order
  /// and republishes every shard's epoch snapshot before releasing them —
  /// a dynamic lock set the static analysis cannot model, hence the
  /// opt-out.
  /// \returns the number of relocations applied.
  unsigned
  applyRelocations(const LiveObject &UnknownIdentity)
      DJX_NO_THREAD_SAFETY_ANALYSIS;

  /// Drops any pending relocations without applying (ablation support).
  void discardRelocations();

  /// Frees every retired snapshot epoch (buffers superseded by rebuilds
  /// and capacity growth), keeping only each shard's published one.
  /// Contract: the caller asserts no lookupSnapshot() is concurrently in
  /// flight — true at the profiler's stop-the-world GC-finish point,
  /// which invokes this at every collection, in every GC config. Bounds
  /// retained snapshot memory to O(live set) regardless of GC count.
  void reclaimRetiredSnapshots();

  /// Snapshot buffers currently held across all shards (published +
  /// retired); diagnostics for the reclamation tests.
  size_t retainedSnapshotBuffers();

  // Lock-free diagnostics: read from per-shard atomic mirrors maintained
  // under the shard locks, so mid-run reporting (CLI footprint lines,
  // watchdogs) never contends with the sample path. Values match the
  // locked structures exactly at any quiescent point; under concurrent
  // mutation they are a momentary snapshot.
  size_t liveCount() const;
  size_t pendingRelocations() const;
  size_t memoryFootprint() const;

  /// Total operations, for the overhead model and ablation benches
  /// (summed across shards under the shard locks; order-independent, so
  /// deterministic under any host interleaving). lookups()/lookupMisses()
  /// include both the locked splay path and the snapshot path.
  uint64_t inserts();
  uint64_t lookups();
  uint64_t lookupMisses();
  uint64_t erases();
  /// Lock-free read: SpinLock's acquisition counter is atomic.
  uint64_t lockAcquisitions() const;

private:
  struct Relocation {
    uint64_t NewAddr;
    uint64_t Size;
  };

  /// One published epoch of a shard's live intervals: Entries[0, Count)
  /// sorted by Start, erasures marked in Dead. Entries/Dead are written
  /// only by the shard-lock holder at slots >= the published Count (or as
  /// monotone tombstone flips), then made visible with a release store of
  /// Count — readers acquire-load Count and never look past it.
  struct SnapEntry {
    uint64_t Start;
    uint64_t End;
    LiveObject Obj;
  };
  struct Snapshot {
    explicit Snapshot(size_t Cap)
        : Entries(Cap), Dead(new std::atomic<uint8_t>[Cap]), Capacity(Cap) {
      for (size_t I = 0; I < Cap; ++I)
        Dead[I].store(0, std::memory_order_relaxed);
    }
    std::vector<SnapEntry> Entries;
    std::unique_ptr<std::atomic<uint8_t>[]> Dead;
    std::atomic<size_t> Count{0};
    size_t Capacity;
  };

  /// One address-range shard: the paper's splay tree + spin lock, plus a
  /// striped slice of the relocation map, its own op counters, and the
  /// published epoch snapshot.
  struct Shard {
    SpinLock Lock;
    IntervalSplayTree<LiveObject> Tree DJX_GUARDED_BY(Lock);
    std::unordered_map<uint64_t, Relocation> RelocationMap
        DJX_GUARDED_BY(Lock);
    uint64_t Inserts DJX_GUARDED_BY(Lock) = 0;
    uint64_t Lookups DJX_GUARDED_BY(Lock) = 0;
    uint64_t LookupMisses DJX_GUARDED_BY(Lock) = 0;
    uint64_t Erases DJX_GUARDED_BY(Lock) = 0;

    /// Published epoch (acquire-loaded by lock-free readers — Snap itself
    /// is deliberately *not* guarded; its pointee is mutated only by the
    /// lock holder). Storage keeps every epoch ever published alive until
    /// clear/reconfigure so a reader holding an old pointer stays safe.
    std::atomic<Snapshot *> Snap{nullptr};
    std::vector<std::unique_ptr<Snapshot>> SnapStorage DJX_GUARDED_BY(Lock);
    /// Largest Start in the current snapshot (writer-side bookkeeping:
    /// detects out-of-order inserts that would break the sorted-append
    /// invariant and force a rebuild).
    uint64_t LastSnapStart DJX_GUARDED_BY(Lock) = 0;

    /// Atomic mirrors for the lock-free diagnostics / op totals.
    std::atomic<size_t> LiveEntries{0};
    std::atomic<size_t> RelocEntries{0};
    std::atomic<uint64_t> SnapLookups{0};
    std::atomic<uint64_t> SnapMisses{0};
  };

  Shard &shardFor(uint64_t Addr) { return Shards[shardIndexFor(Addr)]; }
  size_t shardIndexFor(uint64_t Addr) const {
    if (Shards.size() == 1)
      return 0;
    uint64_t Idx = Addr / SpanBytes;
    size_t Last = Shards.size() - 1;
    return Idx < Last ? static_cast<size_t>(Idx) : Last;
  }

  /// Appends one interval to the shard's snapshot, or rebuilds it when
  /// the append would violate the sorted/non-overlapping invariants
  /// (overlap eviction, out-of-order address, capacity). Caller holds the
  /// shard lock and has already updated the tree.
  void snapshotAppendLocked(Shard &S, uint64_t Start, uint64_t End,
                            const LiveObject &Obj, bool ForceRebuild)
      DJX_REQUIRES(S.Lock);
  /// Republishes the shard's snapshot from its tree (sorted, live-only).
  /// Caller holds the shard lock.
  void rebuildSnapshotLocked(Shard &S) DJX_REQUIRES(S.Lock);
  /// Tombstones \p Start's entry in the published snapshot, if present.
  /// Caller holds the shard lock.
  void snapshotEraseLocked(Shard &S, uint64_t Start) DJX_REQUIRES(S.Lock);
  /// Lock-free search of one published snapshot.
  static std::optional<LiveObject>
  snapshotFind(const Snapshot *Sn, uint64_t Addr, SnapshotHint *Hint);

  /// Deque: shards are non-movable (SpinLock, atomics) and addresses must
  /// stay stable.
  std::deque<Shard> Shards;
  uint64_t SpanBytes = 0;
};

} // namespace djx

#endif // DJX_CORE_LIVEOBJECTINDEX_H
