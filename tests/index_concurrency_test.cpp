//===- index_concurrency_test.cpp - Sharded live-object index under threads -===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exercises LiveObjectIndex from concurrent host threads — insert, lookup,
/// erase, and recordMove racing across shards — followed by a safepointed
/// applyRelocations(), including the attach-mode UnknownIdentity path.
/// Also covers the epoch-snapshot read path: lock-free lookupSnapshot()
/// racing inserts/erases/relocation batches, hint-memo correctness,
/// out-of-order rebuilds, and the zero-lock guarantee of both the
/// snapshot lookups and the snapshot-read diagnostics. Run under the tsan
/// preset these tests double as the data-race check for the index's
/// sharded locking and its lock-free epoch publication.
///
//===----------------------------------------------------------------------===//

#include "core/LiveObjectIndex.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(index_concurrency_test, 0.0, 0.0);

constexpr unsigned kThreads = 4;
constexpr uint64_t kSpan = 1 << 20; // 1 MiB address range per shard.
constexpr uint64_t kObjSize = 64;
constexpr unsigned kObjsPerThread = 2000;

uint64_t addrOf(unsigned Thread, unsigned I) {
  // Objects live in "their" thread's shard, 64-byte spaced.
  return static_cast<uint64_t>(Thread) * kSpan + 64 + I * kObjSize;
}

TEST(IndexConcurrency, ConcurrentInsertLookupEraseAcrossShards) {
  LiveObjectIndex Index;
  Index.configureShards(kThreads, kSpan);

  std::vector<std::thread> Workers;
  std::atomic<uint64_t> Hits{0};
  for (unsigned T = 0; T < kThreads; ++T) {
    Workers.emplace_back([&, T] {
      // Phase 1: populate own range; interleave lookups into *all* ranges
      // (cross-shard readers racing with writers).
      for (unsigned I = 0; I < kObjsPerThread; ++I) {
        Index.insert(addrOf(T, I), kObjSize,
                     LiveObject{T + 1, kCctRoot, 0, kObjSize});
        if (auto E = Index.lookup(addrOf(T, I) + kObjSize / 2)) {
          EXPECT_EQ(E->AllocThread, T + 1);
          Hits.fetch_add(1, std::memory_order_relaxed);
        }
        // Foreign lookups may hit or miss depending on progress; they
        // must never crash or corrupt.
        Index.lookup(addrOf((T + 1) % kThreads, I));
      }
      // Phase 2: erase every other object in own range.
      for (unsigned I = 0; I < kObjsPerThread; I += 2)
        EXPECT_TRUE(Index.erase(addrOf(T, I)));
    });
  }
  for (std::thread &W : Workers)
    W.join();

  // Every own-range lookup must have hit.
  EXPECT_EQ(Hits.load(), uint64_t(kThreads) * kObjsPerThread);
  EXPECT_EQ(Index.liveCount(), size_t(kThreads) * kObjsPerThread / 2);
  EXPECT_EQ(Index.inserts(), uint64_t(kThreads) * kObjsPerThread);
  // Survivors resolve with the right identity; erased ones miss.
  for (unsigned T = 0; T < kThreads; ++T) {
    auto Live = Index.lookup(addrOf(T, 1));
    ASSERT_TRUE(Live.has_value());
    EXPECT_EQ(Live->AllocThread, T + 1);
    EXPECT_FALSE(Index.lookup(addrOf(T, 0)).has_value());
  }
}

TEST(IndexConcurrency, BoundaryCrossingIntervalResolvesFromNextShard) {
  LiveObjectIndex Index;
  Index.configureShards(2, kSpan);
  // Interval starting just below the shard boundary, extending past it.
  uint64_t Start = kSpan - 32;
  Index.insert(Start, 128, LiveObject{7, kCctRoot, 0, 128});
  // An address inside the interval but mapped to shard 1 must still
  // resolve (fallback probe of the preceding shard).
  auto E = Index.lookup(kSpan + 16);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->AllocThread, 7u);
}

TEST(IndexConcurrency, SafepointedApplyRelocationsWithConcurrentReaders) {
  LiveObjectIndex Index;
  Index.configureShards(kThreads, kSpan);

  for (unsigned T = 0; T < kThreads; ++T)
    for (unsigned I = 0; I < 512; ++I)
      Index.insert(addrOf(T, I), kObjSize,
                   LiveObject{T + 1, kCctRoot, 0, kObjSize});

  // Record cross-shard moves: thread T's objects slide into the range of
  // shard (T+1)%kThreads, as a compacting GC could produce.
  for (unsigned T = 0; T < kThreads; ++T)
    for (unsigned I = 0; I < 512; ++I)
      Index.recordMove(addrOf(T, I), addrOf((T + 1) % kThreads, I) + 8,
                       kObjSize);
  EXPECT_EQ(Index.pendingRelocations(), size_t(kThreads) * 512);

  // Readers race with the batch application (applyRelocations holds every
  // shard lock, so they serialize against it but stay data-race free).
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Readers;
  for (unsigned T = 0; T < 2; ++T)
    Readers.emplace_back([&] {
      while (!Stop.load(std::memory_order_acquire))
        for (unsigned I = 0; I < 512; I += 7)
          Index.lookup(addrOf(I % kThreads, I));
    });

  LiveObject Unknown; // AllocThread 0 / kCctRoot = unknown provenance.
  unsigned Applied = Index.applyRelocations(Unknown);
  Stop.store(true, std::memory_order_release);
  for (std::thread &R : Readers)
    R.join();

  EXPECT_EQ(Applied, kThreads * 512u);
  EXPECT_EQ(Index.pendingRelocations(), 0u);
  EXPECT_EQ(Index.liveCount(), size_t(kThreads) * 512);
  // Old addresses are gone; new addresses carry the original identity.
  EXPECT_FALSE(Index.lookup(addrOf(0, 0)).has_value());
  for (unsigned T = 0; T < kThreads; ++T) {
    auto E = Index.lookup(addrOf((T + 1) % kThreads, 3) + 8);
    ASSERT_TRUE(E.has_value());
    EXPECT_EQ(E->AllocThread, T + 1);
  }
}

TEST(IndexConcurrency, ApplyRelocationsInsertsUnknownIdentityForMissed) {
  LiveObjectIndex Index;
  Index.configureShards(2, kSpan);
  // Attach mode: the mover was never inserted (allocated before attach).
  Index.recordMove(/*OldAddr=*/4096, /*NewAddr=*/kSpan + 4096, 256);
  LiveObject Unknown;
  EXPECT_EQ(Index.applyRelocations(Unknown), 1u);
  auto E = Index.lookup(kSpan + 4096 + 100);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->AllocThread, 0u);
  EXPECT_EQ(E->AllocNode, kCctRoot);
  EXPECT_EQ(E->Size, 256u);
}

// --- Epoch-snapshot read path -----------------------------------------------

TEST(IndexSnapshot, LookupMatchesSplayAndTakesNoLocks) {
  LiveObjectIndex Index;
  Index.configureShards(kThreads, kSpan);
  for (unsigned T = 0; T < kThreads; ++T)
    for (unsigned I = 0; I < 512; ++I)
      Index.insert(addrOf(T, I), kObjSize,
                   LiveObject{T + 1, kCctRoot, 0, kObjSize});
  for (unsigned T = 0; T < kThreads; ++T)
    for (unsigned I = 0; I < 512; I += 3)
      Index.erase(addrOf(T, I));

  uint64_t LocksBefore = Index.lockAcquisitions();
  LiveObjectIndex::SnapshotHint Hint;
  for (unsigned T = 0; T < kThreads; ++T)
    for (unsigned I = 0; I < 512; ++I) {
      auto Snap = Index.lookupSnapshot(addrOf(T, I) + kObjSize / 2, &Hint);
      if (I % 3 == 0) {
        EXPECT_FALSE(Snap.has_value());
      } else {
        ASSERT_TRUE(Snap.has_value());
        EXPECT_EQ(Snap->AllocThread, T + 1);
      }
    }
  // Addresses beyond each shard's populated run miss.
  for (unsigned T = 0; T < kThreads; ++T)
    EXPECT_FALSE(Index.lookupSnapshot(addrOf(T, 600)).has_value());
  EXPECT_EQ(Index.lockAcquisitions(), LocksBefore)
      << "snapshot lookups must acquire zero index locks";
  EXPECT_GT(Index.lookups(), 0u);
  EXPECT_GT(Index.lookupMisses(), 0u);

  // The locked splay path agrees on every probe (checked after the
  // lock-free pass so the lock counter assertion above stays clean).
  for (unsigned T = 0; T < kThreads; ++T)
    for (unsigned I = 0; I < 512; ++I) {
      uint64_t A = addrOf(T, I) + kObjSize / 2;
      EXPECT_EQ(Index.lookupSnapshot(A).has_value(),
                Index.lookup(A).has_value());
    }
}

TEST(IndexSnapshot, DiagnosticsTakeNoLocks) {
  LiveObjectIndex Index;
  Index.configureShards(2, kSpan);
  Index.insert(addrOf(0, 0), kObjSize, LiveObject{1, kCctRoot, 0, kObjSize});
  Index.insert(addrOf(1, 0), kObjSize, LiveObject{2, kCctRoot, 0, kObjSize});
  Index.recordMove(addrOf(0, 0), addrOf(0, 1), kObjSize);
  uint64_t LocksBefore = Index.lockAcquisitions();
  EXPECT_EQ(Index.liveCount(), 2u);
  EXPECT_EQ(Index.pendingRelocations(), 1u);
  EXPECT_GT(Index.memoryFootprint(), 0u);
  EXPECT_EQ(Index.lockAcquisitions(), LocksBefore)
      << "reporting-path diagnostics must not contend with samples";
  Index.discardRelocations();
}

TEST(IndexSnapshot, OutOfOrderAndEvictingInsertsRebuildCorrectly) {
  LiveObjectIndex Index; // Single shard: everything lands together.
  // Descending inserts break the sorted-append invariant every time.
  for (int I = 15; I >= 0; --I)
    Index.insert(1024 + static_cast<uint64_t>(I) * 128, 64,
                 LiveObject{static_cast<uint64_t>(I + 1), kCctRoot, 0, 64});
  for (int I = 0; I < 16; ++I) {
    auto E = Index.lookupSnapshot(1024 + static_cast<uint64_t>(I) * 128 + 8);
    ASSERT_TRUE(E.has_value());
    EXPECT_EQ(E->AllocThread, static_cast<uint64_t>(I + 1));
  }
  // Overlapping insert evicts two stale intervals (attach-mode
  // supersede); the snapshot must follow.
  Index.insert(1024 + 0 * 128, 256, LiveObject{99, kCctRoot, 0, 256});
  auto E = Index.lookupSnapshot(1024 + 130);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->AllocThread, 99u);
  // The gap after the surviving [1280, 1344) interval still misses.
  EXPECT_FALSE(Index.lookupSnapshot(1024 + 350).has_value());
}

TEST(IndexSnapshot, ReclaimRetiredEpochsKeepsOnlyThePublishedOne) {
  LiveObjectIndex Index;
  Index.configureShards(2, kSpan);
  // Enough appends to outgrow the initial capacity several times, plus
  // a relocation batch: multiple retired epochs accumulate per shard.
  for (unsigned T = 0; T < 2; ++T)
    for (unsigned I = 0; I < 300; ++I)
      Index.insert(addrOf(T, I), kObjSize,
                   LiveObject{T + 1, kCctRoot, 0, kObjSize});
  for (unsigned I = 0; I < 16; ++I)
    Index.recordMove(addrOf(0, I), addrOf(0, 400 + I), kObjSize);
  LiveObject Unknown;
  Index.applyRelocations(Unknown);
  EXPECT_GT(Index.retainedSnapshotBuffers(), 2u);

  Index.reclaimRetiredSnapshots(); // World-stopped by the test itself.
  EXPECT_EQ(Index.retainedSnapshotBuffers(), 2u);
  // The published epochs survive intact.
  for (unsigned T = 0; T < 2; ++T) {
    auto E = Index.lookupSnapshot(addrOf(T, 100) + 8);
    ASSERT_TRUE(E.has_value());
    EXPECT_EQ(E->AllocThread, T + 1);
  }
  auto Moved = Index.lookupSnapshot(addrOf(0, 400) + 8);
  ASSERT_TRUE(Moved.has_value());
  EXPECT_EQ(Moved->AllocThread, 1u);
}

TEST(IndexSnapshot, BoundaryCrossingIntervalResolvesFromNextShard) {
  LiveObjectIndex Index;
  Index.configureShards(2, kSpan);
  uint64_t Start = kSpan - 32;
  Index.insert(Start, 128, LiveObject{7, kCctRoot, 0, 128});
  auto E = Index.lookupSnapshot(kSpan + 16);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->AllocThread, 7u);
  // Hint from a preceding-shard hit must not poison later lookups.
  LiveObjectIndex::SnapshotHint Hint;
  ASSERT_TRUE(Index.lookupSnapshot(kSpan + 16, &Hint).has_value());
  EXPECT_FALSE(Index.lookupSnapshot(kSpan + 4096, &Hint).has_value());
}

TEST(IndexSnapshot, ConcurrentBatchedReadersDuringInsertErase) {
  LiveObjectIndex Index;
  Index.configureShards(kThreads, kSpan);

  // Pre-populate a stable prefix every reader can rely on.
  constexpr unsigned kStable = 256;
  for (unsigned T = 0; T < kThreads; ++T)
    for (unsigned I = 0; I < kStable; ++I)
      Index.insert(addrOf(T, I), kObjSize,
                   LiveObject{T + 1, kCctRoot, 0, kObjSize});

  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> StableHits{0};
  std::vector<std::thread> Threads;
  // Writers: bump-ordered inserts past the stable prefix, then erases of
  // their own churn — the executor's per-shard mutation pattern.
  for (unsigned T = 0; T < kThreads / 2; ++T)
    Threads.emplace_back([&, T] {
      for (unsigned I = kStable; I < kStable + kObjsPerThread; ++I) {
        Index.insert(addrOf(T, I), kObjSize,
                     LiveObject{T + 1, kCctRoot, 0, kObjSize});
        if (I % 2)
          Index.erase(addrOf(T, I));
      }
    });
  // Readers: sorted batches with a hint, across every shard, racing the
  // writers. Stable-prefix probes must always hit with the right
  // identity; churn probes may hit or miss but never misattribute. Each
  // reader makes at least one pass, even when a loaded host schedules it
  // only after the writers finished.
  for (unsigned R = 0; R < 2; ++R)
    Threads.emplace_back([&] {
      do {
        LiveObjectIndex::SnapshotHint Hint;
        for (unsigned T = 0; T < kThreads; ++T)
          for (unsigned I = 0; I < kStable + 64; I += 5) {
            auto E = Index.lookupSnapshot(addrOf(T, I) + 8, &Hint);
            if (I < kStable) {
              if (E && E->AllocThread == T + 1)
                StableHits.fetch_add(1, std::memory_order_relaxed);
              else
                ADD_FAILURE() << "stable object misresolved";
            } else if (E) {
              EXPECT_EQ(E->AllocThread, T + 1);
            }
          }
      } while (!Stop.load(std::memory_order_acquire));
    });
  for (unsigned T = 0; T < kThreads / 2; ++T)
    Threads[T].join();
  Stop.store(true, std::memory_order_release);
  for (size_t T = kThreads / 2; T < Threads.size(); ++T)
    Threads[T].join();
  EXPECT_GT(StableHits.load(), 0u);
}

TEST(IndexSnapshot, RelocationBatchRepublishesIncludingUnknowns) {
  LiveObjectIndex Index;
  Index.configureShards(2, kSpan);
  for (unsigned I = 0; I < 64; ++I)
    Index.insert(addrOf(0, I), kObjSize,
                 LiveObject{1, kCctRoot, 0, kObjSize});
  // Known movers cross into shard 1; one mover was never tracked
  // (attach-mode miss) and must surface as UnknownIdentity.
  for (unsigned I = 0; I < 64; ++I)
    Index.recordMove(addrOf(0, I), addrOf(1, I), kObjSize);
  Index.recordMove(/*OldAddr=*/kSpan - 4096, /*NewAddr=*/addrOf(1, 100),
                   256);

  std::atomic<bool> Stop{false};
  std::thread Reader([&] {
    LiveObjectIndex::SnapshotHint Hint;
    while (!Stop.load(std::memory_order_acquire))
      for (unsigned I = 0; I < 64; I += 3) {
        Index.lookupSnapshot(addrOf(0, I) + 4, &Hint);
        Index.lookupSnapshot(addrOf(1, I) + 4, &Hint);
      }
  });
  LiveObject Unknown;
  EXPECT_EQ(Index.applyRelocations(Unknown), 65u);
  Stop.store(true, std::memory_order_release);
  Reader.join();

  EXPECT_FALSE(Index.lookupSnapshot(addrOf(0, 0) + 4).has_value());
  for (unsigned I = 0; I < 64; ++I) {
    auto E = Index.lookupSnapshot(addrOf(1, I) + 4);
    ASSERT_TRUE(E.has_value());
    EXPECT_EQ(E->AllocThread, 1u);
  }
  auto U = Index.lookupSnapshot(addrOf(1, 100) + 16);
  ASSERT_TRUE(U.has_value());
  EXPECT_EQ(U->AllocThread, 0u);
  EXPECT_EQ(U->AllocNode, kCctRoot);
  EXPECT_EQ(U->Size, 256u);
}

TEST(IndexConcurrency, SingleShardBehavesLikeOriginalDesign) {
  LiveObjectIndex Index; // Default: one shard, unbounded span.
  EXPECT_EQ(Index.numShards(), 1u);
  Index.insert(1024, 512, LiveObject{1, kCctRoot, 0, 512});
  EXPECT_TRUE(Index.lookup(1500).has_value());
  EXPECT_EQ(Index.lookups(), 1u);
  EXPECT_EQ(Index.lookupMisses(), 0u);
  Index.recordMove(1024, 8192, 512);
  LiveObject Unknown;
  EXPECT_EQ(Index.applyRelocations(Unknown), 1u);
  EXPECT_FALSE(Index.lookup(1025).has_value());
  auto E = Index.lookup(8200);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->AllocThread, 1u);
}

} // namespace
