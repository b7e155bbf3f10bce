//===- core_test.cpp - Unit tests for src/core ---------------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/Cct.h"
#include "core/DjxPerf.h"
#include "core/LiveObjectIndex.h"
#include "core/Report.h"
#include "core/ThreadProfile.h"

#include <gtest/gtest.h>

#include <initializer_list>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(core_test, 85.0, 55.0,
    "src/core/Analyzer.cpp",
    "src/core/Analyzer.h",
    "src/core/Cct.cpp",
    "src/core/Cct.h",
    "src/core/DjxPerf.cpp",
    "src/core/DjxPerf.h",
    "src/core/LiveObjectIndex.cpp",
    "src/core/LiveObjectIndex.h",
    "src/core/Metrics.h",
    "src/core/Report.cpp",
    "src/core/Report.h",
    "src/core/ThreadProfile.cpp",
    "src/core/ThreadProfile.h");

// --- Cct ------------------------------------------------------------------------

TEST(Cct, RootExists) {
  Cct T;
  EXPECT_EQ(T.size(), 1u);
  EXPECT_TRUE(T.path(kCctRoot).empty());
}

TEST(Cct, ChildInterning) {
  Cct T;
  CctNodeId A = T.child(kCctRoot, 1, 10);
  CctNodeId B = T.child(kCctRoot, 1, 10);
  CctNodeId C = T.child(kCctRoot, 1, 11);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(T.size(), 3u);
}

TEST(Cct, PrefixSharing) {
  Cct T;
  std::vector<StackFrame> P1 = {{1, 0}, {2, 5}, {3, 7}};
  std::vector<StackFrame> P2 = {{1, 0}, {2, 5}, {4, 9}};
  T.insertPath(P1);
  size_t AfterFirst = T.size(); // Root + 3.
  T.insertPath(P2);
  EXPECT_EQ(AfterFirst, 4u);
  EXPECT_EQ(T.size(), 5u) << "shared prefix must not duplicate";
}

TEST(Cct, PathRoundTrip) {
  Cct T;
  std::vector<StackFrame> P = {{10, 1}, {20, 2}, {30, 3}};
  CctNodeId Leaf = T.insertPath(P);
  std::vector<StackFrame> Back = T.path(Leaf);
  ASSERT_EQ(Back.size(), 3u);
  for (size_t I = 0; I < 3; ++I) {
    EXPECT_EQ(Back[I].Method, P[I].Method);
    EXPECT_EQ(Back[I].Bci, P[I].Bci);
  }
}

TEST(Cct, EmptyPathIsRoot) {
  Cct T;
  EXPECT_EQ(T.insertPath({}), kCctRoot);
}

TEST(Cct, ParentLinks) {
  Cct T;
  CctNodeId A = T.child(kCctRoot, 1, 0);
  CctNodeId B = T.child(A, 2, 0);
  EXPECT_EQ(T.parentOf(B), A);
  EXPECT_EQ(T.parentOf(A), kCctRoot);
  EXPECT_EQ(T.methodOf(B), 2u);
}

TEST(Cct, MemoryFootprintGrows) {
  Cct T;
  size_t Empty = T.memoryFootprint();
  for (uint32_t I = 0; I < 100; ++I)
    T.child(kCctRoot, I, 0);
  EXPECT_GT(T.memoryFootprint(), Empty);
}

// --- LiveObjectIndex ---------------------------------------------------------------

LiveObject obj(uint64_t Thread, CctNodeId Node, uint64_t Size = 64) {
  LiveObject O;
  O.AllocThread = Thread;
  O.AllocNode = Node;
  O.Size = Size;
  return O;
}

TEST(LiveObjectIndex, InsertLookupErase) {
  LiveObjectIndex Idx;
  Idx.insert(0x1000, 64, obj(1, 5));
  auto Hit = Idx.lookup(0x1020);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->AllocThread, 1u);
  EXPECT_EQ(Hit->AllocNode, 5u);
  EXPECT_FALSE(Idx.lookup(0x2000).has_value());
  EXPECT_TRUE(Idx.erase(0x1000));
  EXPECT_FALSE(Idx.lookup(0x1020).has_value());
  EXPECT_EQ(Idx.inserts(), 1u);
  EXPECT_EQ(Idx.lookups(), 3u);
  EXPECT_EQ(Idx.lookupMisses(), 2u);
}

TEST(LiveObjectIndex, RelocationBatchMovesObjects) {
  LiveObjectIndex Idx;
  Idx.insert(0x1000, 64, obj(1, 5));
  Idx.recordMove(0x1000, 0x3000, 64);
  EXPECT_EQ(Idx.pendingRelocations(), 1u);
  // Before the batch applies, the tree still maps the old range.
  EXPECT_TRUE(Idx.lookup(0x1000).has_value());
  unsigned Applied = Idx.applyRelocations(LiveObject());
  EXPECT_EQ(Applied, 1u);
  EXPECT_EQ(Idx.pendingRelocations(), 0u);
  EXPECT_FALSE(Idx.lookup(0x1000).has_value());
  auto Hit = Idx.lookup(0x3010);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->AllocNode, 5u);
}

TEST(LiveObjectIndex, SlidingRelocationsOverlapSafely) {
  // Classic compaction: B slides into A's old range while A also moves.
  // Order of map iteration must not matter.
  LiveObjectIndex Idx;
  Idx.insert(100, 64, obj(1, 1));
  Idx.insert(200, 64, obj(1, 2));
  Idx.insert(300, 64, obj(1, 3));
  Idx.recordMove(100, 64, 64);
  Idx.recordMove(200, 128, 64); // New range overlaps A's old [100,164).
  Idx.recordMove(300, 192, 64); // Overlaps B's old [200,264)? No: [192,256).
  EXPECT_EQ(Idx.applyRelocations(LiveObject()), 3u);
  EXPECT_EQ(Idx.lookup(64)->AllocNode, 1u);
  EXPECT_EQ(Idx.lookup(128)->AllocNode, 2u);
  EXPECT_EQ(Idx.lookup(192)->AllocNode, 3u);
  EXPECT_EQ(Idx.liveCount(), 3u);
}

TEST(LiveObjectIndex, UnknownMoveInsertsFreshInterval) {
  // Attach mode missed the allocation; the move must still be tracked.
  LiveObjectIndex Idx;
  Idx.recordMove(0x5000, 0x1000, 128);
  LiveObject Unknown; // Root identity.
  EXPECT_EQ(Idx.applyRelocations(Unknown), 1u);
  auto Hit = Idx.lookup(0x1040);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->AllocThread, 0u);
  EXPECT_EQ(Hit->AllocNode, kCctRoot);
  EXPECT_EQ(Hit->Size, 128u);
}

TEST(LiveObjectIndex, DiscardRelocations) {
  LiveObjectIndex Idx;
  Idx.insert(0x1000, 64, obj(1, 5));
  Idx.recordMove(0x1000, 0x3000, 64);
  Idx.discardRelocations();
  EXPECT_EQ(Idx.applyRelocations(LiveObject()), 0u);
  EXPECT_TRUE(Idx.lookup(0x1000).has_value()) << "stale mapping remains";
}

TEST(LiveObjectIndex, LockAcquisitionsCounted) {
  LiveObjectIndex Idx;
  Idx.insert(0, 8, obj(1, 1));
  Idx.lookup(0);
  Idx.erase(0);
  EXPECT_GE(Idx.lockAcquisitions(), 3u);
}

// --- ThreadProfile -----------------------------------------------------------------

TEST(ThreadProfile, RecordsAllocationsByContext) {
  ThreadProfile P(1, "main");
  CctNodeId N = P.cct().child(kCctRoot, 3, 7);
  P.recordAllocation(N, "int[]", 400);
  P.recordAllocation(N, "int[]", 400);
  const auto &G = P.groups().at(AllocKey{1, N});
  EXPECT_EQ(G.AllocCount, 2u);
  EXPECT_EQ(G.AllocBytes, 800u);
  EXPECT_EQ(G.TypeName, "int[]");
}

TEST(ThreadProfile, RecordsObjectSamplesWithBreakdown) {
  ThreadProfile P(1, "main");
  CctNodeId Access1 = P.cct().child(kCctRoot, 9, 1);
  CctNodeId Access2 = P.cct().child(kCctRoot, 9, 2);
  AllocKey Key{2, 17}; // Allocated by another thread.
  P.recordObjectSample(Key, "Foo", PerfEventKind::L1Miss, Access1, false);
  P.recordObjectSample(Key, "Foo", PerfEventKind::L1Miss, Access1, true);
  P.recordObjectSample(Key, "Foo", PerfEventKind::L1Miss, Access2, false);
  const auto &G = P.groups().at(Key);
  EXPECT_EQ(G.Metrics.get(PerfEventKind::L1Miss), 3u);
  EXPECT_EQ(G.RemoteSamples, 1u);
  EXPECT_EQ(G.AddressSamples, 3u);
  EXPECT_EQ(G.AccessBreakdown.at(Access1).get(PerfEventKind::L1Miss), 2u);
  EXPECT_EQ(G.AccessBreakdown.at(Access2).get(PerfEventKind::L1Miss), 1u);
  EXPECT_EQ(P.totals().get(PerfEventKind::L1Miss), 3u);
}

TEST(ThreadProfile, UnattributedCountsInTotals) {
  ThreadProfile P(1, "main");
  P.recordUnattributed(PerfEventKind::L1Miss);
  EXPECT_EQ(P.unattributedSamples(), 1u);
  EXPECT_EQ(P.totals().get(PerfEventKind::L1Miss), 1u);
}

std::string bytesOf(std::initializer_list<int> Bytes) {
  std::string S;
  for (int B : Bytes)
    S += static_cast<char>(B);
  return S;
}

/// encode() into a fresh string.
std::string encoded(const ThreadProfile &P,
                    const ProfileMark &Since = ProfileMark()) {
  std::string Out;
  P.encode(Out, Since);
  return Out;
}

TEST(ThreadProfile, SerializationRoundTrip) {
  ThreadProfile P(7, "worker3");
  CctNodeId A = P.cct().insertPath({{1, 2}, {3, 4}});
  CctNodeId B = P.cct().insertPath({{1, 2}, {5, 6}});
  P.recordAllocation(A, "double[]", 8192);
  P.recordObjectSample(AllocKey{7, A}, "double[]", PerfEventKind::L1Miss, B,
                       true);
  P.recordCodeSample(B, PerfEventKind::L1Miss);
  P.recordUnattributed(PerfEventKind::TlbMiss);

  std::string Bytes = encoded(P);
  // A full profile is the delta from an empty one.
  ThreadProfile Q(7, "");
  ASSERT_TRUE(Q.apply(Bytes));
  EXPECT_EQ(Q.threadId(), 7u);
  EXPECT_EQ(Q.threadName(), "worker3");
  EXPECT_EQ(Q.cct().size(), P.cct().size());
  const auto &G = Q.groups().at(AllocKey{7, A});
  EXPECT_EQ(G.TypeName, "double[]");
  EXPECT_EQ(G.AllocCount, 1u);
  EXPECT_EQ(G.AllocBytes, 8192u);
  EXPECT_EQ(G.RemoteSamples, 1u);
  EXPECT_EQ(G.Metrics.get(PerfEventKind::L1Miss), 1u);
  EXPECT_EQ(G.AccessBreakdown.at(B).get(PerfEventKind::L1Miss), 1u);
  EXPECT_EQ(Q.codeCentric().at(B).get(PerfEventKind::L1Miss), 1u);
  EXPECT_EQ(Q.unattributedSamples(), 1u);
  // Round-trip again: identical bytes.
  EXPECT_EQ(encoded(Q), encoded(P));
  EXPECT_EQ(encoded(Q), Bytes);
}

TEST(ThreadProfile, ReadRejectsGarbage) {
  // Each read is a full encoding applied to a fresh, empty profile.
  auto Reads = [](std::string_view Bytes) {
    return ThreadProfile(1, "").apply(Bytes);
  };
  EXPECT_FALSE(Reads("not a profile\n"));
  EXPECT_FALSE(Reads(""));
  // A valid encoding cut anywhere before its End record.
  ThreadProfile P(1, "t");
  P.recordAllocation(P.cct().insertPath({{1, 0}}), "X", 64);
  std::string Bytes = encoded(P);
  ASSERT_TRUE(Reads(Bytes));
  for (size_t Cut = 0; Cut < Bytes.size(); ++Cut)
    EXPECT_FALSE(Reads(Bytes.substr(0, Cut))) << "cut at " << Cut;
  EXPECT_FALSE(Reads(Bytes + '\0')) << "trailing bytes after End";
}

// --- Profile codec: deltas --------------------------------------------------

TEST(ProfileCodec, DeltaAppliedToOlderCopyReproducesProfile) {
  ThreadProfile P(3, "delta");
  CctNodeId A = P.cct().insertPath({{1, 0}});
  P.recordAllocation(A, "int[]", 256);
  P.recordObjectSample(AllocKey{3, A}, "int[]", PerfEventKind::L1Miss, A,
                       false, 0, 1);
  ThreadProfile Copy(3, "");
  ASSERT_TRUE(Copy.apply(encoded(P)));
  ProfileMark Then = P.mark();

  CctNodeId B = P.cct().insertPath({{1, 0}, {2, 7}});
  P.recordAllocation(B, "long[]", 512);
  P.recordObjectSample(AllocKey{3, A}, "int[]", PerfEventKind::L2Miss, B,
                       true, 1, 1);
  P.recordObjectSample(AllocKey{9, 4}, "Foreign", PerfEventKind::L1Miss, B,
                       false);
  P.recordCodeSample(B, PerfEventKind::L1Miss);
  P.recordUnattributed(PerfEventKind::L1Miss);
  ASSERT_TRUE(P.changedSince(Then));

  std::string Delta = encoded(P, Then);
  EXPECT_LT(Delta.size(), encoded(P).size());
  ASSERT_TRUE(Copy.apply(Delta));
  EXPECT_EQ(encoded(Copy), encoded(P));
  // Records carry absolute values: applying the same delta again is a
  // no-op.
  ASSERT_TRUE(Copy.apply(Delta));
  EXPECT_EQ(encoded(Copy), encoded(P));
}

TEST(ProfileCodec, UnchangedProfileEncodesNoEntries) {
  ThreadProfile P(2, "idle");
  CctNodeId A = P.cct().insertPath({{1, 0}});
  P.recordAllocation(A, "X", 64);
  encoded(P);
  ProfileMark Now = P.mark();
  EXPECT_FALSE(P.changedSince(Now));
  // Only the KnownThread record, which leaves the name out, and End.
  EXPECT_EQ(encoded(P, Now), bytesOf({9, 2, 0}));
}

TEST(ProfileCodec, L1OnlySampleDeltaLayout) {
  ThreadProfile P(3, "w");
  CctNodeId A = P.cct().insertPath({{1, 0}});
  P.recordAllocation(A, "int[]", 256);
  encoded(P);
  ProfileMark Then = P.mark();
  P.recordObjectSample(AllocKey{3, A}, "int[]", PerfEventKind::L1Miss, A,
                       false);
  // No group is new, so neither name is sent, and each metrics field is
  // the mask of its one nonzero kind (L1Miss, bit 1) and that count.
  EXPECT_EQ(encoded(P, Then), bytesOf({
                                  9, 3,                   // KnownThread
                                  10, 3, 1,               // KnownGroup key
                                  1, 0x80, 2, 0, 1, 2, 1, // its fields
                                  4, 1, 2, 1,             // Access
                                  8, 2, 1, 0,             // Totals
                                  0,                      // End
                              }));
}

TEST(ProfileCodec, DeltaSizeTracksChangesNotProfileSize) {
  ThreadProfile P(1, "big");
  std::vector<CctNodeId> Nodes;
  for (uint32_t I = 0; I < 100; ++I)
    Nodes.push_back(P.cct().child(kCctRoot, I, I));
  for (uint32_t G = 0; G < 10000; ++G) {
    AllocKey Key{1 + G % 4, Nodes[G % Nodes.size()] + G / 100 * 1000};
    P.recordObjectSample(Key, "T", PerfEventKind::L1Miss,
                         Nodes[G % Nodes.size()], false);
  }
  ASSERT_EQ(P.groups().size(), 10000u);
  std::string Full = encoded(P);
  ProfileMark Then = P.mark();

  // Touch one entry of one group.
  P.recordObjectSample(AllocKey{2, Nodes[1]}, "T", PerfEventKind::L1Miss,
                       Nodes[1], false);
  std::string Delta = encoded(P, Then);
  EXPECT_GT(Full.size(), 100000u);
  EXPECT_LT(Delta.size(), 128u) << "delta must not grow with the profile";

  ThreadProfile Copy(P.threadId(), "");
  ASSERT_TRUE(Copy.apply(Full));
  ASSERT_TRUE(Copy.apply(Delta));
  EXPECT_EQ(encoded(Copy), encoded(P));
}

TEST(ProfileCodec, ChangeLogOverflowFallsBackToFullProfile) {
  ThreadProfile P(1, "busy");
  CctNodeId A = P.cct().insertPath({{1, 0}});
  encoded(P); // Start the change log.
  ProfileMark Then = P.mark();
  // More distinct changes than the log holds.
  for (uint32_t I = 0; I < 5000; ++I)
    P.recordObjectSample(AllocKey{1, I}, "T", PerfEventKind::L1Miss, A,
                         false);
  std::string Delta = encoded(P, Then);
  // The full profile, not a wrong delta: an empty copy as of Then
  // catches up exactly.
  std::string Full = encoded(P);
  EXPECT_GT(Delta.size(), Full.size() * 9 / 10);
  ThreadProfile Copy(1, "busy");
  Copy.cct().insertPath({{1, 0}});
  ASSERT_TRUE(Copy.apply(Delta));
  EXPECT_EQ(encoded(Copy), Full);
}

TEST(ProfileCodec, CheckRejectsMalformedRecordsWithoutSideEffects) {
  ThreadProfile P(1, "t");
  P.recordAllocation(P.cct().insertPath({{1, 0}}), "X", 64);
  const std::string Before = encoded(P);
  // Thread record for tid 1 named "t", as every full encoding starts.
  const std::string Thread = bytesOf({1, 1, 1, 't'});
  const std::vector<std::pair<std::string, std::string>> Cases = {
      {"overlong varint",
       Thread + bytesOf({8}) + std::string(10, '\x80') + bytesOf({1})},
      {"truncated record", Thread + bytesOf({3, 1, 1})},
      {"node-id gap", Thread + bytesOf({2, 5, 1, 0, 1, 0, 0})},
      {"parent past the tree", Thread + bytesOf({2, 2, 1, 7, 1, 0, 0})},
      {"unknown record tag", Thread + bytesOf({0x63, 0})},
      {"access before any group", Thread + bytesOf({4, 0, 0, 0})},
      {"code node past the tree", Thread + bytesOf({7, 9, 0, 0})},
      {"another thread's delta", bytesOf({1, 2, 1, 't', 0})},
      {"no End record", Thread},
      // Metrics carry a mask of their nonzero kinds, then those counts.
      {"mask bit past the last kind",
       Thread + bytesOf({8, 0x80, 1, 1, 0, 0})},
      {"zero count under a set bit", Thread + bytesOf({8, 1, 0, 0, 0})},
      {"nameless group the profile lacks",
       Thread + bytesOf({10, 1, 5, 0, 0, 0, 0, 0, 0})},
  };
  for (const auto &[Label, Bytes] : Cases) {
    EXPECT_FALSE(P.check(Bytes)) << Label;
    EXPECT_EQ(encoded(P), Before) << Label << " modified the profile";
    // apply() validates as it writes: on false the copy may be partly
    // applied, and is discarded.
    ThreadProfile Copy = P;
    EXPECT_FALSE(Copy.apply(Bytes)) << Label;
  }
  // A nameless thread record needs a profile that holds the thread,
  // one past the empty mark.
  const std::string Nameless = bytesOf({9, 1, 0});
  ThreadProfile Empty(1, "t");
  EXPECT_FALSE(Empty.check(Nameless));
  EXPECT_FALSE(Empty.apply(Nameless));
  EXPECT_FALSE(ThreadProfile(1, "").apply(Nameless));
  // The well-formed control cases, a nameless group included.
  EXPECT_TRUE(P.check(Thread + bytesOf({0})));
  EXPECT_TRUE(P.check(Nameless));
  EXPECT_TRUE(P.check(Thread + bytesOf({10, 1, 1, 1, 64, 0, 0, 0, 0})));
}

TEST(ProfileCodec, RemapIdsRewritesThreadAndMethodIds) {
  ThreadProfile P(2, "worker-1");
  CctNodeId N = P.cct().child(kCctRoot, 0, 4);
  P.recordAllocation(N, "long[]", 64);
  P.recordObjectSample(AllocKey{0, N}, "long[]", PerfEventKind::L1Miss, N,
                       false, 0);
  P.remapIds(10, {7});
  EXPECT_EQ(P.threadId(), 12u);
  EXPECT_EQ(P.threadName(), "worker-1");
  EXPECT_EQ(P.cct().methodOf(N), 7u);
  EXPECT_EQ(P.cct().bciOf(N), 4u);
  EXPECT_EQ(P.cct().child(kCctRoot, 7, 4), N) << "edges are re-keyed";
  // Alloc-thread 0 (unknown provenance) is preserved; 2 is offset.
  ASSERT_EQ(P.groups().size(), 2u);
  EXPECT_EQ(P.groups().at(AllocKey{12, N}).AllocBytes, 64u);
  EXPECT_EQ(P.groups().at(AllocKey{0, N}).HomeNodeSamples.at(0), 1u);
}

// --- Analyzer -----------------------------------------------------------------------

TEST(Analyzer, MergesEqualPathsAcrossThreads) {
  // Two threads allocate at the *same* call path; the analyzer must
  // coalesce them into one group (§5.2).
  ThreadProfile P1(1, "t1"), P2(2, "t2");
  std::vector<StackFrame> Path = {{1, 0}, {2, 3}};
  CctNodeId N1 = P1.cct().insertPath(Path);
  CctNodeId N2 = P2.cct().insertPath(Path);
  P1.recordAllocation(N1, "Foo", 100);
  P2.recordAllocation(N2, "Foo", 100);
  P1.recordObjectSample(AllocKey{1, N1}, "Foo", PerfEventKind::L1Miss, N1,
                        false);
  P2.recordObjectSample(AllocKey{2, N2}, "Foo", PerfEventKind::L1Miss, N2,
                        false);

  MergedProfile M = mergeProfiles({&P1, &P2});
  EXPECT_EQ(M.ThreadsMerged, 2u);
  ASSERT_EQ(M.Groups.size(), 1u) << "same alloc path must merge";
  const MergedGroup &G = M.Groups.begin()->second;
  EXPECT_EQ(G.AllocCount, 2u);
  EXPECT_EQ(G.Metrics.get(PerfEventKind::L1Miss), 2u);
}

TEST(Analyzer, CrossThreadAttributionResolvesAllocPath) {
  // Thread 1 allocates; thread 2 samples accesses to the object. The
  // merged group must sit under thread 1's allocation path.
  ThreadProfile P1(1, "alloc"), P2(2, "access");
  CctNodeId AllocN = P1.cct().insertPath({{10, 0}});
  P1.recordAllocation(AllocN, "Buf", 4096);
  CctNodeId AccessN = P2.cct().insertPath({{20, 5}});
  P2.recordObjectSample(AllocKey{1, AllocN}, "Buf", PerfEventKind::L1Miss,
                        AccessN, true);

  MergedProfile M = mergeProfiles({&P1, &P2});
  ASSERT_EQ(M.Groups.size(), 1u);
  const MergedGroup &G = M.Groups.begin()->second;
  EXPECT_EQ(G.AllocCount, 1u);
  EXPECT_EQ(G.Metrics.get(PerfEventKind::L1Miss), 1u);
  EXPECT_EQ(G.RemoteSamples, 1u);
  auto Path = M.Tree.path(G.AllocNode);
  ASSERT_EQ(Path.size(), 1u);
  EXPECT_EQ(Path[0].Method, 10u);
  ASSERT_EQ(G.AccessBreakdown.size(), 1u);
  auto APath = M.Tree.path(G.AccessBreakdown.begin()->first);
  ASSERT_EQ(APath.size(), 1u);
  EXPECT_EQ(APath[0].Method, 20u);
}

TEST(Analyzer, MissingAllocatorDegradesToUnknown) {
  ThreadProfile P2(2, "access");
  CctNodeId AccessN = P2.cct().insertPath({{20, 5}});
  P2.recordObjectSample(AllocKey{99, 42}, "Ghost", PerfEventKind::L1Miss,
                        AccessN, false);
  MergedProfile M = mergeProfiles({&P2});
  ASSERT_EQ(M.Groups.size(), 1u);
  EXPECT_EQ(M.Groups.begin()->first, kCctRoot);
}

TEST(Analyzer, GroupsSortByMetric) {
  ThreadProfile P(1, "t");
  CctNodeId A = P.cct().insertPath({{1, 0}});
  CctNodeId B = P.cct().insertPath({{2, 0}});
  for (int I = 0; I < 3; ++I)
    P.recordObjectSample(AllocKey{1, A}, "Small", PerfEventKind::L1Miss, A,
                         false);
  for (int I = 0; I < 10; ++I)
    P.recordObjectSample(AllocKey{1, B}, "Big", PerfEventKind::L1Miss, B,
                         false);
  MergedProfile M = mergeProfiles({&P});
  auto Sorted = M.groupsByMetric(PerfEventKind::L1Miss);
  ASSERT_EQ(Sorted.size(), 2u);
  EXPECT_EQ(Sorted[0]->TypeName, "Big");
  EXPECT_NEAR(M.shareOf(*Sorted[0], PerfEventKind::L1Miss), 10.0 / 13.0,
              1e-9);
}

TEST(Analyzer, CodeCentricMerges) {
  ThreadProfile P1(1, "a"), P2(2, "b");
  std::vector<StackFrame> Path = {{5, 1}};
  P1.recordCodeSample(P1.cct().insertPath(Path), PerfEventKind::L1Miss);
  P2.recordCodeSample(P2.cct().insertPath(Path), PerfEventKind::L1Miss);
  MergedProfile M = mergeProfiles({&P1, &P2});
  ASSERT_EQ(M.CodeCentric.size(), 1u);
  EXPECT_EQ(M.CodeCentric.begin()->second.get(PerfEventKind::L1Miss), 2u);
}

// --- Report -------------------------------------------------------------------------

TEST(Report, ObjectCentricShowsPathsAndShares) {
  MethodRegistry MR;
  MethodId Alloc = MR.registerMethod("Pool", "create", {{0, 42}});
  MethodId Access = MR.registerMethod("Worker", "use", {{0, 99}});
  ThreadProfile P(1, "t");
  CctNodeId AN = P.cct().insertPath({{Alloc, 0}});
  CctNodeId XN = P.cct().insertPath({{Access, 0}});
  P.recordAllocation(AN, "Buf[]", 2048);
  for (int I = 0; I < 4; ++I)
    P.recordObjectSample(AllocKey{1, AN}, "Buf[]", PerfEventKind::L1Miss,
                         XN, I == 0);
  MergedProfile M = mergeProfiles({&P});
  std::string S = renderObjectCentric(M, MR);
  EXPECT_NE(S.find("Buf[]"), std::string::npos);
  EXPECT_NE(S.find("Pool.create:42"), std::string::npos);
  EXPECT_NE(S.find("Worker.use:99"), std::string::npos);
  EXPECT_NE(S.find("100.0%"), std::string::npos);
  EXPECT_NE(S.find("allocated 1 time(s)"), std::string::npos);
  EXPECT_NE(S.find("NUMA"), std::string::npos);
}

TEST(Report, CodeCentricRanksHotLines) {
  MethodRegistry MR;
  MethodId M1 = MR.registerMethod("A", "hot", {{0, 7}});
  MethodId M2 = MR.registerMethod("B", "cold", {{0, 8}});
  ThreadProfile P(1, "t");
  CctNodeId H = P.cct().insertPath({{M1, 0}});
  CctNodeId C = P.cct().insertPath({{M2, 0}});
  for (int I = 0; I < 9; ++I)
    P.recordCodeSample(H, PerfEventKind::L1Miss);
  P.recordCodeSample(C, PerfEventKind::L1Miss);
  // Totals come from object samples/unattributed; record via
  // recordUnattributed to fill totals.
  for (int I = 0; I < 10; ++I)
    P.recordUnattributed(PerfEventKind::L1Miss);
  MergedProfile M = mergeProfiles({&P});
  std::string S = renderCodeCentric(M, MR);
  size_t HotPos = S.find("A.hot:7");
  size_t ColdPos = S.find("B.cold:8");
  ASSERT_NE(HotPos, std::string::npos);
  ASSERT_NE(ColdPos, std::string::npos);
  EXPECT_LT(HotPos, ColdPos) << "hot line must rank first";
}

TEST(Report, EmptyProfileDegradesGracefully) {
  MethodRegistry MR;
  MergedProfile M;
  EXPECT_NE(renderObjectCentric(M, MR).find("no object groups"),
            std::string::npos);
  EXPECT_NE(renderCodeCentric(M, MR).find("no samples"), std::string::npos);
}

TEST(Report, TopGroupsLimitRespected) {
  MethodRegistry MR;
  MethodId M1 = MR.registerMethod("C", "m", {{0, 1}});
  ThreadProfile P(1, "t");
  for (uint32_t I = 0; I < 20; ++I) {
    CctNodeId N = P.cct().insertPath({{M1, I}});
    P.recordObjectSample(AllocKey{1, N}, "T" + std::to_string(I),
                         PerfEventKind::L1Miss, N, false);
  }
  MergedProfile M = mergeProfiles({&P});
  ReportOptions Opts;
  Opts.TopGroups = 3;
  std::string S = renderObjectCentric(M, MR, Opts);
  EXPECT_NE(S.find("#3 "), std::string::npos);
  EXPECT_EQ(S.find("#4 "), std::string::npos);
}

// --- DjxPerf end-to-end (small) -------------------------------------------------------

TEST(DjxPerf, TracksAllocationsAboveSizeFilter) {
  JavaVm Vm;
  DjxPerfConfig Cfg;
  Cfg.MinObjectSize = 1024;
  DjxPerf Prof(Vm, Cfg);
  Prof.start();
  JavaThread &T = Vm.startThread("main", 0);
  MethodId M = Vm.methods().registerMethod("C", "m", {{0, 1}});
  FrameScope F(T, M, 0);
  Vm.allocateArray(T, Vm.types().longArray(), 256); // 2 KiB: tracked.
  Vm.allocateArray(T, Vm.types().longArray(), 8);   // 64 B: filtered.
  Prof.stop();
  EXPECT_EQ(Prof.allocationCallbacks(), 2u);
  EXPECT_EQ(Prof.allocationsTracked(), 1u);
  EXPECT_EQ(Prof.index().liveCount(), 1u);
}

TEST(DjxPerf, SampleAttributionEndToEnd) {
  JavaVm Vm;
  DjxPerfConfig Cfg;
  Cfg.Events = {PerfEventAttr{PerfEventKind::MemAccess, 10, 64}};
  Cfg.MinObjectSize = 64;
  DjxPerf Prof(Vm, Cfg);
  Prof.start();
  JavaThread &T = Vm.startThread("main", 0);
  MethodId MA = Vm.methods().registerMethod("App", "alloc", {{0, 5}});
  MethodId MU = Vm.methods().registerMethod("App", "use", {{0, 9}});
  RootScope Roots(Vm);
  ObjectRef &A = Roots.add();
  {
    FrameScope F(T, MA, 0);
    A = Vm.allocateArray(T, Vm.types().longArray(), 512);
  }
  {
    FrameScope F(T, MU, 0);
    for (int I = 0; I < 2000; ++I)
      Vm.readWord(T, A, (static_cast<uint64_t>(I) % 512) * 8);
  }
  Prof.stop();
  EXPECT_GT(Prof.samplesHandled(), 100u);
  MergedProfile M = Prof.analyze();
  ASSERT_GE(M.Groups.size(), 1u);
  auto Sorted = M.groupsByMetric(PerfEventKind::MemAccess);
  const MergedGroup &G = *Sorted[0];
  EXPECT_EQ(G.TypeName, "long[]");
  auto Path = M.Tree.path(G.AllocNode);
  ASSERT_FALSE(Path.empty());
  EXPECT_EQ(Vm.methods().qualifiedName(Path.back().Method), "App.alloc");
  // Most samples land in the use loop.
  ASSERT_FALSE(G.AccessBreakdown.empty());
  uint64_t UseSamples = 0;
  for (const auto &[Node, Counts] : G.AccessBreakdown) {
    auto AP = M.Tree.path(Node);
    if (!AP.empty() &&
        Vm.methods().qualifiedName(AP.back().Method) == "App.use")
      UseSamples += Counts.get(PerfEventKind::MemAccess);
  }
  EXPECT_GT(UseSamples, G.Metrics.get(PerfEventKind::MemAccess) / 2);
}

TEST(DjxPerf, StopFreezesSampling) {
  JavaVm Vm;
  DjxPerfConfig Cfg;
  Cfg.Events = {PerfEventAttr{PerfEventKind::MemAccess, 5, 64}};
  Cfg.MinObjectSize = 64;
  DjxPerf Prof(Vm, Cfg);
  Prof.start();
  JavaThread &T = Vm.startThread("main", 0);
  RootScope Roots(Vm);
  ObjectRef &A = Roots.add(Vm.allocateArray(T, Vm.types().longArray(), 64));
  for (int I = 0; I < 100; ++I)
    Vm.readWord(T, A, 0);
  uint64_t AtStop = Prof.samplesHandled();
  Prof.stop();
  for (int I = 0; I < 100; ++I)
    Vm.readWord(T, A, 0);
  EXPECT_EQ(Prof.samplesHandled(), AtStop);
}

// The guarantee of ring-buffered resolution: once the workload's
// tracked objects exist, the sample path — overflow handler, ring, and
// batched snapshot drain — acquires zero live-object-index locks.
TEST(DjxPerf, SteadyStateSamplePathAcquiresNoIndexLocks) {
  JavaVm Vm;
  DjxPerf Prof(Vm); // Default agent: L1-miss preset.
  Prof.start();
  JavaThread &T = Vm.startThread("steady", 0);
  RootScope Roots(Vm);
  // 512 KiB hot array: tracked, and big enough to miss L1 constantly.
  ObjectRef &Hot =
      Roots.add(Vm.allocateArray(T, Vm.types().longArray(), 65536));
  uint64_t Locks = Prof.index().lockAcquisitions();
  uint64_t Samples = Prof.samplesHandled();
  // Long enough to overflow the sample ring several times, so the
  // capacity-triggered self-drain is covered too, not just stop().
  for (int I = 0; I < 400000; ++I)
    Vm.readWord(T, Hot, (static_cast<uint64_t>(I) % 65536) * 8);
  Prof.stop(); // Final drain of the ring's tail.
  EXPECT_GT(Prof.samplesHandled(), Samples);
  EXPECT_EQ(Prof.index().lockAcquisitions(), Locks)
      << "sample resolution must run lock-free in steady state";
  // Attribution still happened: the steady-state samples reached the hot
  // array's group. (The handful of unattributed ones are the array's own
  // zero-fill stores, sampled before its index insert.)
  MergedProfile M = Prof.analyze();
  ASSERT_FALSE(M.Groups.empty());
  EXPECT_LT(M.UnattributedSamples, 32u);
  EXPECT_GT(M.Groups.begin()->second.AddressSamples, 50u);
  Vm.endThread(T);
}

/// Zero-fill stores issued by allocating \p Obj: one per L1 line it spans.
uint64_t zeroFillStores(JavaVm &Vm, ObjectRef Obj) {
  uint64_t Line = Vm.machine().config().L1.LineBytes;
  return (Obj + Vm.heap().info(Obj).Size - 1) / Line - Obj / Line + 1;
}

/// The merged group whose objects total \p Bytes (tests below give each
/// allocation context a distinct size).
const MergedGroup *groupWithBytes(const MergedProfile &M, uint64_t Bytes) {
  for (const auto &[Node, G] : M.Groups)
    if (G.AllocBytes == Bytes)
      return &G;
  return nullptr;
}

// Allocation commit resolves buffered samples against the pre-insert
// index. With MemAccess period 1 every access is a sample: an object's
// zero-fill stores precede its insert and are exactly the unattributed
// samples, and every later read lands on its object — also for the
// second object, whose zero-fill samples sit in the ring when the first
// object's reads do.
TEST(DjxPerf, ZeroFillStoresAreTheOnlyUnattributedSamples) {
  JavaVm Vm;
  DjxPerfConfig Cfg;
  Cfg.Events = {PerfEventAttr{PerfEventKind::MemAccess, 1, 64}};
  Cfg.MinObjectSize = 64;
  DjxPerf Prof(Vm, Cfg);
  Prof.start();
  JavaThread &T = Vm.startThread("zerofill", 0);
  MethodId MA = Vm.methods().registerMethod("Fill", "a", {{0, 1}});
  MethodId MB = Vm.methods().registerMethod("Fill", "b", {{0, 2}});
  RootScope Roots(Vm);
  ObjectRef &A = Roots.add();
  ObjectRef &B = Roots.add();
  constexpr uint64_t kReads = 700;
  {
    FrameScope F(T, MA, 0);
    A = Vm.allocateArray(T, Vm.types().longArray(), 256);
  }
  for (uint64_t I = 0; I < kReads; ++I)
    Vm.readWord(T, A, (I % 256) * 8);
  {
    FrameScope F(T, MB, 0);
    B = Vm.allocateArray(T, Vm.types().longArray(), 96);
  }
  for (uint64_t I = 0; I < 2 * kReads; ++I)
    Vm.readWord(T, B, (I % 96) * 8);
  Prof.stop();

  uint64_t ZeroFill = zeroFillStores(Vm, A) + zeroFillStores(Vm, B);
  EXPECT_EQ(Prof.samplesHandled(), ZeroFill + 3 * kReads);
  MergedProfile M = Prof.analyze();
  EXPECT_EQ(M.UnattributedSamples, ZeroFill);
  const MergedGroup *GA = groupWithBytes(M, 256 * 8);
  const MergedGroup *GB = groupWithBytes(M, 96 * 8);
  ASSERT_TRUE(GA && GB);
  EXPECT_EQ(GA->AddressSamples, kReads);
  EXPECT_EQ(GB->AddressSamples, 2 * kReads);
  Vm.endThread(T);
}

// Without the GC interpositions the index keeps stale intervals, and an
// insert can evict one that another thread's buffered samples fall in.
// Thread A's garbage `junk` array dies and its live `survivor` slides
// down onto junk's stale interval; A's reads of the survivor resolve, at
// sample time, to junk's allocation context. Thread B's allocation then
// lands on junk's stale range and evicts it while A's samples are still
// buffered. With no Executor session, allocation commit drains every
// ring, so A's samples keep their sample-time answer.
TEST(DjxPerf, SerialInsertDrainsOtherThreadsRingsBeforeEvicting) {
  JavaVm Vm;
  DjxPerfConfig Cfg;
  Cfg.Events = {PerfEventAttr{PerfEventKind::MemAccess, 1, 64}};
  Cfg.MinObjectSize = 64;
  Cfg.HandleGcMoves = Cfg.HandleGcFrees = false;
  DjxPerf Prof(Vm, Cfg);
  Prof.start();
  JavaThread &A = Vm.startThread("a", 0);
  JavaThread &B = Vm.startThread("b", 1);
  B.pmu().disable(); // Only A's samples are counted below.
  MethodId JunkM = Vm.methods().registerMethod("Evict", "junk", {{0, 1}});
  MethodId SurvM = Vm.methods().registerMethod("Evict", "survivor", {{0, 2}});
  TypeId LongArr = Vm.types().longArray();
  constexpr uint64_t kJunkElems = 512, kSurvElems = 128, kFreshElems = 64;
  constexpr uint64_t kReads = 250;

  ObjectRef Junk;
  {
    FrameScope F(A, JunkM, 0);
    Junk = Vm.allocateArray(A, LongArr, kJunkElems); // Unrooted: garbage.
  }
  RootScope Roots(Vm);
  ObjectRef &Surv = Roots.add();
  {
    FrameScope F(A, SurvM, 0);
    Surv = Vm.allocateArray(A, LongArr, kSurvElems);
  }
  uint64_t ZeroFill = zeroFillStores(Vm, Junk) + zeroFillStores(Vm, Surv);
  Vm.requestGc();
  ASSERT_EQ(Surv, Junk) << "the survivor must slide onto junk's range";
  for (uint64_t I = 0; I < kReads; ++I)
    Vm.readWord(A, Surv, (I % kSurvElems) * 8);
  ObjectRef Fresh = Vm.allocateArray(B, LongArr, kFreshElems);
  ASSERT_LT(Fresh, Junk + kJunkElems * 8) << "must overlap junk's interval";
  Prof.stop();

  MergedProfile M = Prof.analyze();
  EXPECT_EQ(Prof.samplesHandled(), ZeroFill + kReads);
  EXPECT_EQ(M.UnattributedSamples, ZeroFill);
  const MergedGroup *GJunk = groupWithBytes(M, kJunkElems * 8);
  const MergedGroup *GSurv = groupWithBytes(M, kSurvElems * 8);
  ASSERT_TRUE(GJunk && GSurv);
  EXPECT_EQ(GJunk->AddressSamples, kReads);
  EXPECT_EQ(GSurv->AddressSamples, 0u);
  Vm.endThread(B);
  Vm.endThread(A);
}

// Evicting inserts retire a snapshot epoch each. With both GC
// interpositions off, every collection must still reclaim them: after a
// GC the index holds only each shard's published snapshot.
TEST(DjxPerf, GcReclaimsSnapshotsWithoutGcInterpositions) {
  JavaVm Vm;
  DjxPerfConfig Cfg;
  Cfg.MinObjectSize = 64;
  Cfg.HandleGcMoves = Cfg.HandleGcFrees = false;
  DjxPerf Prof(Vm, Cfg);
  Prof.start();
  JavaThread &T = Vm.startThread("churn", 0);
  RootScope Roots(Vm);
  ObjectRef &Keep = Roots.add();
  for (int Gc = 0; Gc < 40; ++Gc) {
    // Garbage ahead of a survivor: the survivor slides down and the next
    // round's allocations land on stale intervals, evicting them.
    for (int I = 0; I < 8; ++I)
      Vm.allocateArray(T, Vm.types().longArray(), 32 + Gc % 3);
    Keep = Vm.allocateArray(T, Vm.types().longArray(), 16);
    Vm.requestGc();
    EXPECT_LE(Prof.index().retainedSnapshotBuffers(),
              Prof.index().numShards())
        << "after GC " << Gc;
  }
  Prof.stop();
  Vm.endThread(T);
}

TEST(DjxPerf, MemoryFootprintGrowsWithTrackedObjects) {
  JavaVm Vm;
  DjxPerfConfig Cfg;
  Cfg.MinObjectSize = 64;
  DjxPerf Prof(Vm, Cfg);
  Prof.start();
  JavaThread &T = Vm.startThread("main", 0);
  size_t Before = Prof.memoryFootprint();
  RootScope Roots(Vm);
  for (int I = 0; I < 100; ++I)
    Roots.add(Vm.allocateArray(T, Vm.types().longArray(), 16));
  EXPECT_GT(Prof.memoryFootprint(), Before);
}

} // namespace
