//===- property_test.cpp - Randomised invariant checks -----------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Property-based suites over the profiler's load-bearing invariants:
/// cache LRU behaviour vs a reference model, CCT path round-trips,
/// profile serialisation round-trips on random profiles, full-profiler
/// attribution conservation (every sample is attributed or counted
/// unattributed, never lost or duplicated), and merge commutativity.
///
//===----------------------------------------------------------------------===//

#include "core/DjxPerf.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <list>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(property_test, 0.0, 0.0);

// --- Cache vs reference LRU model ---------------------------------------------

class CacheModelTest : public ::testing::TestWithParam<int> {};

TEST_P(CacheModelTest, MatchesReferenceLru) {
  // Fully-associative config so a simple LRU list is an exact model.
  CacheConfig Cfg{4096, 64, 64}; // One set, 64 ways.
  Cache C(Cfg);
  std::list<uint64_t> Model; // Front = MRU, lines.
  Random Rng(GetParam());
  for (int I = 0; I < 20000; ++I) {
    uint64_t Line = Rng.nextBelow(256);
    bool Hit = C.access(Line * 64);
    auto It = std::find(Model.begin(), Model.end(), Line);
    bool ModelHit = It != Model.end();
    ASSERT_EQ(Hit, ModelHit) << "op " << I << " line " << Line;
    if (ModelHit)
      Model.erase(It);
    Model.push_front(Line);
    if (Model.size() > 64)
      Model.pop_back();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheModelTest, ::testing::Values(1, 2, 7));

// --- CCT round-trips ------------------------------------------------------------

class CctRoundTripTest : public ::testing::TestWithParam<int> {};

TEST_P(CctRoundTripTest, RandomPathsRoundTripAndShare) {
  Random Rng(GetParam());
  Cct Tree;
  std::vector<std::vector<StackFrame>> Paths;
  std::vector<CctNodeId> Leaves;
  for (int I = 0; I < 300; ++I) {
    std::vector<StackFrame> P;
    size_t Depth = 1 + Rng.nextBelow(8);
    for (size_t D = 0; D < Depth; ++D)
      P.push_back(StackFrame{static_cast<MethodId>(Rng.nextBelow(12)),
                             static_cast<uint32_t>(Rng.nextBelow(6))});
    Leaves.push_back(Tree.insertPath(P));
    Paths.push_back(std::move(P));
  }
  // Round-trip every path.
  for (size_t I = 0; I < Paths.size(); ++I) {
    std::vector<StackFrame> Back = Tree.path(Leaves[I]);
    ASSERT_EQ(Back.size(), Paths[I].size());
    for (size_t D = 0; D < Back.size(); ++D) {
      EXPECT_EQ(Back[D].Method, Paths[I][D].Method);
      EXPECT_EQ(Back[D].Bci, Paths[I][D].Bci);
    }
    // Determinism: re-inserting returns the same leaf.
    EXPECT_EQ(Tree.insertPath(Paths[I]), Leaves[I]);
  }
  // Compactness: node count is bounded by total frames + root and, with
  // only 12x6 possible labels, far below it (prefix sharing).
  size_t TotalFrames = 0;
  for (const auto &P : Paths)
    TotalFrames += P.size();
  EXPECT_LE(Tree.size(), TotalFrames + 1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CctRoundTripTest,
                         ::testing::Values(3, 17, 99));

// --- Profile serialisation fuzz ---------------------------------------------------

class ProfileFuzzTest : public ::testing::TestWithParam<int> {};

/// One random record* call on \p P over the nodes in \p Nodes.
void randomRecord(Random &Rng, ThreadProfile &P,
                  const std::vector<CctNodeId> &Nodes) {
  CctNodeId N = Nodes[Rng.nextBelow(Nodes.size())];
  switch (Rng.nextBelow(4)) {
  case 0:
    P.recordAllocation(N, "T" + std::to_string(Rng.nextBelow(5)),
                       8 << Rng.nextBelow(10));
    break;
  case 1:
    P.recordObjectSample(
        AllocKey{Rng.nextBelow(3), Nodes[Rng.nextBelow(Nodes.size())]}, "T",
        static_cast<PerfEventKind>(Rng.nextBelow(7)), N, Rng.nextBool(0.3),
        static_cast<NumaNodeId>(Rng.nextBelow(3)) - 1,
        static_cast<NumaNodeId>(Rng.nextBelow(3)) - 1);
    break;
  case 2:
    P.recordCodeSample(N, static_cast<PerfEventKind>(Rng.nextBelow(7)));
    break;
  default:
    P.recordUnattributed(static_cast<PerfEventKind>(Rng.nextBelow(7)));
  }
}

std::string encoded(const ThreadProfile &P,
                    const ProfileMark &Since = ProfileMark()) {
  std::string Out;
  P.encode(Out, Since);
  return Out;
}

TEST_P(ProfileFuzzTest, RandomProfileSerialisationRoundTrips) {
  Random Rng(GetParam());
  ThreadProfile P(1 + Rng.nextBelow(100), "t" + std::to_string(GetParam()));
  std::vector<CctNodeId> Nodes{kCctRoot};
  for (int I = 0; I < 40; ++I)
    Nodes.push_back(P.cct().child(
        Nodes[Rng.nextBelow(Nodes.size())],
        static_cast<MethodId>(Rng.nextBelow(10)),
        static_cast<uint32_t>(Rng.nextBelow(20))));
  for (int I = 0; I < 200; ++I)
    randomRecord(Rng, P, Nodes);
  std::string S1 = encoded(P);
  ThreadProfile Q(P.threadId(), "");
  ASSERT_TRUE(Q.apply(S1));
  EXPECT_EQ(encoded(Q), encoded(P)) << "enc(dec(enc(p))) == enc(p)";
  EXPECT_EQ(encoded(Q), S1);
  EXPECT_EQ(Q.groups().size(), P.groups().size());
  EXPECT_EQ(Q.unattributedSamples(), P.unattributedSamples());
  for (size_t K = 0; K < kNumPerfEventKinds; ++K)
    EXPECT_EQ(Q.totals().Counts[K], P.totals().Counts[K]);
}

TEST_P(ProfileFuzzTest, RandomDeltaStreamRebuildsTheProfile) {
  // The journal's use: deltas since the previous mark, at random
  // epochs, applied in order to a replica, reproduce the profile's full
  // encoding at every epoch.
  Random Rng(GetParam() * 7 + 1);
  ThreadProfile P(5, "delta" + std::to_string(GetParam()));
  ThreadProfile Replica(5, "");
  ProfileMark Mark;
  std::vector<CctNodeId> Nodes{kCctRoot};
  for (int Epoch = 0; Epoch < 30; ++Epoch) {
    for (int I = 0, E = static_cast<int>(Rng.nextBelow(40)); I < E; ++I) {
      if (Rng.nextBool(0.1))
        Nodes.push_back(P.cct().child(
            Nodes[Rng.nextBelow(Nodes.size())],
            static_cast<MethodId>(Rng.nextBelow(10)),
            static_cast<uint32_t>(Rng.nextBelow(20))));
      randomRecord(Rng, P, Nodes);
    }
    std::string Delta = encoded(P, Mark);
    Mark = P.mark();
    ASSERT_TRUE(Replica.apply(Delta)) << "epoch " << Epoch;
    ASSERT_EQ(encoded(Replica), encoded(P)) << "epoch " << Epoch;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProfileFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// --- Attribution conservation -------------------------------------------------------

class ConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(ConservationTest, EverySampleAttributedOrUnattributedExactlyOnce) {
  // Random workload under the full profiler: attributed + unattributed
  // must equal the samples delivered, before and after merging.
  VmConfig Cfg;
  Cfg.HeapBytes = 512 * 1024;
  JavaVm Vm(Cfg);
  DjxPerfConfig Agent;
  Agent.Events = {PerfEventAttr{PerfEventKind::MemAccess, 7, 64}};
  Agent.MinObjectSize = 64;
  DjxPerf Prof(Vm, Agent);
  Prof.start();

  Random Rng(GetParam());
  JavaThread &T = Vm.startThread("main", 0);
  MethodId M = Vm.methods().registerMethod("Fuzz", "run", {{0, 1}});
  FrameScope F(T, M, 0);
  RootScope Roots(Vm);
  std::vector<ObjectRef *> Live;
  for (int I = 0; I < 16; ++I)
    Live.push_back(&Roots.add());
  for (int Op = 0; Op < 4000; ++Op) {
    uint64_t R = Rng.nextBelow(100);
    ObjectRef &Slot = *Live[Rng.nextBelow(Live.size())];
    if (R < 25) {
      F.setBci(static_cast<uint32_t>(Rng.nextBelow(8)));
      Slot = Vm.allocateArray(T, Vm.types().longArray(),
                              8 << Rng.nextBelow(6));
    } else if (R < 30) {
      Slot = kNullRef;
    } else if (R < 32) {
      Vm.requestGc();
    } else if (Slot != kNullRef) {
      const ObjectInfo &Info = Vm.heap().info(Slot);
      uint64_t Off = (Rng.nextBelow(Info.Size / 8)) * 8;
      if (Rng.nextBool(0.5))
        Vm.readWord(T, Slot, Off);
      else
        Vm.writeWord(T, Slot, Off, R);
    }
  }
  Prof.stop();

  MergedProfile Merged = Prof.analyze();
  uint64_t Attributed = 0;
  for (const auto &[Node, G] : Merged.Groups) {
    (void)Node;
    Attributed += G.Metrics.get(PerfEventKind::MemAccess);
  }
  EXPECT_EQ(Attributed + Merged.UnattributedSamples,
            Prof.samplesHandled());
  EXPECT_EQ(Merged.Totals.get(PerfEventKind::MemAccess),
            Prof.samplesHandled());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConservationTest,
                         ::testing::Values(5, 6, 7, 8));

// --- Merge properties -----------------------------------------------------------------

TEST(MergeProperties, OrderIndependent) {
  auto Make = [](uint64_t Tid, MethodId M) {
    ThreadProfile P(Tid, "t" + std::to_string(Tid));
    CctNodeId N = P.cct().insertPath({{M, 0}});
    P.recordAllocation(N, "X", 128);
    P.recordObjectSample(AllocKey{Tid, N}, "X", PerfEventKind::L1Miss, N,
                         false);
    return P;
  };
  ThreadProfile A = Make(1, 7), B = Make(2, 7), C = Make(3, 9);
  MergedProfile M1 = mergeProfiles({&A, &B, &C});
  MergedProfile M2 = mergeProfiles({&C, &B, &A});
  EXPECT_EQ(M1.Groups.size(), M2.Groups.size());
  EXPECT_EQ(M1.Totals.get(PerfEventKind::L1Miss),
            M2.Totals.get(PerfEventKind::L1Miss));
  // Same multiset of (path, metrics) regardless of order.
  auto Summarise = [](const MergedProfile &M) {
    std::vector<std::pair<size_t, uint64_t>> Out;
    for (const auto &[Node, G] : M.Groups)
      Out.emplace_back(M.Tree.path(Node).size(),
                       G.Metrics.get(PerfEventKind::L1Miss));
    std::sort(Out.begin(), Out.end());
    return Out;
  };
  EXPECT_EQ(Summarise(M1), Summarise(M2));
}

TEST(MergeProperties, MergeIsLossless) {
  // Sum of per-thread totals equals merged totals.
  Random Rng(123);
  std::vector<ThreadProfile> Parts;
  for (uint64_t Tid = 1; Tid <= 4; ++Tid) {
    ThreadProfile P(Tid, "t");
    CctNodeId N = P.cct().insertPath(
        {{static_cast<MethodId>(Rng.nextBelow(4)), 0}});
    for (int I = 0; I < 50; ++I)
      P.recordObjectSample(AllocKey{Tid, N}, "X",
                           static_cast<PerfEventKind>(Rng.nextBelow(7)), N,
                           false);
    Parts.push_back(std::move(P));
  }
  MetricCounts Sum;
  std::vector<const ThreadProfile *> Ptrs;
  for (const ThreadProfile &P : Parts) {
    Sum += P.totals();
    Ptrs.push_back(&P);
  }
  MergedProfile M = mergeProfiles(Ptrs);
  for (size_t K = 0; K < kNumPerfEventKinds; ++K)
    EXPECT_EQ(M.Totals.Counts[K], Sum.Counts[K]);
}

} // namespace
