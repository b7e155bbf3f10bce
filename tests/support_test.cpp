//===- support_test.cpp - Unit tests for src/support -----------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/IntervalSplayTree.h"
#include "support/Random.h"
#include "support/SpinLock.h"
#include "support/Statistics.h"
#include "support/TextTable.h"
#include "support/Varint.h"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <thread>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(support_test, 86.0, 66.0,
    "src/support/Bits.h",
    "src/support/IntervalSplayTree.h",
    "src/support/Random.h",
    "src/support/SpinLock.h",
    "src/support/Statistics.cpp",
    "src/support/Statistics.h",
    "src/support/TextTable.cpp",
    "src/support/TextTable.h",
    "src/support/ThreadAnnotations.h",
    "src/support/Varint.h");

// --- IntervalSplayTree ------------------------------------------------------

TEST(IntervalSplayTree, EmptyLookupMisses) {
  IntervalSplayTree<int> T;
  EXPECT_TRUE(T.empty());
  EXPECT_FALSE(T.lookup(0).has_value());
  EXPECT_FALSE(T.lookup(42).has_value());
  EXPECT_EQ(T.size(), 0u);
}

TEST(IntervalSplayTree, SingleIntervalHitBounds) {
  IntervalSplayTree<int> T;
  T.insert(100, 50, 7);
  EXPECT_FALSE(T.lookup(99).has_value());
  ASSERT_TRUE(T.lookup(100).has_value());
  EXPECT_EQ(T.lookup(100)->Value, 7);
  EXPECT_EQ(T.lookup(149)->Value, 7);
  EXPECT_FALSE(T.lookup(150).has_value());
}

TEST(IntervalSplayTree, InteriorPointResolvesToEnclosing) {
  IntervalSplayTree<int> T;
  T.insert(0x1000, 0x100, 1);
  T.insert(0x2000, 0x100, 2);
  auto E = T.lookup(0x2080);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Start, 0x2000u);
  EXPECT_EQ(E->Value, 2);
}

TEST(IntervalSplayTree, GapBetweenIntervalsMisses) {
  IntervalSplayTree<int> T;
  T.insert(0, 10, 1);
  T.insert(100, 10, 2);
  EXPECT_FALSE(T.lookup(50).has_value());
  EXPECT_FALSE(T.lookup(10).has_value());
  EXPECT_FALSE(T.lookup(99).has_value());
}

TEST(IntervalSplayTree, RemoveAt) {
  IntervalSplayTree<int> T;
  T.insert(10, 10, 1);
  T.insert(30, 10, 2);
  EXPECT_TRUE(T.removeAt(10));
  EXPECT_FALSE(T.lookup(15).has_value());
  EXPECT_TRUE(T.lookup(35).has_value());
  EXPECT_FALSE(T.removeAt(10));
  EXPECT_FALSE(T.removeAt(35)); // Not a start address.
  EXPECT_EQ(T.size(), 1u);
}

TEST(IntervalSplayTree, RemoveContaining) {
  IntervalSplayTree<int> T;
  T.insert(10, 10, 1);
  auto E = T.removeContaining(15);
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->Value, 1);
  EXPECT_TRUE(T.empty());
  EXPECT_FALSE(T.removeContaining(15).has_value());
}

TEST(IntervalSplayTree, InsertEvictsOverlappingStaleIntervals) {
  IntervalSplayTree<int> T;
  T.insert(0, 64, 1);
  T.insert(64, 64, 2);
  T.insert(128, 64, 3);
  // A new allocation spanning the last two.
  unsigned Evicted = T.insert(70, 60, 9);
  EXPECT_EQ(Evicted, 2u);
  EXPECT_EQ(T.lookup(75)->Value, 9);
  EXPECT_EQ(T.lookup(129)->Value, 9);
  EXPECT_EQ(T.lookup(20)->Value, 1);
  EXPECT_FALSE(T.lookup(140).has_value());
  EXPECT_TRUE(T.checkInvariants());
}

TEST(IntervalSplayTree, InsertExactReplacement) {
  IntervalSplayTree<int> T;
  T.insert(100, 32, 1);
  unsigned Evicted = T.insert(100, 32, 2);
  EXPECT_EQ(Evicted, 1u);
  EXPECT_EQ(T.lookup(100)->Value, 2);
  EXPECT_EQ(T.size(), 1u);
}

TEST(IntervalSplayTree, RelocateMovesValue) {
  IntervalSplayTree<int> T;
  T.insert(100, 64, 5);
  EXPECT_TRUE(T.relocate(100, 500, 64));
  EXPECT_FALSE(T.lookup(100).has_value());
  EXPECT_EQ(T.lookup(530)->Value, 5);
}

TEST(IntervalSplayTree, RelocateCanResize) {
  IntervalSplayTree<int> T;
  T.insert(100, 64, 5);
  EXPECT_TRUE(T.relocate(100, 100, 32));
  EXPECT_TRUE(T.lookup(131).has_value());
  EXPECT_FALSE(T.lookup(132).has_value());
}

TEST(IntervalSplayTree, RelocateMissingReturnsFalse) {
  IntervalSplayTree<int> T;
  T.insert(100, 64, 5);
  EXPECT_FALSE(T.relocate(101, 500, 64));
  EXPECT_EQ(T.size(), 1u);
}

TEST(IntervalSplayTree, RemoveOverlappingRange) {
  IntervalSplayTree<int> T;
  for (uint64_t I = 0; I < 10; ++I)
    T.insert(I * 100, 50, static_cast<int>(I));
  EXPECT_EQ(T.removeOverlapping(149, 351), 3u); // 100, 200, 300.
  EXPECT_EQ(T.size(), 7u);
  EXPECT_FALSE(T.lookup(120).has_value());
  EXPECT_TRUE(T.lookup(20).has_value());
  EXPECT_TRUE(T.lookup(420).has_value());
}

TEST(IntervalSplayTree, EntriesSortedAndInvariantsHold) {
  IntervalSplayTree<int> T;
  uint64_t Starts[] = {500, 100, 900, 300, 700};
  for (uint64_t S : Starts)
    T.insert(S, 50, 1);
  auto Entries = T.entries();
  ASSERT_EQ(Entries.size(), 5u);
  for (size_t I = 1; I < Entries.size(); ++I)
    EXPECT_LT(Entries[I - 1].Start, Entries[I].Start);
  EXPECT_TRUE(T.checkInvariants());
}

TEST(IntervalSplayTree, PeekDoesNotRestructure) {
  IntervalSplayTree<int> T;
  T.insert(0, 10, 1);
  T.insert(100, 10, 2);
  const auto &CT = T;
  EXPECT_EQ(CT.peek(5)->Value, 1);
  EXPECT_EQ(CT.peek(105)->Value, 2);
  EXPECT_FALSE(CT.peek(50).has_value());
}

TEST(IntervalSplayTree, ClearResets) {
  IntervalSplayTree<int> T;
  for (uint64_t I = 0; I < 100; ++I)
    T.insert(I * 64, 64, 0);
  EXPECT_GT(T.memoryFootprint(), 0u);
  T.clear();
  EXPECT_TRUE(T.empty());
  EXPECT_FALSE(T.lookup(0).has_value());
}

TEST(IntervalSplayTree, MoveConstruction) {
  IntervalSplayTree<int> T;
  T.insert(10, 10, 1);
  IntervalSplayTree<int> U(std::move(T));
  EXPECT_EQ(U.lookup(12)->Value, 1);
  EXPECT_EQ(U.size(), 1u);
}

/// Property check against a reference std::map model, across sizes.
class SplayTreeModelTest : public ::testing::TestWithParam<int> {};

TEST_P(SplayTreeModelTest, MatchesReferenceModel) {
  int N = GetParam();
  Random Rng(1234 + N);
  IntervalSplayTree<uint64_t> T;
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> Model; // start->(end,v)

  auto ModelLookup = [&](uint64_t Addr)
      -> std::optional<std::pair<uint64_t, uint64_t>> {
    auto It = Model.upper_bound(Addr);
    if (It == Model.begin())
      return std::nullopt;
    --It;
    if (Addr < It->second.first)
      return std::make_pair(It->first, It->second.second);
    return std::nullopt;
  };
  auto ModelEraseOverlap = [&](uint64_t S, uint64_t E) {
    for (auto It = Model.begin(); It != Model.end();) {
      if (It->first < E && It->second.first > S)
        It = Model.erase(It);
      else
        ++It;
    }
  };

  for (int Op = 0; Op < N; ++Op) {
    uint64_t R = Rng.nextBelow(100);
    uint64_t Addr = Rng.nextBelow(1 << 14);
    if (R < 50) {
      uint64_t Size = 1 + Rng.nextBelow(256);
      ModelEraseOverlap(Addr, Addr + Size);
      Model[Addr] = {Addr + Size, static_cast<uint64_t>(Op)};
      T.insert(Addr, Size, static_cast<uint64_t>(Op));
    } else if (R < 75) {
      auto Want = ModelLookup(Addr);
      auto Got = T.lookup(Addr);
      ASSERT_EQ(Want.has_value(), Got.has_value()) << "addr " << Addr;
      if (Want) {
        EXPECT_EQ(Got->Start, Want->first);
        EXPECT_EQ(Got->Value, Want->second);
      }
    } else if (R < 90) {
      auto Want = ModelLookup(Addr);
      bool Removed = T.removeAt(Addr);
      bool ModelHasStart = Want && Want->first == Addr;
      EXPECT_EQ(Removed, ModelHasStart);
      if (ModelHasStart)
        Model.erase(Addr);
    } else {
      // Relocation of a random existing interval.
      if (!Model.empty()) {
        auto It = Model.begin();
        std::advance(It, Rng.nextBelow(Model.size()));
        uint64_t Old = It->first;
        uint64_t Size = It->second.first - It->first;
        uint64_t Val = It->second.second;
        uint64_t NewStart = Rng.nextBelow(1 << 14);
        Model.erase(It);
        ModelEraseOverlap(NewStart, NewStart + Size);
        Model[NewStart] = {NewStart + Size, Val};
        EXPECT_TRUE(T.relocate(Old, NewStart, Size));
      }
    }
    ASSERT_EQ(T.size(), Model.size());
  }
  EXPECT_TRUE(T.checkInvariants());
}

INSTANTIATE_TEST_SUITE_P(Sweep, SplayTreeModelTest,
                         ::testing::Values(50, 200, 1000, 5000));

// --- SpinLock ---------------------------------------------------------------

TEST(SpinLock, LockUnlockCountsAcquisitions) {
  SpinLock L;
  L.lock();
  L.unlock();
  {
    SpinLockGuard G(L);
  }
  EXPECT_EQ(L.acquisitions(), 2u);
}

TEST(SpinLock, TryLockFailsWhenHeld) {
  SpinLock L;
  L.lock();
  EXPECT_FALSE(L.tryLock());
  L.unlock();
  EXPECT_TRUE(L.tryLock());
  L.unlock();
}

TEST(SpinLock, MutualExclusionUnderRealThreads) {
  SpinLock L;
  uint64_t Counter = 0;
  constexpr int kThreads = 4, kIters = 20000;
  std::vector<std::thread> Threads;
  for (int I = 0; I < kThreads; ++I)
    Threads.emplace_back([&]() {
      for (int K = 0; K < kIters; ++K) {
        SpinLockGuard G(L);
        ++Counter;
      }
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(Counter, static_cast<uint64_t>(kThreads) * kIters);
}

// --- Random ------------------------------------------------------------------

TEST(Random, DeterministicForSeed) {
  Random A(42), B(42), C(43);
  EXPECT_EQ(A.next(), B.next());
  EXPECT_EQ(A.next(), B.next());
  EXPECT_NE(A.next(), C.next());
}

TEST(Random, NextBelowInRange) {
  Random R(7);
  for (int I = 0; I < 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
}

TEST(Random, NextInRangeInclusive) {
  Random R(7);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I < 2000; ++I) {
    uint64_t V = R.nextInRange(3, 5);
    EXPECT_GE(V, 3u);
    EXPECT_LE(V, 5u);
    SawLo |= V == 3;
    SawHi |= V == 5;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(Random, DoubleInUnitInterval) {
  Random R(9);
  for (int I = 0; I < 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Random, BernoulliRoughlyCalibrated) {
  Random R(11);
  int Hits = 0;
  for (int I = 0; I < 10000; ++I)
    Hits += R.nextBool(0.25);
  EXPECT_NEAR(Hits / 10000.0, 0.25, 0.03);
}

// --- Statistics --------------------------------------------------------------

TEST(Statistics, EmptySample) {
  SampleStats S = summarize({});
  EXPECT_EQ(S.Count, 0u);
  EXPECT_DOUBLE_EQ(S.Mean, 0.0);
}

TEST(Statistics, SingleValue) {
  SampleStats S = summarize({5.0});
  EXPECT_DOUBLE_EQ(S.Mean, 5.0);
  EXPECT_DOUBLE_EQ(S.StdDev, 0.0);
  EXPECT_DOUBLE_EQ(S.Ci95, 0.0);
}

TEST(Statistics, MeanStdDevCi) {
  SampleStats S = summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(S.Mean, 5.0);
  EXPECT_NEAR(S.StdDev, 2.138, 0.001);
  EXPECT_NEAR(S.Ci95, 1.96 * 2.138 / std::sqrt(8.0), 0.01);
  EXPECT_DOUBLE_EQ(S.Min, 2.0);
  EXPECT_DOUBLE_EQ(S.Max, 9.0);
}

TEST(Statistics, Geomean) {
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
  EXPECT_NEAR(geomean({1.0, 1.0, 1.0}), 1.0, 1e-12);
}

TEST(Statistics, Median) {
  EXPECT_DOUBLE_EQ(median({}), 0.0);
  EXPECT_DOUBLE_EQ(median({3.0}), 3.0);
  EXPECT_DOUBLE_EQ(median({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

// --- TextTable ----------------------------------------------------------------

TEST(TextTable, RendersAlignedColumns) {
  TextTable T({"name", "value"});
  T.addRow({"a", "1"});
  T.addRow({"long-name", "22"});
  std::string S = T.render();
  // Split into lines and check the second column starts at one offset.
  std::vector<std::string> Lines;
  size_t Pos = 0;
  while (Pos < S.size()) {
    size_t Nl = S.find('\n', Pos);
    Lines.push_back(S.substr(Pos, Nl - Pos));
    Pos = Nl + 1;
  }
  ASSERT_EQ(Lines.size(), 4u); // Header, separator, two rows.
  size_t Col = Lines[0].find("value");
  EXPECT_EQ(Lines[2].find('1'), Col);
  EXPECT_EQ(Lines[3].find("22"), Col);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(TextTable::fmt(1.2345, 2), "1.23");
  EXPECT_EQ(TextTable::fmtPlusMinus(1.5, 0.25, 2), "1.50 +- 0.25");
  EXPECT_EQ(TextTable::fmtPercent(0.215, 1), "21.5%");
}

TEST(TextTable, SeparatorRows) {
  TextTable T({"a"});
  T.addRow({"x"});
  T.addSeparator();
  T.addRow({"y"});
  std::string S = T.render();
  EXPECT_EQ(T.numRows(), 3u);
  EXPECT_NE(S.find("---"), std::string::npos);
}

// --- Varint -----------------------------------------------------------------

TEST(Varint, RoundTripsBoundaryValues) {
  const uint64_t Values[] = {0,           1,          127,
                             128,         16383,      16384,
                             UINT32_MAX,  1ULL << 35, UINT64_MAX - 1,
                             UINT64_MAX};
  std::string Buf;
  for (uint64_t V : Values)
    putVarint(Buf, V);
  putBytes(Buf, "tail");
  VarintReader R(Buf);
  for (uint64_t V : Values) {
    uint64_t Got;
    ASSERT_TRUE(R.u64(Got));
    EXPECT_EQ(Got, V);
  }
  std::string_view S;
  ASSERT_TRUE(R.bytes(S));
  EXPECT_EQ(S, "tail");
  EXPECT_TRUE(R.atEnd());
  // One byte below 128, ten for the widest value.
  std::string One, Ten;
  putVarint(One, 127);
  putVarint(Ten, UINT64_MAX);
  EXPECT_EQ(One.size(), 1u);
  EXPECT_EQ(Ten.size(), kMaxVarintBytes);
}

TEST(Varint, RejectsWhatNoWriterEmits) {
  uint64_t V;
  uint32_t W;
  std::string_view S;
  // Longer than ten bytes.
  EXPECT_FALSE(VarintReader(std::string(10, '\x80') + '\x01').u64(V));
  // A tenth byte with bits past the 64th.
  EXPECT_FALSE(VarintReader(std::string(9, '\xff') + '\x02').u64(V));
  // Truncated: the continuation bit set on the last byte.
  EXPECT_FALSE(VarintReader("\x80\x80").u64(V));
  EXPECT_FALSE(VarintReader("").u64(V));
  // Too wide for a u32 field.
  std::string Wide;
  putVarint(Wide, 1ULL << 32);
  EXPECT_FALSE(VarintReader(Wide).u32(W));
  // A length prefix past the end.
  EXPECT_FALSE(VarintReader("\x05" "abc").bytes(S));
}

} // namespace
