//===- pmu_test.cpp - Unit tests for src/pmu ---------------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "pmu/Pmu.h"

#include "core/DjxPerf.h"
#include "core/Report.h"
#include "jvm/JavaVm.h"
#include "pmu/SampleRing.h"

#include <gtest/gtest.h>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(pmu_test, 83.0, 60.0,
    "src/pmu/PerfEvent.h",
    "src/pmu/Pmu.cpp",
    "src/pmu/Pmu.h",
    "src/pmu/SampleRing.h");

AccessResult l1MissResult() {
  AccessResult R;
  R.L1Miss = true;
  R.LatencyCycles = 12;
  R.HomeNode = 0;
  return R;
}

AccessResult hitResult() {
  AccessResult R;
  R.LatencyCycles = 4;
  return R;
}

TEST(Pmu, DisabledCountsNothing) {
  PmuContext P(1);
  int Fd = P.openEvent(PerfEventAttr{PerfEventKind::L1Miss, 10, 64});
  P.observeAccess(0, 0x100, l1MissResult());
  EXPECT_EQ(P.eventCount(Fd), 0u);
}

TEST(Pmu, CountsMatchingEventsOnly) {
  PmuContext P(1);
  int Fd = P.openEvent(PerfEventAttr{PerfEventKind::L1Miss, 1000, 64});
  P.enable();
  P.observeAccess(0, 0x100, l1MissResult());
  P.observeAccess(0, 0x140, hitResult());
  P.observeAccess(0, 0x180, l1MissResult());
  EXPECT_EQ(P.eventCount(Fd), 2u);
}

TEST(Pmu, OverflowDeliversPreciseSample) {
  PmuContext P(7);
  P.openEvent(PerfEventAttr{PerfEventKind::L1Miss, 3, 64});
  std::vector<PerfSample> Samples;
  P.setSampleHandler([&](const PerfSample &S) { Samples.push_back(S); });
  P.enable();
  for (int I = 0; I < 7; ++I)
    P.observeAccess(2, 0x1000 + static_cast<uint64_t>(I) * 64,
                    l1MissResult());
  // Period 3: samples at occurrences 3 and 6.
  ASSERT_EQ(Samples.size(), 2u);
  EXPECT_EQ(Samples[0].EffectiveAddress, 0x1000u + 2 * 64);
  EXPECT_EQ(Samples[1].EffectiveAddress, 0x1000u + 5 * 64);
  EXPECT_EQ(Samples[0].Cpu, 2u);
  EXPECT_EQ(Samples[0].ThreadId, 7u);
  EXPECT_EQ(Samples[0].Kind, PerfEventKind::L1Miss);
  EXPECT_EQ(Samples[0].LatencyCycles, 12u);
}

TEST(Pmu, MemAccessEventCountsEverything) {
  PmuContext P(1);
  int Fd = P.openEvent(PerfEventAttr{PerfEventKind::MemAccess, 1000, 64});
  P.enable();
  P.observeAccess(0, 0, hitResult());
  P.observeAccess(0, 0, l1MissResult());
  EXPECT_EQ(P.eventCount(Fd), 2u);
}

TEST(Pmu, LoadLatencyThreshold) {
  PmuContext P(1);
  int Fd = P.openEvent(PerfEventAttr{PerfEventKind::LoadLatency, 1000, 100});
  P.enable();
  AccessResult Slow;
  Slow.LatencyCycles = 250;
  AccessResult Fast;
  Fast.LatencyCycles = 40;
  P.observeAccess(0, 0, Slow);
  P.observeAccess(0, 0, Fast);
  EXPECT_EQ(P.eventCount(Fd), 1u);
}

TEST(Pmu, RemoteAccessEvent) {
  PmuContext P(1);
  int Fd = P.openEvent(PerfEventAttr{PerfEventKind::RemoteAccess, 1, 64});
  std::vector<PerfSample> Samples;
  P.setSampleHandler([&](const PerfSample &S) { Samples.push_back(S); });
  P.enable();
  AccessResult Remote;
  Remote.L1Miss = Remote.L2Miss = Remote.L3Miss = true;
  Remote.RemoteAccess = true;
  Remote.HomeNode = 1;
  P.observeAccess(0, 0x42, Remote);
  EXPECT_EQ(P.eventCount(Fd), 1u);
  ASSERT_EQ(Samples.size(), 1u);
  EXPECT_TRUE(Samples[0].RemoteAccess);
  EXPECT_EQ(Samples[0].HomeNode, 1);
}

TEST(Pmu, TlbAndLevelEvents) {
  PmuContext P(1);
  int L2 = P.openEvent(PerfEventAttr{PerfEventKind::L2Miss, 1000, 64});
  int L3 = P.openEvent(PerfEventAttr{PerfEventKind::L3Miss, 1000, 64});
  int Tlb = P.openEvent(PerfEventAttr{PerfEventKind::TlbMiss, 1000, 64});
  P.enable();
  AccessResult R;
  R.L1Miss = R.L2Miss = true;
  R.TlbMiss = true;
  P.observeAccess(0, 0, R);
  EXPECT_EQ(P.eventCount(L2), 1u);
  EXPECT_EQ(P.eventCount(L3), 0u);
  EXPECT_EQ(P.eventCount(Tlb), 1u);
}

TEST(Pmu, MultipleEventsSampleIndependently) {
  PmuContext P(1);
  P.openEvent(PerfEventAttr{PerfEventKind::MemAccess, 2, 64});
  P.openEvent(PerfEventAttr{PerfEventKind::L1Miss, 1, 64});
  int Delivered = 0;
  P.setSampleHandler([&](const PerfSample &) { ++Delivered; });
  P.enable();
  P.observeAccess(0, 0, l1MissResult()); // L1 fires; MemAccess at 1/2.
  P.observeAccess(0, 0, hitResult());    // MemAccess fires.
  EXPECT_EQ(Delivered, 2);
  EXPECT_EQ(P.samplesDelivered(), 2u);
}

TEST(Pmu, DisableStopsSampling) {
  PmuContext P(1);
  P.openEvent(PerfEventAttr{PerfEventKind::MemAccess, 1, 64});
  int Delivered = 0;
  P.setSampleHandler([&](const PerfSample &) { ++Delivered; });
  P.enable();
  P.observeAccess(0, 0, hitResult());
  P.disable();
  P.observeAccess(0, 0, hitResult());
  EXPECT_EQ(Delivered, 1);
}

TEST(Pmu, PeriodRestartsAfterSample) {
  PmuContext P(1);
  P.openEvent(PerfEventAttr{PerfEventKind::MemAccess, 4, 64});
  int Delivered = 0;
  P.setSampleHandler([&](const PerfSample &) { ++Delivered; });
  P.enable();
  for (int I = 0; I < 12; ++I)
    P.observeAccess(0, 0, hitResult());
  EXPECT_EQ(Delivered, 3);
}

TEST(Pmu, EventNamesMatchIntelMnemonics) {
  EXPECT_EQ(perfEventName(PerfEventKind::L1Miss),
            "MEM_LOAD_UOPS_RETIRED:L1_MISS");
  EXPECT_EQ(perfEventName(PerfEventKind::TlbMiss), "DTLB_LOAD_MISSES");
  EXPECT_EQ(perfEventName(PerfEventKind::LoadLatency),
            "MEM_TRANS_RETIRED:LOAD_LATENCY");
}

/// Sampling-rate property: delivered samples == floor(events / period).
class PmuPeriodTest : public ::testing::TestWithParam<int> {};

TEST_P(PmuPeriodTest, SampleCountMatchesPeriod) {
  uint64_t Period = GetParam();
  PmuContext P(1);
  P.openEvent(PerfEventAttr{PerfEventKind::MemAccess, Period, 64});
  uint64_t Delivered = 0;
  P.setSampleHandler([&](const PerfSample &) { ++Delivered; });
  P.enable();
  constexpr uint64_t kEvents = 1000;
  for (uint64_t I = 0; I < kEvents; ++I)
    P.observeAccess(0, I, hitResult());
  EXPECT_EQ(Delivered, kEvents / Period);
}

INSTANTIATE_TEST_SUITE_P(Sweep, PmuPeriodTest,
                         ::testing::Values(1, 2, 7, 32, 100, 999, 1001));

// --- SampleRing edges -------------------------------------------------------

TEST(SampleRing, PushReportsFullExactlyAtCapacity) {
  SampleRing Ring;
  BufferedSample S;
  for (size_t I = 0; I + 1 < SampleRing::kCapacity; ++I)
    ASSERT_FALSE(Ring.push(S)) << "premature full at " << I;
  EXPECT_TRUE(Ring.push(S)); // The kCapacity-th push demands a drain.
  EXPECT_EQ(Ring.size(), SampleRing::kCapacity);
  // Past capacity the ring keeps accepting (the owner drains on the
  // returned signal, not by having appends rejected) and keeps asking.
  EXPECT_TRUE(Ring.push(S));
  Ring.clear();
  EXPECT_TRUE(Ring.empty());
  EXPECT_FALSE(Ring.push(S)); // Fresh window after the drain.
}

/// A workload sized so the ring fills several times between GCs: period-1
/// MemAccess sampling turns every simulated access into a buffered
/// sample, so 5x capacity reads force capacity-triggered self-drains with
/// no safepoint in sight. Every sample must keep its sample-time answer:
/// the array's zero-fill stores (issued before its index insert) are
/// unattributed, and every read lands on the array.
TEST(SampleRingEdge, CapacitySelfDrainMatchesSampleTimeResolution) {
  JavaVm Vm;
  DjxPerfConfig Cfg;
  Cfg.Events = {PerfEventAttr{PerfEventKind::MemAccess, 1, 64}};
  Cfg.MinObjectSize = 64;
  DjxPerf Prof(Vm, Cfg);
  Prof.start();
  JavaThread &T = Vm.startThread("ringfull", 0);
  RootScope Roots(Vm);
  ObjectRef &Hot =
      Roots.add(Vm.allocateArray(T, Vm.types().longArray(), 128));
  constexpr uint64_t kReads = 5 * SampleRing::kCapacity;
  for (uint64_t I = 0; I < kReads; ++I)
    Vm.readWord(T, Hot, (I % 128) * 8);
  Prof.stop();
  uint64_t Line = Vm.machine().config().L1.LineBytes;
  uint64_t ZeroFill = (Hot + 128 * 8 - 1) / Line - Hot / Line + 1;
  // Allocation commit drains the zero-fill samples; the reads then fill
  // the ring exactly five times.
  EXPECT_EQ(Prof.samplesHandled(), ZeroFill + kReads);
  EXPECT_EQ(Prof.ringOverflowDrains(), 5u);
  MergedProfile M = Prof.analyze();
  EXPECT_EQ(M.UnattributedSamples, ZeroFill);
  ASSERT_EQ(M.Groups.size(), 1u);
  EXPECT_EQ(M.Groups.begin()->second.AddressSamples, kReads);
  Vm.endThread(T);
}

/// stop() drains every ring; a thread whose ring is empty (monitored but
/// never sampled) must contribute nothing and break nothing.
TEST(SampleRingEdge, StopWithEmptyRingsIsCleanAndEmpty) {
  JavaVm Vm;
  DjxPerf Prof(Vm);
  Prof.start();
  JavaThread &T = Vm.startThread("idle", 0);
  Prof.stop(); // No accesses at all: every ring drains empty.
  EXPECT_EQ(Prof.samplesHandled(), 0u);
  MergedProfile M = Prof.analyze();
  EXPECT_TRUE(M.Groups.empty());
  EXPECT_EQ(M.UnattributedSamples, 0u);
  Vm.endThread(T);
}

} // namespace
