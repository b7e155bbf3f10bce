//===- faultinject_test.cpp - Seeded fault-injection campaigns -------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Robustness tests for the typed-failure path: seeded fault campaigns
/// drive the injector's four sites (heap exhaustion, sample-ring drops,
/// no-op GC, worker stalls) through real parallel workloads and assert
/// the graceful-degradation contract:
///
///  - no crash, hang, or leak for any drawn fault plan (the binary runs
///    under asan and tsan in CI);
///  - whether a run fails — and, for single-site plans, with which
///    VmError kind — agrees across --jobs 1/2/4, because every fault key
///    is a logical coordinate, never a host-side one;
///  - fault-free runs (zero rates, or injector cleared) remain
///    byte-identical to an uninstrumented run;
///  - after any failure the partial profile is still analyzable and the
///    degraded banner names the failure.
///
/// Reproducing a failure: every run prints its base seed as
///   [faultinject] DJX_FAULT_SEED=0x....
/// Export that variable and re-run the binary to replay the identical
/// fault plans. Failures also print the per-case seed.
///
//===----------------------------------------------------------------------===//

#include "core/DjxPerf.h"
#include "core/Report.h"
#include "support/FaultInjector.h"
#include "support/VmError.h"
#include "workloads/Parallel.h"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <vector>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(faultinject_test, 90.0, 62.0,
    "src/support/FaultInjector.cpp",
    "src/support/FaultInjector.h",
    "src/support/VmError.h");

/// Campaigns drawn per property test. With the five-preset rotation this
/// covers every site alone plus a mixed plan, each at 5+ distinct seeds.
constexpr int kCampaigns = 25;

/// splitmix64: derives per-case seeds from the base seed so one printed
/// value reproduces the whole sequence.
uint64_t mixSeed(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// Base seed: DJX_FAULT_SEED when set (replay), fresh entropy otherwise.
/// Printed exactly once per binary run.
uint64_t baseSeed() {
  static uint64_t Seed = [] {
    uint64_t S;
    if (const char *Env = std::getenv("DJX_FAULT_SEED")) {
      S = std::strtoull(Env, nullptr, 0);
    } else {
      std::random_device Rd;
      S = (static_cast<uint64_t>(Rd()) << 32) ^ Rd();
    }
    std::printf("[faultinject] DJX_FAULT_SEED=0x%016" PRIx64
                " (export to reproduce)\n",
                S);
    return S;
  }();
  return Seed;
}

/// Clears the process-global injector on scope exit so a failing
/// assertion cannot leak an armed plan into the next test.
struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::clear(); }
};

/// A small-but-real parallel workload: churn forces safepoint GCs (so
/// the GcCollect and HeapAlloc sites actually matter) and the hot arrays
/// overflow L1 (so samples flow through the rings being dropped).
ParallelConfig campaignWorkload() {
  ParallelConfig Pc;
  Pc.SimThreads = 3;
  Pc.Iters = 60;
  Pc.Nlen = 128;
  Pc.HotElems = 8192;                // 64 KiB: misses L1.
  Pc.HeapBytesPerThread = 256 << 10; // Churn forces safepoint GCs.
  Pc.StallTimeoutMs = 200;           // Stalls convert fast in tests.
  return Pc;
}

/// The five plan presets a campaign rotates through. Rates are tuned so
/// the site fires on some seeds and not others — both outcomes must
/// behave.
FaultPlan campaignPlan(uint64_t CaseSeed, int Preset) {
  FaultPlan Plan;
  Plan.Seed = CaseSeed;
  switch (Preset) {
  case 0: // Heap exhaustion; fired injections escalate to OutOfMemory.
    Plan.Rate[static_cast<int>(FaultSite::HeapAlloc)] = 2e-4;
    break;
  case 1: // Ring drops only: degrades the profile, never fails the run.
    Plan.Rate[static_cast<int>(FaultSite::RingPush)] = 0.3;
    break;
  case 2: // No-op collections; may starve the heap into OutOfMemory.
    Plan.Rate[static_cast<int>(FaultSite::GcCollect)] = 0.5;
    break;
  case 3: // Worker stalls; the watchdog converts any hit to WorkerStall.
    Plan.Rate[static_cast<int>(FaultSite::QuantumClaim)] = 2e-3;
    break;
  default: // Mixed plan: everything at once.
    Plan.Rate[static_cast<int>(FaultSite::HeapAlloc)] = 1e-4;
    Plan.Rate[static_cast<int>(FaultSite::RingPush)] = 0.1;
    Plan.Rate[static_cast<int>(FaultSite::GcCollect)] = 0.2;
    break;
  }
  return Plan;
}

/// True when the preset arms exactly one site, in which case the failure
/// kind (not just the failure verdict) must agree across Jobs values.
bool singleSite(int Preset) { return Preset < 4; }

/// Everything observable from one campaign run.
struct Outcome {
  bool Failed = false;
  VmErrorKind Kind = VmErrorKind::Internal;
  std::string Banner;       ///< Degraded banner (failed runs only).
  std::string ObjectReport; ///< Always renderable, even after failure.
  uint64_t Samples = 0;
  uint64_t Drops = 0;
  uint64_t Steps = 0;
  uint64_t Safepoints = 0;
  uint64_t TotalCycles = 0;
};

/// Runs the campaign workload under \p Plan with \p Jobs host workers.
/// The injector is armed for exactly the duration of the run.
Outcome runCampaign(const FaultPlan &Plan, unsigned Jobs) {
  ParallelConfig Pc = campaignWorkload();
  Pc.Jobs = Jobs;
  JavaVm Vm(parallelVmConfig(Pc));
  DjxPerf Prof(Vm, parallelAgentConfig(Pc));
  Prof.start();
  FaultInjector::install(Plan);
  Outcome O;
  try {
    ParallelOutcome Run = runParallelWorkload(Vm, &Prof, Pc);
    O.Steps = Run.Steps;
    O.Safepoints = Run.Safepoints;
  } catch (const VmError &E) {
    O.Failed = true;
    O.Kind = E.Kind;
    O.Banner = renderDegradedBanner(E, Prof.samplesHandled(),
                                    Prof.samplesDropped());
  }
  FaultInjector::clear();
  Prof.stop();
  MergedProfile P = Prof.analyze();
  O.ObjectReport = renderObjectCentric(P, Vm.methods());
  O.Samples = Prof.samplesHandled();
  O.Drops = Prof.samplesDropped();
  O.TotalCycles = Vm.totalCycles();
  return O;
}

std::string caseLabel(int Case, uint64_t CaseSeed) {
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf),
                "case %d seed 0x%016" PRIx64
                " (set DJX_FAULT_SEED to the printed base seed)",
                Case, CaseSeed);
  return Buf;
}

// --- Exit-code and kind-name contract --------------------------------------

TEST(VmErrorContract, ExitCodesAreDocumented) {
  EXPECT_EQ(vmErrorExitCode(VmErrorKind::OutOfMemory), 3);
  EXPECT_EQ(vmErrorExitCode(VmErrorKind::StepLimit), 4);
  EXPECT_EQ(vmErrorExitCode(VmErrorKind::InvalidBytecode), 5);
  EXPECT_EQ(vmErrorExitCode(VmErrorKind::WorkerStall), 6);
  EXPECT_EQ(vmErrorExitCode(VmErrorKind::JournalCorrupt), 7);
  // Shell convention 128 + SIGINT for signal-interrupted runs.
  EXPECT_EQ(vmErrorExitCode(VmErrorKind::Interrupted), 130);
  EXPECT_EQ(vmErrorExitCode(VmErrorKind::Internal), 1);
}

TEST(VmErrorContract, JournalKindsHaveNames) {
  EXPECT_STREQ(vmErrorKindName(VmErrorKind::JournalCorrupt),
               "JournalCorrupt");
  EXPECT_STREQ(vmErrorKindName(VmErrorKind::Interrupted), "Interrupted");
}

// The journal I/O sites are full citizens of the injector: named,
// counted, and drawn from the same stateless splitmix keys — so a
// journal fault plan is as replayable and --jobs-invariant as the
// original four sites.
TEST(FaultSiteContract, JournalSitesAreRegistered) {
  ASSERT_EQ(kNumFaultSites, 7u);
  EXPECT_STREQ(faultSiteName(FaultSite::JournalShortWrite),
               "journal-short-write");
  EXPECT_STREQ(faultSiteName(FaultSite::JournalWriteError),
               "journal-write-error");
  EXPECT_STREQ(faultSiteName(FaultSite::JournalCorruptByte),
               "journal-corrupt-byte");
}

TEST(FaultSiteContract, JournalDrawsAreStatelessAndSeedDeterministic) {
  InjectorGuard Guard;
  FaultPlan Plan;
  Plan.Seed = 0xfeedULL;
  Plan.rate(FaultSite::JournalShortWrite) = 0.5;
  Plan.rate(FaultSite::JournalCorruptByte) = 0.5;
  FaultInjector::install(Plan);
  // Record a draw sequence, interleave other draws, re-draw: stateless
  // hashing means the answers depend only on (seed, site, keys).
  std::vector<bool> First;
  for (uint64_t K = 0; K < 64; ++K)
    First.push_back(FaultInjector::shouldFail(FaultSite::JournalShortWrite,
                                              K));
  for (uint64_t K = 0; K < 16; ++K)
    FaultInjector::shouldFail(FaultSite::JournalCorruptByte, K);
  for (uint64_t K = 0; K < 64; ++K)
    EXPECT_EQ(FaultInjector::shouldFail(FaultSite::JournalShortWrite, K),
              First[K])
        << K;
  // A disarmed site never fires regardless of the armed ones.
  for (uint64_t K = 0; K < 64; ++K)
    EXPECT_FALSE(FaultInjector::shouldFail(FaultSite::JournalWriteError, K));
}

TEST(VmErrorContract, KindNamesAreStable) {
  EXPECT_STREQ(vmErrorKindName(VmErrorKind::OutOfMemory), "OutOfMemory");
  EXPECT_STREQ(vmErrorKindName(VmErrorKind::StepLimit), "StepLimit");
  EXPECT_STREQ(vmErrorKindName(VmErrorKind::InvalidBytecode),
               "InvalidBytecode");
  EXPECT_STREQ(vmErrorKindName(VmErrorKind::WorkerStall), "WorkerStall");
  EXPECT_STREQ(vmErrorKindName(VmErrorKind::Internal), "Internal");
}

TEST(VmErrorContract, DescribeCarriesMetadata) {
  VmError E(VmErrorKind::OutOfMemory, "shard full");
  E.ThreadId = 7;
  E.Steps = 1234;
  E.Shard = 2;
  std::string D = E.describe();
  EXPECT_NE(D.find("OutOfMemory"), std::string::npos);
  EXPECT_NE(D.find("shard full"), std::string::npos);
  EXPECT_NE(D.find("thread 7"), std::string::npos);
  EXPECT_NE(D.find("steps 1234"), std::string::npos);
  EXPECT_NE(D.find("shard 2"), std::string::npos);
  EXPECT_STREQ(E.what(), "shard full");
  // Metadata the throw site didn't know stays out of the rendering.
  VmError Bare(VmErrorKind::Internal, "oops");
  std::string B = Bare.describe();
  EXPECT_EQ(B, "Internal: oops");
  EXPECT_EQ(B.find("thread"), std::string::npos);
}

// --- Injector unit behavior -------------------------------------------------

TEST(FaultInjector, DisabledByDefaultAndWhenAllRatesZero) {
  InjectorGuard G;
  EXPECT_FALSE(FaultInjector::enabled());
  EXPECT_FALSE(FaultInjector::shouldFail(FaultSite::HeapAlloc, 0, 0));
  FaultPlan Zero;
  Zero.Seed = 42;
  FaultInjector::install(Zero);
  EXPECT_FALSE(FaultInjector::enabled());
  EXPECT_FALSE(FaultInjector::shouldFail(FaultSite::RingPush, 1, 2));
  EXPECT_EQ(FaultInjector::firedCount(FaultSite::RingPush), 0u);
}

TEST(FaultInjector, DrawsAreDeterministicInTheKey) {
  InjectorGuard G;
  FaultPlan Plan;
  Plan.Seed = baseSeed();
  Plan.Rate[static_cast<int>(FaultSite::RingPush)] = 0.5;
  FaultInjector::install(Plan);
  EXPECT_TRUE(FaultInjector::enabled());
  EXPECT_EQ(FaultInjector::plan().Seed, Plan.Seed);
  EXPECT_EQ(FaultInjector::plan().rate(FaultSite::RingPush), 0.5);
  // The same (site, key) always draws the same verdict; distinct keys
  // draw independently (at rate 0.5 over 256 keys, both outcomes occur).
  int Fired = 0;
  for (uint64_t K = 0; K < 256; ++K) {
    bool A = FaultInjector::shouldFail(FaultSite::RingPush, 7, K);
    bool B = FaultInjector::shouldFail(FaultSite::RingPush, 7, K);
    EXPECT_EQ(A, B) << "key " << K;
    Fired += A ? 2 : 0;
  }
  EXPECT_GT(Fired, 0);
  EXPECT_LT(Fired, 512);
  EXPECT_EQ(FaultInjector::firedCount(FaultSite::RingPush),
            static_cast<uint64_t>(Fired));
  // Unarmed sites never fire even while the injector is enabled.
  EXPECT_FALSE(FaultInjector::shouldFail(FaultSite::GcCollect, 0, 0));
  FaultInjector::clear();
  EXPECT_FALSE(FaultInjector::enabled());
  EXPECT_EQ(FaultInjector::firedCount(FaultSite::RingPush), 0u);
}

TEST(FaultInjector, RateOneAlwaysFires) {
  InjectorGuard G;
  FaultPlan Plan;
  Plan.Seed = 1;
  Plan.Rate[static_cast<int>(FaultSite::HeapAlloc)] = 1.0;
  FaultInjector::install(Plan);
  for (uint64_t K = 0; K < 32; ++K)
    EXPECT_TRUE(FaultInjector::shouldFail(FaultSite::HeapAlloc, K, K));
}

// --- Forced single-site failures --------------------------------------------

TEST(FaultInjectCampaign, ForcedHeapExhaustionSalvagesPartialProfile) {
  InjectorGuard G;
  for (unsigned Jobs : {1u, 2u}) {
    FaultPlan Plan;
    Plan.Seed = mixSeed(baseSeed() ^ 0xA110C);
    Plan.Rate[static_cast<int>(FaultSite::HeapAlloc)] = 1.0;
    Outcome O = runCampaign(Plan, Jobs);
    ASSERT_TRUE(O.Failed) << "jobs " << Jobs;
    EXPECT_EQ(O.Kind, VmErrorKind::OutOfMemory) << "jobs " << Jobs;
    // The degraded banner names the failure and its exit code, and the
    // salvaged profile still renders.
    EXPECT_NE(O.Banner.find("DEGRADED"), std::string::npos);
    EXPECT_NE(O.Banner.find("OutOfMemory"), std::string::npos);
    EXPECT_NE(O.Banner.find("exit code 3"), std::string::npos);
    EXPECT_FALSE(O.ObjectReport.empty());
  }
}

TEST(FaultInjectCampaign, WatchdogConvertsInjectedStall) {
  InjectorGuard G;
  for (unsigned Jobs : {1u, 2u}) {
    FaultPlan Plan;
    Plan.Seed = mixSeed(baseSeed() ^ 0x57A11);
    Plan.Rate[static_cast<int>(FaultSite::QuantumClaim)] = 1.0;
    Outcome O = runCampaign(Plan, Jobs);
    ASSERT_TRUE(O.Failed) << "jobs " << Jobs;
    EXPECT_EQ(O.Kind, VmErrorKind::WorkerStall) << "jobs " << Jobs;
    EXPECT_NE(O.Banner.find("WorkerStall"), std::string::npos);
    EXPECT_NE(O.Banner.find("exit code 6"), std::string::npos);
    // The stall dump names the injected stall and per-worker state.
    EXPECT_NE(O.Banner.find("no forward progress"), std::string::npos);
    EXPECT_NE(O.Banner.find("injected stall"), std::string::npos);
  }
}

TEST(FaultInjectCampaign, RingDropsDegradeButNeverFail) {
  InjectorGuard G;
  FaultPlan Plan;
  Plan.Seed = mixSeed(baseSeed() ^ 0x21196);
  Plan.Rate[static_cast<int>(FaultSite::RingPush)] = 0.5;
  Outcome O = runCampaign(Plan, 2);
  EXPECT_FALSE(O.Failed);
  EXPECT_GT(O.Drops, 0u);
  EXPECT_GT(O.Samples, O.Drops); // Most samples still land.
  EXPECT_FALSE(O.ObjectReport.empty());
}

/// Every sample goes through the ring in every GC config, so the ring
/// fault site reaches the GC-handling ablation too: at rate 1 nothing is
/// captured and every handled sample is counted as dropped.
TEST(FaultInjectCampaign, RingDropsReachRunsWithoutGcInterpositions) {
  InjectorGuard G;
  ParallelConfig Pc = campaignWorkload();
  Pc.Jobs = 2;
  JavaVm Vm(parallelVmConfig(Pc));
  DjxPerfConfig Agent = parallelAgentConfig(Pc);
  Agent.HandleGcMoves = Agent.HandleGcFrees = false;
  DjxPerf Prof(Vm, Agent);
  Prof.start();
  FaultPlan Plan;
  Plan.Seed = mixSeed(baseSeed() ^ 0x9C0FF);
  Plan.Rate[static_cast<int>(FaultSite::RingPush)] = 1.0;
  FaultInjector::install(Plan);
  runParallelWorkload(Vm, &Prof, Pc);
  FaultInjector::clear();
  Prof.stop();
  MergedProfile M = Prof.analyze();
  EXPECT_GT(Prof.samplesHandled(), 0u);
  EXPECT_EQ(Prof.samplesDropped(), Prof.samplesHandled());
  EXPECT_TRUE(M.Totals.empty());
  EXPECT_EQ(M.UnattributedSamples, 0u);
}

// --- The campaign property ---------------------------------------------------

/// For any drawn fault plan, host parallelism changes nothing observable:
/// the same seeds fail (or not) with the same kind across --jobs 1/2/4,
/// and *successful* degraded runs are byte-identical, because every
/// injection key is a logical coordinate.
TEST(FaultInjectCampaign, CampaignsAreJobsInvariant) {
  InjectorGuard G;
  uint64_t Base = baseSeed();
  int Failures = 0, Successes = 0;
  for (int Case = 0; Case < kCampaigns; ++Case) {
    uint64_t CaseSeed = mixSeed(Base + static_cast<uint64_t>(Case));
    FaultPlan Plan = campaignPlan(CaseSeed, Case % 5);
    // The final campaign always exhausts the heap so the
    // both-outcomes-occur assertion below cannot depend on seed luck
    // (the ring-only preset already guarantees successes).
    if (Case == kCampaigns - 1)
      Plan.Rate[static_cast<int>(FaultSite::HeapAlloc)] = 1.0;
    Outcome Serial = runCampaign(Plan, 1);
    for (unsigned Jobs : {2u, 4u}) {
      Outcome Mt = runCampaign(Plan, Jobs);
      ASSERT_EQ(Serial.Failed, Mt.Failed)
          << caseLabel(Case, CaseSeed) << " jobs " << Jobs;
      if (Serial.Failed && singleSite(Case % 5)) {
        EXPECT_EQ(Serial.Kind, Mt.Kind)
            << caseLabel(Case, CaseSeed) << " jobs " << Jobs;
      }
      if (!Serial.Failed) {
        // Success: the run — including injected drops and no-op GCs —
        // must be byte-identical to the serial golden.
        EXPECT_EQ(Serial.ObjectReport, Mt.ObjectReport)
            << caseLabel(Case, CaseSeed) << " jobs " << Jobs;
        EXPECT_EQ(Serial.Samples, Mt.Samples)
            << caseLabel(Case, CaseSeed) << " jobs " << Jobs;
        EXPECT_EQ(Serial.Drops, Mt.Drops)
            << caseLabel(Case, CaseSeed) << " jobs " << Jobs;
        EXPECT_EQ(Serial.Steps, Mt.Steps)
            << caseLabel(Case, CaseSeed) << " jobs " << Jobs;
        EXPECT_EQ(Serial.Safepoints, Mt.Safepoints)
            << caseLabel(Case, CaseSeed) << " jobs " << Jobs;
        EXPECT_EQ(Serial.TotalCycles, Mt.TotalCycles)
            << caseLabel(Case, CaseSeed) << " jobs " << Jobs;
      }
    }
    if (Serial.Failed) {
      ++Failures;
      EXPECT_NE(Serial.Banner.find("DEGRADED"), std::string::npos)
          << caseLabel(Case, CaseSeed);
      EXPECT_NE(Serial.Banner.find(vmErrorKindName(Serial.Kind)),
                std::string::npos)
          << caseLabel(Case, CaseSeed);
      EXPECT_FALSE(Serial.ObjectReport.empty()) << caseLabel(Case, CaseSeed);
    } else {
      ++Successes;
    }
  }
  // The rotation is tuned so both outcomes occur; a campaign that only
  // ever succeeds (or only ever fails) is not testing degradation.
  EXPECT_GT(Failures, 0);
  EXPECT_GT(Successes, 0);
  std::printf("[faultinject] %d/%d campaigns failed (by design)\n",
              Failures, kCampaigns);
}

// --- Fault-free runs are untouched ------------------------------------------

/// A cleared (or never-installed, or zero-rate) injector leaves the
/// profile byte-identical: the fast path is one relaxed atomic load and
/// no report text changes unless a failure actually happened.
TEST(FaultInjectCampaign, FaultFreeRunsAreByteIdentical) {
  InjectorGuard G;
  FaultInjector::clear();
  FaultPlan Zero;
  Zero.Seed = mixSeed(baseSeed() ^ 0xFAB1);
  Outcome Bare = runCampaign(Zero, 2);  // install() with all-zero rates
  Outcome Again = runCampaign(Zero, 2); // stays disabled.
  EXPECT_FALSE(Bare.Failed);
  EXPECT_EQ(Bare.Drops, 0u);
  EXPECT_EQ(Bare.ObjectReport, Again.ObjectReport);
  EXPECT_EQ(Bare.Samples, Again.Samples);
  EXPECT_EQ(Bare.TotalCycles, Again.TotalCycles);
  EXPECT_EQ(Bare.ObjectReport.find("DEGRADED"), std::string::npos);
}

} // namespace
