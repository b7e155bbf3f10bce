//===- support/FaultInjector.h - deterministic fault injection ------===//
//
// Seeded fault-injection layer mirroring FuzzSchedule's discipline:
// every injection decision is a *stateless* splitmix hash of logical
// coordinates — (seed, site, per-site logical counters) — never a
// shared PRNG stream. Because the keys are logical (shard allocation
// ordinals, per-ring append ordinals, GC request ordinals, round/task
// pairs), the set of injected faults is identical across --jobs 1/2/4
// and across host interleavings, so a failing campaign replays exactly
// from its seed (printed as DJX_FAULT_SEED by faultinject_test and the
// CLI).
//
// Sites:
//   HeapAlloc    — forced shard exhaustion: the allocation behaves as
//                  if the shard were full. Keyed on (shard, per-shard
//                  allocation ordinal), so the post-GC retry of the
//                  same allocation draws the same key and the fault
//                  escalates deterministically to OutOfMemory.
//   RingPush     — forced SampleRing overflow: the sample is dropped
//                  and counted instead of buffered. Keyed on (thread,
//                  per-ring append ordinal).
//   GcCollect    — forced no-op collection: requestGc returns empty
//                  stats without collecting. Keyed on the VM's GC
//                  request ordinal.
//   QuantumClaim — forced worker stall: the worker publishes a stalled
//                  state and stops making progress; the Executor's
//                  host-time watchdog converts it into a WorkerStall
//                  error. Keyed on (round, task). Only armed while a
//                  watchdog is running (StallTimeoutMs > 0).
//   JournalShortWrite — torn journal tail: a physical journal flush
//                  writes only a prefix of its buffer, then journaling
//                  degrades to off (the model of a crash mid-write).
//                  Keyed on the journal's write ordinal.
//   JournalWriteError — transient EIO on a journal flush: retried with
//                  bounded backoff, then journaling degrades to off
//                  with a stderr warning; the run continues. Keyed on
//                  (write ordinal, attempt).
//   JournalCorruptByte — one bit flipped in a buffered journal segment
//                  after its CRC was computed; recovery must catch it
//                  on read-back. Keyed on the run-wide segment
//                  ordinal (a compaction restarts the file's sequence
//                  numbers, not this).
//
// The journal keys are logical ordinals (flushes happen at round
// barriers), so like every other site the injected set is identical
// across --jobs values.
//
// The injector is process-global (installed by tests or the CLI before
// a run; runs never install concurrently). When disabled the hot-path
// cost is one relaxed atomic load.
//
//===----------------------------------------------------------------===//

#ifndef DJX_SUPPORT_FAULTINJECTOR_H
#define DJX_SUPPORT_FAULTINJECTOR_H

#include <cstdint>

namespace djx {

enum class FaultSite : unsigned {
  HeapAlloc = 0,
  RingPush = 1,
  GcCollect = 2,
  QuantumClaim = 3,
  JournalShortWrite = 4,
  JournalWriteError = 5,
  JournalCorruptByte = 6,
};

inline constexpr unsigned kNumFaultSites = 7;

inline const char *faultSiteName(FaultSite S) {
  switch (S) {
  case FaultSite::HeapAlloc:
    return "heap-alloc";
  case FaultSite::RingPush:
    return "ring-push";
  case FaultSite::GcCollect:
    return "gc-collect";
  case FaultSite::QuantumClaim:
    return "quantum-claim";
  case FaultSite::JournalShortWrite:
    return "journal-short-write";
  case FaultSite::JournalWriteError:
    return "journal-write-error";
  case FaultSite::JournalCorruptByte:
    return "journal-corrupt-byte";
  }
  return "unknown";
}

struct FaultPlan {
  uint64_t Seed = 0;
  /// Per-site injection probability in [0, 1]; 0 disarms the site.
  double Rate[kNumFaultSites] = {};

  double &rate(FaultSite S) { return Rate[static_cast<unsigned>(S)]; }
  double rate(FaultSite S) const { return Rate[static_cast<unsigned>(S)]; }
};

class FaultInjector {
public:
  /// Install a plan process-wide. Must not race with a running VM;
  /// tests and the CLI install before starting a run.
  static void install(const FaultPlan &Plan);

  /// Disarm all sites and reset fired counters.
  static void clear();

  static bool enabled();
  static FaultPlan plan();

  /// Deterministic draw: true iff the splitmix hash of
  /// (seed, site, K1, K2) lands under the site's rate. Returns false
  /// (and costs one relaxed load) when no plan is installed.
  static bool shouldFail(FaultSite Site, uint64_t K1, uint64_t K2 = 0);

  /// Number of injections actually fired per site since install/clear.
  /// Totals are for reporting; host increment order is unspecified.
  static uint64_t firedCount(FaultSite Site);
};

} // namespace djx

#endif // DJX_SUPPORT_FAULTINJECTOR_H
