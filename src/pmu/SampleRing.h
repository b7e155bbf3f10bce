//===- SampleRing.h - Worker-private buffered-sample ring -------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-capacity buffer for PMU samples whose identity resolution is
/// deferred. The overflow "signal handler" runs synchronously on the
/// faulting thread; it captures only what must be read at sample time —
/// the PEBS effective address, the access context interned into the
/// thread's CCT, the event kind, and the sampling CPU — and appends a
/// BufferedSample here. A per-quantum drain resolves the whole batch
/// against the live-object index's epoch snapshot, sorted by address,
/// amortizing synchronization from per-sample to per-quantum.
///
/// Concurrency contract: thread-confined. Each monitored thread owns one
/// ring; the worker executing that thread's quantum is the only appender,
/// and drains happen either on that same worker (quantum end, capacity,
/// allocation commit) or where one host thread owns every ring (GC start,
/// profiler stop, allocation commit with no Executor session running).
///
//===----------------------------------------------------------------------===//

#ifndef DJX_PMU_SAMPLERING_H
#define DJX_PMU_SAMPLERING_H

#include "pmu/PerfEvent.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace djx {

/// One deferred sample: everything handleSample() must capture while the
/// faulting thread's stack and counters are live.
struct BufferedSample {
  /// PEBS effective address (resolved against the index at drain time).
  uint64_t EffectiveAddress = 0;
  /// Access context, interned into the owning thread's CCT at sample
  /// time (interning order defines node ids, so it cannot be deferred).
  uint32_t AccessNode = 0;
  /// PERF_SAMPLE_CPU, for the NUMA diagnosis at drain time.
  uint32_t Cpu = 0;
  /// Which programmed event overflowed.
  PerfEventKind Kind = PerfEventKind::L1Miss;
};

/// Bounded append buffer with drain-in-place access.
class SampleRing {
public:
  /// Capacity bound: a drain is forced when the ring fills, so untriggered
  /// windows (a serial workload between GCs) stay at O(capacity) memory.
  static constexpr size_t kCapacity = 4096;

  /// Appends one sample. \returns true when the ring is now full and the
  /// owner must drain before the next append.
  bool push(const BufferedSample &S) {
    if (Samples.capacity() == 0)
      Samples.reserve(kCapacity);
    ++Appends;
    Samples.push_back(S);
    return Samples.size() >= kCapacity;
  }

  /// Records a sample rejected at append time (injected overflow): the
  /// append ordinal still advances — it is the logical coordinate fault
  /// draws key on, and must count attempts, not successes.
  void noteDrop() {
    ++Appends;
    ++Drops;
  }
  /// Records a capacity-forced mid-quantum self-drain (the ring filled
  /// between scheduled drain points).
  void noteCapacityDrain() { ++CapacityDrains; }

  /// Append attempts (successful or dropped) over the ring's lifetime.
  uint64_t totalAppends() const { return Appends; }
  /// Samples rejected at append time (injected overflow).
  uint64_t droppedSamples() const { return Drops; }
  /// Capacity-forced mid-quantum self-drains.
  uint64_t capacityDrains() const { return CapacityDrains; }

  bool empty() const { return Samples.empty(); }
  size_t size() const { return Samples.size(); }

  /// Drain-side access: the owner may reorder entries in place (the
  /// batched resolver sorts by address), then clear().
  std::vector<BufferedSample> &entries() { return Samples; }
  void clear() { Samples.clear(); }

private:
  std::vector<BufferedSample> Samples;
  uint64_t Appends = 0;
  uint64_t Drops = 0;
  uint64_t CapacityDrains = 0;
};

} // namespace djx

#endif // DJX_PMU_SAMPLERING_H
