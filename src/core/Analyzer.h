//===- Analyzer.h - Offline profile merging ---------------------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// DJXPerf's offline analyzer (§5.2): merges the per-thread profiles into
/// one view. CCTs are coalesced top-down — call paths equal across threads
/// share merged nodes and their metrics sum — and object groups whose
/// allocation call paths are identical are combined even when different
/// threads allocated or accessed them.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_CORE_ANALYZER_H
#define DJX_CORE_ANALYZER_H

#include "core/ThreadProfile.h"
#include "sim/MemoryHierarchy.h"

#include <map>
#include <string>
#include <vector>

namespace djx {

/// One object group after cross-thread merging.
struct MergedGroup {
  /// Leaf of the allocation call path in the merged CCT.
  CctNodeId AllocNode = kCctRoot;
  std::string TypeName;
  uint64_t AllocCount = 0;
  uint64_t AllocBytes = 0;
  MetricCounts Metrics;
  uint64_t RemoteSamples = 0;
  uint64_t AddressSamples = 0;
  /// Merged NUMA residency histograms (sums of the per-thread ones):
  /// where the sampled pages lived, and which nodes the accesses came
  /// from. Plain keyed sums, so the merge is interleaving-independent.
  std::map<NumaNodeId, uint64_t> HomeNodeSamples;
  std::map<NumaNodeId, uint64_t> AccessNodeSamples;
  /// Access contexts in the merged CCT.
  std::map<CctNodeId, MetricCounts> AccessBreakdown;
};

/// Placement remediation suggested for one merged group, mirroring the
/// paper's §7.5/§7.6 fixes.
enum class PlacementHint {
  None,       ///< Remote share too low to bother.
  Bind,       ///< One node issues nearly all accesses: numa_alloc_onnode.
  Interleave, ///< Accesses spread across nodes: numa_alloc_interleaved.
};

struct PlacementAdvice {
  PlacementHint Hint = PlacementHint::None;
  /// Bind target (the dominant accessing node); kInvalidNode otherwise.
  NumaNodeId TargetNode = kInvalidNode;
};

/// Derives the remediation hint from a group's access-node distribution:
/// no hint below a 5% remote share; bind to the dominant accessing node
/// when it issues >= 75% of the node-attributed accesses; interleave when
/// accesses are spread. Deterministic (ties break toward the lowest node
/// id via the ordered map).
PlacementAdvice placementAdvice(const MergedGroup &G);

/// The analyzer's output: one merged CCT plus merged tables.
struct MergedProfile {
  Cct Tree;
  /// Keyed by merged allocation node.
  std::map<CctNodeId, MergedGroup> Groups;
  std::map<CctNodeId, MetricCounts> CodeCentric;
  MetricCounts Totals;
  uint64_t UnattributedSamples = 0;
  uint64_t ThreadsMerged = 0;

  /// Groups sorted descending by \p Kind (poor locality first) — the
  /// presentation order of the paper's GUI.
  std::vector<const MergedGroup *> groupsByMetric(PerfEventKind Kind) const;

  /// Fraction of all samples of \p Kind attributed to \p G.
  double shareOf(const MergedGroup &G, PerfEventKind Kind) const;
};

/// Merges per-thread profiles. Allocation identities referring to a thread
/// whose profile is missing degrade to an "unknown context" group under
/// the merged root.
MergedProfile mergeProfiles(const std::vector<const ThreadProfile *> &Parts);

/// Deterministic merge of per-CPU / worker-private memory-hierarchy
/// counters (the parallel runtime keeps one hierarchy per simulated
/// thread): plain sums, so the result is identical for any host
/// interleaving. Callers pass parts in thread-id order by convention.
HierarchyStats mergeHierarchyStats(const std::vector<HierarchyStats> &Parts);

} // namespace djx

#endif // DJX_CORE_ANALYZER_H
