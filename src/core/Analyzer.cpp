//===- Analyzer.cpp - Offline profile merging -------------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"

#include <algorithm>
#include <unordered_map>

using namespace djx;

std::vector<const MergedGroup *>
MergedProfile::groupsByMetric(PerfEventKind Kind) const {
  std::vector<const MergedGroup *> Out;
  Out.reserve(Groups.size());
  for (const auto &[Node, G] : Groups) {
    (void)Node;
    Out.push_back(&G);
  }
  std::stable_sort(Out.begin(), Out.end(),
                   [Kind](const MergedGroup *A, const MergedGroup *B) {
                     return A->Metrics.get(Kind) > B->Metrics.get(Kind);
                   });
  return Out;
}

double MergedProfile::shareOf(const MergedGroup &G,
                              PerfEventKind Kind) const {
  uint64_t Total = Totals.get(Kind);
  if (Total == 0)
    return 0.0;
  return static_cast<double>(G.Metrics.get(Kind)) /
         static_cast<double>(Total);
}

PlacementAdvice djx::placementAdvice(const MergedGroup &G) {
  PlacementAdvice Advice;
  if (G.AddressSamples == 0 || G.RemoteSamples * 20 < G.AddressSamples)
    return Advice; // Below a 5% remote share the placement is fine.
  uint64_t TotalAccessSide = 0;
  uint64_t DominantCount = 0;
  NumaNodeId DominantNode = kInvalidNode;
  for (const auto &[Node, Count] : G.AccessNodeSamples) {
    TotalAccessSide += Count;
    if (Count > DominantCount) { // '>' keeps the lowest node id on ties.
      DominantCount = Count;
      DominantNode = Node;
    }
  }
  if (TotalAccessSide == 0)
    return Advice; // No node attribution (NUMA tracking off).
  if (DominantCount * 4 >= TotalAccessSide * 3) {
    Advice.Hint = PlacementHint::Bind;
    Advice.TargetNode = DominantNode;
  } else {
    Advice.Hint = PlacementHint::Interleave;
  }
  return Advice;
}

MergedProfile
djx::mergeProfiles(const std::vector<const ThreadProfile *> &Parts) {
  MergedProfile Out;
  Out.ThreadsMerged = Parts.size();

  // Index profiles by thread so allocation identities resolve.
  std::unordered_map<uint64_t, const ThreadProfile *> ByThread;
  for (const ThreadProfile *P : Parts)
    ByThread.emplace(P->threadId(), P);

  // Resolves an AllocKey to a leaf node in the merged tree by replaying
  // the allocating thread's call path — the "merge call paths top-down"
  // step of §5.2.
  auto ResolveAllocNode = [&](const AllocKey &Key) -> CctNodeId {
    auto It = ByThread.find(Key.AllocThread);
    if (It == ByThread.end() || Key.AllocNode == kCctRoot ||
        Key.AllocNode >= It->second->cct().size())
      return kCctRoot; // Unknown provenance.
    return Out.Tree.insertPath(It->second->cct().path(Key.AllocNode));
  };

  for (const ThreadProfile *P : Parts) {
    // Per-thread access contexts remap through the merged tree.
    auto Remap = [&](CctNodeId Node) {
      return Out.Tree.insertPath(P->cct().path(Node));
    };

    for (const auto &[Key, G] : P->groups()) {
      CctNodeId AllocNode = ResolveAllocNode(Key);
      MergedGroup &M = Out.Groups[AllocNode];
      M.AllocNode = AllocNode;
      if (M.TypeName.empty())
        M.TypeName = G.TypeName;
      M.AllocCount += G.AllocCount;
      M.AllocBytes += G.AllocBytes;
      M.Metrics += G.Metrics;
      M.RemoteSamples += G.RemoteSamples;
      M.AddressSamples += G.AddressSamples;
      for (const auto &[Node, Count] : G.HomeNodeSamples)
        M.HomeNodeSamples[Node] += Count;
      for (const auto &[Node, Count] : G.AccessNodeSamples)
        M.AccessNodeSamples[Node] += Count;
      for (const auto &[Node, Counts] : G.AccessBreakdown)
        M.AccessBreakdown[Remap(Node)] += Counts;
    }
    for (const auto &[Node, Counts] : P->codeCentric())
      Out.CodeCentric[Remap(Node)] += Counts;
    Out.Totals += P->totals();
    Out.UnattributedSamples += P->unattributedSamples();
  }
  return Out;
}

HierarchyStats
djx::mergeHierarchyStats(const std::vector<HierarchyStats> &Parts) {
  HierarchyStats Out;
  for (const HierarchyStats &P : Parts) {
    Out.Accesses += P.Accesses;
    Out.L1Misses += P.L1Misses;
    Out.L2Misses += P.L2Misses;
    Out.L3Misses += P.L3Misses;
    Out.TlbMisses += P.TlbMisses;
    Out.RemoteAccesses += P.RemoteAccesses;
    Out.TotalLatency += P.TotalLatency;
  }
  return Out;
}
