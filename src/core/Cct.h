//===- Cct.h - Compact calling context tree ---------------------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Calling context tree (Arnold & Sweeney): call paths sharing a prefix
/// share nodes, so per-thread context storage stays compact (§5.1). Nodes
/// are identified by (parent, method, BCI); node 0 is the synthetic root.
/// The profiler interns every allocation and sample context here and
/// attaches metrics externally, keyed by node id.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_CORE_CCT_H
#define DJX_CORE_CCT_H

#include "jvm/JavaThread.h"

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace djx {

/// Index of a CCT node; 0 is the root.
using CctNodeId = uint32_t;
constexpr CctNodeId kCctRoot = 0;

/// Prefix-sharing calling context tree.
class Cct {
public:
  Cct();

  /// Interns one edge: the child of \p Parent labelled (Method, Bci).
  CctNodeId child(CctNodeId Parent, MethodId Method, uint32_t Bci);

  /// Interns a full root-first call path; returns the leaf node.
  CctNodeId insertPath(const std::vector<StackFrame> &Frames);

  /// Appends node size() as the child of \p Parent labelled (Method, Bci),
  /// even when that edge already exists: decoding rebuilds a tree by id,
  /// so a node's id never depends on whether its label repeats.
  CctNodeId append(CctNodeId Parent, MethodId Method, uint32_t Bci);

  /// Rewrites every node's method id through \p Map (index = old id);
  /// ids past the end of \p Map are kept. Node ids do not change.
  void remapMethods(const std::vector<MethodId> &Map);

  /// Reconstructs the root-first path ending at \p Node.
  std::vector<StackFrame> path(CctNodeId Node) const;

  MethodId methodOf(CctNodeId Node) const { return Nodes[Node].Method; }
  uint32_t bciOf(CctNodeId Node) const { return Nodes[Node].Bci; }
  CctNodeId parentOf(CctNodeId Node) const { return Nodes[Node].Parent; }

  size_t size() const { return Nodes.size(); }
  size_t memoryFootprint() const;

private:
  struct Node {
    MethodId Method = kInvalidMethod;
    uint32_t Bci = 0;
    CctNodeId Parent = kCctRoot;
  };

  struct EdgeKey {
    CctNodeId Parent;
    MethodId Method;
    uint32_t Bci;
    bool operator==(const EdgeKey &O) const {
      return Parent == O.Parent && Method == O.Method && Bci == O.Bci;
    }
  };
  struct EdgeKeyHash {
    size_t operator()(const EdgeKey &K) const {
      uint64_t H = K.Parent;
      H = H * 0x9E3779B97F4A7C15ULL + K.Method;
      H = H * 0x9E3779B97F4A7C15ULL + K.Bci;
      return static_cast<size_t>(H ^ (H >> 32));
    }
  };

  std::vector<Node> Nodes;
  std::unordered_map<EdgeKey, CctNodeId, EdgeKeyHash> Edges;
};

} // namespace djx

#endif // DJX_CORE_CCT_H
