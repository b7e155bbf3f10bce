//===- Cct.cpp - Compact calling context tree -------------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/Cct.h"

#include <cassert>

using namespace djx;

Cct::Cct() {
  Nodes.push_back(Node{}); // Root.
}

CctNodeId Cct::child(CctNodeId Parent, MethodId Method, uint32_t Bci) {
  assert(Parent < Nodes.size() && "bad parent node");
  EdgeKey Key{Parent, Method, Bci};
  auto It = Edges.find(Key);
  if (It != Edges.end())
    return It->second;
  CctNodeId Id = static_cast<CctNodeId>(Nodes.size());
  Nodes.push_back(Node{Method, Bci, Parent});
  Edges.emplace(Key, Id);
  return Id;
}

CctNodeId Cct::append(CctNodeId Parent, MethodId Method, uint32_t Bci) {
  assert(Parent < Nodes.size() && "bad parent node");
  CctNodeId Id = static_cast<CctNodeId>(Nodes.size());
  Nodes.push_back(Node{Method, Bci, Parent});
  Edges.emplace(EdgeKey{Parent, Method, Bci}, Id);
  return Id;
}

void Cct::remapMethods(const std::vector<MethodId> &Map) {
  Edges.clear();
  for (CctNodeId Id = 1; Id < Nodes.size(); ++Id) {
    Node &N = Nodes[Id];
    if (N.Method < Map.size())
      N.Method = Map[N.Method];
    Edges.emplace(EdgeKey{N.Parent, N.Method, N.Bci}, Id);
  }
}

CctNodeId Cct::insertPath(const std::vector<StackFrame> &Frames) {
  CctNodeId Cur = kCctRoot;
  for (const StackFrame &F : Frames)
    Cur = child(Cur, F.Method, F.Bci);
  return Cur;
}

std::vector<StackFrame> Cct::path(CctNodeId Node) const {
  assert(Node < Nodes.size() && "bad node");
  std::vector<StackFrame> Out;
  for (CctNodeId Cur = Node; Cur != kCctRoot; Cur = Nodes[Cur].Parent)
    Out.push_back(StackFrame{Nodes[Cur].Method, Nodes[Cur].Bci});
  std::vector<StackFrame> Reversed(Out.rbegin(), Out.rend());
  return Reversed;
}

size_t Cct::memoryFootprint() const {
  return Nodes.size() * sizeof(Node) +
         Edges.size() * (sizeof(EdgeKey) + sizeof(CctNodeId) + 16);
}
