//===- Dataflow.h - Generic worklist dataflow solver ------------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The forward worklist fixpoint engine under src/analysis/'s
/// type-state pass. A problem supplies its lattice as a state type plus
/// callbacks; the solver owns the visit order (from the entry block
/// along successor edges) and the convergence loop.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_ANALYSIS_DATAFLOW_H
#define DJX_ANALYSIS_DATAFLOW_H

#include "analysis/Cfg.h"

#include <deque>
#include <vector>

namespace djx {

/// Solves a forward dataflow problem to fixpoint over \p G and returns
/// the per-block entry state.
///
/// \p Problem must provide:
///   using State = ...;                 // copyable lattice element
///   State boundary();                  // method-entry state
///   State initial();                   // bottom, for not-yet-reached
///   // Applies the block body; In is the block's input state.
///   State transfer(uint32_t Block, const State &In);
///   // Joins Src into Dest; returns true when Dest changed.
///   bool join(State &Dest, const State &Src);
template <typename P>
std::vector<typename P::State> solveDataflow(const Cfg &G, P &Problem) {
  const std::vector<BasicBlock> &Blocks = G.blocks();
  const uint32_t NumBlocks = static_cast<uint32_t>(Blocks.size());
  std::vector<typename P::State> In(NumBlocks, Problem.initial());

  std::deque<uint32_t> Work;
  std::vector<bool> Queued(NumBlocks, false);
  auto Enqueue = [&](uint32_t B) {
    if (!Queued[B]) {
      Queued[B] = true;
      Work.push_back(B);
    }
  };
  In[0] = Problem.boundary();
  Enqueue(0);

  while (!Work.empty()) {
    uint32_t B = Work.front();
    Work.pop_front();
    Queued[B] = false;
    typename P::State Out = Problem.transfer(B, In[B]);
    for (uint32_t Next : Blocks[B].Succs)
      if (Problem.join(In[Next], Out))
        Enqueue(Next);
  }
  return In;
}

} // namespace djx

#endif // DJX_ANALYSIS_DATAFLOW_H
