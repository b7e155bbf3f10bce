//===- Cfg.cpp - Control-flow graph over bytecode --------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/Cfg.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace djx;

namespace {

/// Flat successors of the instruction at \p Pc, clamped to the code.
void flatSuccessors(const std::vector<Instruction> &Code, uint32_t Pc,
                    std::vector<uint32_t> &Out) {
  Out.clear();
  const Instruction &I = Code[Pc];
  uint32_t N = static_cast<uint32_t>(Code.size());
  if (!isTerminal(I.Op) && Pc + 1 < N)
    Out.push_back(Pc + 1);
  if (isBranch(I.Op) && I.A >= 0 && static_cast<uint32_t>(I.A) < N &&
      (Out.empty() || Out[0] != static_cast<uint32_t>(I.A)))
    Out.push_back(static_cast<uint32_t>(I.A));
}

} // namespace

Cfg Cfg::build(const BytecodeMethod &M) {
  Cfg G;
  const std::vector<Instruction> &Code = M.Code;
  const uint32_t N = static_cast<uint32_t>(Code.size());
  assert(N > 0 && "CFG over empty code");

  // Leaders: pc 0, every branch target, and every pc after a control
  // transfer (including after terminals — the following code may still
  // be a branch target, or dead).
  std::vector<bool> Leader(N, false);
  Leader[0] = true;
  for (uint32_t Pc = 0; Pc < N; ++Pc) {
    const Instruction &I = Code[Pc];
    if ((isTerminal(I.Op) || isBranch(I.Op)) && Pc + 1 < N)
      Leader[Pc + 1] = true;
    if (isBranch(I.Op) && I.A >= 0 && static_cast<uint32_t>(I.A) < N)
      Leader[I.A] = true;
  }

  G.PcToBlock.assign(N, kNoBlock);
  for (uint32_t Pc = 0; Pc < N; ++Pc) {
    if (Leader[Pc]) {
      BasicBlock B;
      B.Start = Pc;
      G.Blocks.push_back(B);
    }
    G.PcToBlock[Pc] = static_cast<uint32_t>(G.Blocks.size() - 1);
    G.Blocks.back().End = Pc + 1;
  }

  std::vector<uint32_t> Succs;
  for (uint32_t BI = 0; BI < G.Blocks.size(); ++BI) {
    BasicBlock &B = G.Blocks[BI];
    flatSuccessors(Code, B.End - 1, Succs);
    for (uint32_t SuccPc : Succs) {
      uint32_t SB = G.PcToBlock[SuccPc];
      assert(SuccPc == G.Blocks[SB].Start && "edge into the middle of a block");
      B.Succs.push_back(SB);
    }
  }
  for (uint32_t BI = 0; BI < G.Blocks.size(); ++BI)
    for (uint32_t SB : G.Blocks[BI].Succs)
      G.Blocks[SB].Preds.push_back(BI);

  G.computeDominators();
  G.computeLoops();
  return G;
}

void Cfg::computeDominators() {
  const uint32_t NumBlocks = static_cast<uint32_t>(Blocks.size());
  // Reverse postorder via iterative DFS from the entry block.
  std::vector<uint8_t> Color(NumBlocks, 0); // 0 white, 1 on stack, 2 done
  std::vector<uint32_t> PostOrder;
  std::vector<std::pair<uint32_t, size_t>> Stack;
  Stack.emplace_back(0, 0);
  Color[0] = 1;
  while (!Stack.empty()) {
    auto &[B, NextSucc] = Stack.back();
    if (NextSucc < Blocks[B].Succs.size()) {
      uint32_t S = Blocks[B].Succs[NextSucc++];
      if (Color[S] == 0) {
        Color[S] = 1;
        Stack.emplace_back(S, 0);
      }
    } else {
      Color[B] = 2;
      PostOrder.push_back(B);
      Stack.pop_back();
    }
  }
  Rpo.assign(PostOrder.rbegin(), PostOrder.rend());

  // Postorder numbers for the CHK intersect walk.
  std::vector<uint32_t> PoNum(NumBlocks, 0);
  for (uint32_t I = 0; I < PostOrder.size(); ++I)
    PoNum[PostOrder[I]] = I;

  Idom.assign(NumBlocks, kNoBlock);
  Idom[0] = 0;
  auto Intersect = [&](uint32_t A, uint32_t B) {
    while (A != B) {
      while (PoNum[A] < PoNum[B])
        A = Idom[A];
      while (PoNum[B] < PoNum[A])
        B = Idom[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (uint32_t B : Rpo) {
      if (B == 0)
        continue;
      uint32_t NewIdom = kNoBlock;
      for (uint32_t P : Blocks[B].Preds) {
        if (Idom[P] == kNoBlock)
          continue; // Predecessor not yet reached.
        NewIdom = NewIdom == kNoBlock ? P : Intersect(P, NewIdom);
      }
      if (NewIdom != kNoBlock && Idom[B] != NewIdom) {
        Idom[B] = NewIdom;
        Changed = true;
      }
    }
  }
}

bool Cfg::dominates(uint32_t A, uint32_t B) const {
  if (Idom[A] == kNoBlock || Idom[B] == kNoBlock)
    return false;
  // Walk B's dominator chain up to the entry.
  while (true) {
    if (B == A)
      return true;
    if (B == 0)
      return false;
    B = Idom[B];
  }
}

void Cfg::computeLoops() {
  const uint32_t NumBlocks = static_cast<uint32_t>(Blocks.size());
  BlockLoopDepth.assign(NumBlocks, 0);
  for (uint32_t B = 0; B < NumBlocks; ++B)
    for (uint32_t S : Blocks[B].Succs)
      if (dominates(S, B))
        BackEdges.emplace_back(B, S);

  // Each back edge Tail->Head closes the natural loop {Head} ∪ {blocks
  // that reach Tail without passing through Head}; nesting depth of a
  // block is how many such loops contain it. Loops sharing a header
  // (two back edges into one head) count once.
  std::vector<std::vector<uint32_t>> HeadTails(NumBlocks);
  for (auto &[Tail, Head] : BackEdges)
    HeadTails[Head].push_back(Tail);
  for (uint32_t Head = 0; Head < NumBlocks; ++Head) {
    if (HeadTails[Head].empty())
      continue;
    std::vector<bool> InLoop(NumBlocks, false);
    InLoop[Head] = true;
    std::vector<uint32_t> Work;
    for (uint32_t Tail : HeadTails[Head])
      if (!InLoop[Tail]) {
        InLoop[Tail] = true;
        Work.push_back(Tail);
      }
    while (!Work.empty()) {
      uint32_t B = Work.back();
      Work.pop_back();
      for (uint32_t P : Blocks[B].Preds)
        if (!InLoop[P]) {
          InLoop[P] = true;
          Work.push_back(P);
        }
    }
    for (uint32_t B = 0; B < NumBlocks; ++B)
      if (InLoop[B])
        ++BlockLoopDepth[B];
  }
}

std::string Cfg::str() const {
  std::ostringstream OS;
  for (uint32_t BI = 0; BI < Blocks.size(); ++BI) {
    const BasicBlock &B = Blocks[BI];
    OS << "b" << BI << " [" << B.Start << "," << B.End << ")";
    if (!reachable(BI))
      OS << " unreachable";
    else if (BlockLoopDepth[BI] > 0)
      OS << " depth=" << BlockLoopDepth[BI];
    OS << " ->";
    for (uint32_t S : B.Succs)
      OS << " b" << S;
    OS << "\n";
  }
  return OS.str();
}
