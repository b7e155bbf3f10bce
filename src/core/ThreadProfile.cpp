//===- ThreadProfile.cpp - Per-thread object-centric profile --------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/ThreadProfile.h"

#include "support/Varint.h"

#include <algorithm>

using namespace djx;

void ThreadProfile::recordAllocation(CctNodeId AllocNode,
                                     const std::string &TypeName,
                                     uint64_t Bytes) {
  AllocKey Key{ThreadId, AllocNode};
  ObjectGroupStats &G = Groups[Key];
  if (G.TypeName.empty())
    G.TypeName = TypeName;
  ++G.AllocCount;
  G.AllocBytes += Bytes;
  ++Version;
  logChange({Key.AllocThread, Key.AllocNode, 0, kInvalidNode, kInvalidNode,
             Change::Alloc});
}

void ThreadProfile::recordObjectSample(const AllocKey &Key,
                                       const std::string &TypeName,
                                       PerfEventKind Kind,
                                       CctNodeId AccessNode, bool Remote,
                                       NumaNodeId HomeNode,
                                       NumaNodeId CpuNode) {
  ObjectGroupStats &G = Groups[Key];
  if (G.TypeName.empty())
    G.TypeName = TypeName;
  G.Metrics.add(Kind);
  G.AccessBreakdown[AccessNode].add(Kind);
  ++G.AddressSamples;
  if (Remote)
    ++G.RemoteSamples;
  if (HomeNode != kInvalidNode)
    ++G.HomeNodeSamples[HomeNode];
  if (CpuNode != kInvalidNode)
    ++G.AccessNodeSamples[CpuNode];
  Totals.add(Kind);
  ++Version;
  logChange({Key.AllocThread, Key.AllocNode, AccessNode,
             static_cast<int16_t>(HomeNode), static_cast<int16_t>(CpuNode),
             Change::Sample});
}

void ThreadProfile::recordCodeSample(CctNodeId AccessNode,
                                     PerfEventKind Kind) {
  CodeCentric[AccessNode].add(Kind);
  ++Version;
  logChange({0, 0, AccessNode, kInvalidNode, kInvalidNode, Change::Code});
}

void ThreadProfile::recordUnattributed(PerfEventKind Kind) {
  Totals.add(Kind);
  ++Unattributed;
  ++Version;
}

size_t ThreadProfile::memoryFootprint() const {
  size_t Bytes = Tree.memoryFootprint();
  for (const auto &[Key, G] : Groups) {
    (void)Key;
    Bytes += sizeof(AllocKey) + sizeof(ObjectGroupStats) +
             G.TypeName.size() +
             G.AccessBreakdown.size() *
                 (sizeof(CctNodeId) + sizeof(MetricCounts) + 32) +
             (G.HomeNodeSamples.size() + G.AccessNodeSamples.size()) *
                 (sizeof(NumaNodeId) + sizeof(uint64_t) + 32);
  }
  Bytes += CodeCentric.size() *
           (sizeof(CctNodeId) + sizeof(MetricCounts) + 32);
  Bytes += Log.capacity() * sizeof(Change) +
           LogSlots.capacity() * sizeof(uint16_t);
  return Bytes;
}

// --- Change log ------------------------------------------------------------

void ThreadProfile::logChange(const Change &C) {
  if (LogBase == kNoReader)
    return;
  if (Log.size() == kChangeLogCap) {
    forgetChanges();
    return;
  }
  if (LogSlots.size() < 2 * (Log.size() + 1)) {
    std::vector<uint16_t> Grown(std::max<size_t>(16, 2 * LogSlots.size()));
    LogSlots.swap(Grown);
    for (size_t I = 0; I < Log.size(); ++I)
      insertSlot(I);
  }
  size_t Mask = LogSlots.size() - 1;
  for (size_t H = hashChange(C) & Mask;; H = (H + 1) & Mask) {
    if (LogSlots[H] == 0) {
      Log.push_back(C);
      LogSlots[H] = static_cast<uint16_t>(Log.size());
      return;
    }
    if (Log[LogSlots[H] - 1] == C)
      return;
  }
}

size_t ThreadProfile::hashChange(const Change &C) {
  uint64_t H = C.AllocThread;
  H = H * 0x9E3779B97F4A7C15ULL + C.AllocNode;
  H = H * 0x9E3779B97F4A7C15ULL + C.Node;
  H = H * 0x9E3779B97F4A7C15ULL +
      ((static_cast<uint64_t>(static_cast<uint16_t>(C.Home)) << 24) |
       (static_cast<uint64_t>(static_cast<uint16_t>(C.Cpu)) << 8) | C.Kind);
  H *= 0x9E3779B97F4A7C15ULL;
  return static_cast<size_t>(H ^ (H >> 32));
}

void ThreadProfile::insertSlot(size_t Index) {
  size_t Mask = LogSlots.size() - 1;
  size_t H = hashChange(Log[Index]) & Mask;
  while (LogSlots[H] != 0)
    H = (H + 1) & Mask;
  LogSlots[H] = static_cast<uint16_t>(Index + 1);
}

void ThreadProfile::forgetChanges() const {
  LogBase = kNoReader;
  std::vector<Change>().swap(Log);
  std::vector<uint16_t>().swap(LogSlots);
}

// --- Codec -----------------------------------------------------------------

namespace {

/// Record tags (see ThreadProfile.h); part of the on-disk format.
enum RecordTag : uint8_t {
  TagEnd = 0,
  TagThread = 1,
  TagNodes = 2,
  TagGroup = 3,
  TagAccess = 4,
  TagHomeNode = 5,
  TagCpuNode = 6,
  TagCode = 7,
  TagTotals = 8,
  TagKnownThread = 9,
  TagKnownGroup = 10,
};

/// A mask of the kinds with a nonzero count, then those counts.
void putMetrics(std::string &Out, const MetricCounts &M) {
  uint64_t Mask = 0;
  for (size_t K = 0; K < kNumPerfEventKinds; ++K)
    if (M.Counts[K] != 0)
      Mask |= uint64_t{1} << K;
  putVarint(Out, Mask);
  for (uint64_t C : M.Counts)
    if (C != 0)
      putVarint(Out, C);
}

/// Reads what putMetrics writes, and only that: no kind past the last,
/// no zero count. Unlisted kinds read as zero.
bool readMetrics(VarintReader &R, MetricCounts &M) {
  uint64_t Mask;
  if (!R.u64(Mask) || Mask >> kNumPerfEventKinds != 0)
    return false;
  M = MetricCounts();
  for (size_t K = 0; K < kNumPerfEventKinds; ++K)
    if ((Mask >> K & 1) != 0 && (!R.u64(M.Counts[K]) || M.Counts[K] == 0))
      return false;
  return true;
}

void putGroup(std::string &Out, const AllocKey &Key,
              const ObjectGroupStats &G, bool Named) {
  putVarint(Out, Named ? TagGroup : TagKnownGroup);
  putVarint(Out, Key.AllocThread);
  putVarint(Out, Key.AllocNode);
  if (Named)
    putBytes(Out, G.TypeName);
  putVarint(Out, G.AllocCount);
  putVarint(Out, G.AllocBytes);
  putVarint(Out, G.RemoteSamples);
  putVarint(Out, G.AddressSamples);
  putMetrics(Out, G.Metrics);
}

/// Access and Code records: a CCT node and its metrics.
void putNodeMetrics(std::string &Out, RecordTag Tag, CctNodeId Node,
                    const MetricCounts &M) {
  putVarint(Out, Tag);
  putVarint(Out, Node);
  putMetrics(Out, M);
}

/// HomeNode and CpuNode records.
void putNumaCount(std::string &Out, RecordTag Tag, NumaNodeId Node,
                  uint64_t Count) {
  putVarint(Out, Tag);
  putVarint(Out, static_cast<uint32_t>(Node));
  putVarint(Out, Count);
}

template <typename T> void sortUnique(std::vector<T> &V) {
  std::sort(V.begin(), V.end());
  V.erase(std::unique(V.begin(), V.end()), V.end());
}

} // namespace

void ThreadProfile::encode(std::string &Out, const ProfileMark &Since) const {
  // Past the empty mark the reader holds the thread, and every group
  // that existed at the mark.
  const bool Full = Since.Version == 0;
  const bool NameGroups = Full || Groups.size() != Since.Groups;
  putVarint(Out, Full ? TagThread : TagKnownThread);
  putVarint(Out, ThreadId);
  if (Full)
    putBytes(Out, ThreadName);

  // The CCT only grows, so its delta is the id range appended since.
  size_t First = std::max<size_t>(Since.CctNodes, 1);
  if (First < Tree.size()) {
    putVarint(Out, TagNodes);
    putVarint(Out, First);
    putVarint(Out, Tree.size() - First);
    for (size_t N = First; N < Tree.size(); ++N) {
      CctNodeId Id = static_cast<CctNodeId>(N);
      putVarint(Out, Tree.parentOf(Id));
      putVarint(Out, Tree.methodOf(Id));
      putVarint(Out, Tree.bciOf(Id));
    }
  }

  bool FromLog = LogBase != kNoReader && LogBase <= Since.Version &&
                 Since.Version <= Version;
  if (FromLog) {
    // The touched keys, each once and in key order.
    std::vector<AllocKey> Keys;
    std::vector<std::pair<AllocKey, CctNodeId>> Accesses;
    std::vector<std::pair<AllocKey, NumaNodeId>> Homes, Cpus;
    std::vector<CctNodeId> Codes;
    for (const Change &C : Log) {
      if (C.Kind == Change::Code) {
        Codes.push_back(C.Node);
        continue;
      }
      AllocKey Key{C.AllocThread, C.AllocNode};
      Keys.push_back(Key);
      if (C.Kind != Change::Sample)
        continue;
      Accesses.push_back({Key, C.Node});
      if (C.Home != kInvalidNode)
        Homes.push_back({Key, C.Home});
      if (C.Cpu != kInvalidNode)
        Cpus.push_back({Key, C.Cpu});
    }
    sortUnique(Keys);
    sortUnique(Accesses);
    sortUnique(Homes);
    sortUnique(Cpus);
    sortUnique(Codes);
    auto A = Accesses.begin();
    auto H = Homes.begin();
    auto C = Cpus.begin();
    for (const AllocKey &Key : Keys) {
      const ObjectGroupStats &G = Groups.at(Key);
      putGroup(Out, Key, G, NameGroups);
      for (; A != Accesses.end() && A->first == Key; ++A)
        putNodeMetrics(Out, TagAccess, A->second,
                       G.AccessBreakdown.at(A->second));
      for (; H != Homes.end() && H->first == Key; ++H)
        putNumaCount(Out, TagHomeNode, H->second,
                     G.HomeNodeSamples.at(H->second));
      for (; C != Cpus.end() && C->first == Key; ++C)
        putNumaCount(Out, TagCpuNode, C->second,
                     G.AccessNodeSamples.at(C->second));
    }
    for (CctNodeId Node : Codes)
      putNodeMetrics(Out, TagCode, Node, CodeCentric.at(Node));
  } else {
    for (const auto &[Key, G] : Groups) {
      putGroup(Out, Key, G, NameGroups);
      for (const auto &[Node, M] : G.AccessBreakdown)
        putNodeMetrics(Out, TagAccess, Node, M);
      for (const auto &[Node, Count] : G.HomeNodeSamples)
        putNumaCount(Out, TagHomeNode, Node, Count);
      for (const auto &[Node, Count] : G.AccessNodeSamples)
        putNumaCount(Out, TagCpuNode, Node, Count);
    }
    for (const auto &[Node, M] : CodeCentric)
      putNodeMetrics(Out, TagCode, Node, M);
  }

  if (Since.Version == 0 || Since.Version != Version) {
    putVarint(Out, TagTotals);
    putMetrics(Out, Totals);
    putVarint(Out, Unattributed);
  }
  putVarint(Out, TagEnd);

  // This caller now holds mark(): restart the log there.
  LogBase = Version;
  Log.clear();
  std::fill(LogSlots.begin(), LogSlots.end(), 0);
}

bool ThreadProfile::decodeInto(std::string_view Delta,
                               ThreadProfile *Target) const {
  VarintReader R(Delta);
  uint64_t Tag, Tid;
  std::string_view Name;
  // Only a profile past the empty mark holds its thread.
  if (!R.u64(Tag) ||
      (Tag != TagThread && (Tag != TagKnownThread || Version == 0)) ||
      !R.u64(Tid) || (Tag == TagThread && !R.bytes(Name)) || Tid != ThreadId)
    return false;
  if (Target && Tag == TagThread)
    Target->ThreadName.assign(Name);
  // Checked against the tree as the delta extends it; Target's tree is
  // this tree when applying. Known is the size before this delta.
  const size_t Known = Tree.size();
  size_t NumNodes = Known;
  bool InGroup = false;
  ObjectGroupStats *Group = nullptr;
  while (R.u64(Tag)) {
    switch (Tag) {
    case TagEnd:
      return R.atEnd();
    case TagNodes: {
      uint64_t First, Count;
      // First past the tree is a gap in the node ids; a node takes at
      // least three bytes, which bounds Count.
      if (!R.u64(First) || !R.u64(Count) || First > NumNodes ||
          Count > Delta.size())
        return false;
      for (uint64_t Id = First; Id < First + Count; ++Id) {
        uint32_t Parent, Method, Bci;
        if (!R.u32(Parent) || !R.u32(Method) || !R.u32(Bci))
          return false;
        if (Id < NumNodes) {
          // A node the tree had before this delta must repeat exactly,
          // so applying a delta twice is a no-op.
          CctNodeId N = static_cast<CctNodeId>(Id);
          if (Id >= Known || Tree.parentOf(N) != Parent ||
              Tree.methodOf(N) != Method || Tree.bciOf(N) != Bci)
            return false;
          continue;
        }
        if (Parent >= NumNodes)
          return false;
        if (Target)
          Target->Tree.append(Parent, Method, Bci);
        ++NumNodes;
      }
      break;
    }
    case TagGroup:
    case TagKnownGroup: {
      AllocKey Key;
      std::string_view Type;
      ObjectGroupStats G;
      const bool Named = Tag == TagGroup;
      if (!R.u64(Key.AllocThread) || !R.u32(Key.AllocNode) ||
          (Named && !R.bytes(Type)) || !R.u64(G.AllocCount) ||
          !R.u64(G.AllocBytes) || !R.u64(G.RemoteSamples) ||
          !R.u64(G.AddressSamples) || !readMetrics(R, G.Metrics) ||
          (!Named && Groups.count(Key) == 0))
        return false;
      InGroup = true;
      if (Target) {
        Group = &Target->Groups[Key];
        if (Named)
          Group->TypeName.assign(Type);
        Group->AllocCount = G.AllocCount;
        Group->AllocBytes = G.AllocBytes;
        Group->RemoteSamples = G.RemoteSamples;
        Group->AddressSamples = G.AddressSamples;
        Group->Metrics = G.Metrics;
      }
      break;
    }
    case TagAccess:
    case TagCode: {
      uint32_t Node;
      MetricCounts M;
      if ((Tag == TagAccess && !InGroup) || !R.u32(Node) ||
          Node >= NumNodes || !readMetrics(R, M))
        return false;
      if (Target)
        (Tag == TagAccess ? Group->AccessBreakdown
                          : Target->CodeCentric)[Node] = M;
      break;
    }
    case TagHomeNode:
    case TagCpuNode: {
      uint32_t Node;
      uint64_t Count;
      if (!InGroup || !R.u32(Node) || Node > INT32_MAX || !R.u64(Count))
        return false;
      if (Target)
        (Tag == TagHomeNode ? Group->HomeNodeSamples
                            : Group->AccessNodeSamples)
            [static_cast<NumaNodeId>(Node)] = Count;
      break;
    }
    case TagTotals: {
      MetricCounts M;
      uint64_t U;
      if (!readMetrics(R, M) || !R.u64(U))
        return false;
      if (Target) {
        Target->Totals = M;
        Target->Unattributed = U;
      }
      break;
    }
    default:
      return false; // Unknown record tag.
    }
  }
  return false; // Truncated: no End record.
}

bool ThreadProfile::check(std::string_view Delta) const {
  return decodeInto(Delta, nullptr);
}

bool ThreadProfile::apply(std::string_view Delta) {
  forgetChanges(); // The log cannot say what the delta touched.
  bool Ok = decodeInto(Delta, this); // Checks Version before the bump.
  ++Version;
  return Ok;
}

void ThreadProfile::remapIds(uint64_t ThreadOffset,
                             const std::vector<MethodId> &MethodMap) {
  auto MapTid = [&](uint64_t Tid) { return Tid == 0 ? 0 : Tid + ThreadOffset; };
  ThreadId = MapTid(ThreadId);
  Tree.remapMethods(MethodMap);
  // MapTid keeps the key order, so the rebuilt map fills from the end.
  std::map<AllocKey, ObjectGroupStats> Remapped;
  for (auto &[Key, G] : Groups)
    Remapped.emplace_hint(Remapped.end(),
                          AllocKey{MapTid(Key.AllocThread), Key.AllocNode},
                          std::move(G));
  Groups = std::move(Remapped);
  ++Version;
  forgetChanges();
}
