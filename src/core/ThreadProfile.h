//===- ThreadProfile.h - Per-thread object-centric profile ------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-thread measurement state (§5.1): each thread owns a compact CCT and
/// the object-centric metric tables keyed by allocation identity; the
/// offline analyzer merges these across threads (§5.2). A profile also
/// records the plain code-centric view (what Linux perf would report) for
/// the Figure 1 comparison.
///
/// Profiles have one binary encoding (LEB128 varint records), and the
/// profile journal is the one way it reaches disk: the journal streams
/// each thread's records as per-epoch Deltas and whole-profile
/// Checkpoints, and the offline analyzer reads them back — the workflow
/// of Figure 3. A full profile is the delta from an empty one: apply() it
/// to ThreadProfile(Tid, "").
///
/// Encoding, one record after another, each a varint tag then varint
/// fields (strings length-prefixed):
///
///   Thread      tid, name                    first, from a version-0 mark
///   KnownThread tid                          first, from any later mark
///   Nodes       first id, count, count x (parent, method, bci)
///   Group       alloc tid, alloc node, type, allocs, bytes, remote,
///               address samples, metrics
///   KnownGroup  a Group record without the type
///   Access      node, metrics      } of the group record before them
///   HomeNode    numa node, count   }
///   CpuNode     numa node, count   }
///   Code        node, metrics
///   Totals      metrics, unattributed
///   End
///
/// A metrics field is a varint mask of the event kinds whose count is
/// nonzero, then those counts in kind order; a zero count is never
/// written, as proto3 never writes a field at its default.
///
/// Each name is sent once. An encoding from a version-0 mark (a full
/// one included) names the thread and every group. A later delta names
/// its groups only when the profile gained a group since its mark:
/// groups are never erased, so every group that existed at the mark has
/// already reached the reader. A reader that holds no such thread or
/// group rejects the nameless record.
///
/// Every record carries absolute values, so applying one is an
/// idempotent overwrite. Records come in key order (groups by AllocKey,
/// entries by node), so the bytes depend only on the profile's content.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_CORE_THREADPROFILE_H
#define DJX_CORE_THREADPROFILE_H

#include "core/Cct.h"
#include "core/LiveObjectIndex.h"
#include "core/Metrics.h"
#include "sim/NumaTopology.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace djx {

/// Allocation identity used as the object-group key: the allocating thread
/// plus the allocation-context node in *that thread's* CCT.
struct AllocKey {
  uint64_t AllocThread = 0;
  CctNodeId AllocNode = kCctRoot;

  bool operator<(const AllocKey &O) const {
    if (AllocThread != O.AllocThread)
      return AllocThread < O.AllocThread;
    return AllocNode < O.AllocNode;
  }
  bool operator==(const AllocKey &O) const {
    return AllocThread == O.AllocThread && AllocNode == O.AllocNode;
  }
};

/// Aggregated measurements for all objects sharing one allocation context.
struct ObjectGroupStats {
  std::string TypeName;
  /// Allocation-side statistics (filled by the allocating thread only).
  uint64_t AllocCount = 0;
  uint64_t AllocBytes = 0;
  /// PMU metrics aggregated over all sampled accesses to the group.
  MetricCounts Metrics;
  /// NUMA diagnosis: sampled accesses whose page resided on a different
  /// node than the accessing CPU (§4.3).
  uint64_t RemoteSamples = 0;
  uint64_t AddressSamples = 0;
  /// Node residency histogram: per sampled access, the home node the
  /// move_pages analogue reported for the effective address.
  std::map<NumaNodeId, uint64_t> HomeNodeSamples;
  /// Accessing-side histogram: the node of the sampling CPU
  /// (PERF_SAMPLE_CPU). Together with HomeNodeSamples this drives the
  /// placement remediation hint (bind vs. interleave, §7.5/§7.6).
  std::map<NumaNodeId, uint64_t> AccessNodeSamples;
  /// Disaggregated access contexts (nodes of the owning profile's CCT).
  std::map<CctNodeId, MetricCounts> AccessBreakdown;
};

/// A point in a profile's history; ThreadProfile::encode() emits what
/// changed after it. The default mark is the empty profile.
struct ProfileMark {
  uint64_t Version = 0;
  size_t CctNodes = 1; ///< The root is implicit.
  size_t Groups = 0;   ///< Groups are never erased.
};

/// One thread's complete profile.
class ThreadProfile {
public:
  ThreadProfile() = default;
  ThreadProfile(uint64_t ThreadId, std::string ThreadName)
      : ThreadId(ThreadId), ThreadName(std::move(ThreadName)) {}

  uint64_t threadId() const { return ThreadId; }
  const std::string &threadName() const { return ThreadName; }

  Cct &cct() { return Tree; }
  const Cct &cct() const { return Tree; }

  /// Records an allocation of \p Bytes at context \p AllocNode (a node of
  /// this thread's CCT).
  void recordAllocation(CctNodeId AllocNode, const std::string &TypeName,
                        uint64_t Bytes);

  /// Attributes one sample to the object group identified by \p Key, with
  /// the access context \p AccessNode (a node of this thread's CCT).
  /// \p HomeNode / \p CpuNode feed the per-object NUMA residency
  /// histograms when known (kInvalidNode: NUMA tracking off or the page
  /// was never placed).
  void recordObjectSample(const AllocKey &Key, const std::string &TypeName,
                          PerfEventKind Kind, CctNodeId AccessNode,
                          bool Remote, NumaNodeId HomeNode = kInvalidNode,
                          NumaNodeId CpuNode = kInvalidNode);

  /// Records the code-centric view of one sample.
  void recordCodeSample(CctNodeId AccessNode, PerfEventKind Kind);

  /// Records a sample that hit no tracked object.
  void recordUnattributed(PerfEventKind Kind);

  const std::map<AllocKey, ObjectGroupStats> &groups() const {
    return Groups;
  }
  const std::map<CctNodeId, MetricCounts> &codeCentric() const {
    return CodeCentric;
  }
  const MetricCounts &totals() const { return Totals; }
  uint64_t unattributedSamples() const { return Unattributed; }

  /// Where the profile stands now: its change counter (bumped by every
  /// record* call), CCT size and group count.
  ProfileMark mark() const { return {Version, Tree.size(), Groups.size()}; }
  /// False when nothing (records or CCT nodes) changed after \p Since.
  bool changedSince(const ProfileMark &Since) const {
    return Version != Since.Version || Tree.size() != Since.CctNodes;
  }

  size_t memoryFootprint() const;

  /// Appends to \p Out the records changed after \p Since: the CCT nodes
  /// appended since, the touched groups and entries, and the totals. The
  /// default \p Since encodes the full profile.
  ///
  /// Touched entries come from a bounded change log. The log has one
  /// reader, whoever calls encode() (the profile journal): each call
  /// restarts it at the current version, so a profile nobody encodes logs
  /// nothing. When \p Since is not the previous call's mark, or the log
  /// overflowed kChangeLogCap in between, the full profile is sent
  /// instead; never a wrong delta, only a bigger one.
  void encode(std::string &Out,
              const ProfileMark &Since = ProfileMark()) const;

  /// True when \p Delta is a well-formed encoding for this profile: its
  /// Thread record names threadId(), its Nodes continue this CCT, every
  /// node it references exists, and a nameless record only refers to a
  /// thread or group the profile holds (a profile holds its thread once
  /// it is past the empty mark). Never modifies the profile.
  bool check(std::string_view Delta) const;

  /// Applies an encoded delta in one pass that validates each record
  /// before writing it. \returns false when check() would reject
  /// \p Delta; the profile is then partly applied, and the caller
  /// discards it.
  bool apply(std::string_view Delta);

  /// Merge support: adds \p ThreadOffset to every real thread id (id 0,
  /// unknown provenance, is kept) and maps CCT method ids through
  /// \p MethodMap (index = old id; ids past its end are kept).
  void remapIds(uint64_t ThreadOffset,
                const std::vector<MethodId> &MethodMap);

private:
  /// One change-log entry: a touched group and, for samples, the
  /// access / home / CPU entries the sample touched too.
  struct Change {
    enum KindTy : uint8_t { Alloc, Sample, Code };
    uint64_t AllocThread;
    CctNodeId AllocNode;
    CctNodeId Node;    ///< Sample: access node; Code: the code node.
    int16_t Home, Cpu; ///< Sample: NUMA nodes, kInvalidNode if unknown.
    KindTy Kind;
    bool operator==(const Change &O) const {
      return AllocThread == O.AllocThread && AllocNode == O.AllocNode &&
             Node == O.Node && Home == O.Home && Cpu == O.Cpu &&
             Kind == O.Kind;
    }
  };
  /// Distinct changes the log holds; past it the log stops until the
  /// next encode(), which then sends the full profile.
  static constexpr size_t kChangeLogCap = 4096;
  /// LogBase while nobody reads the log.
  static constexpr uint64_t kNoReader = UINT64_MAX;

  void logChange(const Change &C);
  static size_t hashChange(const Change &C);
  /// Indexes Log[Index] in LogSlots.
  void insertSlot(size_t Index);
  /// Stops the log and frees it until the next encode().
  void forgetChanges() const;
  /// Walks \p Delta; writes into \p Target when non-null, else only
  /// checks it against this profile.
  bool decodeInto(std::string_view Delta, ThreadProfile *Target) const;

  uint64_t ThreadId = 0;
  std::string ThreadName;
  Cct Tree;
  std::map<AllocKey, ObjectGroupStats> Groups;
  std::map<CctNodeId, MetricCounts> CodeCentric;
  MetricCounts Totals;
  uint64_t Unattributed = 0;
  uint64_t Version = 0;
  /// Change log: the distinct changes made after version LogBase, with
  /// an open-addressing index (1-based positions in Log, 0 = empty slot)
  /// that keeps repeats out. encode() restarts it, hence mutable.
  mutable std::vector<Change> Log;
  mutable std::vector<uint16_t> LogSlots;
  mutable uint64_t LogBase = kNoReader;
};

} // namespace djx

#endif // DJX_CORE_THREADPROFILE_H
