//===- io/JournalReader.h - Journal scan/verify/recover ---------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recovery side of the profile journal (`djxperf recover` / `merge`):
/// scan the byte stream front to back, verify every segment's magic,
/// CRC32C, bounds and sequence number, and stop at the first violation —
/// the truncation rule is "salvage exactly the valid prefix", never
/// resynchronize past damage. Recovered state is the state at the last
/// valid Commit (or Close) sentinel; structurally valid segments after
/// it are uncommitted and reported as dropped.
///
/// What gets decoded: the scan verifies every segment and keeps a Delta
/// or Checkpoint payload as an undecoded view until its Commit/Close
/// sentinel applies it over the committed profiles, each thread entry
/// once by a validating apply; a trailing uncommitted payload is only
/// checked. The reader accepts only what the writer writes: a
/// Checkpoint opens its file, so one after a Delta or Checkpoint is a
/// malformed segment, and nothing committed is ever superseded. A
/// malformed payload makes the scan run once more and stop at it, as if
/// checked when read. So does a committed payload whose CCT nodes name
/// a method id past the tables committed with or before it ("method id
/// out of range"): every recovered node's method is one the table
/// defines, so merge and render never index past it. Recovery decodes
/// every payload in the file once: at most its one Checkpoint and the
/// Deltas the writer's checkpoint rule allows after it, however long
/// the run.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_IO_JOURNALREADER_H
#define DJX_IO_JOURNALREADER_H

#include "core/ThreadProfile.h"
#include "io/ProfileJournal.h"
#include "jvm/MethodRegistry.h"
#include "support/VmError.h"

#include <cstdint>
#include <string>
#include <vector>

namespace djx {

/// One structurally valid segment, as the scanner saw it.
struct JournalSegmentInfo {
  uint64_t Offset = 0; ///< File offset of the segment header.
  uint64_t Length = 0; ///< Header + payload bytes.
  uint32_t Type = 0;   ///< SegmentType value.
  uint64_t Seq = 0;
  uint64_t Epoch = 0;
};

/// Everything salvageable from one journal file.
struct JournalRecovery {
  /// File header present and checksummed; when false nothing below is
  /// meaningful and the CLI reports JournalCorrupt.
  bool HeaderValid = false;
  std::string HeaderError;

  JournalMeta Meta;
  bool HasMeta = false;

  /// Rebuilt method registry content; index == original MethodId.
  std::vector<MethodInfo> Methods;
  /// Profiles as of the last Commit/Close, in thread-id order.
  std::vector<ThreadProfile> Profiles;

  /// Structurally valid segments, in file order (committed or not).
  std::vector<JournalSegmentInfo> Segments;
  uint64_t SegmentsCommitted = 0;
  /// Valid segments after the last Commit/Close — appended but never
  /// made durable; dropped by the truncation rule.
  uint64_t SegmentsUncommitted = 0;
  /// File bytes contributing to the recovered state (header + committed
  /// segments).
  uint64_t BytesKept = 0;
  /// Delta and Checkpoint payload bytes decoded to get here, over both
  /// scan passes.
  uint64_t DecodedBytes = 0;
  /// Bytes after the last structurally valid segment (torn/corrupt
  /// tail).
  uint64_t TrailingBytes = 0;
  /// Why the scan stopped before EOF; empty when the file ended exactly
  /// at a segment boundary.
  std::string TruncationReason;

  uint64_t LastEpoch = 0; ///< Epoch of the last valid Commit.
  uint64_t LastRound = 0; ///< Executor round stamped in that Commit.

  /// Close sentinel, when the journal is complete.
  bool Closed = false;
  bool CloseClean = false;
  VmError CloseError;
  uint64_t CloseSamplesHandled = 0;
  uint64_t CloseSamplesDropped = 0;

  /// True when the recovered report does not cover the full run: no
  /// clean Close, or data was dropped getting here.
  bool degraded() const {
    return !Closed || SegmentsUncommitted != 0 || TrailingBytes != 0;
  }
};

/// Scans \p Path and salvages the valid prefix. Never throws; an
/// unreadable or unrecognizable file comes back with HeaderValid ==
/// false.
JournalRecovery readJournal(const std::string &Path);

/// Registry whose MethodIds equal the journal's original ids.
MethodRegistry buildJournalMethodRegistry(const JournalRecovery &R);

} // namespace djx

#endif // DJX_IO_JOURNALREADER_H
