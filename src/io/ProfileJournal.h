//===- io/ProfileJournal.h - Crash-durable profile journal ------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Append-only, checksummed journal of profile state: `djxperf --journal`
/// streams per-epoch profile deltas to disk so a killed or wedged
/// profiler still yields a usable report (`djxperf recover`), and many
/// single-VM journals fold into one fleet report (`djxperf merge`).
///
/// On-disk format (fixed-width integers little-endian):
///
///   file header (16 bytes)
///     +0  magic    "DJXJRNL1"                                (8 bytes)
///     +8  version  u32 = 4
///     +12 crc      u32 CRC32C of bytes [0, 12)
///
///   segment (32-byte header + payload), repeated to EOF
///     +0  magic    u32 = kJournalSegmentMagic
///     +4  type     u32 SegmentType
///     +8  seq      u64 monotonic sequence number, 1-based
///     +16 epoch    u64 flush ordinal (0 for Meta)
///     +24 len      u32 payload byte count
///     +28 crc      u32 CRC32C of bytes [4, 28) + payload
///
/// Segment types:
///   Meta        — run/render options (text key-value lines); first
///                 segment of every journal.
///   MethodTable — delta of newly registered methods since the last
///                 flush (binary; ids are assigned contiguously so the
///                 reader rebuilds the registry by position).
///   Delta       — at most one per epoch: for each thread whose profile
///                 changed since its last journaled epoch, in thread-id
///                 order, a LEB128 varint thread id, a varint byte
///                 count, and ThreadProfile::encode's records of what
///                 changed (the full profile the first time a thread
///                 appears). Records hold absolute values, so the reader
///                 overwrites; the journal grows with the changes, not
///                 with rounds x profile size. Since version 4 the
///                 records are compact: a metrics field lists only its
///                 nonzero counts, behind a mask of their kinds, and a
///                 name is sent once (the thread's in its first
///                 encoding, a group's type only in a Delta whose
///                 profile gained a group since the thread's last
///                 epoch; every group older than that is already in
///                 the file, in its Checkpoint or a Delta after it).
///   Checkpoint  — written in place of an epoch's Delta (so still at
///                 most one of the two per epoch) when that Delta would
///                 bring the Delta payload bytes since the last
///                 Checkpoint to max(64 KiB, 64 x that Checkpoint's
///                 payload bytes). Framed as a Delta, but it holds every
///                 profile's full encoding (the delta from
///                 ProfileMark{}), in thread-id order: the whole state
///                 at its epoch. It opens a fresh file (see
///                 Compaction), so it is a file's first Delta or
///                 Checkpoint, and a reader treats one anywhere else as
///                 malformed. The ratio caps the extra bytes at about
///                 1/64 of the Deltas, and a journal whose Deltas stay
///                 under 64 KiB has none before its closing one.
///   Commit      — epoch sentinel (u64 executor round): everything up
///                 to and including this segment is a consistent
///                 snapshot. Recovery state = state at the last valid
///                 Commit.
///   Close       — terminal sentinel carrying the run's outcome (clean,
///                 or the VmError that degraded it plus the sample
///                 accounting), so `recover` on a complete journal
///                 reproduces the run's report — degraded banner
///                 included — byte for byte.
///
/// Compaction: the writer starts a fresh file with every Checkpoint, so
/// a file is rooted at its last Checkpoint. The new file is the header,
/// Meta, one MethodTable holding every method from id 0, the
/// Checkpoint and its Commit; sequence numbers restart at 1 and epoch
/// numbers carry on. It is written whole to <path>.tmp and rename()d
/// over <path>, then appended to as before. So the file holds at most
/// that prefix plus the Deltas the checkpoint rule allows after it, and
/// recovery reads tens of KB however long the run. closeClean() and
/// closeFailed() make the closing epoch a Checkpoint too, so a closed
/// journal is one file of Meta, the MethodTable, its final Checkpoint,
/// the Commit and the Close, and `recover` or `merge` of a finished run
/// decodes that one Checkpoint. At every moment
/// <path> is either the old file, valid to its last Commit, or the new
/// one; a crash between the tmp write and the rename recovers the epoch
/// before the Checkpoint, and the next open() removes the stale tmp. A
/// failed tmp open, write or rename removes the tmp and degrades the
/// journal to off, leaving <path> the old file. Journals whose Deltas
/// stay under 64 KiB are rewritten only at close.
///
/// Epochs are flushed at executor round barriers (single-threaded
/// windows, so deltas are race-free and --jobs-invariant), at
/// GC-finish for serial workloads, and on the VmError unwind path after
/// the profiler drained its rings. Writes are buffered per epoch and
/// flushed with plain append write()s: everything the kernel accepted
/// survives SIGKILL, and the CRC + Commit discipline makes the valid
/// prefix a consistent snapshot no matter where the byte stream tears.
/// The compaction rename is no stronger: like the appends it is not
/// fsync()ed, so it survives SIGKILL but not power loss.
///
/// I/O fault sites (FaultInjector, keyed on run-wide logical ordinals
/// that a compaction does not restart, so plans stay --jobs-invariant):
/// JournalShortWrite (torn tail, journaling then off),
/// JournalWriteError (transient EIO, bounded backoff then journaling
/// off; the run always continues), JournalCorruptByte (bit flip in a
/// buffered segment, caught by CRC on read-back). The first two also
/// fire on a compaction's tmp write.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_IO_PROFILEJOURNAL_H
#define DJX_IO_PROFILEJOURNAL_H

#include "core/ThreadProfile.h"
#include "support/VmError.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>

namespace djx {

class DjxPerf;
class MethodRegistry;

/// "DJXJRNL1"
inline constexpr char kJournalFileMagic[8] = {'D', 'J', 'X', 'J',
                                              'R', 'N', 'L', '1'};
inline constexpr uint32_t kJournalFormatVersion = 4;
/// "DJSG" little-endian.
inline constexpr uint32_t kJournalSegmentMagic = 0x47534a44u;
inline constexpr size_t kJournalFileHeaderBytes = 16;
inline constexpr size_t kJournalSegmentHeaderBytes = 32;
/// Upper bound a reader accepts for one payload; a length field above
/// this is corruption, not a big segment.
inline constexpr uint32_t kJournalMaxPayloadBytes = 64u << 20;
/// Checkpoint rule: a Checkpoint replaces the Delta that would bring the
/// Delta payload bytes since the last one to max(floor, ratio x that
/// Checkpoint's payload bytes).
inline constexpr uint64_t kJournalCheckpointFloorBytes = 64u << 10;
inline constexpr uint64_t kJournalCheckpointRatio = 64;

enum class SegmentType : uint32_t {
  Meta = 1,
  MethodTable = 2,
  Delta = 3,
  Commit = 4,
  Close = 5,
  Checkpoint = 6,
};

/// Run metadata captured at journal open, enough for `recover`/`merge`
/// to render the exact same report without a VM.
struct JournalMeta {
  std::string Workload;
  std::string Title; ///< HTML report title.
  unsigned EventKind = 1; ///< PerfEventKind ordinal of the sort metric.
  unsigned ReportMode = 0; ///< 0 = object, 1 = code, 2 = both.
  unsigned TopGroups = 10;
  unsigned TopAccessContexts = 5;
  double MinShare = 0.0;
  bool ShowNuma = true;
};

/// The journal writer. Degrades to inert (active() == false) after an
/// unrecoverable I/O failure — journaling is an observer; it never fails
/// the run it is recording.
class ProfileJournal {
public:
  /// Creates/truncates \p Path, removes a stale <path>.tmp, and writes
  /// the file header + Meta segment. \returns null (with \p Error set)
  /// when the file cannot be opened, or when \p Path names something
  /// other than a regular file (a symlink, FIFO or device): every
  /// compaction, the closing one included, renames a fresh file over it.
  static std::unique_ptr<ProfileJournal>
  open(const std::string &Path, const JournalMeta &Meta,
       std::string *Error = nullptr);

  ~ProfileJournal();

  ProfileJournal(const ProfileJournal &) = delete;
  ProfileJournal &operator=(const ProfileJournal &) = delete;

  /// False once the journal degraded to off (I/O failure).
  bool active() const { return Fd >= 0; }
  const std::string &path() const { return Path; }

  /// Writes one durable epoch: the method-table delta, the Delta of
  /// every profile that changed, then a Commit sentinel for
  /// \p Round; physically flushed before returning. Must be called at a
  /// quiescent point (round barrier / GC finish / after stop()).
  void flush(const DjxPerf &Prof, const MethodRegistry &Methods,
             uint64_t Round);

  /// Final flush + clean Close sentinel. Idempotent once closed.
  void closeClean(const DjxPerf &Prof, const MethodRegistry &Methods);

  /// Final flush + Close sentinel carrying the failure \p E and sample
  /// accounting, mirroring the degraded report the CLI prints. Call
  /// after the profiler drained its rings (stop()), so salvaged samples
  /// reach the journal.
  void closeFailed(const DjxPerf &Prof, const MethodRegistry &Methods,
                   const VmError &E, uint64_t SamplesHandled,
                   uint64_t SamplesDropped);

  uint64_t epochsCommitted() const { return Epoch; }
  /// Segments and bytes written over the run, each compaction's
  /// rewritten prefix included: not the file's current size.
  uint64_t segmentsWritten() const { return Segments; }
  uint64_t bytesWritten() const { return BytesOut; }

private:
  ProfileJournal(int Fd, std::string Path);

  void appendSegment(SegmentType Type, uint64_t EpochNo,
                     const std::string &Payload);
  /// File header + Meta into the pending buffer; sequence numbers
  /// restart.
  void bufferFileStart();
  /// Method table + Delta (or Checkpoint) + Commit into the pending
  /// buffer (no I/O). A Checkpoint makes the buffer a whole new file;
  /// the \p Closing epoch is always one.
  void bufferEpoch(const DjxPerf &Prof, const MethodRegistry &Methods,
                   uint64_t Round, bool Closing = false);
  void bufferClose(const VmError *E, uint64_t SamplesHandled,
                   uint64_t SamplesDropped);
  /// Writes the pending buffer, appended or (after a Checkpoint) as the
  /// new file. \returns false when the journal degraded to off.
  bool physFlush();
  /// Writes the pending buffer to \p To through the fault-injection
  /// sites. \returns why it failed, or an empty string.
  std::string writePending(int To);
  void degrade(const std::string &Reason);

  int Fd = -1;
  std::string Path;
  std::string Pending;
  /// Pending holds a whole new file, to go to <path>.tmp and be renamed.
  bool Compacting = false;
  bool Closed = false;
  std::string MetaPayload; ///< Written at the start of every file.
  uint64_t Seq = 0;   ///< Last sequence number in the current file.
  uint64_t Segments = 0; ///< Segments appended over the run.
  uint64_t Epoch = 0; ///< Last committed epoch.
  uint64_t BytesOut = 0;
  uint64_t WriteOrdinal = 0; ///< Logical key for write fault draws.
  size_t MethodsFlushed = 0;
  /// Per thread, the profile's mark at its last journaled epoch.
  std::map<uint64_t, ProfileMark> Journaled;
  /// Delta payload bytes since the last Checkpoint, and that
  /// Checkpoint's payload bytes (0 before the first).
  uint64_t DeltaBytesSinceCheckpoint = 0;
  uint64_t CheckpointBytes = 0;
  /// Reused buffers: the epoch's Delta payload, one thread's records.
  std::string DeltaBuf, RecordBuf;
};

/// Serialises \p Meta to the Meta segment's text payload.
std::string encodeJournalMeta(const JournalMeta &Meta);
/// Parses a Meta payload. \returns false on malformed input.
bool decodeJournalMeta(const std::string &Payload, JournalMeta &Meta);

} // namespace djx

#endif // DJX_IO_PROFILEJOURNAL_H
