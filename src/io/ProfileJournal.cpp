//===- io/ProfileJournal.cpp - Crash-durable profile journal ---------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "io/ProfileJournal.h"

#include "core/DjxPerf.h"
#include "io/Checksum.h"
#include "jvm/MethodRegistry.h"
#include "support/FaultInjector.h"
#include "support/Varint.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <sstream>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>

using namespace djx;

namespace {

void appendU32(std::string &Out, uint32_t V) {
  char B[4];
  for (int I = 0; I < 4; ++I)
    B[I] = static_cast<char>((V >> (8 * I)) & 0xff);
  Out.append(B, 4);
}

void appendU64(std::string &Out, uint64_t V) {
  char B[8];
  for (int I = 0; I < 8; ++I)
    B[I] = static_cast<char>((V >> (8 * I)) & 0xff);
  Out.append(B, 8);
}

/// Resumable full write: advances \p Done so a retry after a transient
/// error continues where the kernel left off instead of duplicating
/// bytes in the append-only stream.
bool writeFrom(int Fd, const std::string &Data, size_t &Done) {
  while (Done < Data.size()) {
    ssize_t N = ::write(Fd, Data.data() + Done, Data.size() - Done);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Done += static_cast<size_t>(N);
  }
  return true;
}

/// Deterministic byte/cut positions for the injection sites: a pure
/// function of the logical key, same splitmix finalizer as the injector.
uint64_t posMix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

constexpr unsigned kMaxWriteAttempts = 3;

/// Appends one thread entry (varint tid, varint length, records) to a
/// Delta or Checkpoint payload.
void putThreadEntry(std::string &Payload, uint64_t Tid,
                    const std::string &Records) {
  putVarint(Payload, Tid);
  putBytes(Payload, Records);
}

} // namespace

std::string djx::encodeJournalMeta(const JournalMeta &Meta) {
  std::ostringstream OS;
  OS << "event " << Meta.EventKind << '\n';
  OS << "mode " << Meta.ReportMode << '\n';
  OS << "top " << Meta.TopGroups << '\n';
  OS << "accessctx " << Meta.TopAccessContexts << '\n';
  uint64_t Bits = 0;
  static_assert(sizeof(Bits) == sizeof(Meta.MinShare), "double is 64-bit");
  std::memcpy(&Bits, &Meta.MinShare, sizeof(Bits));
  OS << "minshare " << std::hex << Bits << std::dec << '\n';
  OS << "shownuma " << (Meta.ShowNuma ? 1 : 0) << '\n';
  OS << "workload " << Meta.Workload << '\n';
  OS << "title " << Meta.Title << '\n';
  return OS.str();
}

bool djx::decodeJournalMeta(const std::string &Payload, JournalMeta &Meta) {
  std::istringstream IS(Payload);
  std::string Line;
  while (std::getline(IS, Line)) {
    std::istringstream LS(Line);
    std::string Tag;
    if (!(LS >> Tag))
      continue;
    if (Tag == "event") {
      if (!(LS >> Meta.EventKind))
        return false;
    } else if (Tag == "mode") {
      if (!(LS >> Meta.ReportMode))
        return false;
    } else if (Tag == "top") {
      if (!(LS >> Meta.TopGroups))
        return false;
    } else if (Tag == "accessctx") {
      if (!(LS >> Meta.TopAccessContexts))
        return false;
    } else if (Tag == "minshare") {
      uint64_t Bits = 0;
      if (!(LS >> std::hex >> Bits))
        return false;
      std::memcpy(&Meta.MinShare, &Bits, sizeof(Bits));
    } else if (Tag == "shownuma") {
      int V = 0;
      if (!(LS >> V))
        return false;
      Meta.ShowNuma = V != 0;
    } else if (Tag == "workload" || Tag == "title") {
      std::string Rest;
      std::getline(LS, Rest);
      if (!Rest.empty() && Rest.front() == ' ')
        Rest.erase(0, 1);
      (Tag == "workload" ? Meta.Workload : Meta.Title) = Rest;
    } else {
      return false;
    }
  }
  return true;
}

ProfileJournal::ProfileJournal(int Fd, std::string Path)
    : Fd(Fd), Path(std::move(Path)) {}

ProfileJournal::~ProfileJournal() {
  // No Close sentinel here on purpose: destruction without closeClean/
  // closeFailed is the crash path's semantics (torn journal), and tests
  // rely on it to build incomplete journals deliberately.
  if (Fd >= 0)
    ::close(Fd);
}

std::unique_ptr<ProfileJournal>
ProfileJournal::open(const std::string &Path, const JournalMeta &Meta,
                     std::string *Error) {
  struct stat St;
  if (::lstat(Path.c_str(), &St) == 0 && !S_ISREG(St.st_mode)) {
    if (Error)
      *Error = "not a regular file";
    return nullptr;
  }
  int Fd = ::open(Path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_NOFOLLOW,
                  0644);
  if (Fd < 0) {
    if (Error)
      *Error = std::strerror(errno);
    return nullptr;
  }
  // A run killed between a compaction's tmp write and its rename leaves
  // the tmp behind; this run's file replaces both.
  ::unlink((Path + ".tmp").c_str());
  std::unique_ptr<ProfileJournal> J(new ProfileJournal(Fd, Path));
  J->MetaPayload = encodeJournalMeta(Meta);
  J->bufferFileStart();
  J->physFlush();
  return J;
}

void ProfileJournal::bufferFileStart() {
  std::string Header(kJournalFileMagic, sizeof(kJournalFileMagic));
  appendU32(Header, kJournalFormatVersion);
  appendU32(Header, Crc32c::compute(Header.data(), Header.size()));
  Pending += Header;
  Seq = 0;
  appendSegment(SegmentType::Meta, 0, MetaPayload);
}

void ProfileJournal::appendSegment(SegmentType Type, uint64_t EpochNo,
                                   const std::string &Payload) {
  ++Seq;
  ++Segments;
  size_t Start = Pending.size();
  appendU32(Pending, kJournalSegmentMagic);
  appendU32(Pending, static_cast<uint32_t>(Type));
  appendU64(Pending, Seq);
  appendU64(Pending, EpochNo);
  appendU32(Pending, static_cast<uint32_t>(Payload.size()));
  // CRC covers everything after the magic: header fields + payload.
  uint32_t Crc = Crc32c::compute(Pending.data() + Start + 4,
                                 Pending.size() - Start - 4);
  Crc = Crc32c::compute(Payload.data(), Payload.size(), Crc);
  appendU32(Pending, Crc);
  Pending += Payload;
  // JournalCorruptByte: flip one payload bit after the CRC was computed,
  // so read-back must catch it. Keyed on the run-wide segment ordinal —
  // logical, and unlike Seq never restarted by a compaction — so the
  // corrupted set is --jobs-invariant.
  if (!Payload.empty() &&
      FaultInjector::shouldFail(FaultSite::JournalCorruptByte, Segments)) {
    size_t Pos = Start + kJournalSegmentHeaderBytes +
                 posMix(Segments) % Payload.size();
    Pending[Pos] = static_cast<char>(Pending[Pos] ^
                                     (1u << (posMix(Segments ^ 0xb17) % 8)));
  }
}

void ProfileJournal::bufferEpoch(const DjxPerf &Prof,
                                 const MethodRegistry &Methods,
                                 uint64_t Round, bool Closing) {
  uint64_t EpochNo = Epoch + 1;
  // One Delta for the epoch: per changed thread, what changed since its
  // last journaled epoch. profiles() is sorted by thread id and encode()
  // emits in key order, so the byte stream is deterministic.
  DeltaBuf.clear();
  for (const ThreadProfile *P : Prof.profiles()) {
    auto [It, First] = Journaled.try_emplace(P->threadId());
    if (!First && !P->changedSince(It->second))
      continue;
    RecordBuf.clear();
    P->encode(RecordBuf, It->second);
    It->second = P->mark();
    putThreadEntry(DeltaBuf, P->threadId(), RecordBuf);
  }
  DeltaBytesSinceCheckpoint += DeltaBuf.size();
  const bool Checkpoint =
      Closing || (!DeltaBuf.empty() &&
                  DeltaBytesSinceCheckpoint >=
                      std::max(kJournalCheckpointFloorBytes,
                               kJournalCheckpointRatio * CheckpointBytes));
  // A Checkpoint holds the whole state, so it roots a fresh file: the
  // header, Meta, the method table from id 0, the Checkpoint and its
  // Commit, which physFlush() writes to <path>.tmp and renames over
  // <path>. Sequence numbers restart; epochs carry on. The closing epoch
  // is always one, so a closed journal is its final state alone.
  // (Pending is empty here: every epoch is flushed before the next one
  // is buffered.)
  if (Checkpoint) {
    bufferFileStart();
    MethodsFlushed = 0;
    Compacting = true;
  }
  // Method-table delta: ids are registered contiguously, so the reader
  // rebuilds the registry by position.
  if (Methods.size() > MethodsFlushed) {
    std::string P;
    appendU32(P, static_cast<uint32_t>(MethodsFlushed));
    appendU32(P, static_cast<uint32_t>(Methods.size() - MethodsFlushed));
    for (size_t Id = MethodsFlushed; Id < Methods.size(); ++Id) {
      const MethodInfo &M = Methods.get(static_cast<MethodId>(Id));
      appendU32(P, static_cast<uint32_t>(M.ClassName.size()));
      appendU32(P, static_cast<uint32_t>(M.MethodName.size()));
      appendU32(P, static_cast<uint32_t>(M.LineTable.size()));
      P += M.ClassName;
      P += M.MethodName;
      for (const LineEntry &E : M.LineTable) {
        appendU32(P, E.Bci);
        appendU32(P, E.Line);
      }
    }
    appendSegment(SegmentType::MethodTable, EpochNo, P);
    MethodsFlushed = Methods.size();
  }
  if (Checkpoint) {
    // Every profile's full encoding instead of the Delta. The marks stay
    // where the loop above left them, at each mark(), and encode()
    // restarts each change log there too, so the next epoch's deltas
    // follow on.
    DeltaBuf.clear();
    for (const ThreadProfile *P : Prof.profiles()) {
      RecordBuf.clear();
      P->encode(RecordBuf);
      putThreadEntry(DeltaBuf, P->threadId(), RecordBuf);
    }
    CheckpointBytes = DeltaBuf.size();
    DeltaBytesSinceCheckpoint = 0;
  }
  // A run with no profile closes on a file without a Checkpoint.
  if (!DeltaBuf.empty())
    appendSegment(Checkpoint ? SegmentType::Checkpoint : SegmentType::Delta,
                  EpochNo, DeltaBuf);
  std::string Commit;
  appendU64(Commit, Round);
  appendSegment(SegmentType::Commit, EpochNo, Commit);
  Epoch = EpochNo;
}

void ProfileJournal::bufferClose(const VmError *E, uint64_t SamplesHandled,
                                 uint64_t SamplesDropped) {
  std::string P;
  appendU32(P, E ? 1 : 0);
  appendU32(P, E ? static_cast<uint32_t>(E->Kind) : 0);
  appendU64(P, E ? E->ThreadId : VmError::kNoThread);
  appendU64(P, E ? E->Steps : 0);
  appendU32(P, E ? E->Shard : VmError::kNoShard);
  const std::string &Msg = E ? E->Message : std::string();
  appendU32(P, static_cast<uint32_t>(Msg.size()));
  P += Msg;
  appendU64(P, SamplesHandled);
  appendU64(P, SamplesDropped);
  appendSegment(SegmentType::Close, Epoch, P);
}

void ProfileJournal::flush(const DjxPerf &Prof, const MethodRegistry &Methods,
                           uint64_t Round) {
  if (!active() || Closed)
    return;
  bufferEpoch(Prof, Methods, Round);
  physFlush();
}

void ProfileJournal::closeClean(const DjxPerf &Prof,
                                const MethodRegistry &Methods) {
  if (!active() || Closed)
    return;
  bufferEpoch(Prof, Methods, Epoch == 0 ? 0 : Epoch, /*Closing=*/true);
  bufferClose(nullptr, 0, 0);
  Closed = true;
  physFlush();
}

void ProfileJournal::closeFailed(const DjxPerf &Prof,
                                 const MethodRegistry &Methods,
                                 const VmError &E, uint64_t SamplesHandled,
                                 uint64_t SamplesDropped) {
  if (!active() || Closed)
    return;
  bufferEpoch(Prof, Methods, Epoch == 0 ? 0 : Epoch, /*Closing=*/true);
  bufferClose(&E, SamplesHandled, SamplesDropped);
  Closed = true;
  physFlush();
}

bool ProfileJournal::physFlush() {
  if (Fd < 0) {
    Pending.clear();
    return false;
  }
  if (Pending.empty())
    return true;
  ++WriteOrdinal;
  std::string Failure;
  if (!Compacting) {
    Failure = writePending(Fd);
  } else {
    // The new file goes to <path>.tmp whole, then rename() puts it in
    // place: <path> is the old file, valid to its last Commit, until the
    // rename, and the new one after it. No fsync, as for the appends:
    // this survives SIGKILL, not power loss.
    const std::string Tmp = Path + ".tmp";
    int TmpFd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (TmpFd < 0)
      Failure = "open error on " + Tmp + ": " + std::strerror(errno);
    else if ((Failure = writePending(TmpFd)).empty() &&
             ::rename(Tmp.c_str(), Path.c_str()) != 0)
      Failure = "rename error on " + Tmp + ": " + std::strerror(errno);
    if (Failure.empty()) {
      ::close(Fd);
      Fd = TmpFd;
    } else if (TmpFd >= 0) {
      ::close(TmpFd);
      ::unlink(Tmp.c_str());
    }
    Compacting = false;
  }
  if (!Failure.empty()) {
    degrade(Failure);
    return false;
  }
  Pending.clear();
  return true;
}

std::string ProfileJournal::writePending(int To) {
  // JournalShortWrite: the kernel accepted a prefix, then the process
  // "died" — journaling turns off, the torn tail stays on disk, and the
  // reader's CRC discipline must truncate it away. (A torn compaction
  // tmp is removed instead; <path> stays the old file.)
  if (FaultInjector::shouldFail(FaultSite::JournalShortWrite,
                                WriteOrdinal)) {
    size_t Cut = posMix(WriteOrdinal ^ 0x57ULL) % Pending.size();
    size_t Done = 0;
    std::string Prefix = Pending.substr(0, Cut);
    writeFrom(To, Prefix, Done);
    BytesOut += Done;
    return "injected short write (torn tail)";
  }
  size_t Done = 0;
  for (unsigned Attempt = 0;; ++Attempt) {
    bool Injected = FaultInjector::shouldFail(FaultSite::JournalWriteError,
                                              WriteOrdinal, Attempt);
    if (!Injected && writeFrom(To, Pending, Done))
      break;
    if (Attempt + 1 >= kMaxWriteAttempts) {
      BytesOut += Done;
      return Injected ? std::string("injected write error (EIO)")
                      : std::string("write error: ") + std::strerror(errno);
    }
    // Bounded backoff before the retry; the transient-EIO model.
    std::this_thread::sleep_for(std::chrono::milliseconds(1u << Attempt));
  }
  BytesOut += Pending.size();
  return {};
}

void ProfileJournal::degrade(const std::string &Reason) {
  std::fprintf(stderr,
               "djxperf: warning: journal '%s' degraded to off after %s; "
               "run continues without journaling\n",
               Path.c_str(), Reason.c_str());
  if (Fd >= 0)
    ::close(Fd);
  Fd = -1;
  Pending.clear();
}
