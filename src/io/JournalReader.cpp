//===- io/JournalReader.cpp - Journal scan/verify/recover ------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "io/JournalReader.h"

#include "io/Checksum.h"
#include "support/Varint.h"

#include <cstring>
#include <filesystem>
#include <fstream>

using namespace djx;

namespace {

uint32_t readU32(const char *P) {
  uint32_t V = 0;
  for (int I = 3; I >= 0; --I)
    V = (V << 8) | static_cast<uint8_t>(P[I]);
  return V;
}

uint64_t readU64(const char *P) {
  uint64_t V = 0;
  for (int I = 7; I >= 0; --I)
    V = (V << 8) | static_cast<uint8_t>(P[I]);
  return V;
}

/// Bounded cursor over one payload; every read checks remaining bytes.
struct PayloadCursor {
  const char *P;
  size_t Len;
  size_t Off = 0;

  bool u32(uint32_t &V) {
    if (Len - Off < 4)
      return false;
    V = readU32(P + Off);
    Off += 4;
    return true;
  }
  bool u64(uint64_t &V) {
    if (Len - Off < 8)
      return false;
    V = readU64(P + Off);
    Off += 8;
    return true;
  }
  bool bytes(std::string &S, size_t N) {
    if (Len - Off < N)
      return false;
    S.assign(P + Off, N);
    Off += N;
    return true;
  }
  std::string rest() {
    std::string S(P + Off, Len - Off);
    Off = Len;
    return S;
  }
};

/// Reads \p Path whole, with one sized read into one buffer. False for
/// anything that is not a regular file read to its end: a directory
/// opens as a stream, but its size is no byte count.
bool readWholeFile(const std::string &Path, std::string &Data) {
  std::error_code Ec;
  if (!std::filesystem::is_regular_file(Path, Ec))
    return false;
  std::ifstream In(Path, std::ios::binary | std::ios::ate);
  std::streamoff Size = In.tellg();
  if (Size < 0)
    return false;
  Data.resize(static_cast<size_t>(Size));
  In.seekg(0);
  return static_cast<bool>(In.read(Data.data(), Size));
}

/// Walks a Delta or Checkpoint payload: calls \p Fn(tid, records) per
/// thread entry. \returns false when the framing is malformed (thread
/// ids must strictly increase, and an empty payload is never written)
/// or \p Fn does.
template <typename FnT> bool forEachThreadDelta(std::string_view Payload,
                                                FnT &&Fn) {
  VarintReader R(Payload);
  uint64_t Prev = 0;
  bool Any = false;
  while (!R.atEnd()) {
    uint64_t Tid;
    std::string_view Records;
    if (!R.u64(Tid) || !R.bytes(Records) || (Any && Tid <= Prev) ||
        !Fn(Tid, Records))
      return false;
    Prev = Tid;
    Any = true;
  }
  return Any;
}

constexpr const char *kMalformed = "malformed segment payload";

/// Where a rescan stops, and why: the payload a decode found bad.
struct ScanStop {
  size_t Offset = SIZE_MAX;
  const char *Reason = kMalformed;
  bool stops() const { return Offset != SIZE_MAX; }
};

constexpr ScanStop kNoStop;

/// Scans the segments after the file header into \p R. A Delta or
/// Checkpoint is kept undecoded until its sentinel applies it, so a bad
/// one is found past it: malformed, or naming a method id the committed
/// MethodTables do not define. The scan then returns its offset and
/// reason, leaving \p R partly built, and a scan with \p StopAt there
/// stops at it. \returns kNoStop when \p R stands.
ScanStop scanSegments(const std::string &Data, const ScanStop &StopAt,
                      JournalRecovery &R) {
  R.HeaderValid = true;
  R.BytesKept = kJournalFileHeaderBytes;

  // Pending state: promoted to committed only by a Commit/Close
  // sentinel, so a tear between a Delta and its commit drops the Delta
  // — the state is always the one at the last sentinel.
  std::vector<MethodInfo> PendingMethods;
  std::map<uint64_t, ThreadProfile> Committed;
  std::string_view Pending;
  size_t PendingOff = 0;
  uint64_t NextSeq = 1;
  size_t Off = kJournalFileHeaderBytes;
  size_t LastValidEnd = Off;

  auto Truncate = [&](const std::string &Why) { R.TruncationReason = Why; };

  while (Off < Data.size() && !R.Closed) {
    if (Data.size() - Off < kJournalSegmentHeaderBytes) {
      Truncate("truncated segment header");
      break;
    }
    const char *H = Data.data() + Off;
    if (readU32(H) != kJournalSegmentMagic) {
      Truncate("bad segment magic");
      break;
    }
    uint32_t Type = readU32(H + 4);
    uint64_t Seq = readU64(H + 8);
    uint64_t Epoch = readU64(H + 16);
    uint32_t PayloadLen = readU32(H + 24);
    uint32_t Crc = readU32(H + 28);
    if (PayloadLen > kJournalMaxPayloadBytes ||
        PayloadLen > Data.size() - Off - kJournalSegmentHeaderBytes) {
      Truncate("segment length out of bounds");
      break;
    }
    const char *Payload = H + kJournalSegmentHeaderBytes;
    uint32_t Want = Crc32c::compute(H + 4, kJournalSegmentHeaderBytes - 8);
    Want = Crc32c::compute(Payload, PayloadLen, Want);
    if (Want != Crc) {
      Truncate("segment checksum mismatch");
      break;
    }
    if (Seq != NextSeq) {
      Truncate("sequence break");
      break;
    }

    PayloadCursor C{Payload, PayloadLen};
    const size_t End = Off + kJournalSegmentHeaderBytes + PayloadLen;
    bool Ok = true;
    const char *Bad = kMalformed;
    switch (static_cast<SegmentType>(Type)) {
    case SegmentType::Meta: {
      JournalMeta M;
      Ok = decodeJournalMeta(C.rest(), M);
      if (Ok) {
        R.Meta = M;
        R.HasMeta = true;
      }
      break;
    }
    case SegmentType::MethodTable: {
      uint32_t First = 0, Count = 0;
      Ok = C.u32(First) && C.u32(Count) &&
           First == R.Methods.size() + PendingMethods.size();
      for (uint32_t I = 0; Ok && I < Count; ++I) {
        uint32_t ClassLen = 0, MethodLen = 0, LineCount = 0;
        Ok = C.u32(ClassLen) && C.u32(MethodLen) && C.u32(LineCount);
        if (!Ok)
          break;
        MethodInfo M;
        Ok = C.bytes(M.ClassName, ClassLen) &&
             C.bytes(M.MethodName, MethodLen);
        for (uint32_t L = 0; Ok && L < LineCount; ++L) {
          LineEntry E{0, 0};
          Ok = C.u32(E.Bci) && C.u32(E.Line);
          if (Ok)
            M.LineTable.push_back(E);
        }
        if (Ok)
          PendingMethods.push_back(std::move(M));
      }
      Ok = Ok && C.Off == C.Len;
      break;
    }
    case SegmentType::Delta:
    case SegmentType::Checkpoint:
      // One Delta or Checkpoint per epoch; a second before the sentinel
      // is malformed, and so is an empty one. A Checkpoint opens its
      // file: after a Delta or Checkpoint, pending or committed, it is
      // not the writer's. Its entries are checked when applied.
      Ok = Pending.empty() && PayloadLen != 0 && Off != StopAt.Offset &&
           (Type == static_cast<uint32_t>(SegmentType::Delta) ||
            Committed.empty());
      if (Off == StopAt.Offset)
        Bad = StopAt.Reason;
      if (Ok) {
        Pending = std::string_view(Payload, PayloadLen);
        PendingOff = Off;
      }
      break;
    case SegmentType::Commit: {
      uint64_t Round = 0;
      Ok = C.u64(Round) && C.Off == C.Len;
      if (Ok) {
        R.LastEpoch = Epoch;
        R.LastRound = Round;
      }
      break;
    }
    case SegmentType::Close: {
      uint32_t Failed = 0, Kind = 0, Shard = 0, MsgLen = 0;
      uint64_t Tid = 0, Steps = 0;
      std::string Msg;
      Ok = C.u32(Failed) && C.u32(Kind) && C.u64(Tid) && C.u64(Steps) &&
           C.u32(Shard) && C.u32(MsgLen) && C.bytes(Msg, MsgLen) &&
           C.u64(R.CloseSamplesHandled) && C.u64(R.CloseSamplesDropped) &&
           C.Off == C.Len;
      if (Ok) {
        R.Closed = true;
        R.CloseClean = Failed == 0;
        if (Failed) {
          R.CloseError.Kind = static_cast<VmErrorKind>(Kind);
          R.CloseError.Message = std::move(Msg);
          R.CloseError.ThreadId = Tid;
          R.CloseError.Steps = Steps;
          R.CloseError.Shard = Shard;
        }
      }
      break;
    }
    default:
      Ok = false;
      break;
    }
    if (!Ok) {
      Truncate(Bad);
      break;
    }
    R.Segments.push_back({Off, End - Off, Type, Seq, Epoch});
    Off = LastValidEnd = End;
    ++NextSeq;
    if (Type != static_cast<uint32_t>(SegmentType::Commit) &&
        Type != static_cast<uint32_t>(SegmentType::Close))
      continue;
    // A sentinel commits the pending methods, then applies the pending
    // payload, each thread entry once. The CCT nodes an entry adds must
    // name methods the committed tables define; the remapper and the
    // renderer index with them.
    for (auto &M : PendingMethods)
      R.Methods.push_back(std::move(M));
    PendingMethods.clear();
    if (!Pending.empty()) {
      R.DecodedBytes += Pending.size();
      bool MethodsKnown = true;
      if (!forEachThreadDelta(Pending, [&](uint64_t Tid,
                                           std::string_view Records) {
            ThreadProfile &T =
                Committed.try_emplace(Tid, Tid, "").first->second;
            const size_t Known = T.cct().size();
            if (!T.apply(Records))
              return false;
            for (size_t N = Known; N < T.cct().size() && MethodsKnown; ++N)
              MethodsKnown = T.cct().methodOf(static_cast<CctNodeId>(N)) <
                             R.Methods.size();
            return MethodsKnown;
          }))
        return {PendingOff,
                MethodsKnown ? kMalformed : "method id out of range"};
      Pending = {};
    }
    R.SegmentsCommitted = R.Segments.size();
    R.BytesKept = End;
  }

  // No sentinel applied the last payload; a malformed one must still
  // stop the scan where it lies. A Checkpoint has nothing committed
  // before it, so it is checked from nothing.
  if (!Pending.empty()) {
    R.DecodedBytes += Pending.size();
    if (!forEachThreadDelta(Pending, [&](uint64_t Tid,
                                         std::string_view Records) {
          auto It = Committed.find(Tid);
          return It != Committed.end() ? It->second.check(Records)
                                       : ThreadProfile(Tid, "").check(Records);
        }))
      return {PendingOff};
  }

  R.SegmentsUncommitted = R.Segments.size() - R.SegmentsCommitted;
  R.TrailingBytes = Data.size() - LastValidEnd;
  if (R.Closed && R.TrailingBytes != 0 && R.TruncationReason.empty())
    R.TruncationReason = "bytes after the Close sentinel";

  R.Profiles.reserve(Committed.size());
  for (auto &[Tid, P] : Committed)
    R.Profiles.push_back(std::move(P));
  return kNoStop;
}

} // namespace

JournalRecovery djx::readJournal(const std::string &Path) {
  JournalRecovery R;
  std::string Data;
  if (!readWholeFile(Path, Data)) {
    R.HeaderError = "cannot open file";
    return R;
  }

  if (Data.size() < kJournalFileHeaderBytes) {
    R.HeaderError = "file shorter than the journal header";
    return R;
  }
  if (std::memcmp(Data.data(), kJournalFileMagic,
                  sizeof(kJournalFileMagic)) != 0) {
    R.HeaderError = "bad file magic";
    return R;
  }
  if (readU32(Data.data() + 8) != kJournalFormatVersion) {
    R.HeaderError = "unsupported journal version";
    return R;
  }
  if (readU32(Data.data() + 12) != Crc32c::compute(Data.data(), 12)) {
    R.HeaderError = "file header checksum mismatch";
    return R;
  }
  // At most one rescan, and only on a bad file: every payload before
  // the bad one applied cleanly, so the rescan stops at it.
  const ScanStop Stop = scanSegments(Data, kNoStop, R);
  if (Stop.stops()) {
    uint64_t Decoded = R.DecodedBytes;
    R = JournalRecovery();
    R.DecodedBytes = Decoded;
    scanSegments(Data, Stop, R);
  }
  return R;
}

MethodRegistry djx::buildJournalMethodRegistry(const JournalRecovery &R) {
  MethodRegistry Reg;
  for (const MethodInfo &M : R.Methods)
    Reg.registerMethod(M.ClassName, M.MethodName, M.LineTable);
  return Reg;
}
