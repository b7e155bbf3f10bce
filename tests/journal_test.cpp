//===- journal_test.cpp - Crash-durable journal round trips -----------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durability contract of src/io: a journaled run salvages exactly
/// the valid prefix, no matter where the byte stream tears.
///
///  - CRC32C known-answer and chaining vectors, and slicing-by-8 against
///    a byte-wise reference; atomic file replacement.
///  - Clean round trip: journal -> readJournal reproduces the run's
///    per-thread profile encodings and merged report byte for byte,
///    across --jobs values (the journal file itself is jobs-invariant).
///    A closed journal is its final Checkpoint, so the crash-path cases
///    below cut and edit the file the closing compaction replaced.
///  - Size: journal bytes per epoch follow the changes, not the rounds.
///  - Truncation: cutting the file after commit R recovers the same
///    state as a reference run stopped at MaxRounds = R.
///  - Fuzz corpus: seeded truncations, bit flips (anywhere, and inside
///    Delta payloads) and segment swaps.
///    Recovery never crashes, never trusts bytes past a bad CRC, and
///    keeps exactly the commits that precede the damage. Failures
///    print DJX_JOURNAL_FUZZ_SEED for replay. CRC-valid but malformed
///    Delta payloads stop the scan the same way, whether a sentinel
///    applies them or the file ends first, and so does a payload naming
///    a method no MethodTable committed so far defined (recover and
///    merge exit 0 or 7 on it, never from a signal); a directory is no
///    journal.
///  - Resealing fuzzer: seeded record-level edits of a writer-made
///    journal (ids, parent links, table bounds, dropped, copied or moved
///    segments), every CRC resealed; readJournal returns with every
///    method defined, and recover and merge never die from a signal.
///  - Checkpoints: a longer shape crosses the checkpoint floor twice.
///    Cuts around each compacted file's Checkpoint match a MaxRounds
///    reference, a second corpus tears inside and just after them, a
///    Checkpoint anywhere but first in its file and a malformed payload
///    anywhere stop the scan at them, and the decoded bytes stay under
///    one bound as rounds double.
///  - Compaction: each Checkpoint starts a fresh file rooted at it; a
///    crash between the tmp write and the rename recovers the epoch
///    before; a failed compaction leaves the old file whole; the file
///    stays under one bound as rounds double.
///  - Injected I/O faults: write errors degrade journaling to off
///    without touching the run; short writes leave a recoverable torn
///    prefix; corrupt bits never survive read-back.
///  - Merge: remapped profiles from N journals fold into keyed sums.
///
//===----------------------------------------------------------------------===//

#include "core/Analyzer.h"
#include "core/DjxPerf.h"
#include "core/Report.h"
#include "io/AtomicFile.h"
#include "io/Checksum.h"
#include "io/JournalReader.h"
#include "io/ProfileJournal.h"
#include "support/FaultInjector.h"
#include "support/Varint.h"
#include "support/VmError.h"
#include "workloads/Parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <random>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "harness/TestModule.h"

using namespace djx;

namespace {

DJX_TEST_MODULE(journal_test, 87.0, 54.0,
    "src/io/AtomicFile.cpp",
    "src/io/AtomicFile.h",
    "src/io/Checksum.h",
    "src/io/JournalReader.cpp",
    "src/io/JournalReader.h",
    "src/io/ProfileJournal.cpp",
    "src/io/ProfileJournal.h");

/// Fuzz iterations, spread over the four mutation kinds.
constexpr int kFuzzCases = 52;

uint64_t mixSeed(uint64_t X) {
  X += 0x9E3779B97F4A7C15ULL;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ULL;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBULL;
  return X ^ (X >> 31);
}

/// Fuzz base seed: DJX_JOURNAL_FUZZ_SEED when set (replay), fresh
/// entropy otherwise. Printed exactly once per binary run.
uint64_t fuzzSeed() {
  static uint64_t Seed = [] {
    uint64_t S;
    if (const char *Env = std::getenv("DJX_JOURNAL_FUZZ_SEED")) {
      S = std::strtoull(Env, nullptr, 0);
    } else {
      std::random_device Rd;
      S = (static_cast<uint64_t>(Rd()) << 32) ^ Rd();
    }
    std::printf("[journal] DJX_JOURNAL_FUZZ_SEED=0x%016" PRIx64
                " (export to reproduce)\n",
                S);
    return S;
  }();
  return Seed;
}

struct InjectorGuard {
  ~InjectorGuard() { FaultInjector::clear(); }
};

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "djx_journal_" + Name;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

void spit(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// Small-but-real journaling workload: enough rounds for many epochs,
/// churn for safepoint GCs, hot arrays past L1 so samples flow.
ParallelConfig journalWorkload() {
  ParallelConfig Pc;
  Pc.SimThreads = 2;
  Pc.Iters = 60;
  Pc.Nlen = 96;
  Pc.HotElems = 8192;
  Pc.HeapBytesPerThread = 256 << 10;
  return Pc;
}

/// A longer shape: more threads, rounds and small quanta, so its Deltas
/// cross the checkpoint floor twice and the writer compacts its file
/// twice before the closing compaction (journalWorkload()'s stay below
/// it).
ParallelConfig checkpointWorkload() {
  ParallelConfig Pc = journalWorkload();
  Pc.SimThreads = 4;
  Pc.Iters = 600;
  Pc.QuantumSteps = 2048;
  return Pc;
}

JournalMeta testMeta() {
  JournalMeta M;
  M.Workload = "journal-test";
  M.Title = "DJXPerf: journal-test";
  M.EventKind = static_cast<unsigned>(PerfEventKind::L1Miss);
  return M;
}

/// Everything observable from one journaled in-process run.
struct JournaledRun {
  bool JournalActive = false; ///< Still on at close (no degrade).
  uint64_t Rounds = 0;
  std::string Report; ///< Merged object-centric report text.
  std::vector<std::string> ProfileBytes; ///< Full encoding per thread.
  uint64_t StateBytes = 0; ///< A Checkpoint payload of the final state.
  uint64_t JournalBytes = 0;
  uint64_t Epochs = 0;
};

std::string encoded(const ThreadProfile &P) {
  std::string Out;
  P.encode(Out);
  return Out;
}

/// Every byte behind \p Fd, from offset 0.
std::string readFd(int Fd) {
  std::string Out;
  char Buf[1 << 16];
  ssize_t N;
  while ((N = ::pread(Fd, Buf, sizeof(Buf), static_cast<off_t>(Out.size()))) >
         0)
    Out.append(Buf, static_cast<size_t>(N));
  return Out;
}

/// Observers of one journaled run.
struct JournalHooks {
  /// Called before each epoch is written, with its epoch number.
  std::function<void(uint64_t Epoch)> BeforeEpoch;
  /// Receives every file a compaction replaced, in order, then the
  /// final file: the run's whole history of journal files.
  std::vector<std::string> *Files = nullptr;
};

/// Runs \p Write, one epoch of \p J, under \p Hooks. A file that a
/// compaction renames over is still readable through a descriptor
/// opened before it.
template <typename FnT>
void writeEpoch(const ProfileJournal &J, const JournalHooks &Hooks,
                FnT &&Write) {
  if (Hooks.BeforeEpoch)
    Hooks.BeforeEpoch(J.epochsCommitted() + 1);
  int Old = Hooks.Files ? ::open(J.path().c_str(), O_RDONLY) : -1;
  Write();
  if (Old < 0)
    return;
  struct stat Was, Now;
  if (::fstat(Old, &Was) == 0 && ::stat(J.path().c_str(), &Now) == 0 &&
      Was.st_ino != Now.st_ino)
    Hooks.Files->push_back(readFd(Old));
  ::close(Old);
}

/// Runs the journal workload with the CLI's wiring (flush at round
/// barriers, closeClean at the end) and returns the live-side state the
/// journal must reproduce. MaxRounds = 0 runs to completion.
JournaledRun runJournaled(const std::string &Path, unsigned Jobs,
                          uint64_t MaxRounds = 0,
                          const ParallelConfig &Shape = journalWorkload(),
                          const JournalHooks &Hooks = {}) {
  ParallelConfig Pc = Shape;
  Pc.Jobs = Jobs;
  Pc.MaxRounds = MaxRounds;
  JavaVm Vm(parallelVmConfig(Pc));
  DjxPerf Prof(Vm, parallelAgentConfig(Pc));
  Prof.start();
  std::string Err;
  auto Journal = ProfileJournal::open(Path, testMeta(), &Err);
  EXPECT_NE(Journal, nullptr) << Err;
  Pc.OnRoundEnd = [&](uint64_t Round) {
    if (Journal)
      writeEpoch(*Journal, Hooks,
                 [&] { Journal->flush(Prof, Vm.methods(), Round); });
    return false;
  };
  JournaledRun R;
  ParallelOutcome Out = runParallelWorkload(Vm, &Prof, Pc);
  R.Rounds = Out.Rounds;
  Prof.stop();
  if (Journal) {
    writeEpoch(*Journal, Hooks,
               [&] { Journal->closeClean(Prof, Vm.methods()); });
    R.JournalActive = Journal->active();
    R.JournalBytes = Journal->bytesWritten();
    R.Epochs = Journal->epochsCommitted();
  }
  if (Hooks.Files)
    Hooks.Files->push_back(slurp(Path));
  MergedProfile P = Prof.analyze();
  R.Report = renderObjectCentric(P, Vm.methods());
  std::string State;
  for (const ThreadProfile *T : Prof.profiles()) {
    R.ProfileBytes.push_back(encoded(*T));
    putVarint(State, T->threadId());
    putBytes(State, R.ProfileBytes.back());
  }
  R.StateBytes = State.size();
  return R;
}

/// Renders the recovered state the same way the live side did.
std::string recoveredReport(const JournalRecovery &R) {
  MethodRegistry Methods = buildJournalMethodRegistry(R);
  std::vector<const ThreadProfile *> Parts;
  for (const ThreadProfile &P : R.Profiles)
    Parts.push_back(&P);
  return renderObjectCentric(mergeProfiles(Parts), Methods);
}

bool isType(const JournalSegmentInfo &S, SegmentType T) {
  return S.Type == static_cast<uint32_t>(T);
}

/// Indexes of the Checkpoint segments in \p R.
std::vector<size_t> checkpointsOf(const JournalRecovery &R) {
  std::vector<size_t> Out;
  for (size_t I = 0; I < R.Segments.size(); ++I)
    if (isType(R.Segments[I], SegmentType::Checkpoint))
      Out.push_back(I);
  return Out;
}

/// readJournal over \p Bytes.
JournalRecovery readBytes(const std::string &Bytes) {
  std::string Path = tempPath("read_bytes.djxj");
  spit(Path, Bytes);
  JournalRecovery R = readJournal(Path);
  std::remove(Path.c_str());
  return R;
}

/// \p Files (every file of a run, oldest first) without the closing
/// compaction's file: the run's history as a crash before close leaves
/// it.
std::vector<std::string> beforeClose(const std::vector<std::string> &Files) {
  return {Files.begin(), Files.end() - 1};
}

/// The file the closing compaction replaced: every Delta since the last
/// Checkpoint, the stand-in for a run killed just before close.
std::string crashSource(const std::vector<std::string> &Files) {
  return beforeClose(Files).back();
}

/// A journal that journalWorkload() leaves just before close.
std::string crashSourceOfJournalWorkload(const std::string &Path) {
  std::vector<std::string> Files;
  runJournaled(Path, 2, 0, journalWorkload(), {nullptr, &Files});
  return crashSource(Files);
}

/// True when \p R scanned its file to the end, every segment committed.
bool scansWhole(const JournalRecovery &R) {
  return R.HeaderValid && R.TruncationReason.empty() &&
         R.SegmentsUncommitted == 0 && R.TrailingBytes == 0;
}

/// Checks that \p R, a file the writer compacted, is rooted at its one
/// Checkpoint: Meta, a MethodTable from id 0, the Checkpoint, its
/// Commit, then only later epochs' segments.
void expectRootedAtOneCheckpoint(const JournalRecovery &R,
                                 const std::string &Label) {
  ASSERT_GE(R.Segments.size(), 4u) << Label;
  EXPECT_TRUE(isType(R.Segments[0], SegmentType::Meta)) << Label;
  EXPECT_TRUE(isType(R.Segments[1], SegmentType::MethodTable)) << Label;
  EXPECT_TRUE(isType(R.Segments[2], SegmentType::Checkpoint)) << Label;
  EXPECT_TRUE(isType(R.Segments[3], SegmentType::Commit)) << Label;
  EXPECT_EQ(checkpointsOf(R), std::vector<size_t>{2}) << Label;
  EXPECT_EQ(R.Segments[1].Epoch, R.Segments[2].Epoch) << Label;
}

// --- Checksum --------------------------------------------------------------

TEST(Crc32c, KnownAnswerVectors) {
  // The canonical CRC-32C check value (RFC 3720 appendix B).
  EXPECT_EQ(Crc32c::compute("123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32c::compute("", 0), 0u);
  // 32 zero bytes, a common iSCSI test vector.
  unsigned char Zeros[32] = {};
  EXPECT_EQ(Crc32c::compute(Zeros, sizeof(Zeros)), 0x8A9136AAu);
}

TEST(Crc32c, SeedChainsAcrossSplits) {
  const char *Data = "the quick brown fox jumps over the lazy dog";
  size_t Len = std::strlen(Data);
  uint32_t Whole = Crc32c::compute(Data, Len);
  for (size_t Cut = 0; Cut <= Len; ++Cut) {
    uint32_t Head = Crc32c::compute(Data, Cut);
    EXPECT_EQ(Crc32c::compute(Data + Cut, Len - Cut, Head), Whole) << Cut;
  }
}

/// The textbook bit-at-a-time CRC32C, independent of the tables.
uint32_t crc32cBitwise(const uint8_t *P, size_t Len, uint32_t Seed) {
  uint32_t Crc = ~Seed;
  for (size_t I = 0; I < Len; ++I) {
    Crc ^= P[I];
    for (int K = 0; K < 8; ++K)
      Crc = (Crc & 1) ? (Crc >> 1) ^ 0x82f63b78u : Crc >> 1;
  }
  return ~Crc;
}

TEST(Crc32c, SlicingMatchesBytewiseReference) {
  // Random lengths (short tails and multi-word runs), start offsets
  // (every alignment mod 8) and chaining seeds.
  std::mt19937_64 Rng(0xc5c32);
  std::vector<uint8_t> Buf(4096 + 16);
  for (uint8_t &B : Buf)
    B = static_cast<uint8_t>(Rng());
  for (int Case = 0; Case < 2000; ++Case) {
    size_t Align = Rng() % 16;
    size_t Len = Case < 64 ? static_cast<size_t>(Case) : Rng() % 4096;
    uint32_t Seed = Case % 3 == 0 ? 0 : static_cast<uint32_t>(Rng());
    EXPECT_EQ(Crc32c::compute(Buf.data() + Align, Len, Seed),
              crc32cBitwise(Buf.data() + Align, Len, Seed))
        << "len " << Len << " align " << Align << " seed " << Seed;
  }
}

TEST(Crc32c, DetectsEverySingleBitFlip) {
  std::string Data = "journal segment payload";
  uint32_t Good = Crc32c::compute(Data.data(), Data.size());
  for (size_t I = 0; I < Data.size() * 8; ++I) {
    std::string Bad = Data;
    Bad[I / 8] = static_cast<char>(Bad[I / 8] ^ (1u << (I % 8)));
    EXPECT_NE(Crc32c::compute(Bad.data(), Bad.size()), Good) << I;
  }
}

// --- Atomic file replacement -----------------------------------------------

TEST(AtomicFile, WritesAndReplaces) {
  std::string Path = tempPath("atomic.txt");
  ASSERT_TRUE(writeFileAtomic(Path, "first\n"));
  EXPECT_EQ(slurp(Path), "first\n");
  ASSERT_TRUE(writeFileAtomic(Path, "second\n"));
  EXPECT_EQ(slurp(Path), "second\n");
  // The staging file never survives a successful replacement.
  EXPECT_FALSE(std::ifstream(Path + ".tmp").good());
  std::remove(Path.c_str());
}

TEST(AtomicFile, ReportsUnwritableTargets) {
  std::string Error;
  EXPECT_FALSE(writeFileAtomic("/nonexistent-dir/x/y.txt", "data", &Error));
  EXPECT_FALSE(Error.empty());
}

// --- Meta codec ------------------------------------------------------------

TEST(JournalMetaCodec, RoundTripsEveryField) {
  JournalMeta M;
  M.Workload = "parallel4 with spaces";
  M.Title = "DJXPerf: a title";
  M.EventKind = static_cast<unsigned>(PerfEventKind::TlbMiss);
  M.ReportMode = 2;
  M.TopGroups = 17;
  M.TopAccessContexts = 3;
  M.MinShare = 0.015625;
  M.ShowNuma = false;
  JournalMeta Back;
  ASSERT_TRUE(decodeJournalMeta(encodeJournalMeta(M), Back));
  EXPECT_EQ(Back.Workload, M.Workload);
  EXPECT_EQ(Back.Title, M.Title);
  EXPECT_EQ(Back.EventKind, M.EventKind);
  EXPECT_EQ(Back.ReportMode, M.ReportMode);
  EXPECT_EQ(Back.TopGroups, M.TopGroups);
  EXPECT_EQ(Back.TopAccessContexts, M.TopAccessContexts);
  EXPECT_EQ(Back.MinShare, M.MinShare);
  EXPECT_EQ(Back.ShowNuma, M.ShowNuma);
}

TEST(JournalMetaCodec, RejectsMalformedPayloads) {
  JournalMeta M;
  EXPECT_FALSE(decodeJournalMeta("event notanumber\n", M));
}

// --- Clean round trip ------------------------------------------------------

TEST(JournalRoundTrip, RecoversCompleteRunExactly) {
  std::string Path = tempPath("clean.djxj");
  JournaledRun Live = runJournaled(Path, 2);
  EXPECT_TRUE(Live.JournalActive);

  JournalRecovery R = readJournal(Path);
  ASSERT_TRUE(R.HeaderValid) << R.HeaderError;
  EXPECT_TRUE(R.HasMeta);
  EXPECT_EQ(R.Meta.Workload, "journal-test");
  EXPECT_TRUE(R.Closed);
  EXPECT_TRUE(R.CloseClean);
  EXPECT_FALSE(R.degraded());
  EXPECT_EQ(R.TrailingBytes, 0u);
  EXPECT_EQ(R.SegmentsUncommitted, 0u);
  EXPECT_EQ(R.LastRound, Live.Rounds);

  // Per-thread profiles rebuilt from the deltas reproduce the live
  // profiles' encodings byte for byte.
  ASSERT_EQ(R.Profiles.size(), Live.ProfileBytes.size());
  for (size_t I = 0; I < R.Profiles.size(); ++I)
    EXPECT_EQ(encoded(R.Profiles[I]), Live.ProfileBytes[I]) << "thread " << I;
  EXPECT_EQ(recoveredReport(R), Live.Report);
  std::remove(Path.c_str());
}

TEST(JournalRoundTrip, FileBytesAreJobsInvariant) {
  std::string P1 = tempPath("jobs1.djxj");
  std::string P2 = tempPath("jobs2.djxj");
  std::string P4 = tempPath("jobs4.djxj");
  // The short shape's Deltas stay below the checkpoint floor, so only
  // the closing compaction replaces its file; the long one's cross it at
  // least twice before that. Every file of the run is jobs-invariant, the
  // ones the compactions replaced too, and the last is the final
  // Checkpoint alone.
  for (bool Long : {false, true}) {
    ParallelConfig Shape = Long ? checkpointWorkload() : journalWorkload();
    std::vector<std::string> F1, F2, F4;
    runJournaled(P1, 1, 0, Shape, {nullptr, &F1});
    runJournaled(P2, 2, 0, Shape, {nullptr, &F2});
    runJournaled(P4, 4, 0, Shape, {nullptr, &F4});
    std::string B1 = slurp(P1);
    EXPECT_FALSE(B1.empty());
    EXPECT_EQ(B1, slurp(P2)) << "long shape: " << Long;
    EXPECT_EQ(B1, slurp(P4)) << "long shape: " << Long;
    EXPECT_TRUE(F1 == F2 && F1 == F4) << "long shape: " << Long;
    JournalRecovery R = readJournal(P1);
    expectRootedAtOneCheckpoint(R, Long ? "long shape" : "short shape");
    EXPECT_EQ(R.Segments.size(), 5u) << "long shape: " << Long;
    EXPECT_TRUE(R.Closed) << "long shape: " << Long;
    if (Long) {
      EXPECT_GE(F1.size(), 4u);
    } else {
      EXPECT_EQ(F1.size(), 2u);
      EXPECT_TRUE(checkpointsOf(readBytes(F1.front())).empty());
    }
    EXPECT_FALSE(std::ifstream(P1 + ".tmp").good()) << "long shape: " << Long;
  }
  std::remove(P1.c_str());
  std::remove(P2.c_str());
  std::remove(P4.c_str());
}

// --- Truncation rule -------------------------------------------------------

TEST(JournalTruncation, CutAtCommitMatchesMaxRoundsReference) {
  std::string Path = tempPath("full.djxj");
  const std::string Full = crashSourceOfJournalWorkload(Path);
  JournalRecovery Whole = readBytes(Full);
  ASSERT_TRUE(scansWhole(Whole));

  // Pick a Commit sentinel mid-run and cut the file right after it;
  // recovery must equal a reference run stopped at that round.
  const JournalSegmentInfo *Cut = nullptr;
  for (const JournalSegmentInfo &S : Whole.Segments)
    if (S.Type == static_cast<uint32_t>(SegmentType::Commit) &&
        S.Epoch * 2 <= Whole.LastEpoch)
      Cut = &S;
  ASSERT_NE(Cut, nullptr);
  uint64_t Round = Cut->Epoch; // flush(Round) stamps Epoch == Round here.

  std::string Torn = Full.substr(0, Cut->Offset + Cut->Length);
  std::string TornPath = tempPath("torn.djxj");
  spit(TornPath, Torn);
  JournalRecovery R = readJournal(TornPath);
  ASSERT_TRUE(R.HeaderValid);
  EXPECT_FALSE(R.Closed);
  EXPECT_TRUE(R.degraded());
  EXPECT_EQ(R.LastRound, Round);
  EXPECT_EQ(R.TrailingBytes, 0u);
  EXPECT_TRUE(R.TruncationReason.empty());

  std::string RefPath = tempPath("ref.djxj");
  JournaledRun Ref = runJournaled(RefPath, 2, Round);
  EXPECT_EQ(Ref.Rounds, Round);
  EXPECT_EQ(recoveredReport(R), Ref.Report);

  std::remove(Path.c_str());
  std::remove(TornPath.c_str());
  std::remove(RefPath.c_str());
}

// --- Fuzz corpus -----------------------------------------------------------

/// Oracle for damage at byte offset \p Damage: the epoch of the last
/// Commit/Close whose bytes end at or before the damage point. The
/// scanner stops at the first violation and never resynchronizes, so it
/// must recover exactly this epoch.
uint64_t lastDurableEpochBefore(const JournalRecovery &Whole,
                                uint64_t Damage) {
  uint64_t Epoch = 0;
  for (const JournalSegmentInfo &S : Whole.Segments)
    if ((S.Type == static_cast<uint32_t>(SegmentType::Commit) ||
         S.Type == static_cast<uint32_t>(SegmentType::Close)) &&
        S.Offset + S.Length <= Damage)
      Epoch = S.Epoch;
  return Epoch;
}

/// \p Full cut right after the last Commit of \p Epoch (just the file
/// header for epoch 0).
std::string prefixThroughEpoch(const std::string &Full,
                               const JournalRecovery &Whole,
                               uint64_t Epoch) {
  size_t End = kJournalFileHeaderBytes;
  for (const JournalSegmentInfo &S : Whole.Segments)
    if (S.Type == static_cast<uint32_t>(SegmentType::Commit) &&
        S.Epoch == Epoch)
      End = S.Offset + S.Length;
  return Full.substr(0, End);
}

/// Runs \p Cases seeded mutations of the journal at \p Path and checks
/// that each salvages exactly the valid prefix. Kinds, by Case % Kinds:
/// truncation, bit flip, damage inside a Delta or Checkpoint payload,
/// two swapped segments and, with Kinds == 5, a cut inside a Checkpoint
/// or between it and its Commit.
void fuzzSalvage(const std::string &Path, int Cases, int Kinds) {
  std::string Full = slurp(Path);
  JournalRecovery Whole = readJournal(Path);
  ASSERT_TRUE(scansWhole(Whole));
  ASSERT_GE(Whole.Segments.size(), 8u);
  std::vector<const JournalSegmentInfo *> Payloads;
  for (const JournalSegmentInfo &Seg : Whole.Segments)
    if (isType(Seg, SegmentType::Delta) ||
        isType(Seg, SegmentType::Checkpoint))
      Payloads.push_back(&Seg);
  const std::vector<size_t> Checkpoints = checkpointsOf(Whole);
  ASSERT_FALSE(Payloads.empty());
  ASSERT_TRUE(Kinds == 4 || !Checkpoints.empty());

  uint64_t Base = fuzzSeed();
  std::string MutPath = Path + ".mut";
  for (int Case = 0; Case < Cases; ++Case) {
    uint64_t S = mixSeed(Base + static_cast<uint64_t>(Case));
    std::string Label = "fuzz case " + std::to_string(Case);
    std::string Mut = Full;
    uint64_t Damage;
    switch (Case % Kinds) {
    case 0: { // Truncate at an arbitrary byte.
      Damage = S % Full.size();
      Mut.resize(Damage);
      break;
    }
    case 1: { // Flip one bit. CRC32C catches every 1-bit error, so the
              // segment containing it can never be trusted.
      uint64_t Bit = S % (Full.size() * 8);
      Damage = Bit / 8;
      Mut[Damage] = static_cast<char>(Mut[Damage] ^ (1u << (Bit % 8)));
      // The damaged *segment* starts before the damaged byte: commits
      // inside it are gone too. Walk back to its header offset.
      for (const JournalSegmentInfo &Seg : Whole.Segments)
        if (Seg.Offset <= Damage && Damage < Seg.Offset + Seg.Length)
          Damage = Seg.Offset;
      break;
    }
    case 2: { // Damage one byte inside a Delta or Checkpoint payload.
              // CRC32C catches every burst of up to 32 bits, so the scan
              // stops at that segment whatever the damaged varints would
              // decode to.
      const JournalSegmentInfo &Seg = *Payloads[S % Payloads.size()];
      size_t Pos = Seg.Offset + kJournalSegmentHeaderBytes +
                   (S >> 32) % (Seg.Length - kJournalSegmentHeaderBytes);
      Mut[Pos] = static_cast<char>(Mut[Pos] ^ (1 + (S >> 8) % 255));
      Damage = Seg.Offset;
      break;
    }
    case 3: { // Swap two adjacent segments: a sequence break.
      size_t I = S % (Whole.Segments.size() - 1);
      const JournalSegmentInfo &A = Whole.Segments[I];
      const JournalSegmentInfo &B = Whole.Segments[I + 1];
      std::string Swapped = Full.substr(0, A.Offset);
      Swapped += Full.substr(B.Offset, B.Length);
      Swapped += Full.substr(A.Offset, A.Length);
      Swapped += Full.substr(B.Offset + B.Length);
      Mut = std::move(Swapped);
      Damage = A.Offset;
      break;
    }
    default: { // Cut inside a Checkpoint or before its Commit ends.
      size_t I = Checkpoints[S % Checkpoints.size()];
      // The Commit follows the Checkpoint directly.
      const JournalSegmentInfo &Ck = Whole.Segments[I];
      const JournalSegmentInfo &Commit = Whole.Segments[I + 1];
      Damage = Ck.Offset +
               (S >> 32) % (Commit.Offset + Commit.Length - Ck.Offset);
      Mut.resize(Damage);
      break;
    }
    }
    spit(MutPath, Mut);
    JournalRecovery R = readJournal(MutPath); // Must never crash.
    if (Damage < kJournalFileHeaderBytes) {
      EXPECT_FALSE(R.HeaderValid) << Label;
      continue;
    }
    ASSERT_TRUE(R.HeaderValid) << Label;
    EXPECT_EQ(R.LastEpoch, lastDurableEpochBefore(Whole, Damage)) << Label;
    EXPECT_LE(R.BytesKept, Mut.size()) << Label;
    // The salvaged state is exactly the undamaged prefix's: the same
    // report as the file cut right after that commit, and profiles
    // whose encodings decode back to themselves.
    spit(MutPath, prefixThroughEpoch(Full, Whole, R.LastEpoch));
    EXPECT_EQ(recoveredReport(R), recoveredReport(readJournal(MutPath)))
        << Label;
    for (const ThreadProfile &P : R.Profiles) {
      ThreadProfile Back(P.threadId(), "");
      ASSERT_TRUE(Back.apply(encoded(P))) << Label;
      EXPECT_EQ(encoded(Back), encoded(P)) << Label;
    }
  }
  std::remove(MutPath.c_str());
}

TEST(JournalFuzz, SalvagesExactlyTheValidPrefix) {
  std::string Path = tempPath("fuzz.djxj");
  spit(Path, crashSourceOfJournalWorkload(Path));
  fuzzSalvage(Path, kFuzzCases, 4);
  std::remove(Path.c_str());
}

// --- Malformed payloads ----------------------------------------------------

void appendU32(std::string &Out, uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out += static_cast<char>((V >> (8 * I)) & 0xff);
}

void appendU64(std::string &Out, uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out += static_cast<char>((V >> (8 * I)) & 0xff);
}

/// Appends a segment with a valid CRC, laid out as ProfileJournal does.
void appendSegment(std::string &Out, SegmentType Type, uint64_t Seq,
                   uint64_t Epoch, const std::string &Payload) {
  std::string H;
  appendU32(H, kJournalSegmentMagic);
  appendU32(H, static_cast<uint32_t>(Type));
  appendU64(H, Seq);
  appendU64(H, Epoch);
  appendU32(H, static_cast<uint32_t>(Payload.size()));
  uint32_t Crc = Crc32c::compute(H.data() + 4, H.size() - 4);
  appendU32(H, Crc32c::compute(Payload.data(), Payload.size(), Crc));
  Out += H;
  Out += Payload;
}

std::string bytesOf(std::initializer_list<int> Bytes) {
  std::string S;
  for (int B : Bytes)
    S += static_cast<char>(B);
  return S;
}

TEST(JournalMalformed, CrcValidBadDeltasStopTheScan) {
  std::string Path = tempPath("malformed_base.djxj");
  const std::string Full = crashSourceOfJournalWorkload(Path);
  JournalRecovery Whole = readBytes(Full);
  ASSERT_TRUE(scansWhole(Whole));
  ASSERT_FALSE(Whole.Profiles.empty());

  // Keep the journal up to its second commit, then append a CRC-valid
  // epoch whose Delta is malformed.
  const JournalSegmentInfo *Cut = nullptr;
  for (const JournalSegmentInfo &S : Whole.Segments)
    if (S.Type == static_cast<uint32_t>(SegmentType::Commit) && S.Epoch == 2)
      Cut = &S;
  ASSERT_NE(Cut, nullptr);
  const std::string Prefix = Full.substr(0, Cut->Offset + Cut->Length);
  std::string PrefixPath = tempPath("malformed_prefix.djxj");
  spit(PrefixPath, Prefix);
  JournalRecovery AtCut = readJournal(PrefixPath);
  ASSERT_GE(AtCut.Profiles.size(), 2u);
  ASSERT_EQ(AtCut.SegmentsUncommitted, 0u);
  const std::string Reference = recoveredReport(AtCut);

  // Thread entries for a thread the prefix already committed: its id,
  // the byte count, then the records, which open with a Thread record.
  const ThreadProfile &Known = AtCut.Profiles.front();
  const uint64_t Tid = Known.threadId();
  auto EntryFor = [](uint64_t Id, const std::string &Records) {
    std::string E;
    putVarint(E, Id);
    putBytes(E, Records);
    return E;
  };
  auto Entry = [&](const std::string &Records) {
    return EntryFor(Tid, Records);
  };
  std::string Thread = bytesOf({1});
  putVarint(Thread, Tid);
  putBytes(Thread, Known.threadName());
  std::string Gap = bytesOf({2});
  putVarint(Gap, Known.cct().size() + 5);
  Gap += bytesOf({1, 0, 1, 0, 0});
  std::string LongEntry;
  putVarint(LongEntry, Tid);
  putVarint(LongEntry, Thread.size() + 10);
  LongEntry += Thread + bytesOf({0});
  // A well-formed entry that changes the first thread (one more
  // unattributed sample), then a malformed one for the second.
  ThreadProfile Changed = Known;
  Changed.recordUnattributed(PerfEventKind::L1Miss);
  const ThreadProfile &Second = AtCut.Profiles[1];
  std::string SecondThread = bytesOf({1});
  putVarint(SecondThread, Second.threadId());
  putBytes(SecondThread, Second.threadName());
  const std::string GoodThenBad =
      Entry(encoded(Changed)) +
      EntryFor(Second.threadId(), SecondThread + bytesOf({0x63, 0}));
  // A KnownThread record (tag 9) for a thread the prefix never named.
  const uint64_t Stranger = AtCut.Profiles.back().threadId() + 1;
  std::string Nameless = bytesOf({9});
  putVarint(Nameless, Stranger);
  Nameless += bytesOf({0});
  std::string Commit;
  appendU64(Commit, 3);

  // Every shape recovers the prefix exactly: the scan stops at the
  // appended Delta, whatever follows it, and keeps nothing after it.
  std::string MutPath = tempPath("malformed.djxj");
  auto ExpectPrefixKept = [&](const std::string &Label, const std::string &Mut,
                              const std::string &Reason) {
    spit(MutPath, Mut);
    JournalRecovery R = readJournal(MutPath);
    ASSERT_TRUE(R.HeaderValid) << Label;
    EXPECT_EQ(R.TruncationReason, Reason) << Label;
    EXPECT_EQ(R.LastEpoch, 2u) << Label;
    EXPECT_EQ(R.BytesKept, Prefix.size()) << Label;
    EXPECT_EQ(R.TrailingBytes, Mut.size() - Prefix.size()) << Label;
    EXPECT_EQ(R.Segments.size(), AtCut.Segments.size()) << Label;
    EXPECT_EQ(R.SegmentsUncommitted, 0u) << Label;
    EXPECT_TRUE(R.degraded()) << Label;
    EXPECT_EQ(recoveredReport(R), Reference) << Label;
    ASSERT_EQ(R.Profiles.size(), AtCut.Profiles.size()) << Label;
    for (size_t I = 0; I < R.Profiles.size(); ++I)
      EXPECT_EQ(encoded(R.Profiles[I]), encoded(AtCut.Profiles[I]))
          << Label << ", thread " << I;
  };

  const std::vector<std::pair<std::string, std::string>> Cases = {
      {"overlong varint", std::string(10, '\x80') + bytesOf({1, 0})},
      {"truncated record", Entry(Thread + bytesOf({3, 1, 1}))},
      {"CCT node-id gap", Entry(Thread + Gap)},
      {"unknown record tag", Entry(Thread + bytesOf({0x63, 0}))},
      {"entry length past the payload", LongEntry},
      {"thread ids out of order",
       Entry(Thread + bytesOf({0})) + Entry(Thread + bytesOf({0}))},
      {"second thread's entry malformed", GoodThenBad},
      {"nameless thread the file never named", EntryFor(Stranger, Nameless)},
  };
  for (const auto &[Label, Payload] : Cases) {
    std::string Mut = Prefix;
    appendSegment(Mut, SegmentType::Delta, Cut->Seq + 1, 3, Payload);
    appendSegment(Mut, SegmentType::Commit, Cut->Seq + 2, 3, Commit);
    ExpectPrefixKept(Label, Mut, "malformed segment payload");
  }

  // No sentinel applies the malformed Delta: it is checked where the
  // scan ends, after a clean end of file or a torn Commit alike.
  std::string Torn = Prefix;
  appendSegment(Torn, SegmentType::Delta, Cut->Seq + 1, 3, GoodThenBad);
  ExpectPrefixKept("torn tail after a malformed Delta", Torn,
                   "malformed segment payload");
  std::string TornCommit;
  appendSegment(TornCommit, SegmentType::Commit, Cut->Seq + 2, 3, Commit);
  Torn += TornCommit.substr(0, kJournalSegmentHeaderBytes / 2);
  ExpectPrefixKept("torn Commit after a malformed Delta", Torn,
                   "malformed segment payload");

  // A well-formed Delta whose Commit is torn is uncommitted: kept as a
  // segment, never applied.
  std::string Uncommitted = Prefix;
  appendSegment(Uncommitted, SegmentType::Delta, Cut->Seq + 1, 3,
                Entry(encoded(Changed)));
  const size_t DeltaEnd = Uncommitted.size();
  Uncommitted += TornCommit.substr(0, kJournalSegmentHeaderBytes / 2);
  spit(MutPath, Uncommitted);
  JournalRecovery U = readJournal(MutPath);
  EXPECT_EQ(U.TruncationReason, "truncated segment header");
  EXPECT_EQ(U.LastEpoch, 2u);
  EXPECT_EQ(U.Segments.size(), AtCut.Segments.size() + 1);
  EXPECT_EQ(U.SegmentsUncommitted, 1u);
  EXPECT_EQ(U.BytesKept, Prefix.size());
  EXPECT_EQ(U.TrailingBytes, Uncommitted.size() - DeltaEnd);
  EXPECT_EQ(recoveredReport(U), Reference);
  ASSERT_FALSE(U.Profiles.empty());
  EXPECT_EQ(encoded(U.Profiles.front()), encoded(Known));

  // A second Delta in one epoch is malformed too, even when each is
  // well formed on its own.
  std::string Twice = Prefix;
  std::string Ok = Entry(Thread + bytesOf({0}));
  appendSegment(Twice, SegmentType::Delta, Cut->Seq + 1, 3, Ok);
  appendSegment(Twice, SegmentType::Delta, Cut->Seq + 2, 3, Ok);
  spit(MutPath, Twice);
  JournalRecovery R = readJournal(MutPath);
  EXPECT_EQ(R.TruncationReason, "malformed segment payload");
  EXPECT_EQ(R.LastEpoch, 2u);

  std::remove(Path.c_str());
  std::remove(PrefixPath.c_str());
  std::remove(MutPath.c_str());
}

/// Reads a journal that is only a checksummed file header of \p Version.
JournalRecovery readHeaderOfVersion(uint32_t Version) {
  std::string Header(kJournalFileMagic, sizeof(kJournalFileMagic));
  appendU32(Header, Version);
  appendU32(Header, Crc32c::compute(Header.data(), Header.size()));
  std::string Path = tempPath("v" + std::to_string(Version) + ".djxj");
  spit(Path, Header);
  JournalRecovery R = readJournal(Path);
  std::remove(Path.c_str());
  return R;
}

TEST(JournalMalformed, RejectsVersionOneHeader) {
  JournalRecovery R = readHeaderOfVersion(1);
  EXPECT_FALSE(R.HeaderValid);
  EXPECT_EQ(R.HeaderError, "unsupported journal version");
}

// Version 2 had no Checkpoint segment; its reader decoded every epoch.
TEST(JournalMalformed, RejectsVersionTwoHeader) {
  JournalRecovery R = readHeaderOfVersion(2);
  EXPECT_FALSE(R.HeaderValid);
  EXPECT_EQ(R.HeaderError, "unsupported journal version");
  EXPECT_TRUE(readHeaderOfVersion(kJournalFormatVersion).HeaderValid);
}

// Version 3 wrote every metric count and resent every name; its records
// do not parse as version 4's.
TEST(JournalMalformed, RejectsVersionThreeHeader) {
  JournalRecovery R = readHeaderOfVersion(3);
  EXPECT_FALSE(R.HeaderValid);
  EXPECT_EQ(R.HeaderError, "unsupported journal version");
}

TEST(JournalMalformed, DirectoryIsNotAJournal) {
  // A directory opens as a stream, but it has no bytes to read.
  JournalRecovery R = readJournal(::testing::TempDir());
  EXPECT_FALSE(R.HeaderValid);
  EXPECT_EQ(R.HeaderError, "cannot open file");
}

// --- Checkpoints -----------------------------------------------------------

/// \p Full with segment \p S's payload replaced by \p Payload, CRC-valid.
std::string withPayload(const std::string &Full, const JournalSegmentInfo &S,
                        const std::string &Payload) {
  std::string Out = Full.substr(0, S.Offset);
  appendSegment(Out, static_cast<SegmentType>(S.Type), S.Seq, S.Epoch,
                Payload);
  Out += Full.substr(S.Offset + S.Length);
  return Out;
}

/// One checkpointWorkload() run with its whole file history.
struct CompactedRun {
  JournaledRun Live;
  std::vector<std::string> Files; ///< Oldest first; the last is on disk.
};

CompactedRun runCompacted(const std::string &Path, uint64_t MaxRounds = 0) {
  CompactedRun C;
  C.Live = runJournaled(Path, 2, MaxRounds, checkpointWorkload(),
                        {nullptr, &C.Files});
  return C;
}

/// Checks that \p R recovers what a run stopped at its last round does.
void expectMatchesMaxRoundsReference(const std::string &Label,
                                     const JournalRecovery &R) {
  std::string RefPath = tempPath("ckpt_ref.djxj");
  JournaledRun Ref =
      runJournaled(RefPath, 2, R.LastRound, checkpointWorkload());
  std::remove(RefPath.c_str());
  EXPECT_EQ(Ref.Rounds, R.LastRound) << Label;
  EXPECT_EQ(recoveredReport(R), Ref.Report) << Label;
  ASSERT_EQ(R.Profiles.size(), Ref.ProfileBytes.size()) << Label;
  for (size_t I = 0; I < R.Profiles.size(); ++I)
    EXPECT_EQ(encoded(R.Profiles[I]), Ref.ProfileBytes[I])
        << Label << ", thread " << I;
}

TEST(JournalCompaction, EachCheckpointStartsAFreshFile) {
  std::string Path = tempPath("compact.djxj");
  const CompactedRun C = runCompacted(Path);
  ASSERT_GE(C.Files.size(), 3u);
  // A clean run leaves no tmp.
  EXPECT_FALSE(std::ifstream(Path + ".tmp").good());
  EXPECT_TRUE(checkpointsOf(readBytes(C.Files.front())).empty());
  uint64_t Written = 0;
  for (size_t F = 0; F < C.Files.size(); ++F) {
    const std::string Label = "file " + std::to_string(F);
    const JournalRecovery R = readBytes(C.Files[F]);
    Written += C.Files[F].size();
    EXPECT_TRUE(R.TruncationReason.empty()) << Label;
    EXPECT_EQ(R.SegmentsUncommitted, 0u) << Label;
    EXPECT_EQ(R.Closed, F + 1 == C.Files.size()) << Label;
    if (F == 0)
      continue;
    // Sequence numbers restart (the scan checks them from 1), the method
    // table restarts at id 0, and epochs carry on from the file before.
    expectRootedAtOneCheckpoint(R, Label);
    EXPECT_EQ(R.Segments[2].Epoch, readBytes(C.Files[F - 1]).LastEpoch + 1)
        << Label;
  }
  // bytesWritten() counts every file's bytes, each rewritten prefix too.
  EXPECT_EQ(C.Live.JournalBytes, Written);

  // The file on disk recovers the run.
  const JournalRecovery Final = readJournal(Path);
  ASSERT_EQ(Final.Profiles.size(), C.Live.ProfileBytes.size());
  for (size_t I = 0; I < Final.Profiles.size(); ++I)
    EXPECT_EQ(encoded(Final.Profiles[I]), C.Live.ProfileBytes[I]);
  EXPECT_EQ(recoveredReport(Final), C.Live.Report);
  std::remove(Path.c_str());
}

TEST(JournalCompaction, CrashBetweenTmpWriteAndRenameRecoversTheEpochBefore) {
  std::string Path = tempPath("compact_crash.djxj");
  const std::string Tmp = Path + ".tmp";
  const CompactedRun C = runCompacted(Path);
  ASSERT_GE(C.Files.size(), 3u);
  for (size_t F = 1; F < C.Files.size(); ++F) {
    // Killed after the new file reached <path>.tmp, before the rename:
    // <path> is still the file before the compaction.
    const JournalRecovery New = readBytes(C.Files[F]);
    const JournalSegmentInfo &Commit = New.Segments[3];
    spit(Path, C.Files[F - 1]);
    spit(Tmp, C.Files[F].substr(0, Commit.Offset + Commit.Length));
    const std::string Label = "compaction at epoch " +
                              std::to_string(Commit.Epoch);
    JournalRecovery R = readJournal(Path);
    EXPECT_EQ(R.LastEpoch, Commit.Epoch - 1) << Label;
    EXPECT_TRUE(R.TruncationReason.empty()) << Label;
    EXPECT_FALSE(R.Closed) << Label;
    expectMatchesMaxRoundsReference(Label, R);
    // The next run on that path removes the stale tmp.
    EXPECT_NE(ProfileJournal::open(Path, testMeta()), nullptr) << Label;
    EXPECT_FALSE(std::ifstream(Tmp).good()) << Label;
  }
  std::remove(Path.c_str());
}

TEST(JournalCompaction, FailedCompactionLeavesThePreviousFile) {
  InjectorGuard Guard;
  std::string Path = tempPath("compact_fail.djxj");
  const std::string Tmp = Path + ".tmp";
  const CompactedRun C = runCompacted(Path);
  // The epoch of the first compaction, and its write ordinal: open()'s
  // write is the first, and every epoch is one more.
  const uint64_t Epoch = readBytes(C.Files[1]).Segments[2].Epoch;
  const uint64_t Write = Epoch + 1;

  auto RunWith = [&](const FaultPlan &Plan, uint64_t *Fired) {
    JournalHooks Hooks;
    Hooks.BeforeEpoch = [&](uint64_t E) {
      if (E == Epoch + 1 && Fired)
        *Fired = FaultInjector::firedCount(FaultSite::JournalWriteError);
      if (E == Epoch)
        FaultInjector::install(Plan);
      else
        FaultInjector::clear();
    };
    JournaledRun Run =
        runJournaled(Path, 2, 0, checkpointWorkload(), Hooks);
    FaultInjector::clear();
    // Journaling is an observer: the run's own results never change.
    EXPECT_EQ(Run.Report, C.Live.Report);
    return Run;
  };
  // The compaction's tmp write fails: the journal turns off, removes the
  // tmp and leaves <path> the file before the compaction, whole.
  auto ExpectPreviousFileKept = [&](const std::string &Label,
                                    const JournaledRun &Run) {
    EXPECT_FALSE(Run.JournalActive) << Label;
    EXPECT_EQ(slurp(Path), C.Files[0]) << Label;
    EXPECT_EQ(readJournal(Path).LastEpoch, Epoch - 1) << Label;
  };
  FaultPlan Short;
  Short.rate(FaultSite::JournalShortWrite) = 1.0;
  ExpectPreviousFileKept("short write", RunWith(Short, nullptr));
  EXPECT_FALSE(std::ifstream(Tmp).good());
  FaultPlan Error;
  Error.rate(FaultSite::JournalWriteError) = 1.0;
  ExpectPreviousFileKept("write error", RunWith(Error, nullptr));
  EXPECT_FALSE(std::ifstream(Tmp).good());
  // A directory in the tmp's place: open() cannot remove it, and the
  // compaction cannot open it.
  ASSERT_EQ(::mkdir(Tmp.c_str(), 0755), 0);
  ExpectPreviousFileKept("tmp unopenable", RunWith(FaultPlan{}, nullptr));
  ASSERT_EQ(::rmdir(Tmp.c_str()), 0);

  // A transient error on the tmp write is retried like an append's: the
  // run's files are those of the clean run.
  FaultPlan Transient;
  Transient.rate(FaultSite::JournalWriteError) = 0.5;
  for (Transient.Seed = 1;; ++Transient.Seed) {
    FaultInjector::install(Transient);
    bool First = FaultInjector::shouldFail(FaultSite::JournalWriteError,
                                           Write, 0);
    bool Second = FaultInjector::shouldFail(FaultSite::JournalWriteError,
                                            Write, 1);
    FaultInjector::clear();
    if (First && !Second)
      break;
  }
  uint64_t Fired = 0;
  JournaledRun Run = RunWith(Transient, &Fired);
  EXPECT_EQ(Fired, 1u);
  EXPECT_TRUE(Run.JournalActive);
  EXPECT_EQ(slurp(Path), C.Files.back());
  EXPECT_FALSE(std::ifstream(Tmp).good());
  std::remove(Path.c_str());
}

TEST(JournalCheckpoint, CutsAroundACheckpointMatchMaxRoundsReference) {
  // Every compacted file starts at its Checkpoint, so a cut before the
  // Checkpoint's Commit recovers nothing, and the Commit recovers the
  // Checkpoint alone. (The file before a compaction stays in place until
  // the new one is whole; see JournalCompaction.)
  std::string Path = tempPath("ckpt_full.djxj");
  const CompactedRun C = runCompacted(Path);
  ASSERT_GE(C.Files.size(), 3u);
  for (size_t F = 1; F < C.Files.size(); ++F) {
    const std::string &File = C.Files[F];
    const std::string Label = "file " + std::to_string(F);
    const JournalRecovery Compacted = readBytes(File);
    expectRootedAtOneCheckpoint(Compacted, Label);
    const JournalSegmentInfo &Table = Compacted.Segments[1];
    const JournalSegmentInfo &Ck = Compacted.Segments[2];
    const JournalSegmentInfo &Commit = Compacted.Segments[3];
    for (size_t End : {Table.Offset + Table.Length, Ck.Offset + Ck.Length / 2,
                       Ck.Offset + Ck.Length}) {
      JournalRecovery R = readBytes(File.substr(0, End));
      EXPECT_EQ(R.LastEpoch, 0u) << Label << ", cut at " << End;
      EXPECT_TRUE(R.Profiles.empty()) << Label << ", cut at " << End;
      EXPECT_TRUE(R.Methods.empty()) << Label << ", cut at " << End;
    }
    JournalRecovery R =
        readBytes(File.substr(0, Commit.Offset + Commit.Length));
    EXPECT_EQ(R.LastEpoch, Ck.Epoch) << Label;
    EXPECT_EQ(R.DecodedBytes, Ck.Length - kJournalSegmentHeaderBytes) << Label;
    expectMatchesMaxRoundsReference("own commit of " + Label, R);
  }
  std::remove(Path.c_str());
}

TEST(JournalCheckpoint, FuzzSalvagesExactlyTheValidPrefix) {
  // Each file a mid-run compaction started, as the next compaction
  // replaced it: its Checkpoint, then Deltas.
  std::string Path = tempPath("ckpt_fuzz.djxj");
  const std::vector<std::string> Files = beforeClose(runCompacted(Path).Files);
  ASSERT_GE(Files.size(), 3u);
  for (size_t F = 1; F < Files.size(); ++F) {
    spit(Path, Files[F]);
    fuzzSalvage(Path, kFuzzCases, 5);
  }
  std::remove(Path.c_str());
}

/// The payload of segment \p S of \p File.
std::string payloadOf(const std::string &File, const JournalSegmentInfo &S) {
  return File.substr(S.Offset + kJournalSegmentHeaderBytes,
                     S.Length - kJournalSegmentHeaderBytes);
}

/// The state \p R recovered as a Checkpoint payload: each profile's
/// full encoding, in thread-id order.
std::string checkpointPayload(const JournalRecovery &R) {
  std::string Out;
  for (const ThreadProfile &P : R.Profiles) {
    putVarint(Out, P.threadId());
    putBytes(Out, encoded(P));
  }
  return Out;
}

/// Appends to \p Out, a file that recovers as \p At, one more epoch: a
/// \p Type segment holding \p Payload and its Commit.
void appendEpoch(std::string &Out, const JournalRecovery &At, SegmentType Type,
                 const std::string &Payload) {
  const uint64_t Seq = At.Segments.back().Seq;
  std::string Commit;
  appendU64(Commit, At.LastRound + 1);
  appendSegment(Out, Type, Seq + 1, At.LastEpoch + 1, Payload);
  appendSegment(Out, SegmentType::Commit, Seq + 2, At.LastEpoch + 1, Commit);
}

/// Checks that \p Mut, whose first bad segment lies at offset \p Stop,
/// stops the scan there as malformed and recovers exactly the state of
/// the last Commit before it, through \p Epoch: the prefix cut there
/// recovers the same, and with \p Reference so does a run stopped at
/// that round (no state at all for epoch 0).
void expectStopsAt(const std::string &Label, const std::string &Mut,
                   size_t Stop, uint64_t Epoch, bool Reference = true) {
  const JournalRecovery R = readBytes(Mut);
  ASSERT_TRUE(R.HeaderValid) << Label;
  EXPECT_EQ(R.TruncationReason, "malformed segment payload") << Label;
  EXPECT_EQ(R.TrailingBytes, Mut.size() - Stop) << Label;
  EXPECT_EQ(R.LastEpoch, Epoch) << Label;
  const JournalRecovery Prefix = readBytes(Mut.substr(0, R.BytesKept));
  EXPECT_TRUE(scansWhole(Prefix)) << Label;
  EXPECT_EQ(Prefix.LastEpoch, Epoch) << Label;
  ASSERT_EQ(R.Profiles.size(), Prefix.Profiles.size()) << Label;
  for (size_t I = 0; I < R.Profiles.size(); ++I)
    EXPECT_EQ(encoded(R.Profiles[I]), encoded(Prefix.Profiles[I]))
        << Label << ", thread " << I;
  if (Epoch == 0)
    EXPECT_TRUE(R.Profiles.empty()) << Label;
  else if (Reference)
    expectMatchesMaxRoundsReference(Label, R);
}

TEST(JournalCheckpoint, ACheckpointOnlyOpensItsFile) {
  // The writer puts a Checkpoint only at the head of a fresh file, right
  // after Meta and the full MethodTable. Anywhere else it is malformed,
  // even when it holds a whole well-formed state.
  std::string Path = tempPath("ckpt_strict.djxj");
  const CompactedRun C = runCompacted(Path);

  // After a Delta: the run's first file, which has none, cut mid-run.
  const std::string &First = C.Files.front();
  const JournalRecovery FirstWhole = readBytes(First);
  ASSERT_TRUE(scansWhole(FirstWhole));
  ASSERT_TRUE(checkpointsOf(FirstWhole).empty());
  const std::string Mid =
      prefixThroughEpoch(First, FirstWhole, FirstWhole.LastEpoch / 2);
  const JournalRecovery AtMid = readBytes(Mid);
  ASSERT_GT(AtMid.LastEpoch, 0u);
  std::string Mut = Mid;
  appendEpoch(Mut, AtMid, SegmentType::Checkpoint, checkpointPayload(AtMid));
  expectStopsAt("Checkpoint after a Delta", Mut, Mid.size(), AtMid.LastEpoch);

  // Right after the first Checkpoint's Commit: a copy of it.
  const std::string Crash = crashSource(C.Files);
  const JournalRecovery Rooted = readBytes(Crash);
  expectRootedAtOneCheckpoint(Rooted, "crash source");
  const JournalSegmentInfo &Ck = Rooted.Segments[2];
  const JournalSegmentInfo &Commit = Rooted.Segments[3];
  const std::string Head = Crash.substr(0, Commit.Offset + Commit.Length);
  const JournalRecovery AtHead = readBytes(Head);
  Mut = Head;
  appendEpoch(Mut, AtHead, SegmentType::Checkpoint, payloadOf(Crash, Ck));
  expectStopsAt("second Checkpoint", Mut, Head.size(), Ck.Epoch);

  // A file's first Checkpoint has nothing before it, so it is checked
  // from nothing: a delta whose thread record is nameless (KnownThread),
  // well formed only over the state it follows, stops the scan at it,
  // committed or not.
  ASSERT_FALSE(AtHead.Profiles.empty());
  ThreadProfile P = AtHead.Profiles.front();
  encoded(P); // Starts the change log, so the next encode is a delta.
  const ProfileMark Mark = P.mark();
  P.recordCodeSample(1, PerfEventKind::L1Miss);
  std::string Records, Nameless;
  P.encode(Records, Mark);
  putVarint(Nameless, P.threadId());
  putBytes(Nameless, Records);
  for (bool Committed : {false, true}) {
    Mut = Crash.substr(0, Ck.Offset);
    appendSegment(Mut, SegmentType::Checkpoint, Ck.Seq, Ck.Epoch, Nameless);
    if (Committed)
      Mut += Crash.substr(Commit.Offset, Commit.Length);
    expectStopsAt(std::string("nameless file-first Checkpoint, ") +
                      (Committed ? "committed" : "uncommitted"),
                  Mut, Ck.Offset, 0);
  }
  std::remove(Path.c_str());
}

TEST(JournalCheckpoint, AMalformedPayloadStopsTheScanWhereverItLies) {
  // Nothing committed is ever superseded, so every committed payload is
  // decoded: a CRC-valid malformed one stops the scan where it lies, in
  // the run's first file and in a compacted one, at its Checkpoint or at
  // a Delta near the start, in the middle or near the end.
  std::string Path = tempPath("ckpt_anywhere.djxj");
  const CompactedRun C = runCompacted(Path);
  const std::string Bad = std::string(10, '\x80') + bytesOf({1, 0});
  for (const std::string &File : {C.Files.front(), crashSource(C.Files)}) {
    const JournalRecovery Whole = readBytes(File);
    ASSERT_TRUE(scansWhole(Whole));
    std::vector<const JournalSegmentInfo *> Payloads;
    for (const JournalSegmentInfo &S : Whole.Segments)
      if (isType(S, SegmentType::Delta) || isType(S, SegmentType::Checkpoint))
        Payloads.push_back(&S);
    const size_t N = Payloads.size();
    ASSERT_GE(N, 8u);
    for (size_t I : {size_t{0}, size_t{1}, size_t{2}, N / 4, N / 2, 3 * N / 4,
                     N - 3, N - 2, N - 1}) {
      const JournalSegmentInfo &S = *Payloads[I];
      // A reference run for the middle payload only.
      expectStopsAt("bad payload at epoch " + std::to_string(S.Epoch),
                    withPayload(File, S, Bad), S.Offset,
                    lastDurableEpochBefore(Whole, S.Offset), I == N / 2);
    }
  }
  std::remove(Path.c_str());
}

TEST(JournalCheckpoint, DecodedBytesStayFlatAsRoundsDouble) {
  // Recovery decodes a file's Checkpoint and the Deltas after it, which
  // the writer keeps under the floor while 64 x a Checkpoint is below
  // it. So one bound, the floor plus a Checkpoint of the final state,
  // holds for N and 2N rounds alike, in the closed file and in the one
  // a crash before close leaves, while the payloads the run wrote over
  // all its files pass it twice over.
  std::string Path = tempPath("ckpt_decoded.djxj");
  const CompactedRun Long = runCompacted(Path);
  const CompactedRun Short = runCompacted(Path, Long.Live.Rounds / 2);
  ASSERT_LT(kJournalCheckpointRatio * Long.Live.StateBytes,
            kJournalCheckpointFloorBytes);
  const uint64_t Bound = kJournalCheckpointFloorBytes + Long.Live.StateBytes;

  uint64_t Payloads = 0;
  for (const std::string &File : Long.Files)
    for (const JournalSegmentInfo &S : readBytes(File).Segments)
      if (isType(S, SegmentType::Delta) || isType(S, SegmentType::Checkpoint))
        Payloads += S.Length - kJournalSegmentHeaderBytes;
  EXPECT_GT(Payloads, 2 * Bound); // Decoding them all would not fit.
  EXPECT_GT(Long.Live.Epochs, Short.Live.Epochs);
  for (const CompactedRun *C : {&Short, &Long}) {
    const JournalRecovery Final = readBytes(C->Files.back());
    ASSERT_TRUE(Final.Closed);
    EXPECT_LT(Final.DecodedBytes, Bound) << "rounds " << C->Live.Rounds;
    // The file the closing compaction replaced: its Checkpoint and the
    // Deltas after it.
    const JournalRecovery Crash = readBytes(crashSource(C->Files));
    ASSERT_TRUE(scansWhole(Crash));
    EXPECT_LT(Crash.DecodedBytes, Bound) << "rounds " << C->Live.Rounds;
  }
  std::remove(Path.c_str());
}

// --- References across segments -------------------------------------------

/// Runs the djxperf CLI on \p Args. \returns its exit code (the shell's
/// 128 + signal number when a signal killed it) and its stdout.
std::pair<int, std::string> runCli(const std::string &Args) {
  std::string Out;
  FILE *Pipe = ::popen(
      ("'" DJX_DJXPERF_PATH "' " + Args + " 2>/dev/null").c_str(), "r");
  if (!Pipe)
    return {-1, Out};
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), Pipe)) > 0)
    Out.append(Buf, N);
  int Status = ::pclose(Pipe);
  return {WIFEXITED(Status) ? WEXITSTATUS(Status) : -1, Out};
}

/// Checks that every CCT node \p R recovered names a method its table
/// defines.
void expectMethodsDefined(const JournalRecovery &R,
                          const std::string &Label = "") {
  for (const ThreadProfile &P : R.Profiles)
    for (size_t N = 1; N < P.cct().size(); ++N)
      EXPECT_LT(P.cct().methodOf(static_cast<CctNodeId>(N)), R.Methods.size())
          << Label << " thread " << P.threadId() << ", node " << N;
}

/// One segment of a journal file: its type, epoch and payload.
struct Segment {
  SegmentType Type;
  uint64_t Epoch;
  std::string Payload;
};

/// The segments of \p File, a journal that scans whole.
std::vector<Segment> segmentsOf(const std::string &File) {
  std::vector<Segment> Out;
  for (const JournalSegmentInfo &S : readBytes(File).Segments)
    Out.push_back({static_cast<SegmentType>(S.Type), S.Epoch,
                   payloadOf(File, S)});
  return Out;
}

/// \p Segments after a file header, numbered from 1 with every CRC
/// resealed, so only what they hold can stop a scan.
std::string resealed(const std::vector<Segment> &Segments) {
  std::string Out(kJournalFileMagic, sizeof(kJournalFileMagic));
  appendU32(Out, kJournalFormatVersion);
  appendU32(Out, Crc32c::compute(Out.data(), Out.size()));
  uint64_t Seq = 0;
  for (const Segment &S : Segments)
    appendSegment(Out, S.Type, ++Seq, S.Epoch, S.Payload);
  return Out;
}

/// A Delta payload over \p P that adds one CCT node naming \p Method.
std::string deltaNaming(ThreadProfile P, MethodId Method) {
  encoded(P); // Starts the change log, so the next encode is a delta.
  const ProfileMark Mark = P.mark();
  P.cct().child(kCctRoot, Method, 0);
  std::string Records, Payload;
  P.encode(Records, Mark);
  putVarint(Payload, P.threadId());
  putBytes(Payload, Records);
  return Payload;
}

TEST(JournalReferences, MethodIdsPastTheTableStopTheScan) {
  std::string Path = tempPath("refs.djxj");
  const std::string Good = crashSource(runCompacted(Path).Files);
  const JournalRecovery Whole = readBytes(Good);
  ASSERT_TRUE(scansWhole(Whole));
  expectRootedAtOneCheckpoint(Whole, "good");
  ASSERT_FALSE(Whole.Profiles.empty());

  // The compacted file resealed without its MethodTable: its Checkpoint
  // names methods no table defines, so the scan stops there and nothing
  // is committed.
  std::vector<Segment> Segs = segmentsOf(Good);
  Segs.erase(Segs.begin() + 1);
  const std::string Bad = resealed(Segs);
  JournalRecovery R = readBytes(Bad);
  ASSERT_TRUE(R.HeaderValid);
  EXPECT_EQ(R.TruncationReason, "method id out of range");
  EXPECT_EQ(R.LastEpoch, 0u);
  EXPECT_TRUE(R.Methods.empty());
  EXPECT_TRUE(R.Profiles.empty());
  recoveredReport(R);

  // recover and merge salvage what is left or exit 7, never die from a
  // signal, and the bad journal adds nothing to a merge.
  const std::string GoodPath = tempPath("refs_good.djxj");
  const std::string BadPath = tempPath("refs_bad.djxj");
  spit(GoodPath, Good);
  spit(BadPath, Bad);
  for (const std::string Verb : {"recover", "merge"}) {
    auto [Exit, Out] = runCli(Verb + " '" + BadPath + "'");
    EXPECT_TRUE(Exit == 0 || Exit == 7) << Verb << " exited " << Exit;
  }
  auto [GoodExit, GoodOut] = runCli("merge '" + GoodPath + "'");
  auto [BothExit, BothOut] =
      runCli("merge '" + GoodPath + "' '" + BadPath + "'");
  EXPECT_EQ(GoodExit, 0) << GoodOut;
  EXPECT_EQ(BothExit, 0) << BothOut;
  EXPECT_NE(GoodOut.find("object-centric"), std::string::npos) << GoodOut;
  EXPECT_EQ(BothOut, GoodOut);

  // A committed Delta whose new CCT node names the first undefined id:
  // the scan keeps everything before it and stops at it.
  std::string Mut = Good;
  appendEpoch(Mut, Whole, SegmentType::Delta,
              deltaNaming(Whole.Profiles.front(),
                          static_cast<MethodId>(Whole.Methods.size())));
  R = readBytes(Mut);
  EXPECT_EQ(R.TruncationReason, "method id out of range");
  EXPECT_EQ(R.LastEpoch, Whole.LastEpoch);
  EXPECT_EQ(R.BytesKept, Good.size());
  EXPECT_EQ(recoveredReport(R), recoveredReport(Whole));
  expectMethodsDefined(R);
  expectMethodsDefined(Whole);

  std::remove(Path.c_str());
  std::remove(GoodPath.c_str());
  std::remove(BadPath.c_str());
}

TEST(JournalReferences, MethodIdsAreCheckedAgainstTheTablesCommittedSoFar) {
  // Each payload is checked at its sentinel, against the MethodTables
  // committed with it or before it: a later table does not make an id
  // defined in time.
  std::string Path = tempPath("refs_later.djxj");
  const std::string Good = crashSource(runCompacted(Path).Files);
  const JournalRecovery Whole = readBytes(Good);
  ASSERT_TRUE(scansWhole(Whole));
  ASSERT_FALSE(Whole.Profiles.empty());
  const uint32_t Next = static_cast<uint32_t>(Whole.Methods.size());
  const std::string Delta = deltaNaming(Whole.Profiles.front(), Next);
  // A MethodTable defining id Next: "Later.run()", no line table.
  std::string Table;
  appendU32(Table, Next);
  appendU32(Table, 1);
  appendU32(Table, 5);
  appendU32(Table, 3);
  appendU32(Table, 0);
  Table += "Laterrun";

  // The table one epoch after the Delta that names its id.
  std::vector<Segment> Segs = segmentsOf(Good);
  const uint64_t E = Whole.LastEpoch;
  std::string Commit;
  appendU64(Commit, Whole.LastRound + 1);
  Segs.push_back({SegmentType::Delta, E + 1, Delta});
  Segs.push_back({SegmentType::Commit, E + 1, Commit});
  Segs.push_back({SegmentType::MethodTable, E + 2, Table});
  Segs.push_back({SegmentType::Commit, E + 2, Commit});
  JournalRecovery R = readBytes(resealed(Segs));
  EXPECT_EQ(R.TruncationReason, "method id out of range");
  EXPECT_EQ(R.LastEpoch, E);
  EXPECT_EQ(R.BytesKept, Good.size());
  EXPECT_EQ(R.Methods.size(), Next);
  EXPECT_EQ(recoveredReport(R), recoveredReport(Whole));
  expectMethodsDefined(R);

  // The same table in the Delta's own epoch, as the writer puts it.
  Segs.resize(Segs.size() - 4);
  Segs.push_back({SegmentType::MethodTable, E + 1, Table});
  Segs.push_back({SegmentType::Delta, E + 1, Delta});
  Segs.push_back({SegmentType::Commit, E + 1, Commit});
  R = readBytes(resealed(Segs));
  EXPECT_TRUE(scansWhole(R));
  EXPECT_EQ(R.LastEpoch, E + 1);
  ASSERT_EQ(R.Methods.size(), Next + 1);
  EXPECT_EQ(R.Methods.back().ClassName, "Later");
  expectMethodsDefined(R);
  std::remove(Path.c_str());
}

TEST(JournalMalformed, BytesAfterAPayloadsLastFieldStopTheScan) {
  // A MethodTable or a Close holds exactly the fields the writer puts in
  // it, as a Commit does: bytes after the last one make it malformed.
  std::string Path = tempPath("trailing.djxj");
  std::vector<std::string> Files;
  runJournaled(Path, 2, 0, journalWorkload(), {nullptr, &Files});
  const JournalRecovery Whole = readBytes(Files.back());
  ASSERT_TRUE(scansWhole(Whole));
  ASSERT_TRUE(Whole.Closed);
  const std::vector<Segment> Segs = segmentsOf(Files.back());
  ASSERT_EQ(Segs.size(), 5u);
  ASSERT_EQ(Segs[1].Type, SegmentType::MethodTable);
  ASSERT_EQ(Segs[4].Type, SegmentType::Close);

  // The table's Count lowered by one, its last method's bytes left over:
  // the scan stops at the table, before any sentinel.
  std::vector<Segment> Lowered = Segs;
  std::string &Table = Lowered[1].Payload;
  uint32_t Count = 0;
  for (int I = 0; I < 4; ++I)
    Count |= static_cast<uint32_t>(static_cast<uint8_t>(Table[4 + I]))
             << (8 * I);
  ASSERT_GE(Count, 1u);
  std::string LowerCount;
  appendU32(LowerCount, Count - 1);
  Table.replace(4, 4, LowerCount);
  JournalRecovery R = readBytes(resealed(Lowered));
  ASSERT_TRUE(R.HeaderValid);
  EXPECT_EQ(R.TruncationReason, "malformed segment payload");
  EXPECT_EQ(R.Segments.size(), 1u);
  EXPECT_EQ(R.LastEpoch, 0u);
  EXPECT_TRUE(R.Methods.empty());
  EXPECT_TRUE(R.Profiles.empty());

  // One byte after the Close's last field: everything up to its Commit
  // stands, and the journal does not read as closed.
  std::vector<Segment> Padded = Segs;
  Padded[4].Payload += '\0';
  R = readBytes(resealed(Padded));
  ASSERT_TRUE(R.HeaderValid);
  EXPECT_EQ(R.TruncationReason, "malformed segment payload");
  EXPECT_FALSE(R.Closed);
  EXPECT_EQ(R.Segments.size(), 4u);
  EXPECT_EQ(R.LastEpoch, Whole.LastEpoch);
  EXPECT_EQ(R.BytesKept, Whole.Segments[3].Offset + Whole.Segments[3].Length);
  EXPECT_EQ(R.Methods.size(), Whole.Methods.size());
  ASSERT_EQ(R.Profiles.size(), Whole.Profiles.size());
  for (size_t I = 0; I < R.Profiles.size(); ++I)
    EXPECT_EQ(encoded(R.Profiles[I]), encoded(Whole.Profiles[I]))
        << "thread " << I;
  std::remove(Path.c_str());
}

// --- Resealing fuzzer -------------------------------------------------------

/// Resealing fuzz iterations; each runs recover and merge twice.
constexpr int kResealCases = 160;

/// Consumes one varint from the front of \p S. Writer-made varints are
/// minimal, so re-encoding the value gives the bytes consumed.
uint64_t takeVarint(std::string_view &S) {
  uint64_t V = 0;
  VarintReader R(S);
  EXPECT_TRUE(R.u64(V));
  std::string Bytes;
  putVarint(Bytes, V);
  S.remove_prefix(std::min(Bytes.size(), S.size()));
  return V;
}

/// One thread entry of a Delta or Checkpoint payload, split where the
/// fuzzer edits it: the entry's thread id, its Thread or KnownThread
/// record, the CCT nodes it adds as (parent, method, bci), and the
/// records after them verbatim.
struct ThreadEntry {
  uint64_t Tid = 0;
  uint64_t Tag = 0;
  uint64_t RecordTid = 0;
  std::string Name;
  uint64_t FirstNode = 0;
  std::vector<std::array<uint64_t, 3>> Nodes;
  std::string Rest;
};

constexpr uint64_t kThreadTag = 1; // Named; KnownThread (9) has no name.
constexpr uint64_t kNodesTag = 2;

/// The thread entries of a writer-made payload.
std::vector<ThreadEntry> entriesOf(std::string_view Payload) {
  std::vector<ThreadEntry> Out;
  while (!Payload.empty()) {
    ThreadEntry E;
    E.Tid = takeVarint(Payload);
    std::string_view Records = Payload.substr(0, takeVarint(Payload));
    Payload.remove_prefix(Records.size());
    E.Tag = takeVarint(Records);
    E.RecordTid = takeVarint(Records);
    if (E.Tag == kThreadTag) {
      E.Name = Records.substr(0, takeVarint(Records));
      Records.remove_prefix(E.Name.size());
    }
    std::string_view Next = Records;
    if (takeVarint(Next) == kNodesTag) {
      Records = Next;
      E.FirstNode = takeVarint(Records);
      E.Nodes.resize(takeVarint(Records));
      for (auto &Node : E.Nodes)
        for (uint64_t &V : Node)
          V = takeVarint(Records);
    }
    E.Rest = Records;
    Out.push_back(std::move(E));
  }
  return Out;
}

/// \p Entries encoded back into a payload.
std::string encodedEntries(const std::vector<ThreadEntry> &Entries) {
  std::string Out;
  for (const ThreadEntry &E : Entries) {
    std::string Records;
    putVarint(Records, E.Tag);
    putVarint(Records, E.RecordTid);
    if (E.Tag == kThreadTag)
      putBytes(Records, E.Name);
    if (!E.Nodes.empty()) {
      putVarint(Records, kNodesTag);
      putVarint(Records, E.FirstNode);
      putVarint(Records, E.Nodes.size());
      for (const auto &Node : E.Nodes)
        for (uint64_t V : Node)
          putVarint(Records, V);
    }
    Records += E.Rest;
    putVarint(Out, E.Tid);
    putBytes(Out, Records);
  }
  return Out;
}

bool holdsProfiles(const Segment &S) {
  return S.Type == SegmentType::Delta || S.Type == SegmentType::Checkpoint;
}

/// One seeded record-level edit of \p Segs, a journal holding
/// \p Methods methods. \returns what it did, for the failure message.
std::string mutate(std::vector<Segment> &Segs, std::mt19937_64 &Rng,
                   uint64_t Methods) {
  auto Pick = [&](size_t N) { return static_cast<size_t>(Rng() % N); };
  auto IndexesOf = [&](auto &&Pred) {
    std::vector<size_t> Out;
    for (size_t I = 0; I < Segs.size(); ++I)
      if (Pred(Segs[I]))
        Out.push_back(I);
    return Out;
  };
  // Edits one thread entry of a random payload, re-encoded.
  auto EditEntry = [&](auto &&Edit) {
    const std::vector<size_t> Payloads = IndexesOf(holdsProfiles);
    if (Payloads.empty())
      return false;
    Segment &S = Segs[Payloads[Pick(Payloads.size())]];
    std::vector<ThreadEntry> Entries = entriesOf(S.Payload);
    if (!Edit(Entries, Entries[Pick(Entries.size())]))
      return false;
    S.Payload = encodedEntries(Entries);
    return true;
  };
  switch (Pick(8)) {
  case 0: {
    const uint64_t Ids[] = {Pick(Methods), Methods, Methods + 1 + Pick(8),
                            uint64_t{1} << (16 + Pick(16)), UINT32_MAX};
    const uint64_t Id = Ids[Pick(5)];
    if (EditEntry([&](auto &, ThreadEntry &E) {
          if (E.Nodes.empty())
            return false;
          E.Nodes[Pick(E.Nodes.size())][1] = Id;
          return true;
        }))
      return "method id " + std::to_string(Id);
    break;
  }
  case 1: {
    const size_t Which = Pick(3);
    uint64_t Tid = 0;
    if (EditEntry([&](std::vector<ThreadEntry> &All, ThreadEntry &E) {
          const uint64_t Tids[] = {All[Pick(All.size())].Tid, E.Tid + 1,
                                   E.Tid - 1, Pick(64)};
          Tid = Tids[Pick(4)];
          if (Which != 1)
            E.Tid = Tid;
          if (Which != 0)
            E.RecordTid = Tid;
          return true;
        }))
      return "thread id " + std::to_string(Tid) + " (" +
             std::to_string(Which) + ")";
    break;
  }
  case 2: {
    uint64_t Parent = 0;
    if (EditEntry([&](auto &, ThreadEntry &E) {
          if (E.Nodes.empty())
            return false;
          const size_t N = Pick(E.Nodes.size());
          const uint64_t Id = E.FirstNode + N;
          const uint64_t Parents[] = {0, Id, Id + 1 + Pick(4), Pick(Id + 1)};
          Parent = Parents[Pick(4)];
          E.Nodes[N][0] = Parent;
          return true;
        }))
      return "CCT parent " + std::to_string(Parent);
    break;
  }
  case 3: {
    const std::vector<size_t> Tables = IndexesOf(
        [](const Segment &S) { return S.Type == SegmentType::MethodTable; });
    if (Tables.empty())
      break;
    std::string &P = Segs[Tables[Pick(Tables.size())]].Payload;
    const size_t Field = 4 * Pick(2); // First, then Count.
    uint32_t Old = 0;
    for (int I = 3; I >= 0; --I)
      Old = (Old << 8) | static_cast<uint8_t>(P[Field + I]);
    const uint32_t Values[] = {Old + 1, Old - 1, 0,
                               static_cast<uint32_t>(Pick(2 * Methods + 1)),
                               UINT32_MAX};
    const uint32_t V = Values[Pick(5)];
    std::string Bytes;
    appendU32(Bytes, V);
    P.replace(Field, 4, Bytes);
    return std::string(Field ? "table Count " : "table First ") +
           std::to_string(V);
  }
  case 4: {
    const size_t I = Pick(Segs.size());
    Segs.erase(Segs.begin() + I);
    return "dropped segment " + std::to_string(I);
  }
  case 5: {
    const size_t I = Pick(Segs.size());
    const size_t To = I + 1 + Pick(Segs.size() - I);
    Segs.insert(Segs.begin() + To, Segment(Segs[I]));
    return "segment " + std::to_string(I) + " copied to " + std::to_string(To);
  }
  case 6: {
    const size_t I = Pick(Segs.size());
    Segment S = std::move(Segs[I]);
    Segs.erase(Segs.begin() + I);
    const size_t To = Pick(Segs.size() + 1);
    Segs.insert(Segs.begin() + To, std::move(S));
    return "segment " + std::to_string(I) + " moved to " + std::to_string(To);
  }
  default: {
    const std::vector<size_t> Cks = IndexesOf(
        [](const Segment &S) { return S.Type == SegmentType::Checkpoint; });
    const std::vector<size_t> Deltas = IndexesOf(
        [](const Segment &S) { return S.Type == SegmentType::Delta; });
    if (Cks.empty() || Deltas.empty())
      break;
    const size_t From = Cks.front();
    const size_t After = Deltas[Pick(Deltas.size())];
    Segment Ck = std::move(Segs[From]);
    Segs.erase(Segs.begin() + From);
    // The Delta sits one before its old index once the Checkpoint that
    // preceded it is gone; the Checkpoint lands right after it or after
    // its Commit.
    const size_t To = std::min(After - (From < After) + 1 + Pick(2),
                               Segs.size());
    Segs.insert(Segs.begin() + To, std::move(Ck));
    return "Checkpoint moved to " + std::to_string(To);
  }
  }
  return "no edit";
}

TEST(JournalResealFuzz, RecordEditsNeverCrashRecoverOrMerge) {
  // A writer-made journal, edited at the record level and resealed so
  // every CRC holds: whatever the edit, readJournal returns with every
  // recovered method id defined, and recover and merge exit 0 or 7,
  // never from a signal. A failure names its seed and case.
  std::string Path = tempPath("reseal.djxj");
  const std::string Good = crashSource(runCompacted(Path).Files);
  const JournalRecovery Whole = readBytes(Good);
  ASSERT_TRUE(scansWhole(Whole));
  const std::vector<Segment> Base = segmentsOf(Good);
  ASSERT_EQ(resealed(Base), Good);
  for (const Segment &S : Base)
    if (holdsProfiles(S)) {
      ASSERT_EQ(encodedEntries(entriesOf(S.Payload)), S.Payload);
    }

  const std::string GoodPath = tempPath("reseal_good.djxj");
  const std::string BadPath = tempPath("reseal_bad.djxj");
  spit(GoodPath, Good);
  const uint64_t Seed = fuzzSeed();
  for (int Case = 0; Case < kResealCases; ++Case) {
    std::mt19937_64 Rng(mixSeed(Seed + static_cast<uint64_t>(Case)));
    std::vector<Segment> Segs = Base;
    char Head[64];
    std::snprintf(Head, sizeof(Head),
                  "DJX_JOURNAL_FUZZ_SEED=0x%016" PRIx64 " case %d:", Seed,
                  Case);
    std::string Label = Head;
    for (size_t Edits = 1 + Rng() % 2; Edits > 0; --Edits)
      Label += " " + mutate(Segs, Rng, Whole.Methods.size()) + ";";
    spit(BadPath, resealed(Segs));
    const JournalRecovery R = readJournal(BadPath); // Must return.
    expectMethodsDefined(R, Label);
    if (::testing::Test::HasFailure())
      break; // Rendering would index past the method table.
    recoveredReport(R);
    for (const std::string &Args :
         {"recover '" + BadPath + "'", "merge '" + BadPath + "'",
          "merge '" + GoodPath + "' '" + BadPath + "'"}) {
      const int Exit = runCli(Args).first;
      EXPECT_TRUE(Exit == 0 || Exit == 7)
          << Label << " djxperf " << Args << " exited " << Exit;
    }
  }
  std::remove(Path.c_str());
  std::remove(GoodPath.c_str());
  std::remove(BadPath.c_str());
}

// --- Size ------------------------------------------------------------------

TEST(JournalSize, BytesPerEpochDoNotGrowWithRounds) {
  // Each epoch holds what changed in its round. Once the profiles stop
  // growing, a longer run adds epochs no bigger than the ones before,
  // so the average cannot rise. (That one changed entry costs bytes
  // independent of the profile's size is ProfileCodec's test.)
  std::string Path = tempPath("size.djxj");
  JournaledRun Full = runJournaled(Path, 2);
  JournaledRun Half = runJournaled(Path, 2, Full.Rounds / 2);
  ASSERT_GT(Half.Epochs, 8u);
  ASSERT_GT(Full.Epochs, Half.Epochs);
  double FullPerEpoch =
      static_cast<double>(Full.JournalBytes) / static_cast<double>(Full.Epochs);
  double HalfPerEpoch =
      static_cast<double>(Half.JournalBytes) / static_cast<double>(Half.Epochs);
  EXPECT_LE(FullPerEpoch, HalfPerEpoch);
  std::remove(Path.c_str());
}

TEST(JournalSize, FileBytesStayBoundedAsRoundsDouble) {
  // Each Checkpoint starts a fresh file, and the checkpoint rule keeps
  // the Deltas after it under the floor. So the file after N and after 2N
  // rounds holds at most its header, Meta, the full method table and the
  // sentinels, a segment header per Delta or Checkpoint, the floor's
  // worth of Deltas and one Checkpoint of the final state, while the
  // bytes written keep growing with the rounds.
  std::string Path = tempPath("size_bound.djxj");
  JournaledRun Long = runJournaled(Path, 2, 0, checkpointWorkload());
  const JournalRecovery R2 = readJournal(Path);
  const uint64_t File2 = slurp(Path).size();
  JournaledRun Short =
      runJournaled(Path, 2, Long.Rounds / 2, checkpointWorkload());
  const JournalRecovery R1 = readJournal(Path);
  const uint64_t File1 = slurp(Path).size();
  ASSERT_TRUE(R1.Closed && R2.Closed);
  ASSERT_LT(kJournalCheckpointRatio * Long.StateBytes,
            kJournalCheckpointFloorBytes);
  auto Bound = [](const JournalRecovery &R, uint64_t StateBytes) {
    uint64_t B = kJournalFileHeaderBytes + kJournalCheckpointFloorBytes +
                 StateBytes;
    for (const JournalSegmentInfo &S : R.Segments)
      B += isType(S, SegmentType::Delta) || isType(S, SegmentType::Checkpoint)
               ? kJournalSegmentHeaderBytes
               : S.Length;
    return B;
  };
  EXPECT_EQ(Short.Rounds, Long.Rounds / 2);
  EXPECT_EQ(checkpointsOf(R2).size(), 1u);
  EXPECT_LE(File1, Bound(R1, Short.StateBytes));
  EXPECT_LE(File2, Bound(R2, Long.StateBytes));
  EXPECT_GT(Long.JournalBytes, 2 * Bound(R2, Long.StateBytes));
  std::remove(Path.c_str());
}

// --- Injected I/O faults ---------------------------------------------------

TEST(JournalFaults, WriteErrorDegradesToOffRunUnaffected) {
  InjectorGuard Guard;
  std::string Plain = tempPath("plainref.djxj");
  JournaledRun Ref = runJournaled(Plain, 2);

  FaultPlan Plan;
  Plan.Seed = 0x77;
  Plan.rate(FaultSite::JournalWriteError) = 1.0;
  FaultInjector::install(Plan);
  std::string Path = tempPath("werror.djxj");
  JournaledRun Run = runJournaled(Path, 2);
  EXPECT_GE(FaultInjector::firedCount(FaultSite::JournalWriteError), 1u);
  FaultInjector::clear();

  // Journaling is an observer: the run's own results never change.
  EXPECT_FALSE(Run.JournalActive);
  EXPECT_EQ(Run.Report, Ref.Report);
  std::remove(Plain.c_str());
  std::remove(Path.c_str());
}

TEST(JournalFaults, ShortWriteLeavesRecoverableTornPrefix) {
  InjectorGuard Guard;
  FaultPlan Plan;
  Plan.Seed = 0x99;
  // Spare the first flush (header + Meta) on this seed; fail soon after.
  Plan.rate(FaultSite::JournalShortWrite) = 0.2;
  FaultInjector::install(Plan);
  std::string Path = tempPath("short.djxj");
  JournaledRun Run = runJournaled(Path, 2);
  FaultInjector::clear();
  EXPECT_FALSE(Run.JournalActive);

  JournalRecovery R = readJournal(Path); // Must never crash.
  if (R.HeaderValid) {
    EXPECT_TRUE(R.degraded());
    EXPECT_FALSE(R.Closed);
    // The write tore an append mid-run, not the closing compaction,
    // which would have left the previous file whole.
    EXPECT_GT(R.TrailingBytes, 0u);
    EXPECT_GT(R.LastEpoch, 0u);
    recoveredReport(R);
  }
  std::remove(Path.c_str());
}

TEST(JournalFaults, CorruptBitsNeverSurviveReadBack) {
  InjectorGuard Guard;
  FaultPlan Plan;
  Plan.Seed = 0x42;
  Plan.rate(FaultSite::JournalCorruptByte) = 1.0;
  FaultInjector::install(Plan);
  std::string Path = tempPath("corrupt.djxj");
  runJournaled(Path, 2);
  FaultInjector::clear();

  // Every segment with a payload was corrupted after its CRC was
  // computed; the scanner must reject the very first one.
  JournalRecovery R = readJournal(Path);
  ASSERT_TRUE(R.HeaderValid);
  EXPECT_EQ(R.SegmentsCommitted, 0u);
  EXPECT_EQ(R.LastEpoch, 0u);
  EXPECT_FALSE(R.HasMeta);
  EXPECT_EQ(R.TruncationReason, "segment checksum mismatch");
  std::remove(Path.c_str());
}

TEST(JournalFaults, PlansStayJobsInvariantAcrossCompactions) {
  // Fault draws are keyed on run-wide ordinals, which a compaction does
  // not restart, so one plan corrupts and retries the same segments and
  // writes at every --jobs value, in every file of the run.
  InjectorGuard Guard;
  FaultPlan Plan;
  Plan.Seed = 0x5eed;
  Plan.rate(FaultSite::JournalCorruptByte) = 0.002;
  Plan.rate(FaultSite::JournalWriteError) = 0.02;
  std::string Path = tempPath("faults_jobs.djxj");
  std::vector<std::string> Files[2];
  for (unsigned I = 0; I < 2; ++I) {
    FaultInjector::install(Plan);
    JournaledRun Run = runJournaled(Path, I == 0 ? 1 : 4, 0,
                                    checkpointWorkload(), {nullptr, &Files[I]});
    EXPECT_TRUE(Run.JournalActive);
    EXPECT_GE(FaultInjector::firedCount(FaultSite::JournalCorruptByte), 1u);
    EXPECT_GE(FaultInjector::firedCount(FaultSite::JournalWriteError), 1u);
    FaultInjector::clear();
  }
  EXPECT_GE(Files[0].size(), 3u);
  EXPECT_TRUE(Files[0] == Files[1]);
  std::remove(Path.c_str());
}

// --- Merge -----------------------------------------------------------------

TEST(JournalMerge, TwoIdenticalJournalsSumToDouble) {
  std::string P1 = tempPath("merge1.djxj");
  std::string P2 = tempPath("merge2.djxj");
  JournaledRun Live = runJournaled(P1, 2);
  runJournaled(P2, 2);

  MethodRegistry Union;
  std::vector<ThreadProfile> All;
  uint64_t TidOffset = 0;
  for (const std::string &Path : {P1, P2}) {
    JournalRecovery R = readJournal(Path);
    ASSERT_TRUE(R.Closed && R.CloseClean) << Path;
    std::vector<MethodId> Map;
    for (const MethodInfo &M : R.Methods)
      Map.push_back(Union.getOrRegister(M.ClassName, M.MethodName,
                                        M.LineTable));
    uint64_t MaxTid = TidOffset;
    for (ThreadProfile &P : R.Profiles) {
      P.remapIds(TidOffset, Map);
      MaxTid = std::max(MaxTid, P.threadId());
      All.push_back(std::move(P));
    }
    TidOffset = MaxTid;
  }

  std::vector<const ThreadProfile *> Parts;
  for (const ThreadProfile &P : All)
    Parts.push_back(&P);
  MergedProfile Merged = mergeProfiles(Parts);

  JournalRecovery Single = readJournal(P1);
  std::vector<const ThreadProfile *> OneParts;
  for (const ThreadProfile &P : Single.Profiles)
    OneParts.push_back(&P);
  MergedProfile One = mergeProfiles(OneParts);

  EXPECT_EQ(Merged.ThreadsMerged, 2 * One.ThreadsMerged);
  EXPECT_EQ(Merged.UnattributedSamples, 2 * One.UnattributedSamples);
  for (size_t K = 0; K < kNumPerfEventKinds; ++K)
    EXPECT_EQ(Merged.Totals.Counts[K], 2 * One.Totals.Counts[K]) << K;
  (void)Live;
  std::remove(P1.c_str());
  std::remove(P2.c_str());
}

TEST(JournalMerge, RemapRewritesThreadAndMethodIds) {
  // A tiny profile: one node, one group, and a NUMA histogram on a
  // group of unknown provenance (alloc thread 0). Offset 10, map method
  // 0 -> 7, then check the decoded profile the merge folds.
  ThreadProfile Src(2, "worker-1");
  CctNodeId N = Src.cct().child(kCctRoot, 0, 4);
  Src.recordAllocation(N, "long[]", 64);
  Src.recordObjectSample(AllocKey{0, N}, "long[]", PerfEventKind::L1Miss, N,
                         false, /*HomeNode=*/0);
  Src.recordObjectSample(AllocKey{2, N}, "long[]", PerfEventKind::L1Miss, N,
                         false, /*HomeNode=*/0);
  ThreadProfile P(2, "");
  ASSERT_TRUE(P.apply(encoded(Src)));
  P.remapIds(10, {7});
  EXPECT_EQ(P.threadId(), 12u);
  EXPECT_EQ(P.threadName(), "worker-1");
  EXPECT_EQ(P.cct().methodOf(N), 7u);
  EXPECT_EQ(P.cct().bciOf(N), 4u);
  const auto &Groups = P.groups();
  ASSERT_EQ(Groups.size(), 2u);
  EXPECT_EQ(Groups.at(AllocKey{12, N}).TypeName, "long[]");
  EXPECT_EQ(Groups.at(AllocKey{12, N}).AllocBytes, 64u);
  EXPECT_EQ(Groups.at(AllocKey{12, N}).HomeNodeSamples.at(0), 1u);
  // Alloc-thread 0 (unknown provenance) is preserved; 2 is offset.
  EXPECT_EQ(Groups.at(AllocKey{0, N}).HomeNodeSamples.at(0), 1u);
  EXPECT_EQ(Groups.count(AllocKey{2, N}), 0u);
}

} // namespace
