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
///    a method no MethodTable defined (recover and merge exit 0 or 7 on
///    it, never from a signal); a directory is no journal.
///  - Checkpoints: a longer shape crosses the checkpoint floor twice.
///    Its files, spliced into the one file a writer that never compacts
///    would write, put Checkpoints after Deltas: cuts around each match
///    a MaxRounds reference, a second corpus tears inside and just after
///    them, only payloads from the last committed Checkpoint on are
///    decoded, and the decoded bytes stay under one bound as rounds
///    double.
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

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <functional>
#include <initializer_list>
#include <optional>
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
      std::optional<ThreadProfile> Back = ThreadProfile::decode(encoded(P));
      ASSERT_TRUE(Back.has_value()) << Label;
      EXPECT_EQ(encoded(*Back), encoded(P)) << Label;
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

/// A full MethodTable payload (ids from 0) cut to the methods from id
/// \p From on: the delta a file that was never compacted holds.
std::string methodTableFrom(const std::string &Full, uint32_t From) {
  auto U32 = [&](size_t Off) {
    uint32_t V = 0;
    for (int I = 3; I >= 0; --I)
      V = (V << 8) | static_cast<uint8_t>(Full[Off + I]);
    return V;
  };
  size_t Off = 8;
  for (uint32_t I = 0; I < From; ++I)
    Off += 12 + U32(Off) + U32(Off + 4) + 8 * size_t{U32(Off + 8)};
  std::string P;
  appendU32(P, From);
  appendU32(P, U32(4) - From);
  P += Full.substr(Off);
  return P;
}

/// The one file a writer that never compacts would have written, spliced
/// from \p Files (every file of a run, oldest first): the first file,
/// then each later one from its Checkpoint epoch on, renumbered, with its
/// MethodTable cut to the methods new at that epoch. Its Checkpoints
/// follow Deltas, the reader paths a compacted file never reaches.
std::string uncompacted(const std::vector<std::string> &Files) {
  std::string Out = Files.front();
  const JournalRecovery First = readBytes(Out);
  uint64_t Seq = First.Segments.back().Seq;
  uint32_t Methods = static_cast<uint32_t>(First.Methods.size());
  for (size_t F = 1; F < Files.size(); ++F) {
    const JournalRecovery R = readBytes(Files[F]);
    for (const JournalSegmentInfo &S : R.Segments) {
      if (isType(S, SegmentType::Meta))
        continue;
      std::string Payload =
          Files[F].substr(S.Offset + kJournalSegmentHeaderBytes,
                          S.Length - kJournalSegmentHeaderBytes);
      if (isType(S, SegmentType::MethodTable) && S.Seq == 2) {
        Payload = methodTableFrom(Payload, Methods);
        if (Payload.size() == 8) // No method is new at this epoch.
          continue;
      }
      appendSegment(Out, static_cast<SegmentType>(S.Type), ++Seq, S.Epoch,
                    Payload);
    }
    Methods = static_cast<uint32_t>(R.Methods.size());
  }
  return Out;
}

/// One checkpointWorkload() run with its whole file history.
struct CompactedRun {
  JournaledRun Live;
  std::vector<std::string> Files; ///< Oldest first; the last is on disk.
  std::string Uncompacted;        ///< uncompacted(Files).
};

CompactedRun runCompacted(const std::string &Path, uint64_t MaxRounds = 0) {
  CompactedRun C;
  C.Live = runJournaled(Path, 2, MaxRounds, checkpointWorkload(),
                        {nullptr, &C.Files});
  C.Uncompacted = uncompacted(C.Files);
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

  // The file on disk and the uncompacted one both recover the run.
  const JournalRecovery Final = readJournal(Path);
  const JournalRecovery Whole = readBytes(C.Uncompacted);
  EXPECT_EQ(checkpointsOf(Whole).size(), C.Files.size() - 1);
  EXPECT_EQ(Whole.LastEpoch, Final.LastEpoch);
  for (const JournalRecovery *R : {&Final, &Whole}) {
    ASSERT_EQ(R->Profiles.size(), C.Live.ProfileBytes.size());
    for (size_t I = 0; I < R->Profiles.size(); ++I)
      EXPECT_EQ(encoded(R->Profiles[I]), C.Live.ProfileBytes[I]);
    EXPECT_EQ(recoveredReport(*R), C.Live.Report);
  }
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
  std::string Path = tempPath("ckpt_full.djxj");
  const CompactedRun C = runCompacted(Path);
  // The reader's side: Checkpoints after Deltas, in the file a writer
  // that never compacts would have written.
  const std::string Full = C.Uncompacted;
  JournalRecovery Whole = readBytes(Full);
  ASSERT_TRUE(Whole.Closed);
  const std::vector<size_t> Checkpoints = checkpointsOf(Whole);
  ASSERT_GE(Checkpoints.size(), 2u);
  // Decoded from its last Checkpoint on, the whole journal is the run.
  ASSERT_EQ(Whole.Profiles.size(), C.Live.ProfileBytes.size());
  for (size_t I = 0; I < Whole.Profiles.size(); ++I)
    EXPECT_EQ(encoded(Whole.Profiles[I]), C.Live.ProfileBytes[I]);
  EXPECT_EQ(recoveredReport(Whole), C.Live.Report);

  auto Cut = [](const std::string &Bytes, size_t End) {
    return readBytes(Bytes.substr(0, End));
  };
  for (size_t Index : Checkpoints) {
    const JournalSegmentInfo &Ck = Whole.Segments[Index];
    const JournalSegmentInfo &Before = Whole.Segments[Index - 1];
    const JournalSegmentInfo &Commit = Whole.Segments[Index + 1];
    ASSERT_TRUE(isType(Before, SegmentType::Commit));
    ASSERT_TRUE(isType(Commit, SegmentType::Commit));
    const std::string At = " at the Checkpoint of epoch " +
                           std::to_string(Ck.Epoch);

    // The Commit just before the Checkpoint.
    JournalRecovery R = Cut(Full, Before.Offset + Before.Length);
    EXPECT_EQ(R.LastEpoch, Ck.Epoch - 1);
    EXPECT_TRUE(R.TruncationReason.empty());
    expectMatchesMaxRoundsReference("commit before" + At, R);
    const std::string BeforeReport = recoveredReport(R);

    // Inside the Checkpoint, and right after it: still the state before.
    R = Cut(Full, Ck.Offset + Ck.Length / 2);
    EXPECT_EQ(R.LastEpoch, Ck.Epoch - 1);
    EXPECT_EQ(R.TruncationReason, "segment length out of bounds");
    EXPECT_EQ(recoveredReport(R), BeforeReport) << "inside" << At;
    R = Cut(Full, Ck.Offset + Ck.Length);
    EXPECT_EQ(R.LastEpoch, Ck.Epoch - 1);
    EXPECT_EQ(R.SegmentsUncommitted, 1u);
    EXPECT_TRUE(R.TruncationReason.empty());
    EXPECT_EQ(recoveredReport(R), BeforeReport) << "after" << At;

    // Its own Commit: the Checkpoint alone is the state.
    R = Cut(Full, Commit.Offset + Commit.Length);
    EXPECT_EQ(R.LastEpoch, Ck.Epoch);
    EXPECT_EQ(R.DecodedBytes, Ck.Length - kJournalSegmentHeaderBytes);
    expectMatchesMaxRoundsReference("own commit" + At, R);
  }

  // The writer's side: the compacted file starts at its Checkpoint, so a
  // cut before the Checkpoint's Commit recovers nothing, and the Commit
  // recovers the Checkpoint alone. (The file before the compaction
  // stays in place until the new one is whole; see JournalCompaction.)
  const std::string Final = C.Files.back();
  const JournalRecovery Compacted = readBytes(Final);
  expectRootedAtOneCheckpoint(Compacted, "compacted file");
  const JournalSegmentInfo &Table = Compacted.Segments[1];
  const JournalSegmentInfo &Ck = Compacted.Segments[2];
  const JournalSegmentInfo &Commit = Compacted.Segments[3];
  for (size_t End : {Table.Offset + Table.Length, Ck.Offset + Ck.Length / 2,
                     Ck.Offset + Ck.Length}) {
    JournalRecovery R = Cut(Final, End);
    EXPECT_EQ(R.LastEpoch, 0u) << End;
    EXPECT_TRUE(R.Profiles.empty()) << End;
    EXPECT_TRUE(R.Methods.empty()) << End;
  }
  JournalRecovery R = Cut(Final, Commit.Offset + Commit.Length);
  EXPECT_EQ(R.LastEpoch, Ck.Epoch);
  EXPECT_EQ(R.DecodedBytes, Ck.Length - kJournalSegmentHeaderBytes);
  expectMatchesMaxRoundsReference("own commit of the compacted file", R);
  std::remove(Path.c_str());
}

TEST(JournalCheckpoint, FuzzSalvagesExactlyTheValidPrefix) {
  // The uncompacted file's Checkpoints follow Deltas; the compacted one
  // the closing compaction replaced starts at its Checkpoint.
  std::string Path = tempPath("ckpt_fuzz.djxj");
  const CompactedRun C = runCompacted(Path);
  spit(Path, C.Uncompacted);
  fuzzSalvage(Path, kFuzzCases, 5);
  spit(Path, crashSource(C.Files));
  fuzzSalvage(Path, kFuzzCases, 5);
  std::remove(Path.c_str());
}

TEST(JournalCheckpoint, OnlyPayloadsFromTheLastCheckpointOnAreDecoded) {
  // A compacted file has one Checkpoint and nothing before it, so the
  // contract is pinned on the file a writer that never compacts writes,
  // as a crash before close leaves it: the closing Checkpoint has no
  // Delta after it.
  std::string Path = tempPath("ckpt_contract.djxj");
  const std::string Full = uncompacted(beforeClose(runCompacted(Path).Files));
  const JournalRecovery Whole = readBytes(Full);
  ASSERT_TRUE(scansWhole(Whole));
  const std::vector<size_t> Checkpoints = checkpointsOf(Whole);
  ASSERT_GE(Checkpoints.size(), 2u);
  const JournalSegmentInfo &Last = Whole.Segments[Checkpoints.back()];
  // Deltas between the last two Checkpoints, and the first one after.
  const JournalSegmentInfo *Superseded = nullptr, *After = nullptr;
  for (size_t I = Checkpoints[Checkpoints.size() - 2];
       I < Whole.Segments.size(); ++I) {
    const JournalSegmentInfo &S = Whole.Segments[I];
    if (!isType(S, SegmentType::Delta))
      continue;
    if (S.Offset < Last.Offset)
      Superseded = &S;
    else if (!After)
      After = &S;
  }
  ASSERT_NE(Superseded, nullptr);
  ASSERT_NE(After, nullptr);

  const std::string Bad = std::string(10, '\x80') + bytesOf({1, 0});
  std::string MutPath = tempPath("ckpt_contract_mut.djxj");
  auto Recover = [&](const std::string &Bytes) {
    spit(MutPath, Bytes);
    return readJournal(MutPath);
  };
  auto PrefixReport = [&](uint64_t Epoch) {
    return recoveredReport(Recover(prefixThroughEpoch(Full, Whole, Epoch)));
  };

  // A CRC-valid malformed Delta before the last committed Checkpoint is
  // never decoded: the journal recovers whole.
  JournalRecovery R = Recover(withPayload(Full, *Superseded, Bad));
  EXPECT_TRUE(scansWhole(R));
  EXPECT_EQ(R.LastEpoch, Whole.LastEpoch);
  EXPECT_TRUE(R.TruncationReason.empty());
  EXPECT_EQ(R.DecodedBytes, Whole.DecodedBytes);
  EXPECT_EQ(recoveredReport(R), recoveredReport(Whole));

  // One after it still stops the scan there.
  R = Recover(withPayload(Full, *After, Bad));
  EXPECT_EQ(R.TruncationReason, "malformed segment payload");
  EXPECT_EQ(R.LastEpoch, After->Epoch - 1);
  EXPECT_EQ(recoveredReport(R), PrefixReport(After->Epoch - 1));

  // So does a malformed Checkpoint: the state falls back to the one
  // before it, decoded from the Checkpoint before that.
  const std::string BadLast = withPayload(Full, Last, Bad);
  R = Recover(BadLast);
  EXPECT_EQ(R.TruncationReason, "malformed segment payload");
  EXPECT_EQ(R.LastEpoch, Last.Epoch - 1);
  EXPECT_EQ(recoveredReport(R), PrefixReport(Last.Epoch - 1));

  // That fallback decodes Deltas the first scan skipped; a malformed one
  // among them stops the scan earlier still.
  R = Recover(withPayload(BadLast, *Superseded, Bad));
  EXPECT_EQ(R.TruncationReason, "malformed segment payload");
  EXPECT_EQ(R.LastEpoch, Superseded->Epoch - 1);
  EXPECT_EQ(recoveredReport(R), PrefixReport(Superseded->Epoch - 1));

  // A Checkpoint is the whole state, so it is checked from nothing: a
  // delta that is well formed only over the recovered profiles stops
  // the scan under a Checkpoint header, committed or not.
  const std::string Prefix = prefixThroughEpoch(Full, Whole, Whole.LastEpoch);
  const JournalRecovery AtEnd = Recover(Prefix);
  ASSERT_FALSE(AtEnd.Profiles.empty());
  ThreadProfile P = AtEnd.Profiles.front();
  ASSERT_GT(P.cct().size(), 1u);
  encoded(P); // Starts the change log, so the next encode is a delta.
  const ProfileMark Mark = P.mark();
  P.recordCodeSample(1, PerfEventKind::L1Miss);
  std::string Records, DeltaOnly;
  P.encode(Records, Mark);
  putVarint(DeltaOnly, P.threadId());
  putBytes(DeltaOnly, Records);
  const uint64_t Seq = AtEnd.Segments.back().Seq;
  std::string Commit;
  appendU64(Commit, AtEnd.LastRound + 1);
  for (bool Committed : {false, true}) {
    std::string Mut = Prefix;
    appendSegment(Mut, SegmentType::Checkpoint, Seq + 1, AtEnd.LastEpoch + 1,
                  DeltaOnly);
    if (Committed)
      appendSegment(Mut, SegmentType::Commit, Seq + 2, AtEnd.LastEpoch + 1,
                    Commit);
    R = Recover(Mut);
    EXPECT_EQ(R.TruncationReason, "malformed segment payload") << Committed;
    EXPECT_EQ(R.LastEpoch, AtEnd.LastEpoch) << Committed;
    EXPECT_EQ(recoveredReport(R), recoveredReport(AtEnd)) << Committed;
  }

  std::remove(Path.c_str());
  std::remove(MutPath.c_str());
}

TEST(JournalCheckpoint, DecodedBytesStayFlatAsRoundsDouble) {
  // Recovery decodes the last Checkpoint and the Deltas after it, which
  // the writer keeps under the floor while 64 x a Checkpoint is below
  // it. So one bound, the floor plus a Checkpoint of the final state,
  // holds for N and 2N rounds alike, in the compacted file and in the
  // file a writer that never compacts would have written.
  std::string Path = tempPath("ckpt_decoded.djxj");
  const CompactedRun Long = runCompacted(Path);
  const CompactedRun Short = runCompacted(Path, Long.Live.Rounds / 2);
  ASSERT_LT(kJournalCheckpointRatio * Long.Live.StateBytes,
            kJournalCheckpointFloorBytes);
  const uint64_t Bound = kJournalCheckpointFloorBytes + Long.Live.StateBytes;

  const JournalRecovery Uncompacted = readBytes(Long.Uncompacted);
  uint64_t Payloads = 0;
  for (const JournalSegmentInfo &S : Uncompacted.Segments)
    if (isType(S, SegmentType::Delta) || isType(S, SegmentType::Checkpoint))
      Payloads += S.Length - kJournalSegmentHeaderBytes;
  EXPECT_GT(Payloads, 2 * Bound); // Decoding them all would not fit.
  EXPECT_GT(Long.Live.Epochs, Short.Live.Epochs);
  for (const CompactedRun *C : {&Short, &Long}) {
    for (const JournalRecovery &R :
         {readBytes(C->Files.back()), readBytes(C->Uncompacted)}) {
      ASSERT_TRUE(R.Closed);
      EXPECT_LT(R.DecodedBytes, Bound) << "rounds " << C->Live.Rounds;
    }
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
void expectMethodsDefined(const JournalRecovery &R) {
  for (const ThreadProfile &P : R.Profiles)
    for (size_t N = 1; N < P.cct().size(); ++N)
      EXPECT_LT(P.cct().methodOf(static_cast<CctNodeId>(N)), R.Methods.size())
          << "thread " << P.threadId() << ", node " << N;
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
  std::string Bad = Good.substr(0, kJournalFileHeaderBytes);
  uint64_t Seq = 0;
  for (const JournalSegmentInfo &S : Whole.Segments)
    if (!isType(S, SegmentType::MethodTable))
      appendSegment(Bad, static_cast<SegmentType>(S.Type), ++Seq, S.Epoch,
                    Good.substr(S.Offset + kJournalSegmentHeaderBytes,
                                S.Length - kJournalSegmentHeaderBytes));
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
  ThreadProfile P = Whole.Profiles.front();
  encoded(P); // Starts the change log, so the next encode is a delta.
  const ProfileMark Mark = P.mark();
  P.cct().child(kCctRoot, static_cast<MethodId>(Whole.Methods.size()), 0);
  std::string Records, Payload, Commit;
  P.encode(Records, Mark);
  putVarint(Payload, P.threadId());
  putBytes(Payload, Records);
  appendU64(Commit, Whole.LastRound + 1);
  std::string Mut = Good;
  const uint64_t Last = Whole.Segments.back().Seq;
  appendSegment(Mut, SegmentType::Delta, Last + 1, Whole.LastEpoch + 1,
                Payload);
  appendSegment(Mut, SegmentType::Commit, Last + 2, Whole.LastEpoch + 1,
                Commit);
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
  std::optional<ThreadProfile> P = ThreadProfile::decode(encoded(Src));
  ASSERT_TRUE(P.has_value());
  P->remapIds(10, {7});
  EXPECT_EQ(P->threadId(), 12u);
  EXPECT_EQ(P->threadName(), "worker-1");
  EXPECT_EQ(P->cct().methodOf(N), 7u);
  EXPECT_EQ(P->cct().bciOf(N), 4u);
  const auto &Groups = P->groups();
  ASSERT_EQ(Groups.size(), 2u);
  EXPECT_EQ(Groups.at(AllocKey{12, N}).TypeName, "long[]");
  EXPECT_EQ(Groups.at(AllocKey{12, N}).AllocBytes, 64u);
  EXPECT_EQ(Groups.at(AllocKey{12, N}).HomeNodeSamples.at(0), 1u);
  // Alloc-thread 0 (unknown provenance) is preserved; 2 is offset.
  EXPECT_EQ(Groups.at(AllocKey{0, N}).HomeNodeSamples.at(0), 1u);
  EXPECT_EQ(Groups.count(AllocKey{2, N}), 0u);
}

} // namespace
