//===- cli_smoke_test.cpp - End-to-end smoke test for the djxperf CLI ----===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the built `djxperf` binary (path passed by ctest as the first
/// program argument) on a tiny workload and asserts that it exits 0 and
/// emits a non-empty object-centric report.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "harness/TestModule.h"

namespace {

DJX_TEST_MODULE(cli_smoke_test, 60.0, 32.0,
    "tools/djxperf.cpp");

std::string DjxperfPath; // Set from argv in main() below.

// Runs `Cmd`, capturing stdout; returns {exit status, captured output}.
std::pair<int, std::string> run(const std::string &Cmd) {
  std::string Out;
  // Fold stderr in so diagnostic output shows up in test failures.
  FILE *Pipe = popen((Cmd + " 2>&1").c_str(), "r");
  if (!Pipe)
    return {-1, Out};
  std::array<char, 4096> Buf;
  size_t N;
  while ((N = fread(Buf.data(), 1, Buf.size(), Pipe)) > 0)
    Out.append(Buf.data(), N);
  int Status = pclose(Pipe);
  int Exit = (Status >= 0 && WIFEXITED(Status)) ? WEXITSTATUS(Status) : -1;
  return {Exit, Out};
}

TEST(CliSmoke, ListWorkloads) {
  auto [Exit, Out] = run("'" + DjxperfPath + "' --list");
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("figure1"), std::string::npos) << Out;
}

TEST(CliSmoke, RunsTinyWorkloadAndEmitsObjectReport) {
  auto [Exit, Out] =
      run("'" + DjxperfPath + "' --period 64 --size-threshold 0 figure1");
  ASSERT_EQ(Exit, 0) << Out;
  // Stderr (the stats line) is folded into Out, so assert on markers only
  // the rendered report itself produces: the header and at least one
  // ranked object group with its allocation context.
  EXPECT_NE(Out.find("=== DJXPerf object-centric profile ==="),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("#1 object"), std::string::npos) << Out;
  EXPECT_NE(Out.find("alloc ctx:"), std::string::npos) << Out;
}

TEST(CliSmoke, UnknownWorkloadFailsCleanly) {
  auto [Exit, Out] =
      run("'" + DjxperfPath + "' definitely-not-a-workload");
  EXPECT_EQ(Exit, 2) << Out; // Usage errors exit 2, by contract.
  EXPECT_NE(Out.find("unknown workload"), std::string::npos) << Out;
}

TEST(CliSmoke, JobsValidationRejectsZero) {
  auto [Exit, Out] = run("'" + DjxperfPath + "' --jobs 0 parallel2");
  EXPECT_EQ(Exit, 2) << Out;
  EXPECT_NE(Out.find("--jobs must be positive"), std::string::npos) << Out;
}

// Numeric flags take the whole value as an unsigned number of the
// flag's own width: no sign, no trailing characters, no silent
// truncation, and zero only where the flag allows it.
TEST(CliSmoke, NumericFlagsRejectMalformedValues) {
  const std::pair<const char *, const char *> Cases[] = {
      {"--period -1", "bad --period '-1'"},
      {"--period 64abc", "bad --period '64abc'"},
      {"--period 0", "--period must be positive"},
      {"--top 3x", "bad --top '3x'"},
      {"--hot-threshold 4294967297", "bad --hot-threshold '4294967297'"},
      {"--max-rounds 1x", "bad --max-rounds '1x'"},
      {"--fault-seed 12junk", "bad --fault-seed '12junk'"},
  };
  for (const auto &[Flags, Message] : Cases) {
    auto [Exit, Out] = run("'" + DjxperfPath + "' " + Flags + " figure1");
    EXPECT_EQ(Exit, 2) << Flags << "\n" << Out;
    EXPECT_NE(Out.find(Message), std::string::npos) << Flags << "\n" << Out;
  }
  // A printed hex seed still replays.
  auto [Exit, Out] = run("'" + DjxperfPath +
                         "' --fault-rate alloc=0 --fault-seed 0x2a figure1");
  EXPECT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("DJX_FAULT_SEED=0x2a"), std::string::npos) << Out;
}

// Profiles reach disk only through --journal.
TEST(CliSmoke, WriteProfilesFlagIsGone) {
  const std::string Dir = ::testing::TempDir() + "/cli_write_profiles";
  std::filesystem::remove_all(Dir);
  auto [Exit, Out] =
      run("'" + DjxperfPath + "' --write-profiles '" + Dir + "' figure1");
  EXPECT_EQ(Exit, 2) << Out;
  EXPECT_NE(Out.find("unknown flag '--write-profiles'"), std::string::npos)
      << Out;
  EXPECT_FALSE(std::filesystem::exists(Dir));
}

TEST(CliSmoke, MissingWorkloadPrintsUsageAndExitCodes) {
  auto [Exit, Out] = run("'" + DjxperfPath + "'");
  EXPECT_EQ(Exit, 2) << Out;
  EXPECT_NE(Out.find("usage:"), std::string::npos) << Out;
  // The exit-code contract is part of the help text.
  EXPECT_NE(Out.find("exit codes:"), std::string::npos) << Out;
}

// The graceful-degradation contract end to end: an undersized heap makes
// the workload run out of memory, and the CLI must exit with the
// documented OutOfMemory code (3) after salvaging a partial profile and
// marking the report DEGRADED.
TEST(CliSmoke, OutOfMemoryExitsWithDocumentedCodeAndDegradedReport) {
  auto [Exit, Out] =
      run("'" + DjxperfPath + "' --heap-bytes 65536 figure1");
  ASSERT_EQ(Exit, 3) << Out;
  EXPECT_NE(Out.find("DEGRADED"), std::string::npos) << Out;
  EXPECT_NE(Out.find("OutOfMemory"), std::string::npos) << Out;
  // The salvaged (partial) report still renders after the banner.
  EXPECT_NE(Out.find("=== DJXPerf object-centric profile ==="),
            std::string::npos)
      << Out;
}

// Injected faults replay from a seed: the same --fault-seed must reach
// the same outcome, and the seed is always printed for reproduction.
TEST(CliSmoke, InjectedAllocFaultIsSeedReproducible) {
  const std::string Cmd = "'" + DjxperfPath +
                          "' --fault-rate alloc=1.0 --fault-seed 42 figure1";
  auto [Exit1, Out1] = run(Cmd);
  auto [Exit2, Out2] = run(Cmd);
  EXPECT_EQ(Exit1, 3) << Out1;
  EXPECT_EQ(Exit2, 3) << Out2;
  EXPECT_NE(Out1.find("DJX_FAULT_SEED=0x2a"), std::string::npos) << Out1;
  EXPECT_NE(Out1.find("DEGRADED"), std::string::npos) << Out1;
}

TEST(CliSmoke, BadFaultRateIsUsageError) {
  auto [Exit, Out] =
      run("'" + DjxperfPath + "' --fault-rate bogus=0.5 figure1");
  EXPECT_EQ(Exit, 2) << Out;
  EXPECT_NE(Out.find("bad --fault-rate"), std::string::npos) << Out;
}

TEST(CliSmoke, ParallelWorkloadRunsUnderJobs) {
  auto [Exit, Out] =
      run("'" + DjxperfPath + "' --jobs 2 parallel2");
  ASSERT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("=== DJXPerf object-centric profile ==="),
            std::string::npos)
      << Out;
  EXPECT_NE(Out.find("#1 object"), std::string::npos) << Out;
}

// The tentpole determinism guarantee, end to end through the real binary:
// stdout (the report) and the stderr stats line are byte-identical for
// any --jobs value. Streams are captured separately so interleaving
// cannot produce false mismatches.
TEST(CliSmoke, ParallelReportIsByteIdenticalAcrossJobs) {
  // Subshell so the inner 2>/dev/null survives run()'s trailing 2>&1:
  // only stdout (the report) is compared.
  auto RunSplit = [&](const std::string &Jobs) {
    return run("( '" + DjxperfPath + "' --jobs " + Jobs +
               " parallel4 2>/dev/null )");
  };
  auto [Exit1, Out1] = RunSplit("1");
  auto [Exit2, Out2] = RunSplit("2");
  auto [Exit4, Out4] = RunSplit("4");
  ASSERT_EQ(Exit1, 0) << Out1;
  ASSERT_EQ(Exit2, 0) << Out2;
  ASSERT_EQ(Exit4, 0) << Out4;
  EXPECT_EQ(Out1, Out2);
  EXPECT_EQ(Out1, Out4);
  EXPECT_NE(Out1.find("#1 object"), std::string::npos) << Out1;
}

// --- Crash-durable journaling (--journal / recover / merge) ----------------

std::string tmpFile(const std::string &Name) {
  return testing::TempDir() + "djx_cli_" + Name;
}

std::string slurpBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream OS;
  OS << In.rdbuf();
  return OS.str();
}

void spitBytes(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

// Stdout-only capture (subshell keeps the inner 2>/dev/null effective).
std::pair<int, std::string> runStdout(const std::string &Args) {
  return run("( '" + DjxperfPath + "' " + Args + " 2>/dev/null )");
}

// A journaled run's stdout is byte-identical to a plain run's, and
// `recover` of the complete journal reproduces those bytes again —
// journaling is an observer, and a clean Close means nothing was lost.
TEST(CliJournal, JournaledRunAndRecoverMatchPlainRunExactly) {
  std::string J = tmpFile("clean.djxj");
  auto [PlainExit, Plain] = runStdout("--jobs 2 parallel2");
  auto [JrExit, Journaled] =
      runStdout("--jobs 2 --journal '" + J + "' parallel2");
  ASSERT_EQ(PlainExit, 0) << Plain;
  ASSERT_EQ(JrExit, 0) << Journaled;
  EXPECT_EQ(Plain, Journaled);
  auto [RecExit, Recovered] = runStdout("recover '" + J + "'");
  ASSERT_EQ(RecExit, 0) << Recovered;
  EXPECT_EQ(Plain, Recovered);
  std::remove(J.c_str());
}

// The journal file itself is --jobs-invariant: flushes happen at logical
// round barriers, never at host-time points.
TEST(CliJournal, JournalFileBytesAreJobsInvariant) {
  std::string J1 = tmpFile("jobs1.djxj");
  std::string J4 = tmpFile("jobs4.djxj");
  auto [E1, O1] = runStdout("--jobs 1 --journal '" + J1 + "' parallel2");
  auto [E4, O4] = runStdout("--jobs 4 --journal '" + J4 + "' parallel2");
  ASSERT_EQ(E1, 0) << O1;
  ASSERT_EQ(E4, 0) << O4;
  std::string B1 = slurpBytes(J1);
  EXPECT_FALSE(B1.empty());
  EXPECT_EQ(B1, slurpBytes(J4));
  std::remove(J1.c_str());
  std::remove(J4.c_str());
}

// The segment types of a journal file, in order: a walk over the 32-byte
// segment headers after the 16-byte file header (type at +4, payload
// length at +24).
std::vector<uint32_t> segmentTypes(const std::string &J) {
  auto U32 = [&](size_t Off) {
    uint32_t V = 0;
    for (int I = 3; I >= 0; --I)
      V = (V << 8) | static_cast<uint8_t>(J[Off + I]);
    return V;
  };
  std::vector<uint32_t> Types;
  for (size_t Off = 16; Off + 32 <= J.size(); Off += 32 + U32(Off + 24))
    Types.push_back(U32(Off + 4));
  return Types;
}

// parallel4's Deltas cross the 64 KiB checkpoint floor, and each
// Checkpoint starts a fresh file; the closing epoch is one too. The
// journal left behind holds one Checkpoint (type 6), right after the
// Meta and the MethodTable, then its Commit and the Close, and no
// <journal>.tmp. It is still --jobs-invariant, and recover still
// prints the plain run's stdout. The first compaction comes mid-run, at
// round 311 of 388: a short write that tears the journal at round 363
// leaves that compaction's file, which starts with its Checkpoint and
// holds the Deltas after it, and recover salvages exactly round 363.
TEST(CliJournal, CompactedJournalIsJobsInvariantAndRecoversExactly) {
  std::string J1 = tmpFile("compact1.djxj");
  std::string J4 = tmpFile("compact4.djxj");
  auto [PlainExit, Plain] = runStdout("parallel4");
  auto [E1, O1] = runStdout("--jobs 1 --journal '" + J1 + "' parallel4");
  auto [E4, O4] = runStdout("--jobs 4 --journal '" + J4 + "' parallel4");
  ASSERT_EQ(PlainExit, 0) << Plain;
  ASSERT_EQ(E1, 0) << O1;
  ASSERT_EQ(E4, 0) << O4;
  std::string B1 = slurpBytes(J1);
  EXPECT_EQ(B1, slurpBytes(J4));
  std::vector<uint32_t> Types = segmentTypes(B1);
  ASSERT_GE(Types.size(), 4u);
  EXPECT_EQ(Types[0], 1u); // Meta
  EXPECT_EQ(Types[1], 2u); // MethodTable
  EXPECT_EQ(Types[2], 6u); // Checkpoint
  EXPECT_EQ(Types[3], 4u); // Commit
  EXPECT_EQ(Types.size(), 5u); // ... and the Close.
  EXPECT_EQ(std::count(Types.begin(), Types.end(), 6u), 1);
  EXPECT_FALSE(std::ifstream(J1 + ".tmp").good());
  EXPECT_FALSE(std::ifstream(J4 + ".tmp").good());
  auto [RecExit, Recovered] = runStdout("recover '" + J1 + "'");
  ASSERT_EQ(RecExit, 0) << Recovered;
  EXPECT_EQ(Plain, Recovered);

  const std::string Tear =
      "' --fault-rate journal-short=0.004 --fault-seed 3 parallel4";
  auto [TE1, TO1] = runStdout("--jobs 1 --journal '" + J1 + Tear);
  auto [TE4, TO4] = runStdout("--jobs 4 --journal '" + J4 + Tear);
  ASSERT_EQ(TE1, 0) << TO1;
  ASSERT_EQ(TE4, 0) << TO4;
  std::string Torn = slurpBytes(J1);
  EXPECT_EQ(Torn, slurpBytes(J4));
  Types = segmentTypes(Torn);
  ASSERT_GE(Types.size(), 5u);
  EXPECT_EQ(Types[0], 1u); // Meta
  EXPECT_EQ(Types[1], 2u); // MethodTable
  EXPECT_EQ(Types[2], 6u); // Checkpoint
  EXPECT_EQ(Types[3], 4u); // Commit
  EXPECT_GE(std::count(Types.begin() + 4, Types.end(), 3u), 1); // Deltas
  EXPECT_EQ(std::count(Types.begin(), Types.end(), 6u), 1);
  EXPECT_EQ(std::count(Types.begin(), Types.end(), 5u), 0); // no Close
  auto [TornExit, TornOut] = runStdout("recover '" + J1 + "'");
  ASSERT_EQ(TornExit, 0) << TornOut;
  EXPECT_NE(TornOut.find("last durable epoch 363 (round 363)"),
            std::string::npos)
      << TornOut;
  auto [RefExit, Ref] = runStdout("--max-rounds 363 parallel4");
  ASSERT_EQ(RefExit, 0) << Ref;
  const std::string Marker = "=== DJXPerf object-centric profile ===";
  ASSERT_NE(TornOut.find(Marker), std::string::npos) << TornOut;
  EXPECT_EQ(TornOut.substr(TornOut.find(Marker)),
            Ref.substr(Ref.find(Marker)));
  std::remove(J1.c_str());
  std::remove(J4.c_str());
}

// Torn journals (the SIGKILL shape) recover with exit 0, a DEGRADED
// banner, and truthful kept/dropped accounting. A closed journal is its
// final Checkpoint alone, so the torn source is a run whose journal an
// injected short write tore at epoch 209 of 389, with its Deltas.
TEST(CliJournal, RecoverOfTruncatedJournalIsDegradedButExitsZero) {
  std::string J = tmpFile("torn.djxj");
  auto [RunExit, RunOut] =
      runStdout("--jobs 2 --journal '" + J +
                "' --fault-rate journal-short=0.005 --fault-seed 1 parallel2");
  ASSERT_EQ(RunExit, 0) << RunOut;
  std::string Full = slurpBytes(J);
  ASSERT_GT(Full.size(), 4000u);
  spitBytes(J, Full.substr(0, Full.size() / 2));
  auto [Exit, Out] = run("'" + DjxperfPath + "' recover '" + J + "'");
  ASSERT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("DEGRADED"), std::string::npos) << Out;
  EXPECT_NE(Out.find("last durable epoch"), std::string::npos) << Out;
  EXPECT_NE(Out.find("kept"), std::string::npos) << Out;
  EXPECT_NE(Out.find("=== DJXPerf object-centric profile ==="),
            std::string::npos)
      << Out;
  std::remove(J.c_str());
}

// A file that is not a journal at all exits with the documented
// JournalCorrupt code (7) — distinct from a salvageable torn journal.
TEST(CliJournal, RecoverOfGarbageExitsJournalCorruptCode) {
  std::string J = tmpFile("garbage.djxj");
  spitBytes(J, "this is not a journal\n");
  auto [Exit, Out] = run("'" + DjxperfPath + "' recover '" + J + "'");
  EXPECT_EQ(Exit, 7) << Out;
  EXPECT_NE(Out.find("FAILED"), std::string::npos) << Out;
  std::remove(J.c_str());
}

// A journal from before the binary Delta format (version 1: full-text
// snapshots) has one read path and it is not this one: the header is
// rejected and recover exits JournalCorrupt.
TEST(CliJournal, RecoverOfVersionOneJournalExitsJournalCorruptCode) {
  std::string J = tmpFile("v1.djxj");
  // "DJXJRNL1", version 1, CRC32C of those 12 bytes.
  spitBytes(J, std::string("DJXJRNL1\x01\x00\x00\x00\x73\x58\x84\xec", 16));
  auto [Exit, Out] = run("'" + DjxperfPath + "' recover '" + J + "'");
  EXPECT_EQ(Exit, 7) << Out;
  EXPECT_NE(Out.find("unsupported journal version"), std::string::npos)
      << Out;
  std::remove(J.c_str());
}

// Version 2 journals had no Checkpoint segment; they get the same
// answer as version 1.
TEST(CliJournal, RecoverOfVersionTwoJournalExitsJournalCorruptCode) {
  std::string J = tmpFile("v2.djxj");
  // "DJXJRNL1", version 2, CRC32C of those 12 bytes.
  spitBytes(J, std::string("DJXJRNL1\x02\x00\x00\x00\x4a\xd1\xa6\x8e", 16));
  auto [Exit, Out] = run("'" + DjxperfPath + "' recover '" + J + "'");
  EXPECT_EQ(Exit, 7) << Out;
  EXPECT_NE(Out.find("unsupported journal version"), std::string::npos)
      << Out;
  std::remove(J.c_str());
}

// Version 3 journals wrote every metric count and resent every name;
// their records are not version 4's.
TEST(CliJournal, RecoverOfVersionThreeJournalExitsJournalCorruptCode) {
  std::string J = tmpFile("v3.djxj");
  // "DJXJRNL1", version 3, CRC32C of those 12 bytes.
  spitBytes(J, std::string("DJXJRNL1\x03\x00\x00\x00\xf2\x7b\xe3\x53", 16));
  auto [Exit, Out] = run("'" + DjxperfPath + "' recover '" + J + "'");
  EXPECT_EQ(Exit, 7) << Out;
  EXPECT_NE(Out.find("unsupported journal version"), std::string::npos)
      << Out;
  std::remove(J.c_str());
}

// A directory is no journal: recover exits JournalCorrupt and merge
// skips it like any other unusable input.
TEST(CliJournal, DirectoryIsSkippedNotFatal) {
  const std::string Dir = testing::TempDir();
  auto [Exit, Out] = run("'" + DjxperfPath + "' recover '" + Dir + "'");
  EXPECT_EQ(Exit, 7) << Out;
  EXPECT_NE(Out.find("cannot open file"), std::string::npos) << Out;
  std::string J = tmpFile("mdir.djxj");
  runStdout("--jobs 2 --journal '" + J + "' parallel2");
  auto [MergeExit, MergeOut] =
      run("'" + DjxperfPath + "' merge '" + Dir + "' '" + J + "'");
  EXPECT_EQ(MergeExit, 0) << MergeOut;
  EXPECT_NE(MergeOut.find("skipped (cannot open file)"), std::string::npos)
      << MergeOut;
  EXPECT_NE(MergeOut.find("2 thread(s)"), std::string::npos) << MergeOut;
  std::remove(J.c_str());
}

// Every compaction, the closing one included, renames a fresh file over
// the journal path, so that path must be a regular file: a symlink
// (dangling or not) or a FIFO is refused before the run (exit 1) and
// left as it was, and the symlink's target is not written.
TEST(CliJournal, NonRegularJournalPathIsRefused) {
  const std::string Target = tmpFile("link_target.txt");
  const std::string Link = tmpFile("link.djxj");
  const std::string Dangling = tmpFile("dangling.djxj");
  const std::string Fifo = tmpFile("fifo.djxj");
  spitBytes(Target, "keep me\n");
  for (const std::string &P : {Link, Dangling, Fifo, Target + ".absent"})
    std::remove(P.c_str());
  ASSERT_EQ(::symlink(Target.c_str(), Link.c_str()), 0);
  ASSERT_EQ(::symlink((Target + ".absent").c_str(), Dangling.c_str()), 0);
  ASSERT_EQ(::mkfifo(Fifo.c_str(), 0600), 0);
  for (const std::string &P : {Link, Dangling, Fifo}) {
    // Opening a FIFO for writing would block; the timeout bounds that.
    auto [Exit, Out] =
        run("timeout 20 '" + DjxperfPath + "' --journal '" + P + "' figure1");
    EXPECT_EQ(Exit, 1) << P << ": " << Out;
    EXPECT_NE(Out.find("not a regular file"), std::string::npos) << Out;
  }
  EXPECT_EQ(slurpBytes(Target), "keep me\n");
  EXPECT_TRUE(std::filesystem::is_symlink(Link));
  EXPECT_TRUE(std::filesystem::is_symlink(Dangling));
  EXPECT_FALSE(std::filesystem::exists(Target + ".absent"));
  EXPECT_TRUE(std::filesystem::is_fifo(Fifo));
  for (const std::string &P : {Target, Link, Dangling, Fifo})
    std::remove(P.c_str());
}

// merge folds N journals into one aggregate report with per-file
// accounting; unusable inputs are skipped, not fatal.
TEST(CliJournal, MergeAggregatesJournalsAndSkipsGarbage) {
  std::string J1 = tmpFile("m1.djxj");
  std::string J2 = tmpFile("m2.djxj");
  std::string Bad = tmpFile("mbad.djxj");
  runStdout("--jobs 2 --journal '" + J1 + "' parallel2");
  runStdout("--jobs 2 --journal '" + J2 + "' parallel2");
  spitBytes(Bad, "junk");
  auto [Exit, Out] = run("'" + DjxperfPath + "' merge '" + J1 + "' '" +
                         J2 + "' '" + Bad + "'");
  ASSERT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("skipped"), std::string::npos) << Out;
  // Two 2-thread journals fold into one 4-thread aggregate.
  EXPECT_NE(Out.find("4 thread(s)"), std::string::npos) << Out;
  auto [BadExit, BadOut] =
      run("'" + DjxperfPath + "' merge '" + Bad + "'");
  EXPECT_EQ(BadExit, 7) << BadOut;
  std::remove(J1.c_str());
  std::remove(J2.c_str());
  std::remove(Bad.c_str());
}

// Journal I/O failure degrades journaling to off with a warning; the
// run itself still succeeds with its normal report.
TEST(CliJournal, WriteErrorDegradesJournalNotTheRun) {
  std::string J = tmpFile("werror.djxj");
  auto [Exit, Out] =
      run("'" + DjxperfPath + "' --jobs 2 --journal '" + J +
          "' --fault-rate journal-error=1.0 --fault-seed 7 parallel2");
  ASSERT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("degraded to off"), std::string::npos) << Out;
  EXPECT_NE(Out.find("=== DJXPerf object-centric profile ==="),
            std::string::npos)
      << Out;
  std::remove(J.c_str());
}

// SIGTERM mid-run: the executor ends the session at the next round
// barrier, the journal is flushed and closed, and the exit code is the
// shell convention 130. Tolerates the race where the run finishes
// before the signal lands (exit 0); either way the journal recovers.
TEST(CliJournal, SigtermFlushesAndClosesTheJournal) {
  std::string J = tmpFile("sigterm.djxj");
  auto [Exit, Out] = run("( '" + DjxperfPath + "' --jobs 2 --journal '" +
                         J + "' parallel8 >/dev/null 2>&1 & P=$!; "
                         "sleep 0.3; kill -TERM $P 2>/dev/null; wait $P; "
                         "echo RC=$? )");
  ASSERT_EQ(Exit, 0) << Out;
  bool Interrupted = Out.find("RC=130") != std::string::npos;
  bool Finished = Out.find("RC=0") != std::string::npos;
  EXPECT_TRUE(Interrupted || Finished) << Out;
  auto [RecExit, RecOut] = run("'" + DjxperfPath + "' recover '" + J + "'");
  EXPECT_EQ(RecExit, 0) << RecOut;
  if (Interrupted)
    EXPECT_NE(RecOut.find("Interrupted"), std::string::npos) << RecOut;
  std::remove(J.c_str());
}

// Atomic report writing: SIGKILL at arbitrary points can abandon the
// run, but the --html target is either absent or a complete document —
// never a torn prefix (tmp + fsync + rename).
TEST(CliJournal, KillDuringRunNeverLeavesTornHtmlReport) {
  for (const char *Delay : {"0.05", "0.15", "0.3", "0.6"}) {
    std::string H = tmpFile(std::string("kill_") + Delay + ".html");
    std::remove(H.c_str());
    run("( '" + DjxperfPath + "' --jobs 2 --html '" + H +
        "' parallel2 >/dev/null 2>&1 & P=$!; sleep " + Delay +
        "; kill -KILL $P 2>/dev/null; wait $P 2>/dev/null; true )");
    std::string Bytes = slurpBytes(H);
    if (!Bytes.empty())
      EXPECT_NE(Bytes.find("</html>"), std::string::npos)
          << H << ": torn report (" << Bytes.size() << " bytes)";
    std::remove(H.c_str());
    std::remove((H + ".tmp").c_str());
  }
}

// --max-rounds ends an mt run cleanly after N barriers: the documented
// reference oracle for truncated-journal recovery.
TEST(CliJournal, MaxRoundsStopsCleanly) {
  auto [Exit, Out] = runStdout("--jobs 2 --max-rounds 5 parallel2");
  ASSERT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("=== DJXPerf object-centric profile ==="),
            std::string::npos)
      << Out;
}

// The help text documents the verbs and the extended exit-code table.
TEST(CliJournal, UsageDocumentsJournalVerbsAndExitCodes) {
  auto [Exit, Out] = run("'" + DjxperfPath + "' --help");
  ASSERT_EQ(Exit, 0) << Out;
  EXPECT_NE(Out.find("recover <journal>"), std::string::npos) << Out;
  EXPECT_NE(Out.find("merge <journal>"), std::string::npos) << Out;
  EXPECT_NE(Out.find("--journal"), std::string::npos) << Out;
  EXPECT_NE(Out.find("7 unusable journal"), std::string::npos) << Out;
  EXPECT_NE(Out.find("130 interrupted"), std::string::npos) << Out;
  // The journal is the one on-disk profile format.
  EXPECT_EQ(Out.find("--write-profiles"), std::string::npos) << Out;
  EXPECT_EQ(Out.find(".djxprof"), std::string::npos) << Out;
}

} // namespace

int main(int argc, char **argv) {
  ::testing::InitGoogleTest(&argc, argv);
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: cli_smoke_test <path-to-djxperf-binary>\n");
    return 2;
  }
  DjxperfPath = argv[1];
  return RUN_ALL_TESTS();
}
