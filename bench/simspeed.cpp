//===- simspeed.cpp - Wall-clock simulator throughput benchmark -----------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The repo's wall-clock perf trajectory. Unlike the figure/table benches
/// (which report *simulated* cycles), this one measures how fast the
/// simulator itself runs on the host: interpreter steps per second and
/// simulated memory accesses per second, both native and under DJXPerf.
/// Results are written to BENCH_simspeed.json so CI can archive the
/// trajectory; every hot-path optimisation PR is measured against it.
///
/// Usage: bench_simspeed [--quick] [--out PATH]
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "bytecode/MethodBuilder.h"
#include "io/Checksum.h"
#include "io/JournalReader.h"
#include "io/ProfileJournal.h"
#include "workloads/BytecodePrograms.h"
#include "workloads/Parallel.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace djx;

namespace {

/// Pre-optimisation baseline measured at the PR 2 fork point with the
/// release preset (same container class as CI). The JSON reports current
/// throughput against these so the trajectory is visible in one file;
/// ratios only carry meaning on comparable hosts.
constexpr double kBaselineInterpStepsPerSec = 87433966.0;
constexpr double kBaselineSimAccessesPerSec = 14655322.0;

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// One measured phase: best-of-N throughput plus the work/time detail of
/// the best repetition.
struct PhaseResult {
  double PerSec = 0;
  double Seconds = 0;
  uint64_t Units = 0;
  /// Profiled phases only: PMU samples handled / dropped (ring-overflow
  /// or injected), summed over all repetitions. Feeds the
  /// sample_keep_ratio metric — a sample path that silently starts
  /// shedding load would otherwise look like a throughput win.
  uint64_t Samples = 0;
  uint64_t Dropped = 0;
};

void keepBest(PhaseResult &Best, uint64_t Units, double Seconds) {
  double PerSec = Seconds > 0 ? static_cast<double>(Units) / Seconds : 0;
  if (PerSec > Best.PerSec) {
    Best.PerSec = PerSec;
    Best.Seconds = Seconds;
    Best.Units = Units;
  }
}

/// One timed run of batik's makeRoom loop — method calls, allocation,
/// a primitive-array store loop, and GC churn, i.e. every interpreter
/// hot path at once — added into \p Best as one repetition.
void interpRun(PhaseResult &Best, bool Profiled, int64_t Iters, int64_t Nlen,
               bool Super) {
  VmConfig Cfg;
  Cfg.HeapBytes = 8ULL << 20;
  JavaVm Vm(Cfg);
  BytecodeProgram Program = buildBatikProgram(Vm.types());
  Program.load(Vm);
  JavaThread &T = Vm.startThread("simspeed", 0);
  Interpreter Interp(Vm, Program, T);
  if (Super) {
    TierConfig Tc;
    Tc.Tier = ExecTier::Super;
    Interp.setTier(Tc);
  }

  std::unique_ptr<DjxPerf> Prof;
  if (Profiled) {
    Prof = std::make_unique<DjxPerf>(Vm);
    Prof->instrument(Program, Interp);
    Prof->start();
  }

  Clock::time_point Start = Clock::now();
  Interp.run("Main.run", {Value::fromInt(Iters), Value::fromInt(Nlen)});
  double Seconds = secondsSince(Start);
  if (Prof) {
    Prof->stop();
    Best.Samples += Prof->samplesHandled();
    Best.Dropped += Prof->samplesDropped();
  }
  Vm.endThread(T);
  keepBest(Best, Interp.stepsExecuted(), Seconds);
}

/// Interpreter phase: best of \p Reps runs of the makeRoom loop.
PhaseResult interpPhase(bool Profiled, int Reps, int64_t Iters,
                        int64_t Nlen, bool Super = false) {
  PhaseResult Best;
  for (int R = 0; R < Reps; ++R)
    interpRun(Best, Profiled, Iters, Nlen, Super);
  return Best;
}

/// The median of \p Values (0 when empty).
double median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Mid = Values.size() / 2;
  return Values.size() % 2 ? Values[Mid] : (Values[Mid - 1] + Values[Mid]) / 2;
}

/// Unprofiled interp and super tiers in \p Reps interleaved pairs, the
/// tier that runs first alternating between pairs. \p Interp and \p Super
/// receive each tier's best run, as interpPhase would; the result is the
/// median over pairs of the pair's super/interp throughput ratio. Both
/// runs of a pair see the same host load, so the ratio does not inherit
/// the spread between separately timed phases.
double tierPairs(int Reps, int64_t Iters, int64_t Nlen, PhaseResult &Interp,
                 PhaseResult &Super) {
  std::vector<double> Ratios;
  for (int R = 0; R < Reps; ++R) {
    PhaseResult I, S;
    for (int Side = 0; Side < 2; ++Side) {
      bool RunSuper = (Side == 0) == (R % 2 == 1);
      interpRun(RunSuper ? S : I, /*Profiled=*/false, Iters, Nlen, RunSuper);
    }
    keepBest(Interp, I.Units, I.Seconds);
    keepBest(Super, S.Units, S.Seconds);
    if (I.PerSec > 0)
      Ratios.push_back(S.PerSec / I.PerSec);
  }
  return median(std::move(Ratios));
}

/// Simulated-access phase: a pointer-free hot loop of readWord/writeWord
/// over an array larger than L1+L2, so the cache/TLB/NUMA/PMU pipeline
/// runs at full tilt without interpreter dispatch in the way. With
/// \p Stride 8 the sweep reads every word, so the L1's MRU memo answers 7
/// accesses in 8; with \p Stride 64 every access lands on a new line and
/// misses L1, which times the set scan itself. \p HierarchyBytes receives
/// the VM hierarchy's allocated cache/TLB bytes after the phase, which
/// depends only on the CPUs and nodes touched, not on the host.
PhaseResult accessPhase(bool Profiled, int Reps, uint64_t Accesses,
                        uint64_t Stride = 8,
                        uint64_t *HierarchyBytes = nullptr) {
  PhaseResult Best;
  for (int R = 0; R < Reps; ++R) {
    VmConfig Cfg;
    Cfg.HeapBytes = 8ULL << 20;
    JavaVm Vm(Cfg);

    std::unique_ptr<DjxPerf> Prof;
    if (Profiled) {
      Prof = std::make_unique<DjxPerf>(Vm);
      Prof->start();
    }

    JavaThread &T = Vm.startThread("simspeed", 0);
    MethodId Main =
        Vm.methods().getOrRegister("SimSpeed", "main", {{0, 1}});
    FrameScope F(T, Main, 0);
    RootScope Roots(Vm);
    constexpr uint64_t Bytes = 512 * 1024; // 512 KiB > L1+L2.
    ObjectRef &Hot =
        Roots.add(Vm.allocateArray(T, Vm.types().longArray(), Bytes / 8));
    const uint64_t Slots = Bytes / Stride;

    Clock::time_point Start = Clock::now();
    uint64_t Acc = 0;
    for (uint64_t I = 0; I < Accesses; ++I) {
      uint64_t Off = (I % Slots) * Stride;
      if ((I & 7) == 0)
        Vm.writeWord(T, Hot, Off, Acc);
      else
        Acc += Vm.readWord(T, Hot, Off);
    }
    double Seconds = secondsSince(Start);
    uint64_t Done = Vm.machine().stats().Accesses;
    if (HierarchyBytes)
      *HierarchyBytes = Vm.machine().memoryFootprint();
    if (Prof) {
      Prof->stop();
      Best.Samples += Prof->samplesHandled();
      Best.Dropped += Prof->samplesDropped();
    }
    Vm.endThread(T);
    keepBest(Best, Done, Seconds);
  }
  return Best;
}

/// Recovery's cost against the cheapest pass over the same bytes: the
/// median over \p Samples samples of the time of \p PerSample
/// consecutive CRC32C passes over the journal at \p Path divided by the
/// time of as many readJournal calls timed right after them. Both halves
/// of a sample see the same host load, so the ratio does not inherit
/// it. A sample spans many calls so it lasts well over a millisecond,
/// longer than the host's timer and scheduling jitter. Host-independent,
/// and higher is better.
double recoverVsCrc(const std::string &Path, int Samples, int PerSample) {
  std::ifstream In(Path, std::ios::binary);
  const std::string Bytes((std::istreambuf_iterator<char>(In)),
                          std::istreambuf_iterator<char>());
  std::vector<double> Ratios;
  volatile uint64_t Sink = 0; // Keeps both passes from being elided.
  for (int I = 0; I < Samples; ++I) {
    Clock::time_point Start = Clock::now();
    for (int K = 0; K < PerSample; ++K)
      Sink = Sink + Crc32c::compute(Bytes.data(), Bytes.size());
    const double Crc = secondsSince(Start);
    Start = Clock::now();
    for (int K = 0; K < PerSample; ++K)
      Sink = Sink + readJournal(Path).SegmentsCommitted;
    const double Recover = secondsSince(Start);
    if (Recover > 0)
      Ratios.push_back(Crc / Recover);
  }
  return median(std::move(Ratios));
}

/// The median of recoverVsCrc(\p Path, 31, 32) over \p Children child
/// processes, forked one at a time, so that a period of host load that
/// speeds or slows recovery sets the value only when it spans most of
/// the children. Fork only while no other thread runs: a child holds
/// just the calling thread.
double medianRecoverVsCrc(const std::string &Path, int Children) {
  std::vector<double> Ratios;
  for (int I = 0; I < Children; ++I) {
    int Fds[2];
    if (::pipe(Fds) != 0)
      break;
    const pid_t Pid = ::fork();
    if (Pid == 0) {
      ::close(Fds[0]);
      const double Ratio = recoverVsCrc(Path, 31, 32);
      ::_exit(::write(Fds[1], &Ratio, sizeof(Ratio)) == sizeof(Ratio) ? 0
                                                                      : 1);
    }
    ::close(Fds[1]);
    double Ratio = 0;
    if (Pid > 0 && ::read(Fds[0], &Ratio, sizeof(Ratio)) == sizeof(Ratio))
      Ratios.push_back(Ratio);
    ::close(Fds[0]);
    if (Pid > 0)
      ::waitpid(Pid, nullptr, 0);
  }
  return median(std::move(Ratios));
}

/// Parallel executor phase, journaled or not: with \p Journal the
/// workload runs with --journal wired exactly as the CLI wires it (an
/// epoch flushed at every round barrier). The plain twin runs the same
/// simulated work, so journal_vs_plain isolates the journal's cost.
/// \p BytesPerEpoch receives the journal's bytes per committed epoch,
/// which depends only on the simulated run, not on the host, and
/// \p RecoverVsCrc the last repetition's medianRecoverVsCrc on its
/// journal as a crash leaves it, before closeClean() replaces every
/// Delta since the last Checkpoint with the final Checkpoint alone.
PhaseResult mtPhase(int Reps, int64_t Iters, bool Journal,
                    double *BytesPerEpoch = nullptr,
                    double *RecoverVsCrc = nullptr) {
  PhaseResult Best;
  const std::string Path = "BENCH_journal.djxj.tmp";
  for (int R = 0; R < Reps; ++R) {
    ParallelConfig Pc;
    Pc.SimThreads = 2;
    Pc.Jobs = 2;
    Pc.Iters = Iters;
    Pc.Nlen = 128;
    Pc.HeapBytesPerThread = 512 << 10;
    JavaVm Vm(parallelVmConfig(Pc));
    DjxPerf Prof(Vm, parallelAgentConfig(Pc));
    Prof.start();
    std::unique_ptr<ProfileJournal> J;
    if (Journal) {
      JournalMeta Meta;
      Meta.Workload = "bench-journal";
      J = ProfileJournal::open(Path, Meta);
    }
    Pc.OnRoundEnd = [&](uint64_t Round) {
      if (J)
        J->flush(Prof, Vm.methods(), Round);
      return false;
    };
    Clock::time_point Start = Clock::now();
    ParallelOutcome Run = runParallelWorkload(Vm, &Prof, Pc);
    double Seconds = secondsSince(Start);
    Prof.stop();
    if (J) {
      if (RecoverVsCrc && R + 1 == Reps)
        *RecoverVsCrc = medianRecoverVsCrc(Path, 5); // Threads joined.
      J->closeClean(Prof, Vm.methods());
      if (BytesPerEpoch && J->epochsCommitted() > 0)
        *BytesPerEpoch = static_cast<double>(J->bytesWritten()) /
                         static_cast<double>(J->epochsCommitted());
    }
    Best.Samples += Prof.samplesHandled();
    Best.Dropped += Prof.samplesDropped();
    keepBest(Best, Run.Steps, Seconds);
  }
  std::remove(Path.c_str());
  return Best;
}

void jsonPhase(std::FILE *Out, const char *Name, const PhaseResult &P,
               bool Last = false) {
  std::fprintf(Out,
               "    \"%s\": { \"per_sec\": %.0f, \"units\": %llu, "
               "\"seconds\": %.6f }%s\n",
               Name, P.PerSec, static_cast<unsigned long long>(P.Units),
               P.Seconds, Last ? "" : ",");
}

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  std::string OutPath = "BENCH_simspeed.json";
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--quick") == 0)
      Quick = true;
    else if (std::strcmp(Argv[I], "--out") == 0 && I + 1 < Argc)
      OutPath = Argv[++I];
    else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", Argv[0]);
      return 2;
    }
  }

  const int Reps = Quick ? 2 : 3;
  const int64_t Iters = Quick ? 2000 : 10000;
  const int64_t Nlen = 256;
  const uint64_t Accesses = Quick ? 1000000 : 5000000;

  std::printf("=== simspeed: simulator wall-clock throughput ===\n");

  PhaseResult InterpNative, SuperNative;
  const double SuperVsInterp =
      tierPairs(Reps, Iters, Nlen, InterpNative, SuperNative);
  std::printf("interpreter (native):    %12.0f steps/s   (%llu steps, "
              "%.3f s)\n",
              InterpNative.PerSec,
              static_cast<unsigned long long>(InterpNative.Units),
              InterpNative.Seconds);

  PhaseResult InterpProf = interpPhase(true, Reps, Iters, Nlen);
  std::printf("interpreter (profiled):  %12.0f steps/s   (%llu steps, "
              "%.3f s)\n",
              InterpProf.PerSec,
              static_cast<unsigned long long>(InterpProf.Units),
              InterpProf.Seconds);

  std::printf("super tier (native):     %12.0f steps/s   (%llu steps, "
              "%.3f s)\n",
              SuperNative.PerSec,
              static_cast<unsigned long long>(SuperNative.Units),
              SuperNative.Seconds);

  PhaseResult SuperProf = interpPhase(true, Reps, Iters, Nlen,
                                      /*Super=*/true);
  std::printf("super tier (profiled):   %12.0f steps/s   (%llu steps, "
              "%.3f s)\n",
              SuperProf.PerSec,
              static_cast<unsigned long long>(SuperProf.Units),
              SuperProf.Seconds);

  PhaseResult AccessNative = accessPhase(false, Reps, Accesses);
  std::printf("sim access (native):     %12.0f accesses/s (%llu accesses, "
              "%.3f s)\n",
              AccessNative.PerSec,
              static_cast<unsigned long long>(AccessNative.Units),
              AccessNative.Seconds);

  PhaseResult AccessProf = accessPhase(true, Reps, Accesses);
  std::printf("sim access (profiled):   %12.0f accesses/s (%llu accesses, "
              "%.3f s)\n",
              AccessProf.PerSec,
              static_cast<unsigned long long>(AccessProf.Units),
              AccessProf.Seconds);

  uint64_t HierarchyBytes = 0;
  PhaseResult AccessStrided = accessPhase(false, Reps, Accesses,
                                          /*Stride=*/64, &HierarchyBytes);
  std::printf("sim access (strided):    %12.0f accesses/s (%llu accesses, "
              "%.3f s; %llu hierarchy bytes)\n",
              AccessStrided.PerSec,
              static_cast<unsigned long long>(AccessStrided.Units),
              AccessStrided.Seconds,
              static_cast<unsigned long long>(HierarchyBytes));

  const int64_t MtIters = Quick ? 100 : 300;
  PhaseResult PlainMt = mtPhase(Reps, MtIters, /*Journal=*/false);
  std::printf("plain mt (profiled):     %12.0f steps/s   (%llu steps, "
              "%.3f s)\n",
              PlainMt.PerSec, static_cast<unsigned long long>(PlainMt.Units),
              PlainMt.Seconds);

  double JournalBytesPerEpoch = 0, RecoverVsCrc = 0;
  PhaseResult Journaled = mtPhase(Reps, MtIters, /*Journal=*/true,
                                  &JournalBytesPerEpoch, &RecoverVsCrc);
  double JournalVsPlain =
      PlainMt.PerSec > 0 ? Journaled.PerSec / PlainMt.PerSec : 0;
  std::printf("journaled mt (profiled): %12.0f steps/s   (%llu steps, "
              "%.3f s; x%.3f of plain, %.1f bytes/epoch)\n",
              Journaled.PerSec,
              static_cast<unsigned long long>(Journaled.Units),
              Journaled.Seconds, JournalVsPlain, JournalBytesPerEpoch);
  std::printf("journal recovery:        x%.3f of a CRC32C pass\n",
              RecoverVsCrc);

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Out, "{\n  \"bench\": \"simspeed\",\n  \"quick\": %s,\n"
                    "  \"metrics\": {\n",
               Quick ? "true" : "false");
  jsonPhase(Out, "interp_steps_per_sec", InterpNative);
  jsonPhase(Out, "interp_steps_per_sec_profiled", InterpProf);
  jsonPhase(Out, "super_steps_per_sec", SuperNative);
  jsonPhase(Out, "super_steps_per_sec_profiled", SuperProf);
  // Tier speedup on the same workload/host/run (median of interleaved
  // pairs): the tiered compiler's whole reason to exist, gated like any
  // throughput metric (the leaf is named per_sec so perf_diff.py bands
  // it; it is really a ratio).
  std::fprintf(Out, "    \"super_vs_interp\": { \"per_sec\": %.4f },\n",
               SuperVsInterp);
  jsonPhase(Out, "sim_accesses_per_sec", AccessNative);
  jsonPhase(Out, "sim_accesses_per_sec_profiled", AccessProf);
  jsonPhase(Out, "sim_accesses_per_sec_strided", AccessStrided);
  // Deterministic, lower-better size (leaf named per_sec so perf_diff.py
  // bands it): caches allocate on first use, so eager allocation of every
  // CPU's caches would grow it several-fold.
  std::fprintf(Out, "    \"sim_hierarchy_bytes\": { \"per_sec\": %llu },\n",
               static_cast<unsigned long long>(HierarchyBytes));
  jsonPhase(Out, "plain_mt_steps_per_sec", PlainMt);
  jsonPhase(Out, "journal_steps_per_sec", Journaled);
  // The journal's cost as a within-run ratio (host-independent, higher
  // is better), and its deterministic size. Both leaves are named
  // per_sec so perf_diff.py bands them; the bytes band is lower-better
  // (bench/perf_gates.json).
  std::fprintf(Out,
               "    \"journal_vs_plain\": { \"per_sec\": %.4f },\n",
               JournalVsPlain);
  std::fprintf(Out,
               "    \"journal_bytes_per_epoch\": { \"per_sec\": %.2f },\n",
               JournalBytesPerEpoch);
  // Recovery against a CRC32C pass over the same journal bytes, the
  // median over 5 child processes (a ratio, higher is better; leaf
  // named per_sec so perf_diff.py bands it).
  std::fprintf(Out, "    \"recover_vs_crc\": { \"per_sec\": %.4f },\n",
               RecoverVsCrc);
  // Sample drop rate across the profiled phases. Not a rate despite the
  // leaf name: "per_sec" is the key perf_diff.py treats as a gateable
  // leaf, and the ratio (kept / handled) is what the tight band in
  // bench/perf_gates.json pins at ~1.0 — a regression that sheds
  // samples under load fails the gate even if throughput improves.
  {
    uint64_t Handled =
        InterpProf.Samples + SuperProf.Samples + AccessProf.Samples;
    uint64_t Dropped =
        InterpProf.Dropped + SuperProf.Dropped + AccessProf.Dropped;
    double Keep =
        Handled > 0
            ? static_cast<double>(Handled - std::min(Handled, Dropped)) /
                  static_cast<double>(Handled)
            : 1.0;
    std::fprintf(Out,
                 "    \"sample_keep_ratio\": { \"per_sec\": %.6f, "
                 "\"handled\": %llu, \"dropped\": %llu }\n",
                 Keep, static_cast<unsigned long long>(Handled),
                 static_cast<unsigned long long>(Dropped));
  }
  std::fprintf(Out,
               "  },\n  \"baseline_pr2_preopt\": {\n"
               "    \"interp_steps_per_sec\": %.0f,\n"
               "    \"sim_accesses_per_sec\": %.0f\n  },\n"
               "  \"speedup_vs_baseline\": {\n"
               "    \"interp_steps_per_sec\": %.2f,\n"
               "    \"sim_accesses_per_sec\": %.2f\n  }\n}\n",
               kBaselineInterpStepsPerSec, kBaselineSimAccessesPerSec,
               InterpNative.PerSec / kBaselineInterpStepsPerSec,
               AccessNative.PerSec / kBaselineSimAccessesPerSec);
  std::fclose(Out);
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
