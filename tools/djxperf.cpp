//===- djxperf.cpp - Command-line launcher ----------------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `djxperf` command-line tool: the moral equivalent of launching the
/// real profiler via JVM agent options (Figure 3's workflow). Picks a
/// workload from the built-in catalog, configures the agent from flags,
/// runs collector + analyzer, and emits text/HTML reports and, with
/// --journal, the crash-durable profile journal that `recover` and
/// `merge` read back.
///
/// Examples:
///   djxperf --list
///   djxperf "ObjectLayout 1.0.5"
///   djxperf --event tlbmiss --period 128 "SPECjvm2008: Scimark.fft.large"
///   djxperf --optimized --html /tmp/druid.html "Apache Druid"
///   djxperf --journal /tmp/run.djxj parallel4
///   djxperf recover /tmp/run.djxj
///   djxperf merge /tmp/a.djxj /tmp/b.djxj
///
//===----------------------------------------------------------------------===//

#include "analysis/StaticReport.h"
#include "core/DjxPerf.h"
#include "core/HtmlReport.h"
#include "core/Report.h"
#include "io/JournalReader.h"
#include "io/ProfileJournal.h"
#include "support/FaultInjector.h"
#include "support/VmError.h"
#include "workloads/AccuracyCases.h"
#include "workloads/CaseStudies.h"
#include "workloads/Figure1.h"
#include "workloads/Insignificant.h"
#include "workloads/Parallel.h"
#include "workloads/Suites.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace djx;

namespace {

struct CliWorkload {
  std::string Name;
  std::string Kind; // "case-study" | "accuracy" | "table2" | "suite" | ...
  VmConfig Config;
  std::function<void(JavaVm &)> Baseline;
  std::function<void(JavaVm &)> Optimized; // May be null.
  /// Multi-threaded executor workload: ignores Baseline/Optimized and runs
  /// Parallel.SimThreads simulated threads under --jobs host workers.
  bool MultiThreaded = false;
  /// Drive runNumaRemoteWorkload (the §7.5/§7.6 case-study pair) instead
  /// of the plain parallel worker.
  bool NumaRemote = false;
  ParallelConfig Parallel;
};

std::vector<CliWorkload> catalog() {
  std::vector<CliWorkload> All;
  auto Add = [&All](std::string Name, std::string Kind, VmConfig Config,
                    std::function<void(JavaVm &)> Baseline,
                    std::function<void(JavaVm &)> Optimized) {
    CliWorkload W;
    W.Name = std::move(Name);
    W.Kind = std::move(Kind);
    W.Config = std::move(Config);
    W.Baseline = std::move(Baseline);
    W.Optimized = std::move(Optimized);
    All.push_back(std::move(W));
  };
  for (const CaseStudy &C : table1CaseStudies())
    Add(C.Application, "case-study", C.Config, C.Baseline, C.Optimized);
  for (const CaseStudy &C : section6AccuracyCases())
    Add(C.Application, "accuracy", C.Config, C.Baseline, C.Optimized);
  for (const InsignificantCase &IC : table2InsignificantCases())
    Add(IC.Study.Application + " (table2)", "table2", IC.Study.Config,
        IC.Study.Baseline, IC.Study.Optimized);
  for (const SuiteEntry &E : figure4Suites())
    Add(E.Suite + "/" + E.Name, "suite", E.Config,
        [E](JavaVm &Vm) { runSuiteEntry(Vm, E); }, nullptr);
  {
    CliWorkload W;
    W.Name = "figure1";
    W.Kind = "motivation";
    W.Config.HeapBytes = 8 << 20;
    W.Baseline = [](JavaVm &Vm) { runFigure1Workload(Vm); };
    All.push_back(std::move(W));
  }
  // Multi-threaded executor workloads: N simulated batik threads on a
  // sharded heap; --jobs picks the host worker count (results identical
  // for any value).
  for (unsigned SimThreads : {2u, 4u, 8u}) {
    CliWorkload W;
    W.Name = "parallel" + std::to_string(SimThreads);
    W.Kind = "mt";
    W.MultiThreaded = true;
    W.Parallel.SimThreads = SimThreads;
    // 512 KiB shards with a 128 KiB live hot array: the churn fills each
    // shard every ~350 iterations, so safepoint GCs actually happen.
    W.Parallel.Iters = 400;
    W.Parallel.Nlen = 256;
    W.Parallel.HeapBytesPerThread = 512 << 10;
    W.Config = parallelVmConfig(W.Parallel);
    All.push_back(std::move(W));
  }
  // NUMA case-study pair (§7.5/§7.6): a producer/consumer handoff where
  // each worker sweeps its neighbour's hot array. The baseline is
  // remote-heavy under first-touch; the "Fixed" entry bakes in the
  // interleave placement fix. --numa-policy overrides either.
  for (bool Fixed : {false, true}) {
    CliWorkload W;
    W.Name = Fixed ? "numaRemoteFixed" : "numaRemote";
    W.Kind = "numa-mt";
    W.MultiThreaded = true;
    W.NumaRemote = true;
    W.Parallel.SimThreads = 4;
    W.Parallel.Iters = 300;
    W.Parallel.Nlen = 256;
    // 256 KiB hot arrays: above the numaRemote machine's 128 KiB L3, so
    // every sweep pass reaches DRAM and remote traffic is real.
    W.Parallel.HotElems = 32768;
    W.Parallel.HeapBytesPerThread = 512 << 10;
    W.Parallel.Policy =
        Fixed ? NumaPolicy::Interleave : NumaPolicy::FirstTouch;
    W.Config = numaRemoteVmConfig(W.Parallel);
    All.push_back(std::move(W));
  }
  return All;
}

std::optional<PerfEventKind> parseEvent(const std::string &S) {
  if (S == "access")
    return PerfEventKind::MemAccess;
  if (S == "l1miss")
    return PerfEventKind::L1Miss;
  if (S == "l2miss")
    return PerfEventKind::L2Miss;
  if (S == "l3miss")
    return PerfEventKind::L3Miss;
  if (S == "tlbmiss")
    return PerfEventKind::TlbMiss;
  if (S == "latency")
    return PerfEventKind::LoadLatency;
  if (S == "remote")
    return PerfEventKind::RemoteAccess;
  return std::nullopt;
}

void usage(const char *Argv0) {
  std::printf(
      "usage: %s [options] <workload>\n"
      "       %s recover <journal> [--html <file>]\n"
      "       %s merge <journal>... [--html <file>]\n"
      "  --list                 list available workloads\n"
      "  --optimized            run the workload's optimized variant\n"
      "  --event <kind>         access|l1miss|l2miss|l3miss|tlbmiss|"
      "latency|remote (default l1miss)\n"
      "  --period <n>           sampling period in events (default 64)\n"
      "  --size-threshold <n>   size filter S in bytes (default 1024; 0 ="
      " monitor everything)\n"
      "  --no-gc-handling       disable the GC relocation machinery\n"
      "  --no-numa              disable NUMA remote-access diagnosis\n"
      "  --report <which>       object|code|both (default object)\n"
      "  --top <n>              groups to show (default 10)\n"
      "  --jobs <n>             host worker threads for mt workloads "
      "(default: hardware concurrency; 1 = the calling thread is the only "
      "worker; results are identical for any value)\n"
      "  --numa-policy <p>      shard placement for mt workloads: "
      "first-touch|bind|interleave (default: the workload's own; "
      "first-touch unless noted)\n"
      "  --tier <t>             execution tier: interp|super (default "
      "interp; results are byte-identical for either)\n"
      "  --hot-threshold <n>    dispatches before a pc compiles to a "
      "trace (super tier; default 16)\n"
      "  --max-trace-len <n>    max interpreter steps fused into one "
      "trace (super tier; default 64)\n"
      "  --dump-traces          print compiled traces to stderr after "
      "the run (super tier, mt workloads)\n"
      "  --static-report        append a static allocation-site section "
      "(escape class, loop depth) joined against the profile; mt "
      "workloads run bytecode-instrumented\n"
      "  --heap-bytes <n>       override the workload's heap size (mt "
      "workloads: bytes per simulated thread)\n"
      "  --stall-timeout-ms <n> watchdog timeout for mt workloads "
      "(default 120000; 0 disables)\n"
      "  --fault-rate <s>=<p>   inject faults: site alloc|ring|gc|stall|"
      "journal-short|journal-error|journal-corrupt, probability p in "
      "[0,1]; repeatable\n"
      "  --fault-seed <n>       seed for fault injection (default: "
      "$DJX_FAULT_SEED, else random; printed to stderr)\n"
      "  --journal <file>       stream checksummed profile epochs to a "
      "crash-durable journal (recover/merge read it back)\n"
      "  --max-rounds <n>       end an mt workload cleanly after n "
      "executor rounds (0 = run to completion; the reference oracle for "
      "truncated-journal recovery)\n"
      "  --html <file>          also write a self-contained HTML report\n"
      "exit codes: 0 success, 2 usage error, 3 out-of-memory, 4 step "
      "limit,\n"
      "  5 invalid bytecode, 6 worker stall, 7 unusable journal "
      "(recover/merge),\n"
      "  130 interrupted (SIGINT/SIGTERM), 1 internal error. On any VM\n"
      "  failure a partial profile is salvaged and the report is marked\n"
      "  DEGRADED; with --journal the salvaged state is also made durable\n"
      "  before exit.\n",
      Argv0, Argv0, Argv0);
}

/// Parses "alloc=0.5" style --fault-rate operands into \p Plan.
bool parseFaultRate(const std::string &V, FaultPlan &Plan) {
  auto Eq = V.find('=');
  if (Eq == std::string::npos)
    return false;
  std::string Site = V.substr(0, Eq);
  double Rate = std::strtod(V.c_str() + Eq + 1, nullptr);
  if (Rate < 0.0 || Rate > 1.0)
    return false;
  if (Site == "alloc")
    Plan.Rate[static_cast<int>(FaultSite::HeapAlloc)] = Rate;
  else if (Site == "ring")
    Plan.Rate[static_cast<int>(FaultSite::RingPush)] = Rate;
  else if (Site == "gc")
    Plan.Rate[static_cast<int>(FaultSite::GcCollect)] = Rate;
  else if (Site == "stall")
    Plan.Rate[static_cast<int>(FaultSite::QuantumClaim)] = Rate;
  else if (Site == "journal-short")
    Plan.Rate[static_cast<int>(FaultSite::JournalShortWrite)] = Rate;
  else if (Site == "journal-error")
    Plan.Rate[static_cast<int>(FaultSite::JournalWriteError)] = Rate;
  else if (Site == "journal-corrupt")
    Plan.Rate[static_cast<int>(FaultSite::JournalCorruptByte)] = Rate;
  else
    return false;
  return true;
}

/// First termination signal caught (0 = none). The handler only sets the
/// flag; the executor ends the session at the next round barrier and the
/// normal unwind path flushes and closes the journal. A second signal
/// restores the default disposition and re-raises, so a wedged run can
/// still be killed.
volatile std::sig_atomic_t GSignal = 0;

void onTermSignal(int Sig) {
  if (GSignal != 0) {
    std::signal(Sig, SIG_DFL);
    std::raise(Sig);
    return;
  }
  GSignal = Sig;
}

/// Render options a journal's Meta segment pins down, so recover/merge
/// reproduce the original run's report bytes.
ReportOptions optionsFromMeta(const JournalMeta &M) {
  ReportOptions O;
  if (M.EventKind < kNumPerfEventKinds)
    O.SortKind = static_cast<PerfEventKind>(M.EventKind);
  O.TopGroups = M.TopGroups;
  O.TopAccessContexts = M.TopAccessContexts;
  O.MinShare = M.MinShare;
  O.ShowNuma = M.ShowNuma;
  return O;
}

std::string renderMetaReport(const MergedProfile &P,
                             const MethodRegistry &Methods,
                             const JournalMeta &M) {
  ReportOptions O = optionsFromMeta(M);
  std::string Out;
  if (M.ReportMode == 0 || M.ReportMode == 2)
    Out += renderObjectCentric(P, Methods, O);
  if (M.ReportMode == 1 || M.ReportMode == 2)
    Out += renderCodeCentric(P, Methods, O);
  return Out;
}

/// Banner for a journal whose tail was lost (no clean Close, or valid
/// segments dropped as uncommitted): states exactly what was kept and
/// what was dropped, like renderDegradedBanner does for failed runs.
std::string journalTruncationBanner(const std::string &Path,
                                    const JournalRecovery &R) {
  std::ostringstream OS;
  OS << "=== DJXPerf DEGRADED report: journal truncated, salvaged prefix "
        "only ===\n";
  OS << "journal:  " << Path << '\n';
  OS << "kept:     " << R.SegmentsCommitted << " committed segment(s), "
     << R.BytesKept << " bytes, last durable epoch " << R.LastEpoch
     << " (round " << R.LastRound << ")\n";
  OS << "dropped:  " << R.SegmentsUncommitted
     << " uncommitted segment(s), " << R.TrailingBytes
     << " trailing byte(s)\n";
  std::string Reason = R.TruncationReason;
  if (Reason.empty())
    Reason = R.Closed ? "bytes after the Close sentinel"
                      : "journal ends without a Close sentinel (crash "
                        "or kill before the run finished)";
  OS << "reason:   " << Reason << '\n';
  OS << "The profile below reflects the last durable epoch only; "
        "everything after it was lost.\n\n";
  return OS.str();
}

/// Per-file stderr accounting shared by recover and merge.
void printJournalAccounting(const std::string &Path,
                            const JournalRecovery &R) {
  std::fprintf(stderr,
               "djxperf: %s: kept %llu committed segment(s) (%llu bytes) "
               "through epoch %llu (round %llu); dropped %llu "
               "uncommitted segment(s), %llu trailing byte(s)%s%s\n",
               Path.c_str(), (unsigned long long)R.SegmentsCommitted,
               (unsigned long long)R.BytesKept,
               (unsigned long long)R.LastEpoch,
               (unsigned long long)R.LastRound,
               (unsigned long long)R.SegmentsUncommitted,
               (unsigned long long)R.TrailingBytes,
               R.TruncationReason.empty() ? "" : "; stopped at: ",
               R.TruncationReason.c_str());
}

/// `djxperf recover <journal> [--html <file>]`: salvage the valid prefix
/// and render the report the journaled run would have produced. A
/// complete journal reproduces the run's stdout byte for byte (degraded
/// banner included, for failed runs); a torn journal gets a truncation
/// banner stating what was kept and dropped. Exit 0 unless the file is
/// not a usable journal at all (exit code of JournalCorrupt).
int runRecover(int Argc, char **Argv) {
  std::string Path, HtmlPath;
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--html" && I + 1 < Argc) {
      HtmlPath = Argv[++I];
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "error: unknown recover flag '%s'\n", A.c_str());
      return 2;
    } else if (Path.empty()) {
      Path = A;
    } else {
      std::fprintf(stderr, "error: recover takes one journal\n");
      return 2;
    }
  }
  if (Path.empty()) {
    std::fprintf(stderr, "usage: %s recover <journal> [--html <file>]\n",
                 Argv[0]);
    return 2;
  }

  JournalRecovery R = readJournal(Path);
  if (!R.HeaderValid) {
    std::fprintf(stderr, "djxperf: FAILED: %s: %s\n", Path.c_str(),
                 R.HeaderError.c_str());
    return vmErrorExitCode(VmErrorKind::JournalCorrupt);
  }
  printJournalAccounting(Path, R);

  MethodRegistry Methods = buildJournalMethodRegistry(R);
  std::vector<const ThreadProfile *> Parts;
  Parts.reserve(R.Profiles.size());
  for (const ThreadProfile &P : R.Profiles)
    Parts.push_back(&P);
  MergedProfile P = mergeProfiles(Parts);

  if (R.Closed && !R.CloseClean)
    std::fputs(renderDegradedBanner(R.CloseError, R.CloseSamplesHandled,
                                    R.CloseSamplesDropped)
                   .c_str(),
               stdout);
  else if (R.degraded())
    std::fputs(journalTruncationBanner(Path, R).c_str(), stdout);
  std::fputs(renderMetaReport(P, Methods, R.Meta).c_str(), stdout);

  if (!HtmlPath.empty()) {
    std::string Title =
        R.Meta.Title.empty() ? "DJXPerf: recovered " + Path : R.Meta.Title;
    if (!writeHtmlReport(P, Methods, HtmlPath, optionsFromMeta(R.Meta),
                         Title)) {
      std::fprintf(stderr, "error: cannot write %s\n", HtmlPath.c_str());
      return 1;
    }
    std::fprintf(stderr, "djxperf: wrote %s\n", HtmlPath.c_str());
  }
  return 0;
}

/// `djxperf merge <j1> <j2> ... [--html <file>]`: fold many journals
/// into one aggregate report. Thread ids are offset per input so every
/// simulated thread stays distinct (keyed-sum semantics: the merged
/// totals are the sums of the per-journal reports); method ids are
/// remapped through one union registry. Unusable inputs are skipped with
/// per-file accounting; exit is 0 if at least one input contributed.
int runMerge(int Argc, char **Argv) {
  std::vector<std::string> Paths;
  std::string HtmlPath;
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--html" && I + 1 < Argc) {
      HtmlPath = Argv[++I];
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "error: unknown merge flag '%s'\n", A.c_str());
      return 2;
    } else {
      Paths.push_back(A);
    }
  }
  if (Paths.empty()) {
    std::fprintf(stderr,
                 "usage: %s merge <journal>... [--html <file>]\n", Argv[0]);
    return 2;
  }

  MethodRegistry Union;
  std::vector<ThreadProfile> Merged;
  JournalMeta Meta;
  bool HaveMeta = false;
  uint64_t TidOffset = 0;
  unsigned Usable = 0;
  for (const std::string &Path : Paths) {
    JournalRecovery R = readJournal(Path);
    if (!R.HeaderValid) {
      std::fprintf(stderr, "djxperf: %s: skipped (%s)\n", Path.c_str(),
                   R.HeaderError.c_str());
      continue;
    }
    ++Usable;
    printJournalAccounting(Path, R);
    if (!HaveMeta && R.HasMeta) {
      Meta = R.Meta;
      HaveMeta = true;
    }
    std::vector<MethodId> Map;
    Map.reserve(R.Methods.size());
    for (const MethodInfo &M : R.Methods)
      Map.push_back(Union.getOrRegister(M.ClassName, M.MethodName,
                                        M.LineTable));
    uint64_t MaxTid = TidOffset;
    for (ThreadProfile &P : R.Profiles) {
      P.remapIds(TidOffset, Map);
      MaxTid = std::max(MaxTid, P.threadId());
      Merged.push_back(std::move(P));
    }
    TidOffset = MaxTid;
  }
  if (Usable == 0) {
    std::fprintf(stderr, "djxperf: FAILED: no usable journals\n");
    return vmErrorExitCode(VmErrorKind::JournalCorrupt);
  }

  std::vector<const ThreadProfile *> Parts;
  Parts.reserve(Merged.size());
  for (const ThreadProfile &P : Merged)
    Parts.push_back(&P);
  MergedProfile P = mergeProfiles(Parts);
  std::fputs(renderMetaReport(P, Union, Meta).c_str(), stdout);

  if (!HtmlPath.empty()) {
    std::string Title =
        "DJXPerf: merge of " + std::to_string(Usable) + " journal(s)";
    if (!writeHtmlReport(P, Union, HtmlPath, optionsFromMeta(Meta),
                         Title)) {
      std::fprintf(stderr, "error: cannot write %s\n", HtmlPath.c_str());
      return 1;
    }
    std::fprintf(stderr, "djxperf: wrote %s\n", HtmlPath.c_str());
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  // Journal verbs run without a VM: dispatch before the flag loop.
  if (Argc >= 2 && std::strcmp(Argv[1], "recover") == 0)
    return runRecover(Argc, Argv);
  if (Argc >= 2 && std::strcmp(Argv[1], "merge") == 0)
    return runMerge(Argc, Argv);

  DjxPerfConfig Agent;
  PerfEventKind Kind = PerfEventKind::L1Miss;
  uint64_t Period = 64;
  std::string Report = "object";
  std::string HtmlPath, Target;
  bool RunOptimized = false;
  unsigned Top = 10;
  unsigned Jobs = std::max(1u, std::thread::hardware_concurrency());
  std::optional<NumaPolicy> PolicyOverride;
  std::optional<uint64_t> HeapBytesOverride;
  std::optional<uint64_t> StallTimeoutOverride;
  FaultPlan Faults;
  bool AnyFaultRate = false;
  std::optional<uint64_t> FaultSeed;
  TierConfig Tier;
  bool DumpTraces = false;
  bool StaticReport = false;
  std::string JournalPath;
  uint64_t MaxRounds = 0;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto NeedsValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        std::exit(2);
      }
      return Argv[++I];
    };
    // The whole value of numeric flag A as an unsigned of Min's type, at
    // least Min; a sign, trailing characters or a value the type cannot
    // hold is a usage error.
    auto Number = [&](auto Min, int Base = 10) {
      const char *V = NeedsValue(A.c_str());
      char *End = nullptr;
      errno = 0;
      unsigned long long N = std::strtoull(V, &End, Base);
      if (!std::isdigit(static_cast<unsigned char>(*V)) || *End != '\0' ||
          errno == ERANGE || N > std::numeric_limits<decltype(Min)>::max()) {
        std::fprintf(stderr, "error: bad %s '%s' (want an unsigned integer)\n",
                     A.c_str(), V);
        std::exit(2);
      }
      if (N < Min) {
        std::fprintf(stderr, "error: %s must be positive\n", A.c_str());
        std::exit(2);
      }
      return static_cast<decltype(Min)>(N);
    };
    if (A == "--list") {
      for (const CliWorkload &W : catalog())
        std::printf("%-12s %s\n", W.Kind.c_str(), W.Name.c_str());
      return 0;
    }
    if (A == "--help" || A == "-h") {
      usage(Argv[0]);
      return 0;
    }
    if (A == "--optimized") {
      RunOptimized = true;
    } else if (A == "--event") {
      std::string V = NeedsValue("--event");
      auto K = parseEvent(V);
      if (!K) {
        std::fprintf(stderr, "error: unknown event '%s'\n", V.c_str());
        return 2;
      }
      Kind = *K;
    } else if (A == "--period") {
      Period = Number(uint64_t{1});
    } else if (A == "--size-threshold") {
      Agent.MinObjectSize = Number(uint64_t{0});
    } else if (A == "--no-gc-handling") {
      Agent.HandleGcMoves = Agent.HandleGcFrees = false;
    } else if (A == "--no-numa") {
      Agent.TrackNuma = false;
    } else if (A == "--report") {
      Report = NeedsValue("--report");
      if (Report != "object" && Report != "code" && Report != "both") {
        std::fprintf(stderr, "error: unknown report '%s'\n", Report.c_str());
        return 2;
      }
    } else if (A == "--top") {
      Top = Number(1u);
    } else if (A == "--jobs") {
      Jobs = Number(1u);
    } else if (A == "--numa-policy") {
      std::string V = NeedsValue("--numa-policy");
      NumaPolicy P;
      if (!parseNumaPolicy(V, P)) {
        std::fprintf(stderr, "error: unknown NUMA policy '%s'\n", V.c_str());
        return 2;
      }
      PolicyOverride = P;
    } else if (A == "--tier") {
      std::string V = NeedsValue("--tier");
      ExecTier T;
      if (!parseExecTier(V, T)) {
        std::fprintf(stderr, "error: unknown tier '%s'\n", V.c_str());
        return 2;
      }
      Tier.Tier = T;
    } else if (A == "--hot-threshold") {
      Tier.HotThreshold = Number(uint32_t{1});
    } else if (A == "--max-trace-len") {
      Tier.MaxTraceLength = Number(uint32_t{1});
    } else if (A == "--dump-traces") {
      DumpTraces = true;
    } else if (A == "--static-report") {
      StaticReport = true;
    } else if (A == "--heap-bytes") {
      HeapBytesOverride = Number(uint64_t{1});
    } else if (A == "--stall-timeout-ms") {
      StallTimeoutOverride = Number(uint64_t{0});
    } else if (A == "--fault-rate") {
      std::string V = NeedsValue("--fault-rate");
      if (!parseFaultRate(V, Faults)) {
        std::fprintf(stderr,
                     "error: bad --fault-rate '%s' (want alloc|ring|gc|"
                     "stall|journal-short|journal-error|journal-corrupt"
                     "=<p in [0,1]>)\n",
                     V.c_str());
        return 2;
      }
      AnyFaultRate = true;
    } else if (A == "--fault-seed") {
      FaultSeed = Number(uint64_t{0}, 0);
    } else if (A == "--journal") {
      JournalPath = NeedsValue("--journal");
    } else if (A == "--max-rounds") {
      MaxRounds = Number(uint64_t{0});
    } else if (A == "--html") {
      HtmlPath = NeedsValue("--html");
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n", A.c_str());
      usage(Argv[0]);
      return 2;
    } else {
      Target = A;
    }
  }
  if (Target.empty()) {
    usage(Argv[0]);
    return 2;
  }

  const auto All = catalog();
  const CliWorkload *Chosen = nullptr;
  for (const CliWorkload &W : All)
    if (W.Name == Target)
      Chosen = &W;
  if (!Chosen) {
    std::fprintf(stderr,
                 "error: unknown workload '%s' (try --list)\n",
                 Target.c_str());
    return 2;
  }
  if (RunOptimized && !Chosen->Optimized) {
    std::fprintf(stderr, "error: '%s' has no optimized variant\n",
                 Target.c_str());
    return 2;
  }

  // Arm the fault injector before the VM exists so class loading and the
  // very first allocation are already candidate sites. The seed is always
  // printed so any observed failure can be replayed exactly.
  if (AnyFaultRate) {
    if (FaultSeed) {
      Faults.Seed = *FaultSeed;
    } else if (const char *Env = std::getenv("DJX_FAULT_SEED")) {
      Faults.Seed = std::strtoull(Env, nullptr, 0);
    } else {
      std::random_device Rd;
      Faults.Seed = (static_cast<uint64_t>(Rd()) << 32) ^ Rd();
    }
    FaultInjector::install(Faults);
    std::fprintf(stderr,
                 "djxperf: DJX_FAULT_SEED=0x%llx (export to reproduce)\n",
                 (unsigned long long)Faults.Seed);
  }

  ParallelConfig Pc = Chosen->Parallel;
  VmConfig VmCfg = Chosen->Config;
  if (HeapBytesOverride) {
    if (Chosen->MultiThreaded) {
      Pc.HeapBytesPerThread = *HeapBytesOverride;
      VmCfg = Chosen->NumaRemote ? numaRemoteVmConfig(Pc)
                                 : parallelVmConfig(Pc);
    } else {
      VmCfg.HeapBytes = *HeapBytesOverride;
    }
  }
  if (StallTimeoutOverride)
    Pc.StallTimeoutMs = *StallTimeoutOverride;
  Pc.Tier = Tier;
  Pc.DumpTraces = DumpTraces;
  Agent.Tier = Tier;

  Agent.Events = {PerfEventAttr{Kind, Period, 64}};
  if (Chosen->MultiThreaded)
    Agent = parallelAgentConfig(Pc, Agent);

  // Open the journal before the VM exists so even a failure during
  // class loading leaves a well-formed (if empty) journal behind.
  std::unique_ptr<ProfileJournal> Journal;
  if (!JournalPath.empty()) {
    JournalMeta JMeta;
    JMeta.Workload = Chosen->Name;
    JMeta.Title = "DJXPerf: " + Chosen->Name;
    JMeta.EventKind = static_cast<unsigned>(Kind);
    JMeta.ReportMode = Report == "code" ? 1u : Report == "both" ? 2u : 0u;
    JMeta.TopGroups = Top;
    JMeta.ShowNuma = Agent.TrackNuma;
    std::string Err;
    Journal = ProfileJournal::open(JournalPath, JMeta, &Err);
    if (!Journal) {
      std::fprintf(stderr, "error: cannot open journal %s: %s\n",
                   JournalPath.c_str(), Err.c_str());
      return 1;
    }
  }

  // SIGINT/SIGTERM end the run at the next quiescent point (round
  // barrier for mt workloads, workload return otherwise), so the journal
  // is flushed and closed before exit 130. A second signal kills.
  std::signal(SIGINT, onTermSignal);
  std::signal(SIGTERM, onTermSignal);

  JavaVm Vm(VmCfg);
  DjxPerf Profiler(Vm, Agent);
  Profiler.start();
  // Any VM failure — genuine or injected — lands here as a typed VmError.
  // Salvage what the profiler has: stop cleanly, merge the per-thread
  // profiles collected before the failure, and emit a report explicitly
  // marked degraded, then exit with the kind's documented code.
  std::optional<VmError> Failure;
  std::vector<StaticSiteFacts> StaticSites;
  try {
    if (Chosen->MultiThreaded) {
      Pc.Jobs = Jobs;
      if (PolicyOverride)
        Pc.Policy = *PolicyOverride;
      // The static report needs instrumented bytecode to analyse: route
      // allocations through the ASM-style rewriting instead of VM events.
      if (StaticReport && !Chosen->NumaRemote)
        Pc.Instrumented = true;
      // Round barriers are the journal's epoch points: the barrier
      // thread runs alone, so snapshots are race-free, and the logical
      // round sequence is --jobs-invariant — so are the journal bytes.
      Pc.MaxRounds = MaxRounds;
      Pc.OnRoundEnd = [&](uint64_t Round) {
        if (Journal)
          Journal->flush(Profiler, Vm.methods(), Round);
        return GSignal != 0;
      };
      ParallelOutcome Out = Chosen->NumaRemote
                                ? runNumaRemoteWorkload(Vm, &Profiler, Pc)
                                : runParallelWorkload(Vm, &Profiler, Pc);
      StaticSites = std::move(Out.StaticSites);
      if (!Out.TraceDump.empty())
        std::fputs(Out.TraceDump.c_str(), stderr);
    } else {
      // Serial workloads have no executor rounds; GC finish is their
      // quiescent flush point (the epoch counter is the GC ordinal).
      if (Journal) {
        auto GcEpoch = std::make_shared<uint64_t>(0);
        Vm.jvmti().onGcFinish([&Journal, &Profiler, &Vm,
                               GcEpoch](const GcStats &) {
          Journal->flush(Profiler, Vm.methods(), ++*GcEpoch);
        });
      }
      (RunOptimized ? Chosen->Optimized : Chosen->Baseline)(Vm);
    }
  } catch (VmError &E) {
    Failure = std::move(E);
  }
  if (GSignal != 0 && !Failure)
    Failure = VmError(VmErrorKind::Interrupted,
                      std::string("caught ") +
                          (GSignal == SIGTERM ? "SIGTERM" : "SIGINT") +
                          ", ended run at a quiescent point");
  Profiler.stop();

  // Close the journal after stop() so the ring drains land in the final
  // epoch; a failed run's Close carries the same accounting the banner
  // below prints, which is what lets `recover` reproduce it exactly.
  if (Journal) {
    if (Failure)
      Journal->closeFailed(Profiler, Vm.methods(), *Failure,
                           Profiler.samplesHandled(),
                           Profiler.samplesDropped());
    else
      Journal->closeClean(Profiler, Vm.methods());
    if (Journal->active())
      std::fprintf(stderr,
                   "djxperf: journal %s: %llu epoch(s), %llu segment(s), "
                   "%llu bytes\n",
                   Journal->path().c_str(),
                   (unsigned long long)Journal->epochsCommitted(),
                   (unsigned long long)Journal->segmentsWritten(),
                   (unsigned long long)Journal->bytesWritten());
  }

  std::fprintf(stderr,
               "djxperf: %llu cycles, %llu allocation callbacks, %llu"
               " tracked, %llu samples, %zu KiB profiler state\n",
               (unsigned long long)Vm.totalCycles(),
               (unsigned long long)Profiler.allocationCallbacks(),
               (unsigned long long)Profiler.allocationsTracked(),
               (unsigned long long)Profiler.samplesHandled(),
               Profiler.memoryFootprint() / 1024);
  if (Profiler.samplesDropped() > 0)
    std::fprintf(stderr,
                 "djxperf: %llu samples dropped, %llu forced ring drains\n",
                 (unsigned long long)Profiler.samplesDropped(),
                 (unsigned long long)Profiler.ringOverflowDrains());

  MergedProfile P = Profiler.analyze();
  if (Failure)
    std::fputs(renderDegradedBanner(*Failure, Profiler.samplesHandled(),
                                    Profiler.samplesDropped())
                   .c_str(),
               stdout);
  ReportOptions Opts;
  Opts.SortKind = Kind;
  Opts.TopGroups = Top;
  Opts.ShowNuma = Agent.TrackNuma;
  if (Report == "object" || Report == "both")
    std::fputs(renderObjectCentric(P, Vm.methods(), Opts).c_str(), stdout);
  if (Report == "code" || Report == "both")
    std::fputs(renderCodeCentric(P, Vm.methods(), Opts).c_str(), stdout);
  if (StaticReport)
    std::fputs(
        renderStaticReport(StaticSites, P, Vm.methods(), Kind).c_str(),
        stdout);
  if (!HtmlPath.empty()) {
    if (!writeHtmlReport(P, Vm.methods(), HtmlPath, Opts,
                         "DJXPerf: " + Chosen->Name)) {
      std::fprintf(stderr, "error: cannot write %s\n", HtmlPath.c_str());
      return 1;
    }
    std::fprintf(stderr, "djxperf: wrote %s\n", HtmlPath.c_str());
  }
  if (Failure) {
    std::fprintf(stderr, "djxperf: FAILED: %s\n",
                 Failure->describe().c_str());
    return vmErrorExitCode(Failure->Kind);
  }
  return 0;
}
