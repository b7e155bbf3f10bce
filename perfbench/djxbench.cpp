//===- djxbench.cpp - Repository benchmark driver -------------------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload against the `djx` library for a fixed number
/// of host seconds, repetition after repetition, and prints one JSON line
/// per repetition. Every repetition drives the public API in the order the
/// `djxperf` CLI does (ProfileJournal, JavaVm, DjxPerf, program load,
/// Executor, analyze/render, readJournal), so each layer is timed from
/// outside the library.
///
///   djxbench --workload mt_profiled --seed 1 --work-dir w --seconds 30
///            --trace 0 --trace-file t.json
///   djxbench --workload mt_profiled --seed 1 --work-dir w --once
///
/// With --trace 1 each cycle runs an untraced repetition, a traced one and a
/// native twin (same inputs, no agent), in rotating order. Traced
/// repetitions record spans in memory; they are written as Chrome
/// trace-event JSON to --trace-file when the run ends. With --once the
/// driver runs a single untraced repetition, so its peak RSS is that of a
/// process that ran the workload once. perfbench/run.py aggregates the
/// lines into the benchmark's metrics.
///
//===----------------------------------------------------------------------===//

#include "core/DjxPerf.h"
#include "core/Report.h"
#include "io/JournalReader.h"
#include "io/ProfileJournal.h"
#include "runtime/Executor.h"
#include "support/VmError.h"
#include "workloads/BytecodePrograms.h"
#include "workloads/Parallel.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

using namespace djx;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point Origin = Clock::now();

/// Host nanoseconds since process start; the one clock every span,
/// probe and end-to-end time is read from.
int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Origin)
      .count();
}

double secondsBetween(int64_t A, int64_t B) { return (B - A) * 1e-9; }

/// User plus system CPU of the whole process (all threads).
double cpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return Ts.tv_sec + Ts.tv_nsec * 1e-9;
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(Q * (V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}

// --- Spans ------------------------------------------------------------------

struct Span {
  std::string Name;
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int Parent = -1; ///< Index into the same repetition's spans; -1 = top.
  int Tid = 1;     ///< 1 = driving thread, 2 = a round-barrier callback.
};

/// In-memory span recorder. Scoped spans nest on the driving thread;
/// complete() records a finished span from a barrier callback (the world
/// is stopped there, so it nests under whatever the driver has open).
class Tracer {
public:
  explicit Tracer(bool On) : On(On) {}

  int begin(const char *Name) {
    if (!On)
      return -1;
    std::lock_guard<std::mutex> G(Lock);
    Spans.push_back({Name, nowNs(), 0, Open.empty() ? -1 : Open.back(), 1});
    Open.push_back(static_cast<int>(Spans.size()) - 1);
    return Open.back();
  }
  void end(int Id) {
    if (Id < 0)
      return;
    std::lock_guard<std::mutex> G(Lock);
    Spans[Id].EndNs = nowNs();
    Open.pop_back();
  }
  void complete(const char *Name, int64_t Start, int64_t End) {
    if (!On)
      return;
    std::lock_guard<std::mutex> G(Lock);
    Spans.push_back({Name, Start, End, Open.empty() ? -1 : Open.back(), 2});
  }
  /// Moves the finished repetition's spans out (the tracer starts empty).
  std::vector<Span> take() {
    std::lock_guard<std::mutex> G(Lock);
    return std::move(Spans);
  }

private:
  bool On;
  std::mutex Lock;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

class SpanScope {
public:
  SpanScope(Tracer &T, const char *Name) : T(T), Id(T.begin(Name)) {}
  ~SpanScope() { T.end(Id); }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;

private:
  Tracer &T;
  int Id;
};

// --- One repetition's measurements ------------------------------------------

/// Metric name -> value. Ratios are derived from the counters at the end.
using Metrics = std::map<std::string, double>;

struct Rep {
  Metrics M;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Errors;
  std::vector<Span> Spans;
  /// Host time and process CPU at each checkpoint the repetition passed,
  /// from its start to the rendered report. MarkSetup[I] tells whether the
  /// interval that ends at checkpoint I is set-up work.
  std::vector<int64_t> MarkNs;
  std::vector<double> MarkCpu;
  std::vector<bool> MarkSetup;
  /// Seconds the journal took to read and to render, per recovery pass.
  std::vector<std::vector<double>> RecoverUnits;

  void mark(bool Setup = false) {
    MarkNs.push_back(nowNs());
    MarkCpu.push_back(cpuSeconds());
    MarkSetup.push_back(Setup);
  }

  void fail(std::string Why) {
    ++Failed;
    if (Errors.size() < 4)
      Errors.push_back(std::move(Why));
  }
};

/// GC and journal-flush timing plus round-barrier gaps, fed by JVMTI and
/// executor callbacks the benchmark subscribes. Callbacks run one at a time
/// (the serial driver, or the barrier closer with every peer quiesced), so
/// the fields need no lock. One probe serves a whole repetition.
struct BarrierProbe {
  explicit BarrierProbe(Tracer &T) : T(T) {}
  Tracer &T;
  /// The agent whose footprint high-water mark is sampled at each GC
  /// start, when the heap is full and the index holds the most objects.
  const DjxPerf *Prof = nullptr;
  size_t PeakProfilerBytes = 0;
  int64_t GcStartNs = 0;
  double GcSeconds = 0;
  uint64_t GcCount = 0;
  int64_t LastRoundExitNs = 0;
  std::vector<double> RoundGapsUs;
  std::vector<double> FlushUs;

  /// Subscribe GcStart before the agent so the interval includes the
  /// agent's GC-start drain.
  void attachStart(JavaVm &Vm) {
    Vm.jvmti().onGcStart([this] {
      if (Prof)
        PeakProfilerBytes =
            std::max(PeakProfilerBytes, Prof->memoryFootprint());
      GcStartNs = nowNs();
    });
  }
  /// Subscribe GcFinish after the agent so the interval includes its
  /// batched relocation update.
  void attachFinish(JavaVm &Vm) {
    Vm.jvmti().onGcFinish([this](const GcStats &) {
      int64_t End = nowNs();
      GcSeconds += secondsBetween(GcStartNs, End);
      ++GcCount;
      T.complete("jvm.gc", GcStartNs, End);
    });
  }
  /// Commits one journal epoch, timed as io.flush.
  void flush(ProfileJournal &J, const DjxPerf &Prof,
             const MethodRegistry &Methods, uint64_t Epoch) {
    int64_t In = nowNs();
    J.flush(Prof, Methods, Epoch);
    int64_t Out = nowNs();
    FlushUs.push_back((Out - In) * 1e-3);
    T.complete("io.flush", In, Out);
  }
  void addTo(Metrics &M) const {
    M["jvm.gc_s"] = GcSeconds;
    M["jvm.gc_count"] = GcCount;
    M["io.flush_s"] = 0;
    for (double Us : FlushUs)
      M["io.flush_s"] += Us * 1e-6;
    M["io.flush_p99_us"] = percentile(FlushUs, 0.99);
    if (!RoundGapsUs.empty()) {
      M["runtime.round_gap_p50_us"] = percentile(RoundGapsUs, 0.5);
      M["runtime.round_gap_p99_us"] = percentile(RoundGapsUs, 0.99);
    }
  }
};

void addMachine(Metrics &M, const HierarchyStats &S) {
  M["sim.accesses"] += S.Accesses;
  M["sim.l1_misses"] += S.L1Misses;
  M["sim.l2_misses"] += S.L2Misses;
  M["sim.l3_misses"] += S.L3Misses;
  M["sim.tlb_misses"] += S.TlbMisses;
  M["sim.remote"] += S.RemoteAccesses;
}

/// \p PeakBytes is the footprint high-water mark before stop; the
/// footprint at stop alone depends on how much garbage the last GC left.
void addProfiler(Metrics &M, DjxPerf &Prof, const MergedProfile &P,
                 size_t PeakBytes) {
  M["profiler_bytes"] += std::max(PeakBytes, Prof.memoryFootprint());
  M["pmu.samples"] += Prof.samplesHandled();
  M["pmu.samples_dropped"] += Prof.samplesDropped();
  M["pmu.ring_overflow_drains"] += Prof.ringOverflowDrains();
  M["core.tracked_allocs"] += Prof.allocationsTracked();
  M["core.index_live"] += Prof.index().liveCount();
  M["core.index_lock_acquisitions"] += Prof.index().lockAcquisitions();
  M["core.aux_cycles"] += Prof.auxOverheadCycles();
  uint64_t Total = 0;
  for (uint64_t C : P.Totals.Counts)
    Total += C;
  M["profile.samples"] += Total;
  M["profile.unattributed"] += P.UnattributedSamples;
}

void addJournal(Metrics &M, const ProfileJournal &J) {
  M["io.epochs"] += J.epochsCommitted();
  M["io.bytes"] += J.bytesWritten();
}

/// Ratios and unit conversions derived from the summed counters.
void finish(Metrics &M) {
  auto Ratio = [](double A, double B) { return B > 0 ? A / B : 0.0; };
  double Acc = M["sim.accesses"];
  M["sim.l1_miss_ratio"] = Ratio(M["sim.l1_misses"], Acc);
  M["sim.l2_miss_ratio"] = Ratio(M["sim.l2_misses"], Acc);
  M["sim.l3_miss_ratio"] = Ratio(M["sim.l3_misses"], Acc);
  M["sim.tlb_miss_ratio"] = Ratio(M["sim.tlb_misses"], Acc);
  M["sim.remote_ratio"] = Ratio(M["sim.remote"], Acc);
  // The paper's runtime: simulated cycles plus the agent's auxiliary
  // cycles (its GC-time batch updates), as bench/Harness.cpp counts them.
  M["sim_gcycles"] = (M["sim.cycles"] + M["core.aux_cycles"]) / 1e9;
  if (M.count("profile.samples")) {
    M["sample_attribution_ratio"] =
        1.0 - Ratio(M["profile.unattributed"], M["profile.samples"]);
    M["profiler_mib"] = M["profiler_bytes"] / (1 << 20);
    M["journal_mib"] = M["io.bytes"] / (1 << 20);
    M["io.bytes_per_epoch"] = Ratio(M["io.bytes"], M["io.epochs"]);
  }
}

JournalMeta journalMeta(const std::string &Workload) {
  JournalMeta M;
  M.Workload = Workload;
  M.Title = "DJXPerf: " + Workload;
  M.EventKind = static_cast<unsigned>(PerfEventKind::L1Miss);
  return M;
}

/// The render options `djxperf recover` derives from a journal's Meta;
/// live reports use the same, so the two must match byte for byte.
ReportOptions optionsFromMeta(const JournalMeta &M) {
  ReportOptions O;
  O.SortKind = static_cast<PerfEventKind>(M.EventKind);
  O.TopGroups = M.TopGroups;
  O.TopAccessContexts = M.TopAccessContexts;
  O.MinShare = M.MinShare;
  O.ShowNuma = M.ShowNuma;
  return O;
}

std::unique_ptr<ProfileJournal> openJournal(const std::string &Path,
                                            const JournalMeta &Meta, Rep &R,
                                            Tracer &T) {
  SpanScope Sp(T, "io.open");
  std::string Err;
  std::unique_ptr<ProfileJournal> J = ProfileJournal::open(Path, Meta, &Err);
  if (!J)
    R.fail("cannot open journal " + Path + ": " + Err);
  return J;
}

/// Host seconds one recovery pass spent reading journals and rendering.
struct RecoverTimes {
  double Read = 0;
  double Render = 0;
  double total() const { return Read + Render; }
};

/// The `djxperf recover` path: reads \p Path back, merges and renders it,
/// and, when \p Check is set, checks the result against the live report.
RecoverTimes recoverJournal(const std::string &Path, const std::string &Live,
                            const std::string &What, bool Check, Rep &R,
                            Tracer &T) {
  const int64_t Start = nowNs();
  JournalRecovery Rec;
  {
    SpanScope Sp(T, "io.read");
    Rec = readJournal(Path);
  }
  const int64_t Read = nowNs();
  std::string Recovered;
  {
    SpanScope Sp(T, "io.recover_render");
    MethodRegistry Methods = buildJournalMethodRegistry(Rec);
    std::vector<const ThreadProfile *> Parts;
    for (const ThreadProfile &TP : Rec.Profiles)
      Parts.push_back(&TP);
    Recovered = renderObjectCentric(mergeProfiles(Parts), Methods,
                                    optionsFromMeta(Rec.Meta));
  }
  const RecoverTimes Times{secondsBetween(Start, Read),
                           secondsBetween(Read, nowNs())};
  if (!Check)
    return Times;
  if (!Rec.HeaderValid || !Rec.Closed || !Rec.CloseClean || Rec.degraded())
    R.fail(What + ": journal did not recover clean and complete");
  else if (Recovered != Live)
    R.fail(What + ": recovered report differs from the live report");
  return Times;
}

/// Runs \p Pass, one recovery of the repetition's journal, \p Count times.
/// Each pass's read and render times go to R.RecoverUnits; the per-layer
/// metrics take the median pass. Only the first pass checks its report.
void recoverPasses(Rep &R, unsigned Count,
                   const std::function<RecoverTimes(bool)> &Pass) {
  std::vector<RecoverTimes> Passes;
  for (unsigned I = 0; I < Count; ++I) {
    Passes.push_back(Pass(I == 0));
    R.RecoverUnits.push_back({Passes.back().Read, Passes.back().Render});
  }
  std::sort(Passes.begin(), Passes.end(),
            [](const RecoverTimes &A, const RecoverTimes &B) {
              return A.total() < B.total();
            });
  const RecoverTimes &Median = Passes[Count / 2];
  R.M["io.read_s"] = Median.Read;
  R.M["io.recover_render_s"] = Median.Render;
  R.M["recover_s"] = Median.total();
}

/// The CLI's tail after the workload returns: stop the agent, close the
/// journal, analyze, render. Each step is timed into \p R.
MergedProfile stopAndReport(DjxPerf &Prof, ProfileJournal &Journal,
                            const MethodRegistry &Methods,
                            const JournalMeta &Meta, size_t PeakBytes,
                            std::string &Report, Rep &R, Tracer &T) {
  const int64_t Start = nowNs();
  {
    SpanScope Sp(T, "core.stop");
    Prof.stop();
  }
  const int64_t Stopped = nowNs();
  R.mark();
  {
    SpanScope Sp(T, "io.close");
    Journal.closeClean(Prof, Methods);
  }
  const int64_t Closed = nowNs();
  R.mark();
  MergedProfile P;
  {
    SpanScope Sp(T, "core.analyze");
    P = Prof.analyze();
  }
  const int64_t Analyzed = nowNs();
  R.mark();
  {
    SpanScope Sp(T, "core.render");
    Report = renderObjectCentric(P, Methods, optionsFromMeta(Meta));
  }
  R.mark();
  R.M["core.stop_s"] += secondsBetween(Start, Stopped);
  R.M["io.close_s"] += secondsBetween(Stopped, Closed);
  R.M["core.analyze_s"] += secondsBetween(Closed, Analyzed);
  R.M["core.render_s"] += secondsBetween(Analyzed, R.MarkNs.back());
  addProfiler(R.M, Prof, P, PeakBytes);
  addJournal(R.M, Journal);
  return P;
}

/// Fails \p R unless the top object group by L1 misses was allocated in
/// \p Class.\p Method (at \p Bci, when given): the workload's hot array.
void checkHotArrayFirst(const MergedProfile &P, const MethodRegistry &Methods,
                        const std::string &Class, const std::string &Method,
                        std::optional<uint32_t> Bci, const std::string &What,
                        Rep &R) {
  std::vector<const MergedGroup *> Groups =
      P.groupsByMetric(PerfEventKind::L1Miss);
  if (Groups.empty()) {
    R.fail(What + ": report has no object groups");
    return;
  }
  const MethodInfo &Leaf = Methods.get(P.Tree.methodOf(Groups[0]->AllocNode));
  if (Leaf.ClassName != Class || Leaf.MethodName != Method ||
      (Bci && P.Tree.bciOf(Groups[0]->AllocNode) != *Bci))
    R.fail(What + ": top group allocated in " + Leaf.ClassName + "." +
           Leaf.MethodName + ", not the hot array in " + Class + "." +
           Method);
}

// --- Generated inputs --------------------------------------------------------

uint64_t splitMix(uint64_t &State) {
  uint64_t Z = (State += 0x9E3779B97F4A7C15ULL);
  Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBULL;
  return Z ^ (Z >> 31);
}

/// Uniform draw in [-Max, Max] in steps of \p Step.
int64_t jitter(uint64_t &State, int64_t Max, int64_t Step) {
  int64_t Slots = Max / Step;
  return (static_cast<int64_t>(splitMix(State) % (2 * Slots + 1)) - Slots) *
         Step;
}

/// Shape of one executor workload. The seed only perturbs per-thread
/// Iters and HotElems, in zero-sum pairs, so total work stays fixed.
struct ExecShape {
  std::string Name;
  unsigned SimThreads = 4;
  unsigned Jobs = 1;
  uint64_t QuantumSteps = 32768;
  ExecTier Tier = ExecTier::Interp;
  bool Instrumented = false;
  int64_t Iters = 400;
  int64_t Nlen = 256;
  int64_t HotElems = 16384;
  uint64_t HeapBytesPerThread = 512 << 10;
  /// Recovery passes per repetition. Fastest keeps each pass's minimum,
  /// which is steadier the more passes it sees.
  unsigned RecoverPasses = 5;
  std::vector<int64_t> ThreadIters;
  std::vector<int64_t> ThreadHotElems;
};

void seedShape(ExecShape &S, uint64_t Seed) {
  uint64_t State = Seed;
  S.ThreadIters.assign(S.SimThreads, S.Iters);
  S.ThreadHotElems.assign(S.SimThreads, S.HotElems);
  for (unsigned I = 0; I + 1 < S.SimThreads; I += 2) {
    int64_t DI = jitter(State, std::max<int64_t>(S.Iters / 200, 1), 1);
    int64_t DH = jitter(State, 128, 32); // +-1 KiB around 128 KiB.
    S.ThreadIters[I] += DI;
    S.ThreadIters[I + 1] -= DI;
    S.ThreadHotElems[I] += DH;
    S.ThreadHotElems[I + 1] -= DH;
  }
}

ExecShape mtProfiledShape(uint64_t Seed) {
  ExecShape S;
  S.Name = "mt_profiled";
  S.SimThreads = 4;
  S.Jobs = 2;
  S.Tier = ExecTier::Super;
  S.Iters = 4000;
  // Its 6.8 MiB journal recovers in about 30 ms, a fifth of
  // journal_rounds' 29.6 MiB, so it gets three times the passes.
  S.RecoverPasses = 15;
  seedShape(S, Seed);
  return S;
}

ExecShape journalRoundsShape(uint64_t Seed) {
  ExecShape S;
  S.Name = "journal_rounds";
  S.SimThreads = 8;
  S.Jobs = 1;
  S.QuantumSteps = 1024;
  S.Tier = ExecTier::Interp;
  S.Instrumented = true;
  S.Iters = 300;
  seedShape(S, Seed);
  return S;
}

// --- Executor workloads (mt_profiled, journal_rounds) -----------------------

Rep runExecutorRep(const ExecShape &S, bool Profiled, Tracer &T,
                   const std::string &JournalPath) {
  Rep R;
  R.Attempted = 1;
  BarrierProbe Probe(T);
  R.mark();
  const int64_t T0 = R.MarkNs[0];
  const double Cpu0 = R.MarkCpu[0];

  ParallelConfig Pc;
  Pc.SimThreads = S.SimThreads;
  Pc.HeapBytesPerThread = S.HeapBytesPerThread;
  DjxPerfConfig Agent;
  Agent.Events = {PerfEventAttr{PerfEventKind::L1Miss, 64, 64}};
  Agent = parallelAgentConfig(Pc, Agent);
  const JournalMeta Meta = journalMeta(S.Name);

  // Teardown runs in reverse declaration order: the executor first, then
  // the program it runs, the agent, the VM, the journal.
  std::unique_ptr<ProfileJournal> Journal;
  std::unique_ptr<JavaVm> Vm;
  std::unique_ptr<DjxPerf> Prof;
  BytecodeProgram Program;
  std::unique_ptr<Executor> Ex;

  // The CLI opens the journal before the VM exists.
  if (Profiled && !(Journal = openJournal(JournalPath, Meta, R, T)))
    return R;
  R.mark(true);
  const int64_t V0 = nowNs();
  {
    SpanScope Sp(T, "jvm.vm_init");
    Vm = std::make_unique<JavaVm>(parallelVmConfig(Pc));
  }
  R.M["jvm.vm_init_s"] = secondsBetween(V0, nowNs());
  Probe.attachStart(*Vm);
  if (Profiled) {
    SpanScope Sp(T, "core.agent_init");
    Prof = std::make_unique<DjxPerf>(*Vm, Agent);
    Prof->start();
    Probe.Prof = Prof.get();
  }
  Probe.attachFinish(*Vm);
  R.mark(true);
  try {
    int64_t L0 = nowNs();
    {
      SpanScope Sp(T, "bytecode.load");
      Program = buildParallelWorkerProgram(Vm->types());
      Program.load(*Vm);
    }
    int64_t L1 = nowNs();
    R.M["bytecode.load_s"] = secondsBetween(L0, L1);
    if (Profiled && S.Instrumented) {
      SpanScope Sp(T, "instrument.rewrite");
      R.M["instrument.sites"] = Prof->instrument(Program);
    }
    R.M["instrument.rewrite_s"] = secondsBetween(L1, nowNs());
  } catch (VmError &E) {
    R.fail("program load: " + E.describe());
    return R;
  }

  ExecutorConfig Ec;
  Ec.Jobs = S.Jobs;
  Ec.QuantumSteps = S.QuantumSteps;
  Ec.Tier.Tier = S.Tier;
  // Round barriers are the journal's epoch points, as in the CLI.
  Ec.OnRoundEnd = [&](uint64_t Round) {
    R.mark();
    Probe.RoundGapsUs.push_back((nowNs() - Probe.LastRoundExitNs) * 1e-3);
    if (Journal)
      Probe.flush(*Journal, *Prof, Vm->methods(), Round);
    Probe.LastRoundExitNs = nowNs();
    return false;
  };
  {
    SpanScope Sp(T, "runtime.setup");
    Ex = std::make_unique<Executor>(*Vm, Ec);
    for (unsigned I = 0; I < S.SimThreads; ++I) {
      size_t Task =
          Ex->addThread(Program, "Main.run",
                        {Value::fromInt(S.ThreadIters[I]),
                         Value::fromInt(S.Nlen),
                         Value::fromInt(S.ThreadHotElems[I])},
                        "worker-" + std::to_string(I));
      if (Profiled && S.Instrumented)
        Prof->attachInterpreter(Ex->interpreter(Task));
    }
  }
  R.mark(true);
  const int64_t ExecStart = R.MarkNs.back();
  const double ExecCpu0 = R.MarkCpu.back();
  R.M["setup_s"] = secondsBetween(T0, ExecStart);
  {
    SpanScope Sp(T, "runtime.exec");
    Probe.LastRoundExitNs = ExecStart;
    Ex->run();
    if (Ex->error())
      R.fail("executor: " + Ex->error()->describe());
    for (size_t I = 0; I < Ex->numTasks(); ++I)
      Vm->endThread(Ex->thread(I));
  }
  R.mark();
  const int64_t ExecEnd = R.MarkNs.back();
  R.M["runtime.exec_s"] = secondsBetween(ExecStart, ExecEnd);
  R.M["runtime.cpu_per_wall"] =
      (R.MarkCpu.back() - ExecCpu0) / secondsBetween(ExecStart, ExecEnd);
  R.M["runtime.rounds"] = Ex->rounds();
  R.M["runtime.safepoints"] = Ex->safepoints();
  R.M["interp.steps"] = Ex->totalSteps();
  for (size_t I = 0; I < Ex->numTasks(); ++I)
    if (const TraceCache *TC = Ex->interpreter(I).traceCache()) {
      R.M["interp.trace_compiles"] += TC->stats().Compiles;
      R.M["interp.trace_invalidations"] += TC->stats().Invalidations;
    }
  addMachine(R.M, Ex->mergedMachineStats());
  R.M["jvm.alloc_events"] = Vm->jvmti().allocationCallbacksDelivered();
  R.M["sim.cycles"] = Vm->totalCycles();

  if (!Profiled) {
    Probe.addTo(R.M);
    R.M["time_to_report_s"] = secondsBetween(T0, nowNs());
    finish(R.M);
    R.Spans = T.take();
    return R;
  }

  std::string Report;
  MergedProfile P = stopAndReport(*Prof, *Journal, Vm->methods(), Meta,
                                  Probe.PeakProfilerBytes, Report, R, T);
  R.M["time_to_report_s"] = secondsBetween(T0, R.MarkNs.back());
  R.M["cpu_s"] = R.MarkCpu.back() - Cpu0;
  Probe.addTo(R.M);
  // The hot array is Main.run's newarray.
  checkHotArrayFirst(P, Vm->methods(), "Main", "run", std::nullopt, S.Name,
                     R);
  recoverPasses(R, S.RecoverPasses, [&](bool Check) {
    return recoverJournal(JournalPath, Report, S.Name, Check, R, T);
  });
  finish(R.M);
  R.Spans = T.take();
  return R;
}

// --- Output ------------------------------------------------------------------

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Out += ' ';
    else
      Out += C;
  }
  return Out + "\"";
}

std::string jsonMetrics(const Metrics &M) {
  std::string Out = "{";
  char Buf[64];
  for (const auto &[K, V] : M) {
    std::snprintf(Buf, sizeof(Buf), "%.12g", V);
    Out += (Out.size() > 1 ? ", " : "") + jsonString(K) + ": " + Buf;
  }
  return Out + "}";
}

/// Self time per layer (span name up to the first '.') and the wall time
/// the top-level spans cover.
void addSelfTimes(Metrics &M, const std::vector<Span> &Spans) {
  std::vector<double> ChildSeconds(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildSeconds[S.Parent] += secondsBetween(S.StartNs, S.EndNs);
  double Top = 0;
  for (size_t I = 0; I < Spans.size(); ++I) {
    double Dur = secondsBetween(Spans[I].StartNs, Spans[I].EndNs);
    std::string Layer = Spans[I].Name.substr(0, Spans[I].Name.find('.'));
    M[Layer + ".self_s"] += Dur - ChildSeconds[I];
    if (Spans[I].Parent < 0)
      Top += Dur;
  }
  M["trace.top_level_s"] = Top;
}

/// Chrome trace-event JSON ("X" complete events, microseconds). Each
/// repetition is its own pid so the viewer keeps repetitions apart; the
/// parent span rides in args.
bool writeChromeTrace(const std::string &Path,
                      const std::vector<std::vector<Span>> &Reps) {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  OS << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  bool First = true;
  char Buf[160];
  for (size_t R = 0; R < Reps.size(); ++R) {
    for (const Span &S : Reps[R]) {
      std::snprintf(Buf, sizeof(Buf),
                    "\"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": "
                    "%zu, \"tid\": %d",
                    S.StartNs * 1e-3, (S.EndNs - S.StartNs) * 1e-3, R + 1,
                    S.Tid);
      std::string Cat = S.Name.substr(0, S.Name.find('.'));
      OS << (First ? "" : ",\n") << "{\"name\": " << jsonString(S.Name)
         << ", \"cat\": " << jsonString(Cat) << ", " << Buf
         << ", \"args\": {\"parent\": "
         << (S.Parent < 0 ? std::string("null")
                          : jsonString(Reps[R][S.Parent].Name))
         << "}}";
      First = false;
    }
  }
  OS << "\n]}\n";
  return static_cast<bool>(OS);
}

void emit(const char *Kind, unsigned Index, const Rep &R) {
  std::string Errors = "[";
  for (const std::string &E : R.Errors)
    Errors += (Errors.size() > 1 ? ", " : "") + jsonString(E);
  Errors += "]";
  std::printf("{\"rep\": %u, \"kind\": \"%s\", \"attempted\": %llu, "
              "\"failed\": %llu, \"errors\": %s, \"metrics\": %s}\n",
              Index, Kind, (unsigned long long)R.Attempted,
              (unsigned long long)R.Failed, Errors.c_str(),
              jsonMetrics(R.M).c_str());
  std::fflush(stdout);
}

/// The fastest each unit of work ran over a run's profiled repetitions.
/// Every repetition of one seed passes the same checkpoints (set-up steps,
/// executor rounds, report steps) and recovers the same journal, so unit I
/// is the same work in each. Interference from other tenants of the host
/// only ever adds time to a unit, and much of it comes and goes within
/// seconds; the per-unit minima, summed, are the run's estimate of the
/// workload's time on an undisturbed host.
class Fastest {
public:
  /// Folds in one profiled repetition.
  void add(const Rep &R) {
    std::vector<double> Wall, Cpu;
    for (size_t I = 1; I < R.MarkNs.size(); ++I) {
      Wall.push_back(secondsBetween(R.MarkNs[I - 1], R.MarkNs[I]));
      Cpu.push_back(R.MarkCpu[I] - R.MarkCpu[I - 1]);
    }
    if (Setup.empty())
      Setup.assign(R.MarkSetup.begin() + 1, R.MarkSetup.end());
    fold(WallMin, Wall);
    fold(CpuMin, Cpu);
    for (const std::vector<double> &Pass : R.RecoverUnits)
      fold(RecoverMin, Pass);
  }

  /// The run's fastest-unit sums as a JSON object.
  std::string json() const {
    double Total = 0, SetupS = 0, CpuS = 0, RecoverS = 0;
    for (size_t I = 0; I < WallMin.size(); ++I) {
      Total += WallMin[I];
      SetupS += Setup[I] ? WallMin[I] : 0.0;
      CpuS += CpuMin[I];
    }
    for (double S : RecoverMin)
      RecoverS += S;
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"time_to_report_s\": %.9g, \"setup_s\": %.9g, "
                  "\"cpu_s\": %.9g, \"recover_s\": %.9g, \"units\": %zu, "
                  "\"mismatches\": %u}",
                  Total, SetupS, CpuS, RecoverS, WallMin.size(), Mismatches);
    return Buf;
  }

private:
  /// A unit count that differs from the first repetition's means the
  /// repetitions did not do the same work; it counts as a failed check.
  void fold(std::vector<double> &Min, const std::vector<double> &Units) {
    if (Min.empty()) {
      Min = Units;
    } else if (Units.size() != Min.size()) {
      ++Mismatches;
    } else {
      for (size_t I = 0; I < Min.size(); ++I)
        Min[I] = std::min(Min[I], Units[I]);
    }
  }

  std::vector<double> WallMin, CpuMin, RecoverMin;
  std::vector<bool> Setup;
  unsigned Mismatches = 0;
};

int usage() {
  std::fprintf(stderr,
               "usage: djxbench --workload mt_profiled|journal_rounds "
               "--seed <n>\n"
               "                --work-dir <dir> (--seconds <s> --trace 0|1 "
               "--trace-file <file> | --once)\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::map<std::string, std::string> Args;
  bool Once = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--once")
      Once = true;
    else if (I + 1 < Argc)
      Args[A] = Argv[++I];
    else
      return usage();
  }
  std::vector<std::string> Required = {"--workload", "--seed", "--work-dir"};
  if (!Once)
    Required.insert(Required.end(), {"--seconds", "--trace", "--trace-file"});
  if (Args.size() != Required.size())
    return usage();
  for (const std::string &Key : Required)
    if (!Args.count(Key))
      return usage();
  const std::string Workload = Args["--workload"], WorkDir = Args["--work-dir"];
  const uint64_t Seed = std::strtoull(Args["--seed"].c_str(), nullptr, 10);
  const double Seconds = Once ? 0 : std::strtod(Args["--seconds"].c_str(),
                                                nullptr);
  const bool Trace = !Once && Args["--trace"] == "1";
  const std::string TraceFile = Args["--trace-file"];

  if (Workload != "mt_profiled" && Workload != "journal_rounds")
    return usage();
  const ExecShape S = Workload == "mt_profiled" ? mtProfiledShape(Seed)
                                                : journalRoundsShape(Seed);
  const std::string Journal = WorkDir + "/" + Workload + ".djxj";
  auto RunRep = [&](bool Profiled, Tracer &T) {
    Rep R = runExecutorRep(S, Profiled, T, Journal);
    std::remove(Journal.c_str());
    return R;
  };
  std::string Iters, Hot;
  for (unsigned I = 0; I < S.SimThreads; ++I) {
    Iters += (I ? "," : "") + std::to_string(S.ThreadIters[I]);
    Hot += (I ? "," : "") + std::to_string(S.ThreadHotElems[I]);
  }
  std::fprintf(stderr, "djxbench: %s seed %llu: iters [%s] hot_elems [%s]\n",
               Workload.c_str(), (unsigned long long)Seed, Iters.c_str(),
               Hot.c_str());

  // Every timed run measures at least three repetitions (or cycles), so
  // each median has a middle value that a cold first repetition cannot set.
  const unsigned MinCycles = Once ? 1 : 3;
  Tracer Off(false), On(true);
  std::vector<std::vector<Span>> Traced;
  Fastest Units;
  auto Profiled = [&](unsigned I) {
    Rep R = RunRep(true, Off);
    Units.add(R);
    emit("profiled", I, R);
  };
  const int64_t Start = nowNs();
  for (unsigned I = 0;
       I < MinCycles || secondsBetween(Start, nowNs()) < Seconds; ++I) {
    if (!Trace) {
      Profiled(I);
      continue;
    }
    // A cycle's three repetitions rotate their order so that no kind
    // always runs first, after the previous cycle, or last.
    for (unsigned K = 0; K < 3; ++K) {
      switch ((I + K) % 3) {
      case 0:
        Profiled(I);
        break;
      case 1: {
        const int64_t W0 = nowNs();
        Rep R = RunRep(true, On);
        R.M["trace.wall_s"] = secondsBetween(W0, nowNs());
        addSelfTimes(R.M, R.Spans);
        Traced.push_back(std::move(R.Spans));
        emit("traced", I, R);
        break;
      }
      default:
        emit("native", I, RunRep(false, Off));
      }
    }
  }
  if (Trace) {
    if (!writeChromeTrace(TraceFile, Traced)) {
      std::fprintf(stderr, "djxbench: cannot write %s\n", TraceFile.c_str());
      return 1;
    }
    std::fprintf(stderr, "djxbench: wrote %s\n", TraceFile.c_str());
  }
  rusage Ru{};
  getrusage(RUSAGE_SELF, &Ru);
  std::printf("{\"process\": {\"peak_rss_mib\": %.6f, \"jobs\": %u, "
              "\"fastest\": %s}}\n",
              Ru.ru_maxrss / 1024.0, S.Jobs, Units.json().c_str());
  return 0;
}
