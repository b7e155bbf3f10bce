//===- mtscale.cpp - Multithreaded executor scaling benchmark --------------===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock scaling of the parallel profiling runtime: the same
/// 4-simulated-thread workload (identical logical schedule, byte-identical
/// results) is driven with 1, 2, and 4 host workers, and the benchmark
/// reports aggregate interpreter steps per second plus speedup versus
/// --jobs 1, where the calling thread is the only worker. Results are written to BENCH_mtscale.json so CI
/// can archive the trajectory next to BENCH_simspeed.json. Speedups only
/// carry meaning on hosts with at least as many cores as workers — on a
/// single-core container every jobs value collapses to ~1x.
///
/// A second section measures round-barrier cost directly: the same
/// workload at QuantumSteps 1k/16k/64k, jobs=1 vs jobs=4. Shrinking the
/// quantum multiplies the number of round transitions (64x between the
/// extremes), so the barrier's per-round overhead dominates the jobs=4
/// column at 1k — visible even on few-core hosts, where no parallel
/// speedup can mask it. This is the metric the ticket-based barrier
/// elision moves.
///
/// Usage: bench_mtscale [--quick] [--out PATH]
///
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "workloads/Parallel.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

using namespace djx;

namespace {

using Clock = std::chrono::steady_clock;

struct ScalePoint {
  unsigned Jobs = 1;
  double StepsPerSec = 0;
  double Seconds = 0;
  uint64_t Steps = 0;
  uint64_t Safepoints = 0;
  uint64_t Rounds = 0;
};

ScalePoint measure(unsigned Jobs, int Reps, const ParallelConfig &Base) {
  ScalePoint Best;
  Best.Jobs = Jobs;
  for (int R = 0; R < Reps; ++R) {
    ParallelConfig Pc = Base;
    Pc.Jobs = Jobs;
    JavaVm Vm(parallelVmConfig(Pc));
    Clock::time_point Start = Clock::now();
    ParallelOutcome Out = runParallelWorkload(Vm, nullptr, Pc);
    double Seconds =
        std::chrono::duration<double>(Clock::now() - Start).count();
    double PerSec =
        Seconds > 0 ? static_cast<double>(Out.Steps) / Seconds : 0;
    if (PerSec > Best.StepsPerSec) {
      Best.StepsPerSec = PerSec;
      Best.Seconds = Seconds;
      Best.Steps = Out.Steps;
      Best.Safepoints = Out.Safepoints;
      Best.Rounds = Out.Rounds;
    }
  }
  return Best;
}

/// One barrier-cost cell: the scaling workload at a given QuantumSteps
/// and jobs value. Small quanta mean many rounds; the jobs>1 steps/s
/// deficit against jobs=1 at the same quantum is (almost entirely) the
/// per-round transition cost.
struct BarrierPoint {
  uint64_t QuantumSteps = 0;
  ScalePoint J1;
  ScalePoint J4;
};

} // namespace

int main(int Argc, char **Argv) {
  bool Quick = false;
  std::string OutPath = "BENCH_mtscale.json";
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

  ParallelConfig Base;
  Base.SimThreads = 4;
  Base.Iters = Quick ? 400 : 1600;
  Base.Nlen = 256;
  Base.HotElems = 16384;
  Base.HeapBytesPerThread = 512 << 10; // Churn forces safepoint GCs.
  const int Reps = Quick ? 2 : 3;

  std::printf("=== mtscale: executor scaling, %u simulated threads "
              "(host cores: %u) ===\n",
              Base.SimThreads, std::thread::hardware_concurrency());

  const unsigned JobValues[] = {1, 2, 4};
  ScalePoint Points[3];
  for (int I = 0; I < 3; ++I) {
    Points[I] = measure(JobValues[I], Reps, Base);
    std::printf("jobs=%u: %12.0f steps/s   (%llu steps, %llu safepoints, "
                "%.3f s)\n",
                Points[I].Jobs, Points[I].StepsPerSec,
                static_cast<unsigned long long>(Points[I].Steps),
                static_cast<unsigned long long>(Points[I].Safepoints),
                Points[I].Seconds);
  }
  double Base1 = Points[0].StepsPerSec;
  std::printf("speedup vs jobs=1: x%.2f (jobs=2), x%.2f (jobs=4)\n",
              Base1 > 0 ? Points[1].StepsPerSec / Base1 : 0,
              Base1 > 0 ? Points[2].StepsPerSec / Base1 : 0);

  // Barrier-cost microbench: same workload, shrinking quanta. A lighter
  // churn (larger heap, fewer iterations) keeps safepoints out of the
  // picture so the numbers isolate the round transition itself.
  std::printf("--- barrier cost: steps/s at shrinking QuantumSteps ---\n");
  ParallelConfig Bb = Base;
  Bb.Iters = Quick ? 200 : 800;
  Bb.HeapBytesPerThread = 4ULL << 20; // Roomy shards: no safepoint GCs.
  const uint64_t Quanta[] = {1024, 16384, 65536};
  BarrierPoint Barrier[3];
  for (int I = 0; I < 3; ++I) {
    Bb.QuantumSteps = Quanta[I];
    Barrier[I].QuantumSteps = Quanta[I];
    Barrier[I].J1 = measure(1, Reps, Bb);
    Barrier[I].J4 = measure(4, Reps, Bb);
    double Ratio = Barrier[I].J1.StepsPerSec > 0
                       ? Barrier[I].J4.StepsPerSec /
                             Barrier[I].J1.StepsPerSec
                       : 0;
    std::printf("quantum=%6llu: jobs1 %12.0f  jobs4 %12.0f steps/s "
                "(x%.2f, %llu rounds)\n",
                static_cast<unsigned long long>(Quanta[I]),
                Barrier[I].J1.StepsPerSec, Barrier[I].J4.StepsPerSec, Ratio,
                static_cast<unsigned long long>(Barrier[I].J4.Rounds));
  }

  std::FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot write %s\n", OutPath.c_str());
    return 1;
  }
  std::fprintf(Out,
               "{\n  \"bench\": \"mtscale\",\n  \"quick\": %s,\n"
               "  \"sim_threads\": %u,\n  \"host_cores\": %u,\n"
               "  \"steps_per_sec\": {\n",
               Quick ? "true" : "false", Base.SimThreads,
               std::thread::hardware_concurrency());
  for (int I = 0; I < 3; ++I)
    std::fprintf(Out,
                 "    \"jobs%u\": { \"per_sec\": %.0f, \"steps\": %llu, "
                 "\"safepoints\": %llu, \"seconds\": %.6f }%s\n",
                 Points[I].Jobs, Points[I].StepsPerSec,
                 static_cast<unsigned long long>(Points[I].Steps),
                 static_cast<unsigned long long>(Points[I].Safepoints),
                 Points[I].Seconds, I == 2 ? "" : ",");
  std::fprintf(Out,
               "  },\n  \"speedup_vs_jobs1\": {\n"
               "    \"jobs2\": %.2f,\n    \"jobs4\": %.2f\n  },\n",
               Base1 > 0 ? Points[1].StepsPerSec / Base1 : 0,
               Base1 > 0 ? Points[2].StepsPerSec / Base1 : 0);
  std::fprintf(Out, "  \"barrier_cost\": {\n");
  for (int I = 0; I < 3; ++I)
    std::fprintf(
        Out,
        "    \"quantum%llu\": { \"jobs1_per_sec\": %.0f, "
        "\"jobs4_per_sec\": %.0f, \"jobs4_vs_jobs1\": %.2f, "
        "\"rounds\": %llu }%s\n",
        static_cast<unsigned long long>(Barrier[I].QuantumSteps),
        Barrier[I].J1.StepsPerSec, Barrier[I].J4.StepsPerSec,
        Barrier[I].J1.StepsPerSec > 0
            ? Barrier[I].J4.StepsPerSec / Barrier[I].J1.StepsPerSec
            : 0,
        static_cast<unsigned long long>(Barrier[I].J4.Rounds),
        I == 2 ? "" : ",");
  std::fprintf(Out, "  }\n}\n");
  std::fclose(Out);
  std::printf("wrote %s\n", OutPath.c_str());
  return 0;
}
