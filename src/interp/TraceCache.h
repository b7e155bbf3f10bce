//===- TraceCache.h - Per-interpreter hot-trace cache -----------*- C++ -*-===//
//
// Part of the DJXPerf reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hot-region detection and compiled-trace storage for one interpreter
/// (one simulated thread — no sharing, no locks). Every flat dispatch in
/// the super tier bumps the (method, pc) site counter; at the hot
/// threshold the site compiles via compileTrace(), always with the
/// method's cached type-state analysis (the proofs for the
/// analysis-proven forms), or is marked dead.
/// Safepoints invalidate compiled traces (mirroring a JVM deopting
/// compiled frames at a safepoint) but keep the counters saturated, so a
/// hot site recompiles on its next flat visit.
///
//===----------------------------------------------------------------------===//

#ifndef DJX_INTERP_TRACECACHE_H
#define DJX_INTERP_TRACECACHE_H

#include "analysis/MethodAnalysis.h"
#include "bytecode/TraceCompiler.h"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace djx {

class BytecodeProgram;

/// Aggregate tier activity, for tests and the --dump-traces listing.
struct TraceCacheStats {
  uint64_t Compiles = 0;      ///< Successful compiles (recompiles included).
  uint64_t DeadSites = 0;     ///< Entry pcs compileTrace() rejected.
  uint64_t Invalidations = 0; ///< Safepoint invalidation sweeps.
};

/// One interpreter's trace store: a flat Site array per method, indexed
/// by entry pc (O(1) on the dispatch hot path).
class TraceCache {
public:
  struct Site {
    enum State : uint8_t { Cold, Compiled, Dead };
    State St = Cold;
    uint32_t Count = 0;
    std::unique_ptr<CompiledTrace> Trace;
  };

  /// \p P (the linked program) resolves Invoke callees for the
  /// analysis every compile consults; null still compiles, with the
  /// analysis running calleeless (Incomplete).
  explicit TraceCache(const TierConfig &Cfg,
                      const BytecodeProgram *P = nullptr)
      : Cfg(Cfg), Program(P) {}

  /// The site array for \p MethodIndex, created on first touch with
  /// \p CodeSize entries. The returned pointer stays valid across later
  /// sitesFor() calls and invalidate() (sites mutate in place).
  Site *sitesFor(size_t MethodIndex, size_t CodeSize) {
    if (MethodIndex >= Methods.size())
      Methods.resize(MethodIndex + 1);
    std::vector<Site> &Sites = Methods[MethodIndex];
    if (Sites.empty())
      Sites.resize(CodeSize);
    return Sites.data();
  }

  /// Cold-site counter bump on one flat dispatch; compiles at the
  /// threshold. Returns the fresh trace when this visit crossed it
  /// (null otherwise — still warming, or the site went dead).
  const CompiledTrace *bump(Site &S, const BytecodeMethod &M, uint32_t Pc);

  /// Safepoint invalidation: frees every compiled trace but leaves the
  /// counters saturated, so hot sites recompile on their next visit.
  void invalidate();

  const TierConfig &config() const { return Cfg; }
  const TraceCacheStats &stats() const { return St; }

  /// The hotness counter at (method, pc); 0 when never visited.
  uint32_t siteCount(size_t MethodIndex, uint32_t Pc) const;

  /// Renders every live compiled trace (--dump-traces).
  std::string renderAll(const BytecodeProgram &P) const;

private:
  /// The cached analysis bundle for \p M, built on first demand. Keyed
  /// by method identity: method bodies are immutable once execution
  /// starts (instrumentation rewrites happen before the first step).
  const MethodAnalysis *analysisFor(const BytecodeMethod &M);

  TierConfig Cfg;
  const BytecodeProgram *Program = nullptr;
  std::vector<std::vector<Site>> Methods;
  std::unordered_map<const BytecodeMethod *, std::unique_ptr<MethodAnalysis>>
      Analyses;
  TraceCacheStats St;
};

} // namespace djx

#endif // DJX_INTERP_TRACECACHE_H
