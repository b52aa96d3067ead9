//===- Bench.h - Shared benchmark machinery --------------------*- C++ -*-===//
//
// Part of the CBSVM benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload shares: the run options and result, the
/// round-based timing loop, the in-memory span log of a traced run, and
/// the wrappers that time the program's public extension interfaces
/// (vm::VMClient, opt::InlineOracle, fuzz::Oracle, tel::TraceSink)
/// without touching its internals.
///
/// A workload is a closed loop with one client: it repeats one *round*
/// (a fixed amount of work, a pure function of the seed) until the run's
/// time budget is spent. Every round computes the same virtual results,
/// so the virtual-cycle metrics are exact functions of the seed while
/// the host-time metrics are medians over rounds and ops.
///
//===----------------------------------------------------------------------===//

#ifndef CBSBENCH_BENCH_H
#define CBSBENCH_BENCH_H

#include "aos/AdaptiveSystem.h"
#include "fuzz/Oracle.h"
#include "opt/InlineOracle.h"
#include "telemetry/TraceSink.h"
#include "vm/VirtualMachine.h"

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace cbsbench {

namespace aos = cbs::aos;
namespace bc = cbs::bc;
namespace fuzz = cbs::fuzz;
namespace opt = cbs::opt;
namespace prof = cbs::prof;
namespace tel = cbs::tel;
namespace vm = cbs::vm;

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

struct RunOptions {
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Scratch directory inside the checkout (profile repositories).
  std::string WorkDir;
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

struct RunResult {
  /// False when an invariant of the run itself broke (rounds that should
  /// repeat exactly did not, or the traced run's virtual results differ
  /// from the untraced run's). Failed ops are counted in Failed.
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Human-readable lines printed before the JSON result.
  std::vector<std::string> Notes;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void note(std::string Line) { Notes.push_back(std::move(Line)); }
  /// Records a broken run invariant.
  void broken(const std::string &Why);
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

double median(std::vector<double> V);
/// Linear-interpolated quantile, Q in [0, 1].
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);
/// Peak resident set of this process so far, in MiB.
double peakRssMiB();
/// Appends op_p50_ms, and a human note with the tail percentile when
/// there are at least 40 ops (the highest percentile with ten samples
/// beyond it).
void addOpLatency(RunResult &R, const std::vector<double> &OpSeconds);

/// One set-up is too short to time alone, and the host's speed drifts
/// over seconds. So a run times its own set-up and then SetupsPerRound
/// set-ups of fresh workload objects after every round, in the untimed
/// check phase; setup_s is the median of them all.
constexpr unsigned SetupsPerRound = 3;
/// Wall time of \p Fn in seconds.
double timeIt(const std::function<void()> &Fn);
/// Appends the host-time end-to-end metrics every workload shares:
/// setup_s, wall_s (median round), op_p50_ms, sim_mcycles_per_s and
/// peak_rss_mb.
void addHostMetrics(RunResult &R, double SetupS,
                    const std::vector<double> &Walls,
                    const std::vector<double> &OpSeconds,
                    double SimMcyclesPerS, double PeakRss);
/// Virtual cycles simulated per host second over the timed rounds, with
/// \p CyclesPerRound cycles in each.
double mcyclesPerSecond(double CyclesPerRound,
                        const std::vector<double> &Walls);

/// Repeats \p Round until its rounds have taken \p Seconds, starting a
/// round only when the median round so far still fits (at least
/// \p MinRounds rounds). \p Check runs after each round, untimed and
/// outside the budget: the check phase, which also frees the round's
/// records so memory does not grow with the run. Returns each round's
/// wall time in seconds.
std::vector<double> timedRounds(double Seconds, unsigned MinRounds,
                                const std::function<void(unsigned)> &Round,
                                const std::function<void(unsigned)> &Check);
/// Whether round \p I of a traced run is traced: rounds go untraced,
/// traced, traced, untraced, ... so that a steady drift in host speed
/// falls on both kinds alike.
inline bool tracedRound(unsigned I) { return I % 4 == 1 || I % 4 == 2; }
/// The traced run's schedule: rounds in tracedRound order until
/// \p Seconds are spent, in whole untraced/traced pairs. Callbacks as for
/// timedRounds. Returns the untraced and the traced rounds' wall times.
std::pair<std::vector<double>, std::vector<double>>
pairedRounds(double Seconds, const std::function<void(unsigned)> &Round,
             const std::function<void(unsigned)> &Check);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory span log. Spans nest strictly (one client thread); each
/// records its layer, monotonic start/end and its parent, and nothing is
/// aggregated or written until the run ends.
class SpanLog {
public:
  SpanLog();

  size_t begin(const char *Layer);
  void end(size_t Index);

  /// Per layer: total time minus the time covered by child spans, in ns.
  std::map<std::string, double> selfNs() const;
  /// Per layer: number of spans.
  std::map<std::string, uint64_t> counts() const;
  /// Sum of the durations of the outermost spans, in ns.
  double rootNs() const;

private:
  struct Span {
    const char *Layer;
    int64_t Begin;
    int64_t End;
    int64_t Parent;
  };
  int64_t now() const;

  Clock::time_point Epoch;
  std::vector<Span> Spans;
  std::vector<size_t> Stack;
};

/// RAII span; a no-op when the log is null (untraced runs).
class ScopedSpan {
public:
  ScopedSpan(SpanLog *Log, const char *Layer)
      : Log(Log), Index(Log ? Log->begin(Layer) : 0) {}
  ~ScopedSpan() {
    if (Log)
      Log->end(Index);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog *Log;
  size_t Index;
};

/// Times each hook of an adaptive system (aos.startup / aos.tick /
/// aos.yieldpoint) and forwards it unchanged.
class TimedClient : public vm::VMClient {
public:
  TimedClient(vm::VMClient &Inner, SpanLog &Log) : Inner(Inner), Log(Log) {}

  void onStartup(vm::VirtualMachine &VM) override;
  void onTimerTick(vm::VirtualMachine &VM, bc::MethodId Top) override;
  void onYieldpoint(vm::VirtualMachine &VM) override;

private:
  vm::VMClient &Inner;
  SpanLog &Log;
};

/// Times InlineOracle::plan (opt.plan) and counts the plans built.
class TimedInlineOracle : public opt::InlineOracle {
public:
  TimedInlineOracle(const opt::InlineOracle &Inner, SpanLog &Log)
      : Inner(Inner), Log(Log) {}

  opt::InlinePlan plan(const bc::Program &P,
                       const prof::DCGSnapshot &DCG) const override;
  const char *name() const override { return Inner.name(); }
  uint64_t plans() const { return Plans; }

private:
  const opt::InlineOracle &Inner;
  SpanLog &Log;
  mutable uint64_t Plans = 0;
};

/// Times fuzz::Oracle::check. The first check of a seed is the
/// campaign's (span fuzz.oracle.<id>); further checks of the same seed
/// come from the reducer (span fuzz.reduce).
class TimedFuzzOracle : public fuzz::Oracle {
public:
  TimedFuzzOracle(const fuzz::Oracle &Inner, SpanLog &Log);

  const char *id() const override { return Inner.id(); }
  const char *describe() const override { return Inner.describe(); }
  std::string check(const fuzz::OracleInput &In) const override;

private:
  const fuzz::Oracle &Inner;
  SpanLog &Log;
  std::string Layer;
  mutable bool Seen = false;
  mutable uint64_t LastSeed = 0;
};

/// Counts trace events by kind; keeps nothing else.
class CountingSink : public tel::TraceSink {
public:
  void event(const tel::TraceEvent &E) override {
    ++PerKind[static_cast<size_t>(E.Kind)];
  }
  uint64_t count(tel::EventKind K) const {
    return PerKind[static_cast<size_t>(K)];
  }

private:
  std::array<uint64_t, tel::NumEventKinds> PerKind{};
};

/// Reads a counter or gauge from a VM's registry (0 when absent).
uint64_t metricValue(const tel::MetricRegistry &R, const std::string &Name);

/// The per-layer metric names every workload reports with --trace 1 (a
/// layer a workload does not exercise reads 0 there), with their units.
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/// The per-layer metrics every workload shares: workloads.build_ms and
/// bytecode.verify_ms per set-up from the \p Setups set-ups in
/// \p SetupLog, trace.overhead_pct
/// from the untraced and traced round walls, and trace.coverage_pct,
/// the share of the traced rounds' wall time that \p CoveredNs of layer
/// spans account for.
void addSharedLayers(std::map<std::string, double> &L, const SpanLog &SetupLog,
                     size_t Setups, const std::vector<double> &Walls,
                     const std::vector<double> &TracedWalls, double CoveredNs);

/// Fills every per-layer metric from \p Values in the canonical order;
/// absent names read 0.
void addPerLayer(RunResult &R, const std::map<std::string, double> &Values);

/// Exact per-round virtual results: every round of a run, traced or
/// not, must reproduce them.
using VirtualTotals = std::map<std::string, uint64_t>;

/// Compares \p Got with \p Want; on a difference records a broken
/// invariant naming the first differing key.
void expectSameTotals(RunResult &R, const char *What, const VirtualTotals &Want,
                      const VirtualTotals &Got);

} // namespace cbsbench

#endif // CBSBENCH_BENCH_H
