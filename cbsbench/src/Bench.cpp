//===- Bench.cpp - Shared benchmark machinery ----------------------------===//
//
// Part of the CBSVM benchmark.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

using namespace cbs;
using namespace cbsbench;

void RunResult::broken(const std::string &Why) {
  Correct = false;
  note("INVARIANT BROKEN: " + Why);
}

double cbsbench::median(std::vector<double> V) { return quantile(V, 0.5); }

double cbsbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double cbsbench::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

double cbsbench::peakRssMiB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void cbsbench::addOpLatency(RunResult &R,
                            const std::vector<double> &OpSeconds) {
  std::vector<double> Ms;
  Ms.reserve(OpSeconds.size());
  for (double S : OpSeconds)
    Ms.push_back(S * 1e3);
  R.add("op_p50_ms", median(Ms), "ms");
  char Line[160];
  if (Ms.size() >= 40) {
    // The highest percentile with at least ten ops beyond it.
    double Q = 1.0 - 10.0 / static_cast<double>(Ms.size());
    std::snprintf(Line, sizeof(Line),
                  "ops: %zu, p50 %.3f ms, p%.1f %.3f ms, max %.3f ms",
                  Ms.size(), median(Ms), 100 * Q, quantile(Ms, Q),
                  *std::max_element(Ms.begin(), Ms.end()));
  } else {
    std::snprintf(Line, sizeof(Line),
                  "ops: %zu, p50 %.3f ms (fewer than 40 ops: no tail)",
                  Ms.size(), median(Ms));
  }
  R.note(Line);
}

double cbsbench::timeIt(const std::function<void()> &Fn) {
  Clock::time_point T0 = Clock::now();
  Fn();
  return secondsSince(T0);
}

void cbsbench::addHostMetrics(RunResult &R, double SetupS,
                              const std::vector<double> &Walls,
                              const std::vector<double> &OpSeconds,
                              double SimMcyclesPerS, double PeakRss) {
  R.add("setup_s", SetupS, "s");
  R.add("wall_s", median(Walls), "s");
  std::string Rounds = "round walls (s):";
  for (double W : Walls) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), " %.3f", W);
    Rounds += Buf;
  }
  R.note(Rounds);
  addOpLatency(R, OpSeconds);
  R.add("sim_mcycles_per_s", SimMcyclesPerS, "Mcycles/s");
  R.add("peak_rss_mb", PeakRss, "MiB");
}

double cbsbench::mcyclesPerSecond(double CyclesPerRound,
                                  const std::vector<double> &Walls) {
  return CyclesPerRound * static_cast<double>(Walls.size()) /
         std::accumulate(Walls.begin(), Walls.end(), 0.0) / 1e6;
}

std::vector<double>
cbsbench::timedRounds(double Seconds, unsigned MinRounds,
                      const std::function<void(unsigned)> &Round,
                      const std::function<void(unsigned)> &Check) {
  std::vector<double> Walls;
  double Spent = 0;
  while (Walls.size() < MinRounds || Spent + median(Walls) <= Seconds) {
    Clock::time_point T0 = Clock::now();
    Round(static_cast<unsigned>(Walls.size()));
    Walls.push_back(secondsSince(T0));
    Spent += Walls.back();
    Check(static_cast<unsigned>(Walls.size() - 1));
  }
  return Walls;
}

std::pair<std::vector<double>, std::vector<double>>
cbsbench::pairedRounds(double Seconds,
                       const std::function<void(unsigned)> &Round,
                       const std::function<void(unsigned)> &Check) {
  std::vector<double> Walls[2];
  double Spent = 0;
  for (unsigned I = 0;; ++I) {
    if (I % 2 == 0 && I >= 2 &&
        Spent + median(Walls[0]) + median(Walls[1]) > Seconds)
      break;
    Clock::time_point T0 = Clock::now();
    Round(I);
    Walls[tracedRound(I)].push_back(secondsSince(T0));
    Spent += Walls[tracedRound(I)].back();
    Check(I);
  }
  return {Walls[0], Walls[1]};
}

//===----------------------------------------------------------------------===//
// SpanLog
//===----------------------------------------------------------------------===//

SpanLog::SpanLog() : Epoch(Clock::now()) { Spans.reserve(1 << 16); }

int64_t SpanLog::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

size_t SpanLog::begin(const char *Layer) {
  int64_t Parent = Stack.empty() ? -1 : static_cast<int64_t>(Stack.back());
  Spans.push_back({Layer, now(), -1, Parent});
  Stack.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void SpanLog::end(size_t Index) {
  Spans[Index].End = now();
  // Spans close in LIFO order; an out-of-order close is a benchmark bug.
  if (Stack.empty() || Stack.back() != Index) {
    std::fprintf(stderr, "cbsbench: span '%s' closed out of order\n",
                 Spans[Index].Layer);
    std::abort();
  }
  Stack.pop_back();
}

std::map<std::string, double> SpanLog::selfNs() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I)
    Self[I] = static_cast<double>(Spans[I].End - Spans[I].Begin);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[static_cast<size_t>(S.Parent)] -=
          static_cast<double>(S.End - S.Begin);
  std::map<std::string, double> ByLayer;
  for (size_t I = 0; I != Spans.size(); ++I)
    ByLayer[Spans[I].Layer] += Self[I];
  return ByLayer;
}

std::map<std::string, uint64_t> SpanLog::counts() const {
  std::map<std::string, uint64_t> ByLayer;
  for (const Span &S : Spans)
    ++ByLayer[S.Layer];
  return ByLayer;
}

double SpanLog::rootNs() const {
  double Sum = 0;
  for (const Span &S : Spans)
    if (S.Parent < 0)
      Sum += static_cast<double>(S.End - S.Begin);
  return Sum;
}

//===----------------------------------------------------------------------===//
// Wrappers
//===----------------------------------------------------------------------===//

void TimedClient::onStartup(vm::VirtualMachine &VM) {
  ScopedSpan S(&Log, "aos.startup");
  Inner.onStartup(VM);
}

void TimedClient::onTimerTick(vm::VirtualMachine &VM, bc::MethodId Top) {
  ScopedSpan S(&Log, "aos.tick");
  Inner.onTimerTick(VM, Top);
}

void TimedClient::onYieldpoint(vm::VirtualMachine &VM) {
  ScopedSpan S(&Log, "aos.yieldpoint");
  Inner.onYieldpoint(VM);
}

opt::InlinePlan TimedInlineOracle::plan(const bc::Program &P,
                                        const prof::DCGSnapshot &DCG) const {
  ScopedSpan S(&Log, "opt.plan");
  ++Plans;
  return Inner.plan(P, DCG);
}

TimedFuzzOracle::TimedFuzzOracle(const fuzz::Oracle &Inner, SpanLog &Log)
    : Inner(Inner), Log(Log), Layer(std::string("fuzz.oracle.") + Inner.id()) {}

std::string TimedFuzzOracle::check(const fuzz::OracleInput &In) const {
  bool Reducing = Seen && In.Seed == LastSeed;
  Seen = true;
  LastSeed = In.Seed;
  ScopedSpan S(&Log, Reducing ? "fuzz.reduce" : Layer.c_str());
  return Inner.check(In);
}

uint64_t cbsbench::metricValue(const tel::MetricRegistry &R,
                               const std::string &Name) {
  if (const tel::Counter *C = R.findCounter(Name))
    return C->Value;
  if (const tel::Gauge *G = R.findGauge(Name))
    return G->Value;
  return 0;
}

const std::vector<std::pair<std::string, std::string>> &
cbsbench::perLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> Names = {
      {"workloads.build_ms", "ms"},
      {"bytecode.verify_ms", "ms"},
      {"vm.run_self_ms", "ms"},
      {"vm.host_ns_per_kcycle", "ns/kcycle"},
      {"vm.construct_us", "us"},
      {"vm.instructions", "count"},
      {"vm.calls_executed", "count"},
      {"vm.timer_ticks", "count"},
      {"vm.yieldpoints_taken", "count"},
      {"vm.osr_entries", "count"},
      {"vm.deopts", "count"},
      {"profiling.snapshot_us", "us"},
      {"profiling.overlap_us", "us"},
      {"profiling.host_overhead_pct", "%"},
      {"profiling.samples", "count"},
      {"profiling.flushes", "count"},
      {"profiling.dropped", "count"},
      {"profiling.codec_encode_us", "us"},
      {"profiling.codec_decode_us", "us"},
      {"profiling.repo_load_us", "us"},
      {"profiling.repo_commit_us", "us"},
      {"opt.plan_ms", "ms"},
      {"opt.plans", "count"},
      {"aos.startup_ms", "ms"},
      {"aos.tick_ms", "ms"},
      {"aos.yieldpoint_ms", "ms"},
      {"aos.enqueued", "count"},
      {"aos.installs", "count"},
      {"aos.stale_drops", "count"},
      {"aos.coalesced", "count"},
      {"aos.warm_installs", "count"},
      {"aos.deopts", "count"},
      {"aos.recompiles", "count"},
      {"aos.install_ratio", "ratio"},
      {"fuzz.oracle.output-stability_ms", "ms"},
      {"fuzz.oracle.cbs-subset_ms", "ms"},
      {"fuzz.oracle.profile-roundtrip_ms", "ms"},
      {"fuzz.oracle.shard-determinism_ms", "ms"},
      {"fuzz.oracle.async-compile-stability_ms", "ms"},
      {"fuzz.oracle.deopt-storm-stability_ms", "ms"},
      {"fuzz.oracle.osr-stability_ms", "ms"},
      {"fuzz.oracle.warm-start-stability_ms", "ms"},
      {"fuzz.campaign_self_ms", "ms"},
      {"fuzz.reduce_ms", "ms"},
      {"fuzz.reduce_checks", "count"},
      {"fuzz.checks", "count"},
      {"telemetry.events.compile_enqueue", "count"},
      {"telemetry.events.compile_install", "count"},
      {"telemetry.events.deopt", "count"},
      {"telemetry.events.osr", "count"},
      {"telemetry.events.phase_shift", "count"},
      {"trace.overhead_pct", "%"},
      {"trace.coverage_pct", "%"},
  };
  return Names;
}

void cbsbench::addSharedLayers(std::map<std::string, double> &L,
                               const SpanLog &SetupLog, size_t Setups,
                               const std::vector<double> &Walls,
                               const std::vector<double> &TracedWalls,
                               double CoveredNs) {
  std::map<std::string, double> Setup = SetupLog.selfNs();
  double N = static_cast<double>(Setups);
  L["workloads.build_ms"] = Setup["workloads.build"] / N / 1e6;
  L["bytecode.verify_ms"] = Setup["bytecode.verify"] / N / 1e6;
  L["trace.overhead_pct"] =
      100.0 * (median(TracedWalls) / median(Walls) - 1.0);
  L["trace.coverage_pct"] =
      100.0 * CoveredNs / 1e9 /
      std::accumulate(TracedWalls.begin(), TracedWalls.end(), 0.0);
}

void cbsbench::addPerLayer(RunResult &R,
                           const std::map<std::string, double> &Values) {
  for (const auto &[Name, Unit] : perLayerMetrics()) {
    auto It = Values.find(Name);
    R.add(Name, It == Values.end() ? 0.0 : It->second, Unit);
  }
  for (const auto &[Name, Value] : Values) {
    bool Known = false;
    for (const auto &[KnownName, Unit] : perLayerMetrics())
      Known |= KnownName == Name;
    if (!Known)
      R.broken("per-layer metric '" + Name + "' is not in the metric list");
  }
}

void cbsbench::expectSameTotals(RunResult &R, const char *What,
                                const VirtualTotals &Want,
                                const VirtualTotals &Got) {
  if (Want == Got)
    return;
  for (const auto &[Key, Value] : Want) {
    auto It = Got.find(Key);
    uint64_t G = It == Got.end() ? 0 : It->second;
    if (G != Value) {
      R.broken(std::string(What) + ": " + Key + " is " + std::to_string(G) +
               ", expected " + std::to_string(Value));
      return;
    }
  }
  R.broken(std::string(What) + ": extra keys in virtual totals");
}
