//===- AccuracySweep.cpp - The accuracy-sweep workload -------------------===//
//
// Part of the CBSVM benchmark.
//
//===----------------------------------------------------------------------===//
//
// Table 2/3-style scoring of the 13 Table 1 programs at small input. One
// op is one (program, seed): a free exhaustive ground-truth run per
// personality, then one run per fixed profiler configuration, each
// scored with prof::accuracy against its personality's exhaustive
// profile. No adaptive system and no inliner run here, so a change to
// either must leave this workload unchanged.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workloads.h"

#include "bytecode/Verifier.h"
#include "experiments/Experiments.h"
#include "profiling/OverlapMetric.h"
#include "profiling/ProfilerRegistry.h"
#include "workloads/Workloads.h"

#include <cmath>
#include <memory>
#include <optional>
#include <tuple>

using namespace cbs;
using namespace cbsbench;

namespace {

/// Seeds per program in one round; round seed I is Opts.Seed + I * SeedStride.
constexpr unsigned SeedsPerRound = 2;
constexpr uint64_t SeedStride = 1'000'003;

struct ConfigSpec {
  const char *Label;
  vm::Personality Pers;
  const char *Profiler;
  uint32_t Stride;
  uint32_t Samples;
};

/// Every sampling profiler on both personalities: Jikes RVM's timer
/// base, the code-patching base, and CBS from the degenerate (1,1) to
/// the chosen knees and the large-window extremes.
const ConfigSpec Configs[] = {
    {"jikes timer", vm::Personality::JikesRVM, "timer", 0, 0},
    {"jikes patching", vm::Personality::JikesRVM, "patching", 0, 0},
    {"jikes cbs(1,1)", vm::Personality::JikesRVM, "cbs", 1, 1},
    {"jikes cbs(3,16)", vm::Personality::JikesRVM, "cbs", 3, 16},
    {"jikes cbs(3,32)", vm::Personality::JikesRVM, "cbs", 3, 32},
    {"jikes cbs(1,8192)", vm::Personality::JikesRVM, "cbs", 1, 8192},
    {"j9 cbs(7,16)", vm::Personality::J9, "cbs", 7, 16},
    {"j9 cbs(1,4096)", vm::Personality::J9, "cbs", 1, 4096},
};
constexpr size_t NumConfigs = sizeof(Configs) / sizeof(Configs[0]);
const vm::Personality Personalities[] = {vm::Personality::JikesRVM,
                                         vm::Personality::J9};

size_t persIndex(vm::Personality P) {
  return P == vm::Personality::JikesRVM ? 0 : 1;
}

struct Input {
  std::string Name;
  bool Multithreaded = false;
  uint64_t Seed = 0;
  bc::Program P;
};

struct VMRun {
  vm::RunState State = vm::RunState::Running;
  std::vector<int64_t> Output;
  prof::DCGSnapshot Profile;
  uint64_t Cycles = 0;
  double HostNs = 0; ///< host time of VirtualMachine::run
};

struct OpRecord {
  size_t Input = 0;
  double Seconds = 0;
  VMRun Perfect[2];
  uint64_t PerfectCalls[2] = {0, 0};
  VMRun Cells[NumConfigs];
  double Accuracy[NumConfigs] = {};
  /// Traced rounds: host time of ProfilerKind::None runs, per personality.
  double NoneNs[2] = {0, 0};
};

class AccuracySweep {
public:
  explicit AccuracySweep(const RunOptions &Opts) : Opts(Opts) {}
  RunResult run();

private:
  void setup(SpanLog *Log);
  VirtualTotals round(SpanLog *Log, std::vector<OpRecord> &Ops);
  VMRun runOne(const bc::Program &P, vm::VMConfig Config, SpanLog *Log,
               VirtualTotals &T, uint64_t *Calls = nullptr);
  uint64_t check(RunResult &R, const std::vector<OpRecord> &Ops);

  const RunOptions &Opts;
  std::vector<Input> Inputs;
  std::string VerifyError;
  /// Seconds the last round spent on host-overhead baselines.
  double BaselineSeconds = 0;
};

void AccuracySweep::setup(SpanLog *Log) {
  for (unsigned S = 0; S != SeedsPerRound; ++S)
    for (const wl::WorkloadInfo &W : wl::suite()) {
      Input In;
      In.Name = W.Name;
      In.Multithreaded = W.Multithreaded;
      In.Seed = Opts.Seed + S * SeedStride;
      {
        ScopedSpan Span(Log, "workloads.build");
        In.P = W.Build(wl::InputSize::Small, In.Seed);
      }
      {
        ScopedSpan Span(Log, "bytecode.verify");
        if (bc::VerifyResult VR = bc::verifyProgram(In.P); !VR.ok())
          VerifyError = In.Name + ": " + VR.str();
      }
      Inputs.push_back(std::move(In));
    }
}

VMRun AccuracySweep::runOne(const bc::Program &P, vm::VMConfig Config,
                            SpanLog *Log, VirtualTotals &T, uint64_t *Calls) {
  VMRun R;
  std::optional<vm::VirtualMachine> VM;
  {
    ScopedSpan S(Log, "vm.construct");
    VM.emplace(P, std::move(Config));
  }
  {
    ScopedSpan S(Log, "vm.run");
    Clock::time_point T0 = Clock::now();
    R.State = VM->run();
    R.HostNs = std::chrono::duration<double, std::nano>(Clock::now() - T0)
                   .count();
  }
  {
    ScopedSpan S(Log, "profiling.snapshot");
    R.Profile = VM->profile();
  }
  R.Output = VM->output();
  R.Cycles = VM->cycles();
  const tel::MetricRegistry &M = VM->metrics();
  for (const char *Name :
       {"vm.cycles", "vm.instructions", "vm.calls_executed", "vm.timer_ticks",
        "vm.yieldpoints_taken", "vm.osr_entries", "vm.deopts",
        "vm.samples_taken", "dcg.flushes", "dcg.dropped_samples"})
    T[Name] += metricValue(M, Name);
  if (Calls)
    *Calls = metricValue(M, "vm.calls_executed");
  {
    ScopedSpan S(Log, "vm.construct");
    VM.reset();
  }
  return R;
}

VirtualTotals AccuracySweep::round(SpanLog *Log, std::vector<OpRecord> &Ops) {
  const prof::ProfilerRegistry &Registry = prof::ProfilerRegistry::instance();
  VirtualTotals T;
  BaselineSeconds = 0;
  for (size_t I = 0; I != Inputs.size(); ++I) {
    const Input &In = Inputs[I];
    Clock::time_point T0 = Clock::now();
    auto Op = std::make_unique<OpRecord>();
    Op->Input = I;
    for (vm::Personality Pers : Personalities) {
      vm::VMConfig C = exp::jitOnlyConfig(In.P, Pers, In.Seed);
      Registry.configure("exhaustive", C.Profiler);
      size_t PI = persIndex(Pers);
      Op->Perfect[PI] = runOne(In.P, std::move(C), Log, T,
                               &Op->PerfectCalls[PI]);
    }
    for (size_t CI = 0; CI != NumConfigs; ++CI) {
      const ConfigSpec &Spec = Configs[CI];
      vm::VMConfig C = exp::jitOnlyConfig(In.P, Spec.Pers, In.Seed);
      Registry.configure(Spec.Profiler, C.Profiler);
      if (Spec.Stride) {
        C.Profiler.CBS.Stride = Spec.Stride;
        C.Profiler.CBS.SamplesPerTick = Spec.Samples;
      }
      Op->Cells[CI] = runOne(In.P, std::move(C), Log, T);
      ScopedSpan S(Log, "profiling.overlap");
      Op->Accuracy[CI] = prof::accuracy(
          Op->Cells[CI].Profile, Op->Perfect[persIndex(Spec.Pers)].Profile);
    }
    Op->Seconds = secondsSince(T0);
    if (Log) {
      // The host-overhead baseline: the program under ProfilerKind::None,
      // timed next to the profiled runs it is compared with. It is not
      // part of the op; the traced round's wall time excludes it.
      Clock::time_point B0 = Clock::now();
      ScopedSpan S(Log, "profiling.none_baseline");
      VirtualTotals Ignored;
      for (vm::Personality Pers : Personalities)
        Op->NoneNs[persIndex(Pers)] =
            runOne(In.P, exp::jitOnlyConfig(In.P, Pers, In.Seed), nullptr,
                   Ignored)
                .HostNs;
      BaselineSeconds += secondsSince(B0);
    }
    // Exact virtual results of the op, for the round-repeat comparison.
    for (size_t CI = 0; CI != NumConfigs; ++CI) {
      T["cell.accuracy_nano_pct"] +=
          static_cast<uint64_t>(Op->Accuracy[CI] * 1e9);
      T["profile.total_weight"] += Op->Cells[CI].Profile.totalWeight();
    }
    Ops.push_back(std::move(*Op));
  }
  return T;
}

uint64_t AccuracySweep::check(RunResult &R, const std::vector<OpRecord> &Ops) {
  uint64_t Failed = 0;
  for (const OpRecord &Op : Ops) {
    const Input &In = Inputs[Op.Input];
    std::string Why;
    for (size_t PI = 0; PI != 2 && Why.empty(); ++PI) {
      const VMRun &P = Op.Perfect[PI];
      if (P.State != vm::RunState::Finished)
        Why = std::string("exhaustive run ended ") + vm::runStateName(P.State);
      if (Why.empty())
        Why = checkTotalWeight(P.Profile, Op.PerfectCalls[PI]);
      // 100 up to the rounding of summing per-edge percentages.
      if (double Self = prof::accuracy(P.Profile, P.Profile);
          Why.empty() && std::fabs(Self - 100.0) > 1e-9)
        Why = "accuracy(perfect, perfect) is " + std::to_string(Self);
    }
    for (size_t CI = 0; CI != NumConfigs && Why.empty(); ++CI) {
      const VMRun &Cell = Op.Cells[CI];
      const VMRun &Perfect = Op.Perfect[persIndex(Configs[CI].Pers)];
      std::string Cfg = std::string(Configs[CI].Label) + ": ";
      if (Cell.State != vm::RunState::Finished)
        Why = Cfg + "run ended " + vm::runStateName(Cell.State);
      else if (std::string D = checkOverlap(Cell.Profile, Perfect.Profile,
                                            Op.Accuracy[CI]);
               !D.empty())
        Why = Cfg + D;
      else if (std::string D = checkSubset(Cell.Profile, Perfect.Profile);
               !D.empty())
        Why = Cfg + D;
      else if (Cell.Cycles < Perfect.Cycles)
        Why = Cfg + "negative overhead: " + std::to_string(Cell.Cycles) +
              " cycles against the exhaustive base " +
              std::to_string(Perfect.Cycles);
      else if (std::string D = checkSameOutput(Cell.Output, Perfect.Output,
                                               In.Multithreaded);
               !D.empty())
        Why = Cfg + D;
    }
    if (!Why.empty() && ++Failed <= 5)
      R.note("FAILED op " + In.Name + " seed " + std::to_string(In.Seed) +
             ": " + Why);
  }
  return Failed;
}

RunResult AccuracySweep::run() {
  RunResult R;
  SpanLog SetupLog;
  SpanLog *SetupSpans = Opts.Trace ? &SetupLog : nullptr;
  std::vector<double> SetupTimes = {timeIt([&] { setup(SetupSpans); })};
  auto MoreSetups = [&] {
    for (unsigned K = 0; K != SetupsPerRound; ++K) {
      AccuracySweep Fresh(Opts);
      SetupTimes.push_back(timeIt([&] { Fresh.setup(SetupSpans); }));
    }
  };
  if (!VerifyError.empty()) {
    R.broken("program fails verification: " + VerifyError);
    return R;
  }

  // Each round is checked right after it, outside the timed phase, and
  // only what the metrics need is kept.
  std::vector<OpRecord> Ops;
  std::vector<VirtualTotals> Totals;
  std::vector<double> OpSeconds;
  double OverheadBp = 0, Accuracy = 0, Cells = 0;
  // Traced runs: the summed host-overhead ratios, and each traced
  // round's baseline time.
  double HostRatio = 0, HostCells = 0;
  std::vector<double> TracedBaseline;
  SpanLog Log;
  bool Traced = false;
  std::vector<VirtualTotals> TracedTotals;
  auto Round = [&](unsigned I) {
    Traced = Opts.Trace && tracedRound(I);
    Ops.clear();
    (Traced ? TracedTotals : Totals)
        .push_back(round(Traced ? &Log : nullptr, Ops));
  };
  auto After = [&](unsigned I) {
    R.Attempted += Ops.size();
    R.Failed += check(R, Ops);
    for (const OpRecord &Op : Ops) {
      if (!Traced)
        OpSeconds.push_back(Op.Seconds);
      for (size_t CI = 0; CI != NumConfigs; ++CI) {
        size_t PI = persIndex(Configs[CI].Pers);
        if (!Traced && I == 0) {
          double Base = static_cast<double>(Op.Perfect[PI].Cycles);
          OverheadBp +=
              1e4 * (static_cast<double>(Op.Cells[CI].Cycles) - Base) / Base;
          Accuracy += Op.Accuracy[CI];
          Cells += 1;
        }
        if (Traced) {
          HostRatio += Op.Cells[CI].HostNs / Op.NoneNs[PI] - 1.0;
          HostCells += 1;
        }
      }
    }
    if (Traced)
      TracedBaseline.push_back(BaselineSeconds);
    MoreSetups();
    Ops.clear();
  };
  // A traced run alternates untraced and traced rounds.
  std::vector<double> Walls, TracedWalls;
  if (Opts.Trace)
    std::tie(Walls, TracedWalls) = pairedRounds(Opts.Seconds, Round, After);
  else
    Walls = timedRounds(Opts.Seconds, 2, Round, After);
  double PeakRss = peakRssMiB();
  for (size_t I = 1; I < Totals.size(); ++I)
    expectSameTotals(R, "round repeat", Totals[0], Totals[I]);

  const VirtualTotals T = Totals[0];
  double Rounds = static_cast<double>(Walls.size());
  if (!Opts.Trace) {
    // Time to first optimized code for these programs: one cold
    // adaptive-suite run of each, outside the timed phase (the sweep
    // itself runs no adaptive system).
    std::vector<double> FirstInstallK;
    for (const Input &In : Inputs)
      if (uint64_t C = coldFirstInstall(In.P, In.Seed))
        FirstInstallK.push_back(static_cast<double>(C) / 1e3);
    addHostMetrics(
        R, median(SetupTimes), Walls, OpSeconds,
        mcyclesPerSecond(static_cast<double>(T.at("vm.cycles")), Walls),
        PeakRss);
    R.add("virtual_ipc",
          static_cast<double>(T.at("vm.instructions")) /
              static_cast<double>(T.at("vm.cycles")),
          "instr/cycle");
    R.add("first_install_kcycles", geomean(FirstInstallK), "kcycles");
    R.add("overhead_bp", OverheadBp / Cells, "bp");
    R.add("accuracy_pct", Accuracy / Cells, "%");
    R.note("rounds: " + std::to_string(Walls.size()) + " of " +
           std::to_string(Inputs.size()) + " ops; " +
           std::to_string(FirstInstallK.size()) +
           " programs installed optimized code in their reference run");
    return R;
  }

  for (size_t I = 0; I != TracedWalls.size(); ++I)
    TracedWalls[I] -= TracedBaseline[I];
  for (const VirtualTotals &TT : TracedTotals)
    expectSameTotals(R, "traced round", T, TT);

  std::map<std::string, double> L;
  std::map<std::string, double> Self = Log.selfNs();
  std::map<std::string, uint64_t> Count = Log.counts();
  auto PerCallUs = [&](const char *Layer) {
    return Count[Layer] ? Self[Layer] / static_cast<double>(Count[Layer]) / 1e3
                        : 0.0;
  };
  L["vm.run_self_ms"] = Self["vm.run"] / Rounds / 1e6;
  L["vm.host_ns_per_kcycle"] =
      Self["vm.run"] / Rounds / (static_cast<double>(T.at("vm.cycles")) / 1e3);
  // Two spans per VM: its constructor and its destructor.
  L["vm.construct_us"] = 2 * PerCallUs("vm.construct");
  for (const char *K : {"vm.instructions", "vm.calls_executed",
                        "vm.timer_ticks", "vm.yieldpoints_taken",
                        "vm.osr_entries", "vm.deopts"})
    L[K] = static_cast<double>(T.at(K));
  L["profiling.samples"] = static_cast<double>(T.at("vm.samples_taken"));
  L["profiling.flushes"] = static_cast<double>(T.at("dcg.flushes"));
  L["profiling.dropped"] = static_cast<double>(T.at("dcg.dropped_samples"));
  L["profiling.snapshot_us"] = PerCallUs("profiling.snapshot");
  L["profiling.overlap_us"] = PerCallUs("profiling.overlap");
  L["profiling.host_overhead_pct"] = 100.0 * HostRatio / HostCells;

  addSharedLayers(L, SetupLog, SetupTimes.size(), Walls, TracedWalls,
                  Log.rootNs() - Self["profiling.none_baseline"]);
  addPerLayer(R, L);
  return R;
}

} // namespace

RunResult cbsbench::runAccuracySweep(const RunOptions &Opts) {
  return AccuracySweep(Opts).run();
}
