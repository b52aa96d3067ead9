//===- FuzzCampaign.cpp - The fuzz-campaign workload ---------------------===//
//
// Part of the CBSVM benchmark.
//
//===----------------------------------------------------------------------===//
//
// fuzz::runFuzz with all 8 builtin oracles at jobs 1 over a seed range
// fixed by the workload seed, in batches of the default and the
// ShapeConfig::longLoops() shapes. One op is one batch. One op per round
// is a reduce op: the test-only "broken" oracle flags every program that
// prints, so the reducer and replayArtifact run; there, finding the
// planted violation is the expected result. Thousands of short programs
// make VM construction, program generation, verification and baseline
// compiles dominate, the opposite use of the vm layer to adaptive-suite.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "bytecode/Verifier.h"
#include "fuzz/Fuzzer.h"
#include "profiling/OverlapMetric.h"
#include "profiling/ProfilerRegistry.h"
#include "telemetry/MetricRegistry.h"

#include <sched.h>

#include <optional>
#include <set>
#include <tuple>

using namespace cbs;
using namespace cbsbench;

namespace {

constexpr unsigned BuiltinOracles = 8;
/// A campaign op checks DefaultSeeds default-shape and LongSeeds
/// long-loops programs with every builtin oracle (both shapes in every
/// op, so op times are alike); a round has CampaignOps of them plus one
/// reduce op.
constexpr unsigned DefaultSeeds = 40;
constexpr unsigned LongSeeds = 20;
constexpr unsigned CampaignOps = 32;
/// The reduce op's seed set is fixed, the same for every --seed: how long
/// a reduction takes depends strongly on the program reduced, and a
/// seed-dependent set would make round times vary with the seed.
constexpr uint64_t ReduceSeedBase = 1;
constexpr unsigned ReduceSeeds = 200;
/// Seeds of one --seed value: [Seed * SeedSpan, (Seed + 1) * SeedSpan).
constexpr uint64_t SeedSpan = 100'000;
/// The reference population behind the virtual-cycle metrics: the
/// campaign's programs plus ExtraReferences long-loops programs from
/// seed Seed * SeedSpan + ExtraReferenceOffset on. Only about 8% of
/// long-loops programs (and almost no default ones) ever install
/// optimized code, so a round's programs alone leave the geometric mean
/// of first-install cycles to about 50 programs and a 20% spread across
/// seeds; 4000 more bring that to about 9%.
constexpr unsigned ExtraReferences = 4'000;
constexpr uint64_t ExtraReferenceOffset = 50'000;
/// The run limit the fuzz oracles put on each program.
constexpr uint64_t OracleMaxCycles = 200'000'000;

struct Batch {
  bool LongLoops = false;
  bool Reduce = false;
  uint64_t SeedBase = 0;
  unsigned Seeds = 0;
};

/// One runFuzz call.
struct BatchRecord {
  size_t Batch = 0;
  fuzz::FuzzReport Report;
};

struct OpRecord {
  double Seconds = 0;
  std::vector<BatchRecord> Batches;
};

/// What the reference runs of one campaign program found.
struct Reference {
  bool Prints = false;
  double Cycles = 0;
  double Instructions = 0;
  uint64_t Calls = 0;
  uint64_t Ticks = 0;
  uint64_t Yieldpoints = 0;
  double OverheadBp = 0;
  double Accuracy = 0;
  uint64_t FirstInstall = 0;
};

/// The oracles' plain run configuration.
vm::VMConfig plainConfig(uint64_t Seed) {
  vm::VMConfig Plain;
  Plain.Seed = Seed;
  Plain.MaxCycles = OracleMaxCycles;
  return Plain;
}

/// The campaign's oracles run their VMs internally, so this workload's
/// virtual-cycle metrics describe its reference population under the
/// configurations those oracles use, run once each outside the timed
/// phase: the plain run, a free exhaustive run, the oracles' fast-tick
/// CBS(2,4) run, and the same run under the adaptive system
/// (async-compile-stability's).
Reference referenceRuns(const bc::Program &P, uint64_t Seed, SpanLog *Log) {
  vm::VMConfig Plain = plainConfig(Seed);
  vm::VMConfig Exhaustive = Plain;
  prof::ProfilerRegistry::instance().configure("exhaustive",
                                               Exhaustive.Profiler);
  vm::VMConfig Sampled = Plain;
  Sampled.Profiler.Kind = vm::ProfilerKind::CBS;
  Sampled.Profiler.CBS.Stride = 2;
  Sampled.Profiler.CBS.SamplesPerTick = 4;
  Sampled.TimerPeriodCycles = 2'000;

  Reference R;
  std::optional<vm::VirtualMachine> VM;
  {
    ScopedSpan S(Log, "vm.construct");
    VM.emplace(P, Plain);
  }
  VM->run();
  R.Prints = !VM->output().empty();
  R.Cycles = static_cast<double>(VM->cycles());
  R.Instructions = static_cast<double>(VM->stats().Instructions);
  R.Calls = VM->stats().CallsExecuted;
  R.Ticks = VM->stats().TimerTicks;
  R.Yieldpoints = VM->stats().YieldpointsTaken;
  {
    ScopedSpan S(Log, "vm.construct");
    VM.reset();
  }

  vm::VirtualMachine Perfect(P, Exhaustive);
  Perfect.run();
  vm::VirtualMachine CBS(P, Sampled);
  CBS.run();
  R.OverheadBp =
      1e4 * (static_cast<double>(CBS.cycles()) - R.Cycles) / R.Cycles;
  R.Accuracy = prof::accuracy(CBS.profile(), Perfect.profile());

  opt::NewJikesOracle Oracle;
  aos::AdaptiveSystem AOS(&Oracle, aos::AOSConfig());
  vm::VirtualMachine Adaptive(P, Sampled);
  Adaptive.setClient(&AOS);
  Adaptive.run();
  R.FirstInstall = AOS.stats().FirstInstallCycle;
  return R;
}

/// Confines the process to the last CPU it may run on. Several builtin
/// oracles start threads of their own for every program checked (a
/// 4-job parallel sweep, 2-worker compile queues); on a shared host,
/// where each CPU's speed drifts on its own, a round that keeps handing
/// work to threads on other CPUs and joining them times the slowest
/// CPU of the moment. In interleaved runs on a 4-CPU virtual machine,
/// confining the workload halved the spread of wall_s across runs. The
/// threads then share one CPU, so wall_s measures the campaign's
/// single-CPU throughput. Returns the CPU, or -1 if it was left free.
int pinToOneCpu() {
  cpu_set_t Allowed;
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return -1;
  for (int Cpu = CPU_SETSIZE - 1; Cpu >= 0; --Cpu) {
    if (!CPU_ISSET(Cpu, &Allowed))
      continue;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpu, &One);
    return sched_setaffinity(0, sizeof(One), &One) == 0 ? Cpu : -1;
  }
  return -1;
}

fuzz::ShapeConfig shapeOf(const Batch &B) {
  return B.LongLoops ? fuzz::ShapeConfig::longLoops() : fuzz::ShapeConfig();
}

class FuzzCampaign {
public:
  explicit FuzzCampaign(const RunOptions &Opts) : Opts(Opts) {}
  RunResult run();

private:
  void setup(SpanLog *Log);
  VirtualTotals round(SpanLog *Log, std::vector<OpRecord> &Ops);
  uint64_t check(RunResult &R, const std::vector<OpRecord> &Ops,
                 const std::set<uint64_t> &Prints);

  const RunOptions &Opts;
  std::vector<Batch> Batches;
  /// The batches of each op of a round.
  std::vector<std::vector<size_t>> Plan;
  /// Every program the round checks, generated with the public
  /// ProgramGenerator (the first part of the reference population).
  std::vector<std::pair<uint64_t, bc::Program>> Programs;
  fuzz::OracleRegistry Builtin;
  fuzz::OracleRegistry WithBroken;
  fuzz::OracleRegistry TimedBuiltin;
  fuzz::OracleRegistry TimedBroken;
  std::string VerifyError;
};

void FuzzCampaign::setup(SpanLog *Log) {
  Builtin = fuzz::OracleRegistry::builtin();
  WithBroken = fuzz::OracleRegistry::builtin();
  fuzz::addBrokenOracleForTesting(WithBroken);

  uint64_t Next = Opts.Seed * SeedSpan;
  for (unsigned I = 0; I != CampaignOps; ++I) {
    Plan.push_back({Batches.size(), Batches.size() + 1});
    Batches.push_back({false, false, Next, DefaultSeeds});
    Batches.push_back({true, false, Next + DefaultSeeds, LongSeeds});
    Next += DefaultSeeds + LongSeeds;
  }
  Plan.push_back({Batches.size()});
  Batches.push_back({false, true, ReduceSeedBase, ReduceSeeds});

  for (const Batch &B : Batches) {
    fuzz::ProgramGenerator Gen(shapeOf(B));
    for (unsigned I = 0; I != B.Seeds; ++I) {
      uint64_t Seed = B.SeedBase + I;
      bc::Program P;
      {
        ScopedSpan S(Log, "workloads.build");
        P = Gen.generate(Seed);
      }
      {
        ScopedSpan S(Log, "bytecode.verify");
        if (bc::VerifyResult VR = bc::verifyProgram(P); !VR.ok())
          VerifyError = "seed " + std::to_string(Seed) + ": " + VR.str();
      }
      Programs.emplace_back(Seed, std::move(P));
    }
  }
}

VirtualTotals FuzzCampaign::round(SpanLog *Log, std::vector<OpRecord> &Ops) {
  // Traced rounds run the campaign over timed copies of the oracles,
  // made once: the spans keep pointers to their layer names.
  if (Log && TimedBuiltin.all().empty()) {
    for (const auto &O : Builtin.all())
      TimedBuiltin.add(std::make_unique<TimedFuzzOracle>(*O, *Log));
    for (const auto &O : WithBroken.all())
      TimedBroken.add(std::make_unique<TimedFuzzOracle>(*O, *Log));
  }
  VirtualTotals T;
  for (const std::vector<size_t> &OpBatches : Plan) {
    OpRecord Op;
    Clock::time_point T0 = Clock::now();
    for (size_t I : OpBatches) {
      const Batch &B = Batches[I];
      fuzz::FuzzOptions FO;
      FO.SeedBase = B.SeedBase;
      FO.Runs = B.Seeds;
      FO.Jobs = 1;
      FO.Shape = shapeOf(B);
      if (B.Reduce)
        FO.OracleFilter = "broken";
      const fuzz::OracleRegistry &Registry =
          B.Reduce ? (Log ? TimedBroken : WithBroken)
                   : (Log ? TimedBuiltin : Builtin);
      tel::MetricRegistry Metrics;
      BatchRecord BR;
      BR.Batch = I;
      {
        ScopedSpan S(Log, "fuzz.campaign");
        BR.Report = fuzz::runFuzz(FO, Registry, &Metrics);
      }
      if (const tel::Counter *C = Metrics.findCounter("fuzz.reduce_checks"))
        T["fuzz.reduce_checks"] += C->Value;
      T["fuzz.runs"] += BR.Report.Runs;
      T["fuzz.checks"] += BR.Report.OracleChecks;
      T["fuzz.violations"] += BR.Report.Violations.size();
      for (const fuzz::Violation &V : BR.Report.Violations)
        T["fuzz.reduced_atoms"] += V.ReducedAtoms;
      Op.Batches.push_back(std::move(BR));
    }
    Op.Seconds = secondsSince(T0);
    Ops.push_back(std::move(Op));
  }
  return T;
}

/// Checks one runFuzz call; \p Prints holds the seeds whose program
/// prints in a plain reference run.
std::string checkBatch(const Batch &B, const fuzz::FuzzReport &Rep,
                       const std::set<uint64_t> &Prints,
                       const fuzz::OracleRegistry &WithBroken) {
  if (Rep.Runs != B.Seeds)
    return "ran " + std::to_string(Rep.Runs) + " seeds of " +
           std::to_string(B.Seeds);
  if (!B.Reduce) {
    if (!Rep.Violations.empty())
      return "seed " + std::to_string(Rep.Violations[0].Seed) + " violates " +
             Rep.Violations[0].OracleId + ": " + Rep.Violations[0].Message;
    if (Rep.OracleChecks != B.Seeds * BuiltinOracles)
      return std::to_string(Rep.OracleChecks) + " oracle checks, expected " +
             std::to_string(B.Seeds * BuiltinOracles);
    return "";
  }
  // A reduce op: the planted violation is the expected result.
  std::set<uint64_t> Flagged;
  for (const fuzz::Violation &V : Rep.Violations) {
    Flagged.insert(V.Seed);
    std::string Error;
    fuzz::Artifact A = fuzz::parseArtifact(V.ArtifactJson, Error);
    std::string Replayed =
        Error.empty() ? fuzz::replayArtifact(A, WithBroken, Error) : "";
    if (V.OracleId != "broken")
      return "unexpected oracle " + V.OracleId;
    if (V.ReducedAtoms > V.OriginalAtoms)
      return "seed " + std::to_string(V.Seed) + " reduced from " +
             std::to_string(V.OriginalAtoms) + " to " +
             std::to_string(V.ReducedAtoms) + " atoms";
    if (!Error.empty() || Replayed.empty())
      return "artifact of seed " + std::to_string(V.Seed) +
             " does not replay: " + (Error.empty() ? "no violation" : Error);
  }
  for (unsigned I = 0; I != B.Seeds; ++I) {
    uint64_t Seed = B.SeedBase + I;
    if (Prints.count(Seed) != Flagged.count(Seed))
      return "seed " + std::to_string(Seed) +
             (Prints.count(Seed) ? " prints but was not flagged"
                                 : " was flagged but prints nothing");
  }
  if (Rep.OracleChecks != B.Seeds)
    return std::to_string(Rep.OracleChecks) +
           " broken-oracle checks, expected " + std::to_string(B.Seeds);
  return "";
}

uint64_t FuzzCampaign::check(RunResult &R, const std::vector<OpRecord> &Ops,
                             const std::set<uint64_t> &Prints) {
  uint64_t Failed = 0;
  for (const OpRecord &Op : Ops) {
    std::string Why;
    for (const BatchRecord &BR : Op.Batches)
      if (Why.empty())
        Why = checkBatch(Batches[BR.Batch], BR.Report, Prints, WithBroken);
    if (!Why.empty() && ++Failed <= 5)
      R.note("FAILED op: " + Why);
  }
  return Failed;
}

RunResult FuzzCampaign::run() {
  RunResult R;
  // Before any thread starts, so that every oracle thread inherits it.
  int Cpu = pinToOneCpu();
  R.note(Cpu >= 0 ? "confined to CPU " + std::to_string(Cpu)
                  : std::string("not confined to one CPU"));
  SpanLog SetupLog;
  SpanLog *SetupSpans = Opts.Trace ? &SetupLog : nullptr;
  std::vector<double> SetupTimes = {timeIt([&] { setup(SetupSpans); })};
  auto MoreSetups = [&] {
    for (unsigned K = 0; K != SetupsPerRound; ++K) {
      FuzzCampaign Fresh(Opts);
      SetupTimes.push_back(timeIt([&] { Fresh.setup(SetupSpans); }));
    }
  };
  if (!VerifyError.empty()) {
    R.broken("generated program fails verification: " + VerifyError);
    return R;
  }

  // Reference runs of the population, made once before the first
  // check (outside the timed phase).
  SpanLog RefLog;
  std::set<uint64_t> Prints;
  double Cycles = 0, Instr = 0, OverheadBp = 0, Accuracy = 0;
  uint64_t Calls = 0, Ticks = 0, Yieldpoints = 0;
  std::vector<double> FirstInstallK;
  std::vector<std::pair<uint64_t, bc::Program>> Population;
  auto References = [&] {
    fuzz::ProgramGenerator Long(fuzz::ShapeConfig::longLoops());
    for (const auto &[Seed, P] : Programs)
      Population.emplace_back(Seed, P);
    for (unsigned I = 0; I != ExtraReferences; ++I) {
      uint64_t Seed = Opts.Seed * SeedSpan + ExtraReferenceOffset + I;
      Population.emplace_back(Seed, Long.generate(Seed));
    }
    for (const auto &[Seed, P] : Population) {
      Reference Refs = referenceRuns(P, Seed, Opts.Trace ? &RefLog : nullptr);
      if (Refs.Prints)
        Prints.insert(Seed);
      Cycles += Refs.Cycles;
      Instr += Refs.Instructions;
      Calls += Refs.Calls;
      Ticks += Refs.Ticks;
      Yieldpoints += Refs.Yieldpoints;
      OverheadBp += Refs.OverheadBp;
      Accuracy += Refs.Accuracy;
      if (Refs.FirstInstall)
        FirstInstallK.push_back(static_cast<double>(Refs.FirstInstall) / 1e3);
    }
  };
  // sim_mcycles_per_s: the campaign's VMs run inside the oracles, so the
  // simulator's speed on these programs is taken from plain runs of the
  // population (construction included, which dominates for programs this
  // short), timed again after every untraced round.
  std::vector<double> PlainSpeeds;
  auto TimePlainRuns = [&] {
    double Seconds = timeIt([&] {
      for (const auto &[Seed, P] : Population) {
        vm::VirtualMachine VM(P, plainConfig(Seed));
        VM.run();
      }
    });
    PlainSpeeds.push_back(Cycles / Seconds / 1e6);
  };

  // Each round is checked right after it, outside the timed phase.
  std::vector<OpRecord> Ops;
  std::vector<VirtualTotals> Totals;
  std::vector<double> OpSeconds;
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
    if (I == 0 && !Traced)
      References();
    R.Attempted += Ops.size();
    R.Failed += check(R, Ops, Prints);
    if (!Traced) {
      for (const OpRecord &Op : Ops)
        OpSeconds.push_back(Op.Seconds);
      TimePlainRuns();
    }
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
  double NumPrograms = static_cast<double>(Population.size());
  double Rounds = static_cast<double>(Walls.size());

  if (!Opts.Trace) {
    addHostMetrics(R, median(SetupTimes), Walls, OpSeconds,
                   median(PlainSpeeds), PeakRss);
    R.add("virtual_ipc", Instr / Cycles, "instr/cycle");
    R.add("first_install_kcycles", geomean(FirstInstallK), "kcycles");
    R.add("overhead_bp", OverheadBp / NumPrograms, "bp");
    R.add("accuracy_pct", Accuracy / NumPrograms, "%");
    R.note("rounds: " + std::to_string(Walls.size()) + " of " +
           std::to_string(Plan.size()) + " ops over " +
           std::to_string(Programs.size()) + " programs; " +
           std::to_string(FirstInstallK.size()) + " of " +
           std::to_string(Population.size()) +
           " reference programs installed optimized code");
    return R;
  }

  const VirtualTotals T = Totals[0];
  for (const VirtualTotals &TT : TracedTotals)
    expectSameTotals(R, "traced round", T, TT);

  std::map<std::string, double> L;
  std::map<std::string, double> Self = Log.selfNs();
  std::map<std::string, double> RefSelf = RefLog.selfNs();
  L["vm.construct_us"] = RefSelf["vm.construct"] / NumPrograms / 1e3;
  L["vm.instructions"] = Instr;
  L["vm.calls_executed"] = static_cast<double>(Calls);
  L["vm.timer_ticks"] = static_cast<double>(Ticks);
  L["vm.yieldpoints_taken"] = static_cast<double>(Yieldpoints);
  for (const auto &O : Builtin.all()) {
    std::string Layer = std::string("fuzz.oracle.") + O->id();
    L[Layer + "_ms"] = Self[Layer] / Rounds / 1e6;
  }
  L["fuzz.campaign_self_ms"] = Self["fuzz.campaign"] / Rounds / 1e6;
  // The broken oracle's first check of each reduce-op seed counts as
  // reduce work too: it exists only to hand the reducer a violation.
  L["fuzz.reduce_ms"] =
      (Self["fuzz.reduce"] + Self["fuzz.oracle.broken"]) / Rounds / 1e6;
  L["fuzz.reduce_checks"] = static_cast<double>(T.at("fuzz.reduce_checks"));
  L["fuzz.checks"] = static_cast<double>(T.at("fuzz.checks"));
  addSharedLayers(L, SetupLog, SetupTimes.size(), Walls, TracedWalls,
                  Log.rootNs());
  addPerLayer(R, L);
  return R;
}

} // namespace

RunResult cbsbench::runFuzzCampaign(const RunOptions &Opts) {
  return FuzzCampaign(Opts).run();
}
