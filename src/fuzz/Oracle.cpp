//===- fuzz/Oracle.cpp - Differential invariant oracles --------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "aos/AdaptiveSystem.h"
#include "experiments/Experiments.h"
#include "experiments/ParallelRunner.h"
#include "opt/Compiler.h"
#include "opt/InlineOracle.h"
#include "profiling/OverlapMetric.h"
#include "profiling/ProfileCodec.h"
#include "profiling/ProfilerRegistry.h"
#include "vm/VirtualMachine.h"

#include <algorithm>
#include <optional>
#include <sstream>

using namespace cbs;
using namespace cbs::fuzz;

Oracle::~Oracle() = default;

void OracleRegistry::add(std::unique_ptr<Oracle> O) {
  Oracles.push_back(std::move(O));
}

const Oracle *OracleRegistry::find(std::string_view Id) const {
  for (const std::unique_ptr<Oracle> &O : Oracles)
    if (Id == O->id())
      return O.get();
  return nullptr;
}

namespace {

/// Cycle budget for every oracle-internal run: generated programs are
/// small DAGs with bounded loops, so anything approaching this is a
/// generator bug worth flagging, not a workload.
constexpr uint64_t OracleMaxCycles = 200'000'000;

/// Everything one run yields that oracles compare.
struct RunResult {
  vm::RunState State = vm::RunState::Running;
  std::string Trap;
  std::vector<int64_t> Output;
  size_t HeapObjects = 0;
  uint64_t HeapBytes = 0;
  prof::DCGSnapshot Profile;
  uint64_t Samples = 0;
  uint64_t Calls = 0;
};

/// Runs \p P once; with \p AC the adaptive optimization system is
/// attached, so hot methods recompile through the background compile
/// queue while the program runs.
RunResult runProgram(const bc::Program &P, vm::VMConfig Config,
                     const aos::AOSConfig *AC = nullptr) {
  Config.MaxCycles = std::min(Config.MaxCycles, OracleMaxCycles);
  opt::NewJikesOracle InlineOracle;
  std::optional<aos::AdaptiveSystem> AOS;
  if (AC)
    AOS.emplace(&InlineOracle, *AC);
  vm::VirtualMachine VM(P, Config);
  if (AOS)
    VM.setClient(&*AOS);
  RunResult R;
  R.State = VM.run();
  R.Trap = VM.trapMessage();
  R.Output = VM.output();
  R.HeapObjects = VM.heap().numObjects();
  R.HeapBytes = VM.heap().bytesAllocated();
  R.Profile = VM.profile();
  R.Samples = VM.stats().SamplesTaken;
  R.Calls = VM.stats().CallsExecuted;
  return R;
}

/// "finished, printed [a b c], 12 objects / 96 bytes" — the compact
/// divergence description used by violation messages.
std::string describeRun(const RunResult &R) {
  std::ostringstream OS;
  OS << vm::runStateName(R.State);
  if (!R.Trap.empty())
    OS << " (" << R.Trap << ')';
  OS << ", " << R.Output.size() << " values printed, " << R.HeapObjects
     << " objects / " << R.HeapBytes << " heap bytes";
  return OS.str();
}

/// Checks \p Candidate against \p Base; returns "" or the divergence.
std::string compareRuns(std::string_view BaseName, const RunResult &Base,
                        std::string_view CandName, const RunResult &Cand) {
  std::ostringstream OS;
  if (Cand.State != Base.State) {
    OS << CandName << " run ended " << vm::runStateName(Cand.State)
       << " but " << BaseName << " ended " << vm::runStateName(Base.State);
    return OS.str();
  }
  if (Cand.Output != Base.Output) {
    size_t I = 0;
    while (I < Cand.Output.size() && I < Base.Output.size() &&
           Cand.Output[I] == Base.Output[I])
      ++I;
    OS << CandName << " output diverges from " << BaseName << " at value "
       << I << " (" << describeRun(Cand) << " vs " << describeRun(Base)
       << ')';
    return OS.str();
  }
  if (Cand.HeapObjects != Base.HeapObjects ||
      Cand.HeapBytes != Base.HeapBytes) {
    OS << CandName << " heap stats diverge from " << BaseName << " ("
       << describeRun(Cand) << " vs " << describeRun(Base) << ')';
    return OS.str();
  }
  return "";
}

vm::VMConfig plainConfig(uint64_t Seed) {
  vm::VMConfig Config;
  Config.Seed = Seed;
  return Config;
}

//===----------------------------------------------------------------------===//
// output-stability
//===----------------------------------------------------------------------===//

class OutputStabilityOracle : public Oracle {
public:
  const char *id() const override { return "output-stability"; }
  const char *describe() const override {
    return "optimized/unoptimized and profiling-on/off runs print the "
           "same values and allocate the same heap";
  }

  std::string check(const OracleInput &In) const override {
    // Profiling off, no compilation pipeline: the reference semantics.
    RunResult Base = runProgram(In.P, plainConfig(In.Seed));
    if (Base.State != vm::RunState::Finished)
      return "baseline run did not finish: " + describeRun(Base);

    // Profiling on, every registered profiler (the registry is the
    // authority on what exists — a profiler added there is covered here
    // with no oracle change).
    for (const prof::ProfilerDescriptor &P :
         prof::ProfilerRegistry::instance().all()) {
      if (P.Kind == vm::ProfilerKind::None)
        continue; // that IS the baseline
      vm::VMConfig Config = plainConfig(In.Seed);
      P.Configure(Config.Profiler);
      Config.Profiler.CBS.Stride = 2;
      Config.Profiler.CBS.SamplesPerTick = 4;
      if (std::string D = compareRuns("profiling-off", Base, P.Name,
                                      runProgram(In.P, Config));
          !D.empty())
        return D;
    }

    // Optimized (trivial inlining, the accuracy-experiment pipeline).
    vm::VMConfig Opt =
        exp::jitOnlyConfig(In.P, vm::Personality::JikesRVM, In.Seed);
    Opt.Profiler.Kind = vm::ProfilerKind::CBS;
    if (std::string D = compareRuns("unoptimized", Base, "trivially-optimized",
                                    runProgram(In.P, Opt));
        !D.empty())
      return D;

    // Profile-directed inlining driven by the exhaustive profile.
    vm::VMConfig ExConfig = plainConfig(In.Seed);
    prof::ProfilerRegistry::instance().configure("exhaustive",
                                                 ExConfig.Profiler);
    RunResult Exhaustive = runProgram(In.P, ExConfig);
    auto Plan = std::make_shared<opt::InlinePlan>(
        opt::NewJikesOracle().plan(In.P, Exhaustive.Profile));
    vm::VMConfig Pgo = plainConfig(In.Seed);
    Pgo.Profiler.Kind = vm::ProfilerKind::CBS;
    Pgo.CompileHook =
        opt::makeCompileHook(std::move(Plan), Pgo.Costs, opt::CompileOptions());
    if (std::string D = compareRuns("unoptimized", Base, "profile-inlined",
                                    runProgram(In.P, Pgo));
        !D.empty())
      return D;
    return "";
  }
};

//===----------------------------------------------------------------------===//
// cbs-subset
//===----------------------------------------------------------------------===//

class CbsSubsetOracle : public Oracle {
public:
  /// Overlap floor, applied only once the run has taken enough samples
  /// for the overlap statistic to be meaningful. Seed-stable: runs are
  /// deterministic, so a seed that clears the floor always will.
  static constexpr uint64_t MinSamplesForFloor = 50;
  static constexpr double OverlapFloorPct = 30.0;

  const char *id() const override { return "cbs-subset"; }
  const char *describe() const override {
    return "CBS-sampled DCG support is a subset of the exhaustive "
           "profile and overlaps it above the floor";
  }

  std::string check(const OracleInput &In) const override {
    vm::VMConfig ExConfig = plainConfig(In.Seed);
    prof::ProfilerRegistry::instance().configure("exhaustive",
                                                 ExConfig.Profiler);
    RunResult Exhaustive = runProgram(In.P, ExConfig);
    if (Exhaustive.Profile.totalWeight() != Exhaustive.Calls) {
      std::ostringstream OS;
      OS << "exhaustive profile weight " << Exhaustive.Profile.totalWeight()
         << " does not equal the " << Exhaustive.Calls << " executed calls";
      return OS.str();
    }

    vm::VMConfig Config = plainConfig(In.Seed);
    Config.Profiler.Kind = vm::ProfilerKind::CBS;
    Config.Profiler.CBS.Stride = 1;
    Config.Profiler.CBS.SamplesPerTick = 1000;
    // Short programs may take no samples; a tiny timer period opens
    // enough windows.
    Config.TimerPeriodCycles = 500;
    RunResult Sampled = runProgram(In.P, Config);

    std::string Problem;
    Sampled.Profile.forEachEdge([&](prof::CallEdge E, uint64_t W) {
      if (Problem.empty() && Exhaustive.Profile.weight(E) == 0) {
        std::ostringstream OS;
        OS << "sampled edge (site " << E.Site << " -> method " << E.Callee
           << ", weight " << W << ") never executed";
        Problem = OS.str();
      }
    });
    if (!Problem.empty())
      return Problem;

    if (Sampled.Samples >= MinSamplesForFloor) {
      double Overlap = prof::overlap(Sampled.Profile, Exhaustive.Profile);
      if (Overlap < OverlapFloorPct) {
        std::ostringstream OS;
        OS << "overlap " << Overlap << "% below the " << OverlapFloorPct
           << "% floor after " << Sampled.Samples << " samples";
        return OS.str();
      }
    }
    return "";
  }
};

//===----------------------------------------------------------------------===//
// profile-roundtrip
//===----------------------------------------------------------------------===//

class ProfileRoundTripOracle : public Oracle {
public:
  const char *id() const override { return "profile-roundtrip"; }
  const char *describe() const override {
    return "serialize -> parse -> serialize of any sampled profile is "
           "byte-identical and validates against the program";
  }

  std::string check(const OracleInput &In) const override {
    // One exact and one sampled profiler, resolved through the
    // registry.
    for (const char *Name : {"exhaustive", "cbs"}) {
      vm::VMConfig Config = plainConfig(In.Seed);
      prof::ProfilerRegistry::instance().configure(Name, Config.Profiler);
      Config.Profiler.CBS.SamplesPerTick = 64;
      Config.TimerPeriodCycles = 2'000;
      RunResult R = runProgram(In.P, Config);

      if (std::string Problem = prof::validateAgainst(R.Profile, In.P);
          !Problem.empty())
        return std::string(Name) + " profile fails validation: " + Problem;

      std::string First = prof::ProfileCodec::encode(R.Profile);
      prof::ProfileCodec::Decoded Parsed = prof::ProfileCodec::decode(First);
      if (!Parsed.ok())
        return std::string(Name) +
               " profile does not parse back: " + Parsed.Error;
      std::string Second = prof::ProfileCodec::encode(*Parsed.Graph);
      if (First != Second)
        return std::string(Name) +
               " profile round-trip is not byte-identical (" +
               std::to_string(First.size()) + " vs " +
               std::to_string(Second.size()) + " bytes)";

      // The v2 (repository) envelope must round-trip metadata exactly.
      prof::ProfileMeta Meta;
      Meta.ProgramHash = 0x0123456789abcdefull ^ In.Seed;
      Meta.Personality = "jikes";
      Meta.Runs = 3;
      Meta.Cycles = 1'000'000 + In.Seed;
      std::string V2 = prof::ProfileCodec::encode(R.Profile, Meta);
      prof::ProfileCodec::Decoded P2 = prof::ProfileCodec::decode(V2);
      if (!P2.ok())
        return std::string(Name) +
               " v2 profile does not parse back: " + P2.Error;
      if (P2.Version != prof::ProfileCodec::V2 ||
          P2.Meta.ProgramHash != Meta.ProgramHash ||
          P2.Meta.Personality != Meta.Personality ||
          P2.Meta.Runs != Meta.Runs || P2.Meta.Cycles != Meta.Cycles)
        return std::string(Name) + " v2 metadata did not round-trip";
      if (prof::ProfileCodec::encode(*P2.Graph, P2.Meta) != V2)
        return std::string(Name) +
               " v2 profile round-trip is not byte-identical";
    }
    return "";
  }
};

//===----------------------------------------------------------------------===//
// shard-determinism
//===----------------------------------------------------------------------===//

class ShardDeterminismOracle : public Oracle {
public:
  const char *id() const override { return "shard-determinism"; }
  const char *describe() const override {
    return "profiles are bitwise equal across dcg-shards 1/8 and "
           "across ParallelRunner jobs 1/4";
  }

  std::string check(const OracleInput &In) const override {
    auto ProfileWithShards = [&](unsigned Shards) {
      vm::VMConfig Config = plainConfig(In.Seed);
      Config.Profiler.Kind = vm::ProfilerKind::CBS;
      Config.Profiler.CBS.SamplesPerTick = 64;
      Config.Profiler.DCGShards = Shards;
      Config.Profiler.SampleBufferCapacity = 8; // force frequent flushes
      Config.TimerPeriodCycles = 2'000;
      return runProgram(In.P, Config);
    };
    RunResult OneShard = ProfileWithShards(1);
    RunResult EightShards = ProfileWithShards(8);
    if (std::string D =
            compareRuns("dcg-shards=1", OneShard, "dcg-shards=8", EightShards);
        !D.empty())
      return D;
    if (prof::ProfileCodec::encode(OneShard.Profile) !=
        prof::ProfileCodec::encode(EightShards.Profile))
      return "dcg-shards=1 and dcg-shards=8 profiles serialize "
             "differently";

    // The same grid of runs through the parallel engine must commit
    // byte-identical results at any job count.
    auto SweepWithJobs = [&](unsigned Jobs) {
      exp::ParallelConfig Par;
      Par.Jobs = Jobs;
      Par.SeedBase = In.Seed;
      exp::ParallelRunner Runner(Par);
      std::vector<std::string> Serialized(3);
      std::string Committed;
      Runner.run(
          Serialized.size(),
          [&](exp::ParallelRunner::TaskContext &Ctx) {
            vm::VMConfig Config = plainConfig(In.Seed + Ctx.Index);
            Config.Profiler.Kind = vm::ProfilerKind::CBS;
            Config.Profiler.CBS.SamplesPerTick = 64;
            Config.TimerPeriodCycles = 2'000;
            Serialized[Ctx.Index] =
                prof::ProfileCodec::encode(runProgram(In.P, Config).Profile);
          },
          [&](exp::ParallelRunner::TaskContext &Ctx) {
            Committed += Serialized[Ctx.Index];
          });
      return Committed;
    };
    std::string Serial = SweepWithJobs(1);
    std::string Parallel = SweepWithJobs(4);
    if (Serial != Parallel)
      return "ParallelRunner jobs=1 and jobs=4 commit different profile "
             "bytes";
    return "";
  }
};

//===----------------------------------------------------------------------===//
// The AOS variant-stability oracles
//===----------------------------------------------------------------------===//

/// The CBS settings every AOS variant run shares. Generated programs
/// are small: sparse sampling on a fast timer still promotes (and thus
/// installs) methods.
vm::VMConfig variantConfig(uint64_t Seed, double LatencyScale, bool Osr) {
  vm::VMConfig Config = plainConfig(Seed);
  Config.Profiler.Kind = vm::ProfilerKind::CBS;
  Config.Profiler.CBS.Stride = 2;
  Config.Profiler.CBS.SamplesPerTick = 4;
  Config.TimerPeriodCycles = 2'000;
  Config.Costs.CompileLatencyScale = LatencyScale;
  Config.EnableOSR = Osr;
  return Config;
}

/// One AOS configuration an oracle checks. Every arm runs the same
/// template:
///  1. at each semantic latency with compile-jobs 0 — output and heap
///     must match the no-AOS baseline;
///  2. at latency 1 with compile-jobs 0 — same check;
///  3. at latency 1 with compile-jobs 2 — byte-identical to step 2 in
///     state, output, heap, sample count and encoded profile, because
///     workers only pre-compute pure compile results and every install,
///     deopt and OSR decision is made on the VM thread in virtual time.
struct VariantArm {
  /// Names this arm's runs in violation messages.
  const char *Label;
  bool Osr = false;
  /// The forced invalidation storm: every version the AOS installs is
  /// deoptimized at the very next taken yieldpoint, forever.
  bool Storm = false;
  std::vector<double> SemanticLatencies;
  /// Run a cold AOS first and warm-start steps 2 and 3 from its profile.
  bool WarmFromCold = false;
};

struct VariantRow {
  const char *Id;
  const char *Describe;
  std::vector<VariantArm> Arms;
};

/// Profiling and profile-directed optimization change speed, never
/// semantics: each row drives the AOS through one mechanism that must
/// stay invisible to the program.
const VariantRow VariantRows[] = {
    // Recompiling through the queue, immediately or after a long
    // modelled latency.
    {"async-compile-stability",
     "the background compile pipeline preserves program semantics at any "
     "modelled latency and is byte-identical at any --compile-jobs count",
     {{"aos", false, false, {0, 8}}}},
    // The worst case the deopt controller can inflict.
    {"deopt-storm-stability",
     "a forced invalidation storm (every AOS install deoptimized at every "
     "taken yieldpoint) leaves output and heap byte-identical to the no-AOS "
     "baseline at any --compile-jobs",
     {{"deopt-storm", false, true, {}}}},
    // Frames transferring mid-loop between versions: promotion OSR
    // (latency 0 fires at the very next backedge), then deopt-exit OSR
    // off storm-invalidated code.
    {"osr-stability",
     "on-stack replacement (promotion and deopt-exit transfers at "
     "loop-header yieldpoints) preserves output and heap and is "
     "byte-identical at any --compile-jobs",
     {{"osr", true, false, {0, 8}}, {"osr-deopt-storm", true, true, {}}}},
    // Warm-start advice only changes *when* code installs.
    {"warm-start-stability",
     "warm-starting the AOS from a prior run's profile preserves output "
     "and heap and is byte-identical at any --compile-jobs",
     {{"warm-start", false, false, {}, true}}},
};

class VariantOracle : public Oracle {
public:
  explicit VariantOracle(const VariantRow &Row) : Row(Row) {}

  const char *id() const override { return Row.Id; }
  const char *describe() const override { return Row.Describe; }

  std::string check(const OracleInput &In) const override {
    RunResult Base = runProgram(In.P, plainConfig(In.Seed));
    // A baseline that traps or runs out of budget is output-stability's
    // finding, not a variant divergence.
    if (Base.State != vm::RunState::Finished)
      return "";
    for (const VariantArm &Arm : Row.Arms)
      if (std::string D = checkArm(In, Base, Arm); !D.empty())
        return D;
    return "";
  }

private:
  static std::string checkArm(const OracleInput &In, const RunResult &Base,
                              const VariantArm &Arm) {
    std::string Label = Arm.Label;
    std::shared_ptr<const prof::DCGSnapshot> Warm;
    auto AOSRun = [&](double LatencyScale, uint32_t Jobs) {
      aos::AOSConfig AC;
      AC.CompileJobs = Jobs;
      if (Arm.Storm) {
        AC.Deopt.Enabled = true;
        AC.Deopt.ForceStormForTesting = true;
        // A low cap so the storm also exercises conservative pinning.
        AC.Deopt.MaxDeoptsPerMethod = 2;
      }
      AC.WarmStart.Profile = Warm;
      return runProgram(In.P, variantConfig(In.Seed, LatencyScale, Arm.Osr),
                        &AC);
    };

    for (double Latency : Arm.SemanticLatencies)
      if (std::string D = compareRuns(
              "no-aos", Base,
              Label + "-latency-" + std::to_string(int(Latency)),
              AOSRun(Latency, 0));
          !D.empty())
        return D;

    // The cold run (Warm still null) collects the profile a repository
    // would persist.
    if (Arm.WarmFromCold)
      Warm = std::make_shared<const prof::DCGSnapshot>(AOSRun(1, 0).Profile);

    std::string Name0 = Label + "-jobs=0", Name2 = Label + "-jobs=2";
    RunResult Jobs0 = AOSRun(1, 0);
    if (std::string D = compareRuns("no-aos", Base, Name0, Jobs0); !D.empty())
      return D;
    RunResult Jobs2 = AOSRun(1, 2);
    if (std::string D = compareRuns(Name0, Jobs0, Name2, Jobs2); !D.empty())
      return D;
    if (Jobs0.Samples != Jobs2.Samples)
      return Name0 + " and " + Name2 + " took different sample counts";
    if (prof::ProfileCodec::encode(Jobs0.Profile) !=
        prof::ProfileCodec::encode(Jobs2.Profile))
      return Name0 + " and " + Name2 + " profiles serialize differently";
    return "";
  }

  const VariantRow &Row;
};

//===----------------------------------------------------------------------===//
// The deliberately broken test oracle
//===----------------------------------------------------------------------===//

class BrokenOracleForTesting : public Oracle {
public:
  const char *id() const override { return "broken"; }
  const char *describe() const override {
    return "TEST ONLY: flags any program that prints (exercises the "
           "reducer and replay path)";
  }

  std::string check(const OracleInput &In) const override {
    RunResult R = runProgram(In.P, plainConfig(In.Seed));
    if (!R.Output.empty())
      return "program printed " + std::to_string(R.Output.size()) +
             " values (the broken oracle rejects all output)";
    return "";
  }
};

} // namespace

OracleRegistry OracleRegistry::builtin() {
  OracleRegistry R;
  R.add(std::make_unique<OutputStabilityOracle>());
  R.add(std::make_unique<CbsSubsetOracle>());
  R.add(std::make_unique<ProfileRoundTripOracle>());
  R.add(std::make_unique<ShardDeterminismOracle>());
  for (const VariantRow &Row : VariantRows)
    R.add(std::make_unique<VariantOracle>(Row));
  return R;
}

void fuzz::addBrokenOracleForTesting(OracleRegistry &R) {
  R.add(std::make_unique<BrokenOracleForTesting>());
}
