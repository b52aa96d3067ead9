//===- AdaptiveSuite.cpp - The adaptive-suite workload -------------------===//
//
// Part of the CBSVM benchmark.
//
//===----------------------------------------------------------------------===//
//
// The 13 Table 1 programs plus `phased`, at large input, under the full
// adaptive system (new-jikes oracle, chosen CBS, compile jobs 0, deopt
// policing, OSR). A round creates a fresh profile repository and makes
// Passes passes over the programs: the first starts cold and commits,
// the later ones load, warm-start and commit again. One op is one
// program's load -> run -> commit.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Workloads.h"

#include "bytecode/Verifier.h"
#include "experiments/Experiments.h"
#include "profiling/OverlapMetric.h"
#include "profiling/ProfileCodec.h"
#include "profiling/ProfileRepository.h"
#include "workloads/Workloads.h"

#include <filesystem>
#include <memory>
#include <optional>
#include <tuple>

using namespace cbs;
using namespace cbsbench;

namespace {

constexpr unsigned Passes = 3;

struct Input {
  std::string Name;
  bool Multithreaded = false;
  bc::Program P;
  prof::RepoKey Key;
};

/// What one op leaves for the check phase.
struct OpRecord {
  size_t Program = 0;
  unsigned Pass = 0;
  double Seconds = 0;
  vm::RunState State = vm::RunState::Running;
  std::vector<int64_t> Output;
  prof::DCGSnapshot Profile;
  bool Loaded = false;
  std::string LoadDiagnostic;
  bool Committed = false;
  std::string CommitError;
  uint64_t OverheadParts = 0; ///< sum of the overhead.* counters
  uint64_t OverheadCycles = 0; ///< VirtualMachine::overheadCycles()
  uint64_t Graveyard = 0;
  uint64_t FirstInstall = 0;
  uint64_t OverheadBp = 0;
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
};

const char *const OverheadParts[] = {
    "overhead.entry_check", "overhead.counter_update",
    "overhead.listener",    "overhead.stack_walk",
    "overhead.buffer_flush", "overhead.snapshot",
    "overhead.yieldpoint_taken", "overhead.shard_wait"};

/// Counters copied verbatim into the per-round virtual totals.
const char *const CountedMetrics[] = {
    "vm.cycles",          "vm.instructions",      "vm.calls_executed",
    "vm.timer_ticks",     "vm.yieldpoints_taken", "vm.osr_entries",
    "vm.deopts",          "vm.samples_taken",     "dcg.flushes",
    "dcg.dropped_samples", "vm.compile_cycles"};

/// The adaptive-suite VM: Jikes RVM personality, the JIT-only compile
/// pipeline, the chosen CBS setting (stride 3, 16 samples) and OSR on.
vm::VMConfig adaptiveVMConfig(const bc::Program &P, uint64_t Seed) {
  vm::VMConfig Config =
      exp::jitOnlyConfig(P, vm::Personality::JikesRVM, Seed);
  Config.Profiler = exp::chosenCBS(vm::Personality::JikesRVM);
  Config.EnableOSR = true;
  return Config;
}

/// The adaptive-suite AOS: compile jobs 0 and deopt policing on.
aos::AOSConfig adaptiveAOSConfig() {
  aos::AOSConfig AC;
  AC.CompileJobs = 0;
  AC.Deopt.Enabled = true;
  return AC;
}

/// A plain reference run: no profiler, no adaptive system.
struct PlainRun {
  vm::RunState State = vm::RunState::Running;
  std::vector<int64_t> Output;
};

PlainRun runPlain(const bc::Program &P, vm::VMConfig Config) {
  vm::VirtualMachine VM(P, std::move(Config));
  PlainRun R;
  R.State = VM.run();
  R.Output = VM.output();
  return R;
}

class AdaptiveSuite {
public:
  explicit AdaptiveSuite(const RunOptions &Opts)
      : Opts(Opts), RepoRoot(Opts.WorkDir + "/adaptive-suite") {}

  /// Builds and verifies the programs and creates the repository root.
  /// Run again on fresh objects to sample setup_s.
  void setup(SpanLog *Log);
  /// One round; appends its ops to \p Ops and returns its totals.
  VirtualTotals round(unsigned Index, SpanLog *Log, CountingSink *Sink,
                      std::vector<OpRecord> &Ops);
  RunResult run();

private:
  OpRecord runOp(size_t Program, unsigned Pass, prof::ProfileRepository &Repo,
                 SpanLog *Log, CountingSink *Sink, VirtualTotals &Totals);
  /// The untimed check phase of one round; returns the number of failed
  /// ops and each op's accuracy against the exhaustive reference.
  uint64_t check(RunResult &R, const std::vector<OpRecord> &Ops,
                 std::vector<double> &Accuracy);

  const RunOptions &Opts;
  std::vector<Input> Inputs;
  opt::NewJikesOracle Oracle;
  std::string RepoRoot;
  uint64_t Plans = 0;
  /// The check phase's references, made once per run.
  std::vector<PlainRun> Plain;
  std::vector<prof::DCGSnapshot> Perfect;
  std::string VerifyError;
};

void AdaptiveSuite::setup(SpanLog *Log) {
  std::vector<wl::WorkloadInfo> Programs = wl::suite();
  Programs.push_back({"phased", &wl::buildPhased, false});
  for (const wl::WorkloadInfo &W : Programs) {
    Input In;
    In.Name = W.Name;
    In.Multithreaded = W.Multithreaded;
    {
      ScopedSpan S(Log, "workloads.build");
      In.P = W.Build(wl::InputSize::Large, Opts.Seed);
    }
    {
      ScopedSpan S(Log, "bytecode.verify");
      if (bc::VerifyResult VR = bc::verifyProgram(In.P); !VR.ok())
        VerifyError = In.Name + ": " + VR.str();
    }
    In.Key = {In.Name, In.P.contentHash(), "jikes"};
    Inputs.push_back(std::move(In));
  }
  std::filesystem::create_directories(RepoRoot);
}

OpRecord AdaptiveSuite::runOp(size_t Program, unsigned Pass,
                              prof::ProfileRepository &Repo, SpanLog *Log,
                              CountingSink *Sink, VirtualTotals &Totals) {
  const Input &In = Inputs[Program];
  OpRecord R;
  R.Program = Program;
  R.Pass = Pass;
  Clock::time_point T0 = Clock::now();

  aos::AOSConfig AC = adaptiveAOSConfig();
  {
    ScopedSpan S(Log, "profiling.repo_load");
    prof::RepoLoadResult L = Repo.load(In.Key);
    R.Loaded = L.ok();
    R.LoadDiagnostic = L.Diagnostic;
    if (L.ok())
      AC.WarmStart.Profile =
          std::make_shared<const prof::DCGSnapshot>(std::move(L.Entry->Graph));
  }
  std::optional<TimedInlineOracle> TimedOracle;
  if (Log)
    TimedOracle.emplace(Oracle, *Log);
  aos::AdaptiveSystem AOS(Log ? &*TimedOracle
                              : static_cast<const opt::InlineOracle *>(&Oracle),
                          AC);
  std::optional<TimedClient> Client;
  if (Log)
    Client.emplace(AOS, *Log);

  vm::VMConfig Config = adaptiveVMConfig(In.P, Opts.Seed);
  Config.Trace = Sink;
  std::unique_ptr<vm::VirtualMachine> VM;
  {
    ScopedSpan S(Log, "vm.construct");
    VM = std::make_unique<vm::VirtualMachine>(In.P, std::move(Config));
  }
  VM->setClient(Client ? static_cast<vm::VMClient *>(&*Client) : &AOS);
  {
    ScopedSpan S(Log, "vm.run");
    R.State = VM->run();
  }
  {
    ScopedSpan S(Log, "profiling.snapshot");
    R.Profile = VM->profile();
  }
  if (R.State == vm::RunState::Finished) {
    ScopedSpan S(Log, "profiling.repo_commit");
    prof::RepoCommitResult C = Repo.commit(In.Key, R.Profile, VM->cycles());
    R.Committed = C.Committed;
    R.CommitError = C.Error;
  }

  R.Output = VM->output();
  const tel::MetricRegistry &M = VM->metrics();
  for (const char *Part : OverheadParts)
    R.OverheadParts += metricValue(M, Part);
  R.OverheadCycles = VM->overheadCycles();
  R.Graveyard = metricValue(M, "code.graveyard_instructions");
  R.OverheadBp = metricValue(M, "overhead.total_fraction_bp");
  R.Cycles = VM->cycles();
  R.Instructions = metricValue(M, "vm.instructions");
  for (const char *Name : CountedMetrics)
    Totals[Name] += metricValue(M, Name);

  const aos::AOSStats &A = AOS.stats();
  R.FirstInstall = A.FirstInstallCycle;
  Totals["aos.first_install_cycle"] += A.FirstInstallCycle;
  Totals["aos.enqueued"] += A.QueueEnqueued;
  Totals["aos.installs"] += A.QueueInstalls;
  Totals["aos.stale_drops"] += A.QueueStaleDrops;
  Totals["aos.coalesced"] += A.QueueCoalesced;
  Totals["aos.warm_installs"] += A.WarmInstalls;
  if (const aos::DeoptController *D = AOS.deoptController()) {
    Totals["aos.deopts"] += D->stats().Deopts;
    Totals["aos.recompiles"] += D->stats().Recompiles;
  }
  Totals["overhead.total_fraction_bp"] += R.OverheadBp;
  Totals["profile.total_weight"] += R.Profile.totalWeight();
  Totals["profile.edges"] += R.Profile.numEdges();
  Totals["output.values"] += R.Output.size();
  if (TimedOracle)
    Plans += TimedOracle->plans();
  {
    ScopedSpan S(Log, "vm.construct");
    VM.reset();
  }
  R.Seconds = secondsSince(T0);
  return R;
}

VirtualTotals AdaptiveSuite::round(unsigned Index, SpanLog *Log,
                                   CountingSink *Sink,
                                   std::vector<OpRecord> &Ops) {
  // A fresh repository per round, so every round does the same work.
  std::string Dir = RepoRoot + "/round-" + std::to_string(Index) +
                    (Log ? "-traced" : "");
  std::filesystem::create_directories(Dir);
  prof::ProfileRepository Repo(Dir);
  VirtualTotals Totals;
  for (unsigned Pass = 0; Pass != Passes; ++Pass)
    for (size_t I = 0; I != Inputs.size(); ++I)
      Ops.push_back(runOp(I, Pass, Repo, Log, Sink, Totals));
  return Totals;
}

uint64_t AdaptiveSuite::check(RunResult &R, const std::vector<OpRecord> &Ops,
                              std::vector<double> &Accuracy) {
  // Independent references, one per program, made once: a plain run (no
  // profiler, no adaptive system) for the output, and a free exhaustive
  // run for the profile the online DCG is scored against.
  if (Plain.empty())
    for (const Input &In : Inputs) {
      Plain.push_back(runPlain(In.P, exp::jitOnlyConfig(
                                         In.P, vm::Personality::JikesRVM,
                                         Opts.Seed)));
      Perfect.push_back(
          exp::runPerfect(In.P, vm::Personality::JikesRVM, Opts.Seed).DCG);
    }

  uint64_t Failed = 0;
  Accuracy.clear();
  for (const OpRecord &Op : Ops) {
    Accuracy.push_back(prof::accuracy(Op.Profile, Perfect[Op.Program]));
    const std::string &Name = Inputs[Op.Program].Name;
    std::string Why;
    if (Op.State != vm::RunState::Finished)
      Why = std::string("run ended ") + vm::runStateName(Op.State);
    else if (Plain[Op.Program].State != vm::RunState::Finished)
      Why = "the plain reference run did not finish";
    if (Why.empty())
      Why = checkSameOutput(Op.Output, Plain[Op.Program].Output,
                            Inputs[Op.Program].Multithreaded);
    if (Why.empty() && Op.OverheadParts != Op.OverheadCycles)
      Why = "overhead.* components sum to " +
            std::to_string(Op.OverheadParts) + ", overheadCycles() is " +
            std::to_string(Op.OverheadCycles);
    if (Why.empty() && Op.Graveyard != 0)
      Why = "code.graveyard_instructions is " + std::to_string(Op.Graveyard) +
            " at the end of the run";
    if (Why.empty() && Op.Pass > 0 && !Op.Loaded)
      Why = "pass " + std::to_string(Op.Pass) +
            " did not load a verified repository entry (" +
            Op.LoadDiagnostic + ")";
    if (Why.empty() && !Op.Committed)
      Why = "commit failed: " + Op.CommitError;
    if (Why.empty())
      Why = checkCodecRoundTrip(Op.Profile);
    if (!Why.empty() && ++Failed <= 5)
      R.note("FAILED op " + Name + " pass " + std::to_string(Op.Pass) + ": " +
             Why);
  }
  return Failed;
}

RunResult AdaptiveSuite::run() {
  RunResult R;
  std::filesystem::remove_all(RepoRoot);
  SpanLog SetupLog;
  SpanLog *SetupSpans = Opts.Trace ? &SetupLog : nullptr;
  std::vector<double> SetupTimes = {timeIt([&] { setup(SetupSpans); })};
  auto MoreSetups = [&] {
    for (unsigned K = 0; K != SetupsPerRound; ++K) {
      AdaptiveSuite Fresh(Opts);
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
  std::vector<double> OpSeconds, Accuracy, FirstInstallK;
  double Instr = 0, Cycles = 0, OverheadBp = 0, AccuracySum = 0;
  double EncNs = 0, DecNs = 0, Codecs = 0;
  SpanLog Log;
  CountingSink Sink;
  bool Traced = false;
  std::vector<VirtualTotals> TracedTotals;
  auto Round = [&](unsigned I) {
    Traced = Opts.Trace && tracedRound(I);
    Ops.clear();
    (Traced ? TracedTotals : Totals)
        .push_back(round(I, Traced ? &Log : nullptr, Traced ? &Sink : nullptr,
                         Ops));
  };
  auto After = [&](unsigned I) {
    R.Attempted += Ops.size();
    R.Failed += check(R, Ops, Accuracy);
    if (!Traced)
      for (const OpRecord &Op : Ops)
        OpSeconds.push_back(Op.Seconds);
    if (!Traced && I == 0)
      for (size_t K = 0; K != Ops.size(); ++K) {
        Instr += static_cast<double>(Ops[K].Instructions);
        Cycles += static_cast<double>(Ops[K].Cycles);
        OverheadBp += static_cast<double>(Ops[K].OverheadBp);
        AccuracySum += Accuracy[K];
        if (Ops[K].FirstInstall > 0)
          FirstInstallK.push_back(static_cast<double>(Ops[K].FirstInstall) /
                                  1e3);
      }
    if (Traced)
      // The codec, timed on every traced op's profile.
      for (const OpRecord &Op : Ops) {
        Clock::time_point T0 = Clock::now();
        std::string Text = prof::ProfileCodec::encode(Op.Profile);
        Clock::time_point T1 = Clock::now();
        prof::ProfileCodec::Decoded D = prof::ProfileCodec::decode(Text);
        Clock::time_point T2 = Clock::now();
        EncNs += std::chrono::duration<double, std::nano>(T1 - T0).count();
        DecNs += std::chrono::duration<double, std::nano>(T2 - T1).count();
        Codecs += 1;
        if (!D.ok())
          R.broken("codec timing round trip failed: " + D.Error);
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
  std::filesystem::remove_all(RepoRoot);

  const VirtualTotals T = Totals[0];
  double Rounds = static_cast<double>(Walls.size());
  double RoundOps = static_cast<double>(Passes * Inputs.size());
  if (!Opts.Trace) {
    addHostMetrics(
        R, median(SetupTimes), Walls, OpSeconds,
        mcyclesPerSecond(static_cast<double>(T.at("vm.cycles")), Walls),
        PeakRss);
    R.add("virtual_ipc", Instr / Cycles, "instr/cycle");
    R.add("first_install_kcycles", geomean(FirstInstallK), "kcycles");
    R.add("overhead_bp", OverheadBp / RoundOps, "bp");
    R.add("accuracy_pct", AccuracySum / RoundOps, "%");
    R.note("rounds: " + std::to_string(Walls.size()) + " of " +
           std::to_string(static_cast<size_t>(RoundOps)) + " ops; " +
           std::to_string(FirstInstallK.size()) +
           " ops per round installed optimized code");
    return R;
  }

  for (const VirtualTotals &TT : TracedTotals)
    expectSameTotals(R, "traced round", T, TT);

  // Per-layer metrics, per traced round unless a unit says otherwise.
  std::map<std::string, double> L;
  std::map<std::string, double> Self = Log.selfNs();
  std::map<std::string, uint64_t> Count = Log.counts();
  auto PerRoundMs = [&](const char *Layer) {
    return Self[Layer] / Rounds / 1e6;
  };
  auto PerCallUs = [&](const char *Layer) {
    return Count[Layer] ? Self[Layer] / static_cast<double>(Count[Layer]) / 1e3
                        : 0.0;
  };
  L["vm.run_self_ms"] = PerRoundMs("vm.run");
  L["vm.host_ns_per_kcycle"] =
      Self["vm.run"] / Rounds / (static_cast<double>(T.at("vm.cycles")) / 1e3);
  // Two spans per VM: its constructor and its destructor.
  L["vm.construct_us"] = 2 * PerCallUs("vm.construct");
  for (const char *K : {"vm.instructions", "vm.calls_executed",
                        "vm.timer_ticks", "vm.yieldpoints_taken",
                        "vm.osr_entries", "vm.deopts"})
    L[K] = static_cast<double>(T.at(K));
  L["profiling.snapshot_us"] = PerCallUs("profiling.snapshot");
  L["profiling.samples"] = static_cast<double>(T.at("vm.samples_taken"));
  L["profiling.flushes"] = static_cast<double>(T.at("dcg.flushes"));
  L["profiling.dropped"] = static_cast<double>(T.at("dcg.dropped_samples"));
  L["profiling.repo_load_us"] = PerCallUs("profiling.repo_load");
  L["profiling.repo_commit_us"] = PerCallUs("profiling.repo_commit");
  L["profiling.codec_encode_us"] = Codecs ? EncNs / Codecs / 1e3 : 0;
  L["profiling.codec_decode_us"] = Codecs ? DecNs / Codecs / 1e3 : 0;
  L["opt.plan_ms"] = PerRoundMs("opt.plan");
  L["opt.plans"] = static_cast<double>(Plans) / Rounds;
  L["aos.startup_ms"] = PerRoundMs("aos.startup");
  L["aos.tick_ms"] = PerRoundMs("aos.tick");
  L["aos.yieldpoint_ms"] = PerRoundMs("aos.yieldpoint");
  for (const char *K : {"aos.enqueued", "aos.installs", "aos.stale_drops",
                        "aos.coalesced", "aos.warm_installs", "aos.deopts",
                        "aos.recompiles"})
    L[K] = T.count(K) ? static_cast<double>(T.at(K)) : 0.0;
  L["aos.install_ratio"] =
      L["aos.enqueued"] > 0 ? L["aos.installs"] / L["aos.enqueued"] : 0.0;
  const std::pair<const char *, tel::EventKind> Events[] = {
      {"telemetry.events.compile_enqueue", tel::EventKind::CompileEnqueue},
      {"telemetry.events.compile_install", tel::EventKind::CompileInstall},
      {"telemetry.events.deopt", tel::EventKind::Deopt},
      {"telemetry.events.osr", tel::EventKind::Osr},
      {"telemetry.events.phase_shift", tel::EventKind::PhaseShift}};
  for (const auto &[Name, Kind] : Events)
    L[Name] = static_cast<double>(Sink.count(Kind)) / Rounds;

  addSharedLayers(L, SetupLog, SetupTimes.size(), Walls, TracedWalls,
                  Log.rootNs());
  addPerLayer(R, L);
  return R;
}

} // namespace

uint64_t cbsbench::coldFirstInstall(const bc::Program &P, uint64_t Seed) {
  opt::NewJikesOracle Oracle;
  aos::AdaptiveSystem AOS(&Oracle, adaptiveAOSConfig());
  vm::VirtualMachine VM(P, adaptiveVMConfig(P, Seed));
  VM.setClient(&AOS);
  VM.run();
  return AOS.stats().FirstInstallCycle;
}

RunResult cbsbench::runAdaptiveSuite(const RunOptions &Opts) {
  return AdaptiveSuite(Opts).run();
}
