//===- vm/VirtualMachine.cpp - The virtual machine --------------------------===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//

#include "vm/VirtualMachine.h"

#include "support/ErrorHandling.h"
#include "telemetry/FlightRecorder.h"
#include "telemetry/TraceSink.h"
#include "vm/StackWalker.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace cbs;
using namespace cbs::vm;

const char *vm::runStateName(RunState S) {
  switch (S) {
  case RunState::Running:
    return "running";
  case RunState::Finished:
    return "finished";
  case RunState::Halted:
    return "halted";
  case RunState::Trapped:
    return "trapped";
  case RunState::CycleLimit:
    return "cycle-limit";
  }
  return "?";
}

VMClient::~VMClient() = default;

VirtualMachine::LiveStats::LiveStats(tel::MetricRegistry &R)
    : Cycles(R.counter("vm.cycles")),
      Instructions(R.counter("vm.instructions")),
      CallsExecuted(R.counter("vm.calls_executed")),
      VirtualCallsExecuted(R.counter("vm.virtual_calls_executed")),
      TimerTicks(R.counter("vm.timer_ticks")),
      YieldpointsTaken(R.counter("vm.yieldpoints_taken")),
      SamplesTaken(R.counter("vm.samples_taken")),
      ProfilingCycles(R.counter("vm.profiling_cycles")),
      CompileCycles(R.counter("vm.compile_cycles")),
      GCCount(R.counter("vm.gc_count")),
      ThreadSwitches(R.counter("vm.thread_switches")),
      ThreadsSpawned(R.counter("vm.threads_spawned")),
      Deopts(R.counter("vm.deopts")),
      FramesDeopted(R.counter("vm.frames_deopted")),
      OsrEntries(R.counter("vm.osr_entries")),
      OsrExits(R.counter("vm.osr_exits")),
      DCGFlushes(R.counter("dcg.flushes")),
      DCGDropped(R.counter("dcg.dropped_samples")),
      MaxStackDepth(R.gauge("vm.max_stack_depth")),
      SampleStackDepth(R.histogram("vm.sample_stack_depth")),
      CompileCostCycles(R.histogram("vm.compile_cost_cycles")),
      OvEntryCheck(R.counter("overhead.entry_check")),
      OvCounterUpdate(R.counter("overhead.counter_update")),
      OvListener(R.counter("overhead.listener")),
      OvStackWalk(R.counter("overhead.stack_walk")),
      OvBufferFlush(R.counter("overhead.buffer_flush")),
      OvSnapshot(R.counter("overhead.snapshot")),
      OvYieldpoint(R.counter("overhead.yieldpoint_taken")),
      OvShardWait(R.counter("overhead.shard_wait")) {}

const VMStats &VirtualMachine::stats() const {
  Facade.Cycles = Stats.Cycles;
  Facade.Instructions = Stats.Instructions;
  Facade.CallsExecuted = Stats.CallsExecuted;
  Facade.VirtualCallsExecuted = Stats.VirtualCallsExecuted;
  Facade.TimerTicks = Stats.TimerTicks;
  Facade.YieldpointsTaken = Stats.YieldpointsTaken;
  Facade.SamplesTaken = Stats.SamplesTaken;
  Facade.ProfilingCycles = Stats.ProfilingCycles;
  Facade.CompileCycles = Stats.CompileCycles;
  Facade.GCCount = Stats.GCCount;
  Facade.ThreadSwitches = Stats.ThreadSwitches;
  Facade.ThreadsSpawned = Stats.ThreadsSpawned;
  Facade.MaxStackDepth = Stats.MaxStackDepth;
  return Facade;
}

const tel::MetricRegistry &VirtualMachine::metrics() {
  Registry.gauge("heap.bytes_allocated") = TheHeap.bytesAllocated();
  Registry.gauge("heap.objects") = TheHeap.numObjects();
  Registry.gauge("code.compiles") = Cache.numCompiles();
  Registry.gauge("code.recompiles") = Cache.numRecompiles();
  Registry.gauge("code.invalidations") = Cache.numInvalidations();
  Registry.gauge("code.active_instructions") = Cache.activeCodeInstructions();
  Registry.gauge("code.graveyard_instructions") =
      Cache.graveyardCodeInstructions();
  Registry.gauge("code.graveyard_reclaimed_instructions") =
      Cache.reclaimedCodeInstructions();
  Registry.gauge("code.graveyard_reclaims") = Cache.numReclaims();
  Registry.gauge("vm.methods_executed") = methodsExecuted();
  Registry.gauge("vm.threads_live") = countRunnable();
  Registry.gauge("dcg.shard_contention") = DCG.contentionCount();
  // The online Figure 4: all attributed profiling cycles as a fraction
  // of the whole run, in basis points (300 = 3%).
  Registry.gauge("overhead.total_fraction_bp") =
      Stats.Cycles == 0 ? 0 : 10'000 * overheadCycles() / Stats.Cycles;
  return Registry;
}

VirtualMachine::VirtualMachine(const bc::Program &P, VMConfig Config)
    : P(P), Config(std::move(Config)), Stats(Registry),
      Trace(this->Config.Trace), Recorder(this->Config.Recorder),
      Cache(P), RNG(this->Config.Seed),
      DCG(this->Config.Profiler.DCGShards),
      InvocationCounts(P.numMethods(), 0), TickSamples(P.numMethods(), 0) {
  if (this->Config.Profiler.Kind == ProfilerKind::CodePatching)
    Patching = std::make_unique<prof::CodePatchingProfiler>(
        P.numMethods(), this->Config.Profiler.Patching);
  // A recorder with no separate trace sink doubles as the sink, so it
  // retains the regular event stream around each anomaly.
  if (Recorder && !Trace)
    Trace = Recorder;
  if (this->Config.Profiler.Quality.EveryTicks != 0)
    Quality = std::make_unique<prof::ProfileQualityMonitor>(
        this->Config.Profiler.Quality, Registry);
  // Reference configurations whose profiler is free by construction
  // (None; Exhaustive with counters uncharged — the §6.2 "perfect"
  // baseline) must stay free: organizer costs are modelled only where
  // the profiler itself is charged.
  ProfilerKind Kind = this->Config.Profiler.Kind;
  ChargedProfiling =
      Kind == ProfilerKind::CBS || Kind == ProfilerKind::Timer ||
      Kind == ProfilerKind::CodePatching ||
      (Kind == ProfilerKind::Exhaustive &&
       this->Config.Profiler.ChargeExhaustiveCounters);
  NextTimerAt = this->Config.TimerPeriodCycles;
  NextGCAt = this->Config.GCThresholdBytes;
  spawnThread(P.entryMethod());
}

VirtualMachine::~VirtualMachine() = default;

Thread &VirtualMachine::spawnThread(bc::MethodId Entry) {
  const CompiledMethod *CM = ensureCompiled(Entry);
  auto T = std::make_unique<Thread>();
  T->Id = static_cast<uint32_t>(Threads.size());
  T->CBS = prof::CounterBasedSampler(Config.Profiler.CBS);
  T->Alloc = prof::CounterBasedSampler(Config.Profiler.AllocCBS);
  T->Buffer = prof::SampleBuffer(Config.Profiler.SampleBufferCapacity);
  T->Values.resize(CM->NumLocals, 0);
  T->Frames.push_back({CM, 0, 0, false, CM->Costs.data()});
  Cache.pinFrame(CM);
  ++InvocationCounts[Entry];
  Threads.push_back(std::move(T));
  ++Stats.ThreadsSpawned;
  return *Threads.back();
}

const CompiledMethod *VirtualMachine::ensureCompiled(bc::MethodId Id) {
  if (const CompiledMethod *CM = Cache.active(Id))
    return CM;
  uint32_t Thr = Threads.empty() ? 0 : Threads[Current]->Id;
  if (Trace)
    Trace->event(tel::TraceEvent::compileStart(
        Stats.Cycles, Thr, Id, static_cast<uint32_t>(Config.JITLevel)));
  CompiledMethod CM =
      Config.CompileHook
          ? Config.CompileHook(P, Id, Config.JITLevel)
          : CodeCache::compileBaseline(P, Id, Config.JITLevel, Config.Costs);
  assert(CM.Id == Id && "compile hook returned code for the wrong method");
  Stats.CompileCycles += CM.CompileCostCycles;
  Stats.CompileCostCycles.record(CM.CompileCostCycles);
  if (Trace)
    Trace->event(tel::TraceEvent::compileFinish(
        Stats.Cycles, Thr, Id, CM.Level, CM.CompileCostCycles));
  return installVersion(std::move(CM));
}

const CompiledMethod *VirtualMachine::installVersion(CompiledMethod CM) {
  CM.Costs.resize(CM.Code.size());
  for (size_t PC = 0; PC != CM.Code.size(); ++PC) {
    uint64_t Cost = CM.scaledCost(Config.Costs.cost(CM.Code[PC]));
    if (Cost > UINT32_MAX)
      reportFatalError("instruction " + std::to_string(PC) + " of method " +
                       std::to_string(CM.Id) + " costs " +
                       std::to_string(Cost) + " cycles, over 32 bits");
    CM.Costs[PC] = static_cast<uint32_t>(Cost);
  }
  return Cache.install(std::move(CM));
}

const uint32_t *VirtualMachine::baselineCosts(const CompiledMethod &CM) const {
  if (CM.ScaleQ8 == 256)
    return CM.Costs.data();
  if (CM.BaseCosts.empty()) {
    CM.BaseCosts.reserve(CM.Code.size());
    for (const bc::Instruction &I : CM.Code)
      CM.BaseCosts.push_back(Config.Costs.cost(I));
  }
  return CM.BaseCosts.data();
}

bool VirtualMachine::deoptimize(bc::MethodId Id) {
  const CompiledMethod *Retired = Cache.invalidate(Id);
  if (!Retired)
    return false;
  // Threads reconcile lazily: each marks its own affected frames at its
  // next taken yieldpoint (reconcileDeoptFrames), which is where the
  // per-frame DeoptCost is charged.
  ++DeoptEpoch;
  ++Stats.Deopts;
  uint32_t Thr = Threads.empty() ? 0 : Threads[Current]->Id;
  emitAnomaly(tel::TraceEvent::deopt(Stats.Cycles, Thr, Id, Retired->Level,
                                     Cache.invalidationEpoch(Id)));
  // A version invalidated while no frame runs it would never see
  // another unpin; free it now.
  Cache.reclaimIfUnpinned(Retired);
  return true;
}

void VirtualMachine::reconcileDeoptFrames(Thread &T) {
  if (T.DeoptEpochSeen == DeoptEpoch)
    return;
  T.DeoptEpochSeen = DeoptEpoch;
  for (Frame &F : T.Frames) {
    if (F.Deopted || !F.CM->Invalidated)
      continue;
    F.Deopted = true;
    F.Costs = baselineCosts(*F.CM);
    ++Stats.FramesDeopted;
    // Frame-state reconstruction for the baseline fallback: a base
    // runtime service, not profiling work.
    Stats.Cycles += Config.Costs.DeoptCost;
  }
}

void VirtualMachine::maybeOSR(Thread &T, uint32_t BackedgeTarget) {
  if (T.Frames.empty())
    return;
  Frame &F = T.top();
  const CompiledMethod *From = F.CM;
  // The backedge's target must be a mapped OSR point of the running
  // version — otherwise we are not at a transferable loop entry.
  const OsrPoint *FromPt = From->osrPointAtCode(BackedgeTarget);
  if (!FromPt)
    return;

  const CompiledMethod *To = Cache.active(From->Id);
  if (To == From)
    return; // already running the newest code
  bool DeoptExit = F.Deopted;
  if (!To) {
    // Invalidated with no replacement: only a deopted frame has a
    // reason to move — it reconciles to the fresh baseline the lazy
    // compile path would hand the next invocation anyway.
    if (!DeoptExit)
      return;
    To = ensureCompiled(From->Id);
  }
  const OsrPoint *ToPt = To->osrPointAtBytecode(FromPt->BytecodePC);
  if (!ToPt)
    return; // the new version dissolved this loop header

  // Transfer is a pure locals remap only when the operand stack is
  // empty. At a loop header of structured code it always is; checked,
  // not assumed, because generated programs are only verifier-clean.
  if (T.Values.size() != F.LocalBase + From->NumLocals)
    return;

  // Root locals occupy the same leading slots in every version;
  // inlined-callee temps beyond them are dead at a root loop header
  // (each spliced region spills its values before reading them), so
  // grow-with-zeros / shrink is safe.
  T.Values.resize(F.LocalBase + To->NumLocals, 0);
  Cache.unpinFrame(From); // may reclaim From's graveyard slot
  Cache.pinFrame(To);
  F.CM = To;
  F.PC = ToPt->CodePC;
  F.Deopted = false;
  F.Costs = To->Costs.data();

  // Frame-state extraction + rebuild for the other version's code.
  Stats.Cycles += Config.Costs.OsrCost;
  if (DeoptExit)
    ++Stats.OsrExits;
  else
    ++Stats.OsrEntries;
  if (Trace)
    Trace->event(tel::TraceEvent::osr(Stats.Cycles, T.Id, To->Id, To->Level,
                                      DeoptExit ? 2 : 1));
}

void VirtualMachine::installCompiled(CompiledMethod CM) {
  Stats.CompileCycles += CM.CompileCostCycles;
  Stats.CompileCostCycles.record(CM.CompileCostCycles);
  if (Trace) {
    uint32_t Thr = Threads.empty() ? 0 : Threads[Current]->Id;
    Trace->event(tel::TraceEvent::compileStart(Stats.Cycles, Thr, CM.Id,
                                               CM.Level));
    Trace->event(tel::TraceEvent::compileFinish(Stats.Cycles, Thr, CM.Id,
                                                CM.Level,
                                                CM.CompileCostCycles));
  }
  installVersion(std::move(CM));
}

size_t VirtualMachine::countRunnable() const {
  size_t N = 0;
  for (const auto &T : Threads)
    if (!T->Finished)
      ++N;
  return N;
}

size_t VirtualMachine::methodsExecuted() const {
  size_t N = 0;
  for (uint64_t C : InvocationCounts)
    if (C != 0)
      ++N;
  return N;
}

void VirtualMachine::emitAnomaly(const tel::TraceEvent &E) {
  if (Trace)
    Trace->event(E);
  // A recorder serving as the trace sink already saw the event above.
  if (Recorder && static_cast<tel::TraceSink *>(Recorder) != Trace)
    Recorder->event(E);
}

void VirtualMachine::trap(const std::string &Message) {
  Thread &T = *Threads[Current];
  std::ostringstream OS;
  OS << Message;
  if (!T.Frames.empty())
    OS << " in " << P.qualifiedName(T.top().CM->Id) << " at pc "
       << T.top().PC;
  TrapMsg = OS.str();
  State = RunState::Trapped;
  emitAnomaly(tel::TraceEvent::trap(
      Stats.Cycles, T.Id,
      T.Frames.empty() ? bc::InvalidMethodId : T.top().CM->Id,
      T.Frames.empty() ? 0 : T.top().PC));
}

void VirtualMachine::fireTimer() {
  // One tick per boundary crossing; a single long instruction (Work, GC
  // pause) that skips several periods still delivers one interrupt.
  while (NextTimerAt <= Stats.Cycles)
    NextTimerAt += Config.TimerPeriodCycles;
  if (Config.TimerJitterPct > 0) {
    int64_t MaxJitter = static_cast<int64_t>(
        static_cast<double>(Config.TimerPeriodCycles) *
        Config.TimerJitterPct / 100.0);
    if (MaxJitter > 0) {
      int64_t Jitter = RNG.nextInRange(-MaxJitter, MaxJitter);
      uint64_t Earliest = Stats.Cycles + 1;
      NextTimerAt = std::max<uint64_t>(
          Earliest, static_cast<uint64_t>(
                        static_cast<int64_t>(NextTimerAt) + Jitter));
    }
  }
  ++Stats.TimerTicks;
  Stats.Cycles += Config.Costs.TimerInterrupt;

  // Organizer activation: drain every listener buffer into the shared
  // repository (one batch per thread, so one set of shard-lock
  // acquisitions per activation rather than per sample).
  flushAllBuffers();

  if (Config.Profiler.DecayEveryTicks != 0 &&
      Stats.TimerTicks % Config.Profiler.DecayEveryTicks == 0) {
    // Pending samples predate the decay point and must decay with the
    // rest of the repository, so flush them first.
    flushAllBuffers();
    DCG.decay(Config.Profiler.DecayFactor);
  }

  if (Quality &&
      Stats.TimerTicks % Config.Profiler.Quality.EveryTicks == 0)
    closeQualityWindow();

  Thread &T = *Threads[Current];
  TickPending = true;
  T.Word = YieldWord::TakeAll;
  if (Config.Profiler.ProfileAllocations)
    T.Alloc.onTimerTick(RNG);
  if (countRunnable() > 1)
    SwitchPending = true;

  if (Trace)
    Trace->event(tel::TraceEvent::timerTick(
        Stats.Cycles, T.Id,
        T.Frames.empty() ? bc::InvalidMethodId : T.top().CM->Id));

  if (!T.Frames.empty()) {
    bc::MethodId Top = T.top().CM->Id;
    ++TickSamples[Top];
    if (Client)
      Client->onTimerTick(*this, Top);
  }
}

void VirtualMachine::closeQualityWindow() {
  // Window boundary: pending samples belong to the closing window.
  flushAllBuffers();
  prof::DCGSnapshot Snap = DCG.snapshot();
  if (ChargedProfiling)
    chargeProf(static_cast<uint32_t>(Config.Costs.SnapshotPerEdge *
                                     Snap.numEdges()),
               Stats.OvSnapshot);
  const prof::QualityWindow &W =
      Quality->onWindow(Snap, Stats.TimerTicks, Stats.Cycles);

  if (Recorder) {
    tel::RecorderWindow RW;
    RW.Index = W.Index;
    RW.Tick = W.Tick;
    RW.Cycles = W.Cycles;
    RW.DeltaCycles = Stats.Cycles - WinBase.Cycles;
    RW.DeltaSamples = Stats.SamplesTaken - WinBase.Samples;
    RW.DeltaDrops = Stats.DCGDropped - WinBase.Drops;
    RW.DeltaFlushes = Stats.DCGFlushes - WinBase.Flushes;
    RW.DeltaProfilingCycles = Stats.ProfilingCycles - WinBase.ProfilingCycles;
    RW.OverlapBp = static_cast<uint64_t>(W.OverlapPct * 100.0 + 0.5);
    RW.OverheadBp =
        Stats.Cycles == 0 ? 0 : 10'000 * overheadCycles() / Stats.Cycles;
    Recorder->noteWindow(RW);
    WinBase = {Stats.Cycles, Stats.SamplesTaken, Stats.DCGDropped,
               Stats.DCGFlushes, Stats.ProfilingCycles};
  }

  // Emit after the window note so a dump triggered by this event
  // carries the window that detected the shift.
  if (W.PhaseShift)
    emitAnomaly(tel::TraceEvent::phaseShift(
        Stats.Cycles, Threads[Current]->Id,
        static_cast<uint32_t>(W.OverlapPct * 100.0 + 0.5),
        static_cast<uint32_t>(W.Index)));
}

void VirtualMachine::maybeSwitch() {
  if (!SwitchPending)
    return;
  SwitchPending = false;
  size_t N = Threads.size();
  for (size_t I = 1; I <= N; ++I) {
    size_t Next = (Current + I) % N;
    if (Threads[Next]->Finished)
      continue;
    if (Next != Current) {
      uint32_t From = Threads[Current]->Id;
      // Yieldpoint flush: the outgoing thread's staged samples enter
      // the repository before another thread runs.
      flushThreadBuffer(*Threads[Current]);
      Current = Next;
      ++Stats.ThreadSwitches;
      Stats.Cycles += Config.Costs.ThreadSwitch;
      if (Trace)
        Trace->event(tel::TraceEvent::threadSwitch(Stats.Cycles, From,
                                                   Threads[Next]->Id));
    }
    return;
  }
}

void VirtualMachine::recordEdgeSample(Thread &T) {
  ++Stats.SamplesTaken;
  Stats.SampleStackDepth.record(T.Frames.size());
  chargeProf(Config.Costs.StackSampleBase, Stats.OvStackWalk);
  std::optional<prof::CallEdge> Edge = topEdge(T);
  if (Trace)
    Trace->event(tel::TraceEvent::sample(
        Stats.Cycles, T.Id, Edge ? Edge->Callee : bc::InvalidMethodId,
        Edge ? Edge->Site : bc::InvalidSiteId));
  // Listener context: append only. The buffer is drained by the
  // organizer at the next timer tick — a listener may not take
  // repository locks, and a buffer that fills up before the organizer
  // runs drops further samples (surfaced as sample_drop events).
  if (Edge)
    T.Buffer.append(*Edge);
  if (Config.Profiler.ContextSensitive) {
    chargeProf(Config.Costs.StackSamplePerFrame *
                   static_cast<uint32_t>(T.Frames.size()),
               Stats.OvStackWalk);
    CCT.addPath(walkStack(T));
  }
}

void VirtualMachine::processTaken(Thread &T, Where W,
                                  uint32_t BackedgeTarget) {
  ++Stats.YieldpointsTaken;

  // Taken yieldpoints are the deterministic virtual-time points where
  // background compilations may install (the client checks its queue
  // against cycles()). Before tick/GC servicing so an install and the
  // tick that follows it order the same way at any --compile-jobs.
  if (Client)
    Client->onYieldpoint(*this);

  // Deopt fallback transition: frames whose pinned version was
  // invalidated (possibly by the client call just above) drop to
  // baseline speed here — the earliest deterministic point after the
  // decision.
  reconcileDeoptFrames(T);

  // On-stack replacement happens only here: after installs and deopt
  // reconciliation (so the frame transfers to whatever just became
  // active), before tick servicing, and only at backedges — the one
  // yieldpoint flavour where the interpreter is at a loop entry with an
  // empty operand stack.
  if (Config.EnableOSR && W == Where::Backedge)
    maybeOSR(T, BackedgeTarget);

  // Figure 4: the overloaded flag's slow path disambiguates all pending
  // conditions — original services (GC) first, then profiling.
  if (GCRequested) {
    GCRequested = false;
    ++Stats.GCCount;
    Stats.Cycles += Config.Costs.GCPause;
    NextGCAt = TheHeap.bytesAllocated() + Config.GCThresholdBytes;
    if (Trace)
      Trace->event(tel::TraceEvent::gc(Stats.Cycles, T.Id,
                                       TheHeap.bytesAllocated()));
  }

  ProfilerKind Kind = Config.Profiler.Kind;

  if (TickPending) {
    TickPending = false;
    // Attributed but not in ProfilingCycles: servicing a tick at a
    // yieldpoint is a base runtime service every configuration pays.
    Stats.Cycles += Config.Costs.TickService;
    Stats.OvYieldpoint += Config.Costs.TickService;
    if (Kind == ProfilerKind::CBS) {
      // §5.1: a yieldpoint taken for a timer interrupt arms CBS by
      // setting the control word to -1; the thread switch is deferred
      // until the window closes.
      T.CBS.onTimerTick(RNG);
      T.Word = YieldWord::CBSArmed;
      if (Trace)
        Trace->event(tel::TraceEvent::windowArm(
            Stats.Cycles, T.Id, Config.Profiler.CBS.SamplesPerTick));
      if (SwitchPending) {
        T.DeferredSwitch = true;
        SwitchPending = false;
      }
      return;
    }
    if (Kind == ProfilerKind::Timer) {
      T.Timer.onTimerTick();
      if (W == Where::Backedge) {
        // The switch happens here and the DCG listener records nothing.
        T.Timer.cancel();
      } else {
        T.Timer.onInvocationEvent();
        recordEdgeSample(T);
      }
    }
    T.Word = YieldWord::Clear;
    maybeSwitch();
    return;
  }

  // Not a tick: a CBS invocation event, or a service-only request (GC).
  if (Kind == ProfilerKind::CBS && T.CBS.armed() && W != Where::Backedge) {
    chargeProf(Config.Costs.ArmedEventCost, Stats.OvEntryCheck);
    if (T.CBS.onInvocationEvent()) {
      recordEdgeSample(T);
      if (!T.CBS.armed()) {
        if (Trace)
          Trace->event(tel::TraceEvent::windowDisarm(Stats.Cycles, T.Id));
        T.Word = YieldWord::Clear;
        if (T.DeferredSwitch) {
          T.DeferredSwitch = false;
          SwitchPending = true;
          maybeSwitch();
        }
      }
    }
    return;
  }

  if (T.Word == YieldWord::TakeAll) {
    // Service-only request already handled above (GC); restore the word.
    T.Word = (Kind == ProfilerKind::CBS && T.CBS.armed())
                 ? YieldWord::CBSArmed
                 : YieldWord::Clear;
    maybeSwitch();
  }
}

void VirtualMachine::invoke(Thread &T, bc::MethodId Callee, uint32_t ArgCount,
                            bc::SiteId Site) {
  // Exhaustive profiler: record the edge at the call itself. Routed
  // through the thread's buffer like sampled edges — weights are
  // commutative sums, so batching does not change the profile.
  if (Config.Profiler.Kind == ProfilerKind::Exhaustive) {
    if (T.Buffer.append({Site, Callee}))
      flushThreadBuffer(T);
    if (Config.Profiler.ChargeExhaustiveCounters)
      chargeProf(Config.Costs.ExhaustiveCounter, Stats.OvCounterUpdate);
  }

  const CompiledMethod *CM = ensureCompiled(Callee);
  uint64_t Count = ++InvocationCounts[Callee];

  if (Patching) {
    if (Patching->isListening(Callee)) {
      chargeProf(Config.Costs.ListenerCost, Stats.OvListener);
      Patching->onListenedEntry(Callee, {Site, Callee}, Stats.Cycles, DCG);
    } else if (Count == Config.Profiler.PromoteAfterInvocations) {
      Patching->onMethodPromoted(Callee, Stats.Cycles);
    }
  }

  // The arguments on the operand stack become the callee's first locals.
  assert(T.Values.size() >= T.top().LocalBase + T.top().CM->NumLocals +
                                ArgCount &&
         "operand stack underflow at call");
  uint32_t LocalBase = static_cast<uint32_t>(T.Values.size() - ArgCount);
  T.Values.resize(LocalBase + CM->NumLocals, 0);
  T.Frames.push_back({CM, 0, LocalBase, false, CM->Costs.data()});
  Cache.pinFrame(CM);
  ++Stats.CallsExecuted;
  Stats.MaxStackDepth = std::max<uint64_t>(Stats.MaxStackDepth,
                                           T.Frames.size());

  // Prologue yieldpoint (Jikes) / overloaded entry check (J9).
  if (Config.ExplicitEntryCheck)
    chargeProf(Config.Costs.ExplicitEntryCheck, Stats.OvEntryCheck);
  if (T.Word != YieldWord::Clear)
    processTaken(T, Where::Prologue);
}

prof::AllocationProfile VirtualMachine::trueAllocationProfile() const {
  prof::AllocationProfile Truth;
  const std::vector<uint64_t> &Counts = TheHeap.perClassAllocations();
  for (bc::ClassId C = 0; C != Counts.size(); ++C)
    if (Counts[C] != 0)
      Truth.addSample(C, Counts[C]);
  return Truth;
}

void VirtualMachine::flushThreadBuffer(Thread &T) {
  if (uint64_t Dropped = T.Buffer.takeDroppedDelta()) {
    Stats.DCGDropped += Dropped;
    emitAnomaly(tel::TraceEvent::sampleDrop(
        Stats.Cycles, T.Id, static_cast<uint32_t>(T.Buffer.capacity()),
        Dropped));
  }
  size_t Pending = T.Buffer.pendingCount();
  if (Pending == 0)
    return;
  // Organizer cost: modelled only while the program runs (post-run
  // flushes are measurement) and only for charged profilers.
  if (ChargedProfiling && State == RunState::Running)
    chargeProf(Config.Costs.BufferFlushBase +
                   Config.Costs.BufferFlushPerSample *
                       static_cast<uint32_t>(Pending),
               Stats.OvBufferFlush);
  uint64_t ContentionBefore = DCG.contentionCount();
  T.Buffer.flushInto(DCG);
  // Shard waits are attributed (never charged to execution time):
  // contention is a host-schedule artifact, structurally 0 in the
  // single-OS-thread VM, and charging it would break determinism.
  if (uint64_t Waits = DCG.contentionCount() - ContentionBefore)
    Stats.OvShardWait += Waits * Config.Costs.ShardLockWait;
  ++Stats.DCGFlushes;
}

void VirtualMachine::flushAllBuffers() {
  for (const auto &T : Threads)
    flushThreadBuffer(*T);
}

prof::DCGSnapshot VirtualMachine::profile() {
  flushAllBuffers();
  if (Patching && State != RunState::Running)
    Patching->flushIncomplete(Stats.Cycles, DCG);
  prof::DCGSnapshot Snap = DCG.snapshot();
  // Mid-run materialization is the organizer/AOS read path and is
  // modelled work; post-run reads are measurement and stay free.
  if (ChargedProfiling && State == RunState::Running)
    chargeProf(static_cast<uint32_t>(Config.Costs.SnapshotPerEdge *
                                     Snap.numEdges()),
               Stats.OvSnapshot);
  return Snap;
}

RunState VirtualMachine::run(uint64_t CycleBudget) {
  if (State != RunState::Running)
    return State;
  // Startup notification: once, before the first instruction, at
  // virtual cycle 0 — the client's chance to act on persisted profile
  // knowledge (warm-start enqueues) before the sampler exists.
  if (!StartupNotified) {
    StartupNotified = true;
    if (Client)
      Client->onStartup(*this);
  }
  uint64_t Limit = CycleBudget == UINT64_MAX
                       ? UINT64_MAX
                       : Stats.Cycles + CycleBudget;

  const CostModel &Costs = Config.Costs;
  // The earliest of the three cycle events that interrupt dispatch: the
  // budget, the cycle limit and the next timer tick. Only fireTimer
  // moves NextTimerAt, so only the slow path recomputes it.
  uint64_t NextEvent = std::min({Limit, Config.MaxCycles, NextTimerAt});

  // Dispatch state lives in locals. vm.cycles and vm.instructions stay
  // in registers (held in the registry, every int64_t operand-stack
  // store could alias them), and the running thread and its top frame
  // are held as pointers instead of being re-read through
  // Threads[Current] per instruction. Around every out-of-line call the
  // loop makes: writeBack() before it, since the callee may read the
  // counters; reload Cycles after it if it may charge cycles; refetch()
  // after it if it may push or pop frames or switch threads.
  uint64_t Cycles = Stats.Cycles;
  uint64_t Instructions = Stats.Instructions;
  auto writeBack = [&] {
    Stats.Cycles.Value = Cycles;
    Stats.Instructions.Value = Instructions;
  };
  Thread *CurThread = Threads[Current].get();
  Frame *CurFrame = &CurThread->top();
  auto refetch = [&] {
    CurThread = Threads[Current].get();
    CurFrame = &CurThread->top();
  };

  while (State == RunState::Running) {
    if (Cycles >= NextEvent) [[unlikely]] {
      if (Cycles >= Limit)
        break;
      if (Cycles >= Config.MaxCycles) {
        State = RunState::CycleLimit;
        break;
      }
      if (Cycles >= NextTimerAt) {
        writeBack();
        fireTimer();
        Cycles = Stats.Cycles;
      }
      NextEvent = std::min({Limit, Config.MaxCycles, NextTimerAt});
    }

    Thread &T = *CurThread;
    Frame &F = *CurFrame;
    const bc::Instruction &I = F.CM->Code[F.PC];

    // The frame's cost table already holds its version's scaled charge,
    // or the unscaled one once the frame has deopted (the modelled
    // interpreter fallback).
    Cycles += F.Costs[F.PC];
    ++Instructions; // Work adds the rest of its count in its own case

    int64_t *Locals = T.Values.data() + F.LocalBase;
    auto push = [&T](int64_t V) { T.Values.push_back(V); };
    auto pop = [&T]() {
      int64_t V = T.Values.back();
      T.Values.pop_back();
      return V;
    };

    using bc::Opcode;
    switch (I.Op) {
    case Opcode::Nop:
      break;
    case Opcode::IConst:
      push(I.A);
      break;
    case Opcode::ILoad:
    case Opcode::ALoad:
      push(Locals[I.A]);
      break;
    case Opcode::IStore:
    case Opcode::AStore:
      Locals[I.A] = pop();
      break;
    case Opcode::IInc:
      Locals[I.A] += I.B;
      break;
    case Opcode::IAdd: {
      int64_t R = pop(), L = pop();
      push(static_cast<int64_t>(static_cast<uint64_t>(L) +
                                static_cast<uint64_t>(R)));
      break;
    }
    case Opcode::ISub: {
      int64_t R = pop(), L = pop();
      push(static_cast<int64_t>(static_cast<uint64_t>(L) -
                                static_cast<uint64_t>(R)));
      break;
    }
    case Opcode::IMul: {
      int64_t R = pop(), L = pop();
      push(static_cast<int64_t>(static_cast<uint64_t>(L) *
                                static_cast<uint64_t>(R)));
      break;
    }
    case Opcode::IDiv: {
      int64_t R = pop(), L = pop();
      if (R == 0) {
        writeBack();
        trap("division by zero");
        continue;
      }
      if (L == INT64_MIN && R == -1)
        push(INT64_MIN);
      else
        push(L / R);
      break;
    }
    case Opcode::IRem: {
      int64_t R = pop(), L = pop();
      if (R == 0) {
        writeBack();
        trap("remainder by zero");
        continue;
      }
      if (L == INT64_MIN && R == -1)
        push(0);
      else
        push(L % R);
      break;
    }
    case Opcode::INeg:
      push(static_cast<int64_t>(-static_cast<uint64_t>(pop())));
      break;
    case Opcode::IAnd: {
      int64_t R = pop(), L = pop();
      push(L & R);
      break;
    }
    case Opcode::IOr: {
      int64_t R = pop(), L = pop();
      push(L | R);
      break;
    }
    case Opcode::IXor: {
      int64_t R = pop(), L = pop();
      push(L ^ R);
      break;
    }
    case Opcode::IShl: {
      int64_t R = pop(), L = pop();
      push(static_cast<int64_t>(static_cast<uint64_t>(L)
                                << (static_cast<uint64_t>(R) & 63)));
      break;
    }
    case Opcode::IShr: {
      int64_t R = pop(), L = pop();
      push(L >> (static_cast<uint64_t>(R) & 63));
      break;
    }

    case Opcode::Goto:
    case Opcode::IfEq:
    case Opcode::IfNe:
    case Opcode::IfLt:
    case Opcode::IfLe:
    case Opcode::IfGt:
    case Opcode::IfGe:
    case Opcode::IfICmpEq:
    case Opcode::IfICmpNe:
    case Opcode::IfICmpLt:
    case Opcode::IfICmpGe: {
      bool Taken;
      switch (I.Op) {
      case Opcode::Goto:
        Taken = true;
        break;
      case Opcode::IfEq:
        Taken = pop() == 0;
        break;
      case Opcode::IfNe:
        Taken = pop() != 0;
        break;
      case Opcode::IfLt:
        Taken = pop() < 0;
        break;
      case Opcode::IfLe:
        Taken = pop() <= 0;
        break;
      case Opcode::IfGt:
        Taken = pop() > 0;
        break;
      case Opcode::IfGe:
        Taken = pop() >= 0;
        break;
      default: {
        int64_t R = pop(), L = pop();
        switch (I.Op) {
        case Opcode::IfICmpEq:
          Taken = L == R;
          break;
        case Opcode::IfICmpNe:
          Taken = L != R;
          break;
        case Opcode::IfICmpLt:
          Taken = L < R;
          break;
        default:
          Taken = L >= R;
          break;
        }
        break;
      }
      }
      if (Taken) {
        uint32_t Target = static_cast<uint32_t>(I.A);
        // Backedge yieldpoint: taken only when the word is positive
        // (the Jikes 3-state encoding; the J9 personality services
        // switch/GC requests here too).
        if (Target <= F.PC && T.Word == YieldWord::TakeAll) {
          const CompiledMethod *Before = F.CM;
          writeBack();
          processTaken(T, Where::Backedge, Target);
          Cycles = Stats.Cycles;
          // An OSR transfer redirected the frame into another version
          // and already set its PC; Target is a PC of the old code.
          // (The old version may even have been reclaimed — I must not
          // be touched past this point.)
          if (F.CM == Before)
            F.PC = Target;
          refetch();
          continue;
        }
        F.PC = Target;
        continue;
      }
      break;
    }

    case Opcode::New: {
      if (TheHeap.bytesAllocated() >= NextGCAt) {
        GCRequested = true;
        if (T.Word == YieldWord::Clear)
          T.Word = YieldWord::TakeAll;
      }
      // §8 generalization: the allocation sampler's armed check
      // overloads the allocator's heap-frontier test.
      if (Config.Profiler.ProfileAllocations && T.Alloc.armed()) {
        writeBack();
        chargeProf(Costs.ArmedEventCost, Stats.OvEntryCheck);
        if (T.Alloc.onInvocationEvent()) {
          // A histogram bump, no walk: counter-update work.
          chargeProf(Costs.AllocSampleCost, Stats.OvCounterUpdate);
          AllocProfile.addSample(static_cast<bc::ClassId>(I.A));
          ++Stats.SamplesTaken;
          // Allocation samples have no walked call edge; the invariant
          // "one sample event per SamplesTaken increment" still holds.
          if (Trace)
            Trace->event(tel::TraceEvent::sample(Stats.Cycles, T.Id,
                                                 bc::InvalidMethodId,
                                                 bc::InvalidSiteId));
        }
        Cycles = Stats.Cycles;
      }
      push(TheHeap.allocate(
          P.hierarchy().classOf(static_cast<bc::ClassId>(I.A))));
      break;
    }
    case Opcode::GetField: {
      Ref R = static_cast<Ref>(pop());
      if (!TheHeap.validRef(R)) {
        writeBack();
        trap("getfield on null or invalid reference");
        continue;
      }
      if (static_cast<uint32_t>(I.A) >= TheHeap.numFields(R)) {
        writeBack();
        trap("getfield index out of range");
        continue;
      }
      push(TheHeap.getField(R, static_cast<uint32_t>(I.A)));
      break;
    }
    case Opcode::PutField: {
      int64_t V = pop();
      Ref R = static_cast<Ref>(pop());
      if (!TheHeap.validRef(R)) {
        writeBack();
        trap("putfield on null or invalid reference");
        continue;
      }
      if (static_cast<uint32_t>(I.A) >= TheHeap.numFields(R)) {
        writeBack();
        trap("putfield index out of range");
        continue;
      }
      TheHeap.putField(R, static_cast<uint32_t>(I.A), V);
      break;
    }
    case Opcode::AConstNull:
      push(0);
      break;
    case Opcode::ClassEq: {
      Ref R = static_cast<Ref>(pop());
      push(R != 0 && TheHeap.validRef(R) &&
           TheHeap.classOf(R) == static_cast<bc::ClassId>(I.A));
      break;
    }

    case Opcode::InvokeStatic:
      writeBack();
      invoke(T, static_cast<bc::MethodId>(I.A),
             static_cast<uint32_t>(I.B), I.Site);
      Cycles = Stats.Cycles;
      refetch();
      continue;

    case Opcode::InvokeVirtual: {
      uint32_t ArgCount = static_cast<uint32_t>(I.B);
      Ref Receiver =
          static_cast<Ref>(T.Values[T.Values.size() - ArgCount]);
      if (!TheHeap.validRef(Receiver)) {
        writeBack();
        trap("virtual call on null receiver");
        continue;
      }
      bc::MethodId Target = P.hierarchy().lookup(
          TheHeap.classOf(Receiver), static_cast<bc::SelectorId>(I.A));
      if (Target == bc::InvalidMethodId) {
        writeBack();
        trap("receiver does not understand selector '" +
             P.hierarchy().selectorName(static_cast<bc::SelectorId>(I.A)) +
             "'");
        continue;
      }
      ++Stats.VirtualCallsExecuted;
      writeBack();
      invoke(T, Target, ArgCount, I.Site);
      Cycles = Stats.Cycles;
      refetch();
      continue;
    }

    case Opcode::Return:
    case Opcode::IReturn:
    case Opcode::AReturn: {
      // Epilogue yieldpoint: Jikes RVM only (§5.1); J9's mechanism is
      // the method-entry check and has no epilogue event.
      if (Config.Pers == Personality::JikesRVM &&
          T.Word != YieldWord::Clear) {
        writeBack();
        processTaken(T, Where::Epilogue);
        Cycles = Stats.Cycles;
      }

      bool HasResult = I.Op != Opcode::Return;
      int64_t Result = HasResult ? pop() : 0;
      uint32_t LocalBase = F.LocalBase;
      // The pop may reclaim a retired version this frame was the last
      // to pin; I and F must not be touched afterwards.
      Cache.unpinFrame(F.CM);
      T.Frames.pop_back();
      T.Values.resize(LocalBase);
      if (T.Frames.empty()) {
        T.Finished = true;
        // Shutdown flush: a finished thread's staged samples must not
        // sit in a dead buffer.
        writeBack();
        flushThreadBuffer(T);
        if (countRunnable() == 0) {
          State = RunState::Finished;
        } else {
          SwitchPending = true;
          maybeSwitch();
        }
        Cycles = Stats.Cycles;
        if (State == RunState::Running)
          refetch();
        continue;
      }
      if (HasResult)
        push(Result);
      ++T.top().PC;
      refetch();
      continue;
    }

    case Opcode::Work:
      // Work counts its modelled cycles as instructions.
      Instructions += static_cast<uint64_t>(I.A) - 1;
      break;
    case Opcode::Print:
      Output.push_back(pop());
      break;
    case Opcode::Halt:
      State = RunState::Halted;
      continue;
    case Opcode::Spawn:
      writeBack();
      spawnThread(static_cast<bc::MethodId>(I.A));
      break;
    }

    ++F.PC;
  }
  writeBack();
  // Shutdown notification: once, when the run first reaches a terminal
  // state (a budget break leaves State == Running and does not fire).
  // The VM is still fully alive here, so the hook can snapshot the
  // profile for persistence.
  if (State != RunState::Running && !ShutdownNotified) {
    ShutdownNotified = true;
    if (Config.OnShutdown)
      Config.OnShutdown(*this);
  }
  return State;
}
