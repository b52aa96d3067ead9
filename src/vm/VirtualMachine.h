//===- vm/VirtualMachine.h - The virtual machine ----------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The virtual machine: a deterministic interpreter with green threads,
/// a virtual-cycle timer, yieldpoints / method-entry checks in both of
/// the paper's VM personalities, and the full profiler suite wired into
/// the runtime services. A VM run is a pure function of
/// (program, VMConfig).
///
/// Typical use:
/// \code
///   vm::VMConfig Config;
///   Config.Profiler.Kind = vm::ProfilerKind::CBS;
///   Config.Profiler.CBS = {/*Stride=*/3, /*SamplesPerTick=*/32};
///   vm::VirtualMachine VM(Program, Config);
///   VM.run();
///   prof::DCGSnapshot DCG = VM.profile();
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_VM_VIRTUALMACHINE_H
#define CBSVM_VM_VIRTUALMACHINE_H

#include "bytecode/Program.h"
#include "profiling/AllocationProfile.h"
#include "profiling/CallingContextTree.h"
#include "profiling/SampleBuffer.h"
#include "telemetry/MetricRegistry.h"
#include "vm/CodeCache.h"
#include "vm/Heap.h"
#include "vm/Thread.h"
#include "vm/VMConfig.h"
#include "vm/VMStats.h"

#include <memory>
#include <string>

namespace cbs::tel {
class FlightRecorder;
class TraceSink;
struct TraceEvent;
}

namespace cbs::vm {

class VirtualMachine;

/// Observer interface for adaptive optimization systems: the VM calls it
/// once per timer tick with the AOS hotness sample, and once per taken
/// yieldpoint (the deterministic virtual-time points where background
/// compilations are allowed to install). The client may recompile
/// methods via installCompiled from either hook.
class VMClient {
public:
  virtual ~VMClient();
  /// Called once, at the start of the first run() call, before any
  /// instruction executes (virtual cycle 0). The warm-start hook: a
  /// client holding a persisted profile can pre-enqueue compilations
  /// here so optimized code is in flight before the sampler has seen a
  /// single tick.
  virtual void onStartup(VirtualMachine &VM) { (void)VM; }
  virtual void onTimerTick(VirtualMachine &VM, bc::MethodId TopMethod) = 0;
  /// Called at every taken yieldpoint, before tick/GC servicing. Timer
  /// ticks force the next yieldpoint to be taken, so with any profiler
  /// configuration this fires at least about once per timer period.
  virtual void onYieldpoint(VirtualMachine &VM) { (void)VM; }
};

class VirtualMachine {
public:
  /// \p P must outlive the VM and should have passed verifyProgram.
  VirtualMachine(const bc::Program &P, VMConfig Config);
  ~VirtualMachine();

  VirtualMachine(const VirtualMachine &) = delete;
  VirtualMachine &operator=(const VirtualMachine &) = delete;

  /// Executes until the program finishes, traps, halts, hits
  /// VMConfig::MaxCycles, or \p CycleBudget more cycles have elapsed
  /// (in which case the run is resumable).
  RunState run(uint64_t CycleBudget = UINT64_MAX);

  RunState state() const { return State; }
  /// The stable statistics façade. Populated on demand from the metrics
  /// registry (the registry is the source of truth); callers must not
  /// hold the reference across further execution.
  const VMStats &stats() const;
  const std::vector<int64_t> &output() const { return Output; }
  const std::string &trapMessage() const { return TrapMsg; }
  const bc::Program &program() const { return P; }
  const VMConfig &config() const { return Config; }
  uint64_t cycles() const { return Stats.Cycles; }

  /// An immutable snapshot of the profile repository. Flushes every
  /// thread's pending samples first; once the run has ended, also
  /// flushes incomplete code-patching windows. Cheap to copy and stays
  /// valid after further execution or VM destruction.
  prof::DCGSnapshot profile();

  /// The context-sensitive profile (populated when
  /// ProfilerOptions::ContextSensitive is set).
  const prof::CallingContextTree &contextTree() const { return CCT; }

  /// The sampled per-class allocation histogram (populated when
  /// ProfilerOptions::ProfileAllocations is set — the §8
  /// generalization).
  const prof::AllocationProfile &allocationProfile() const {
    return AllocProfile;
  }
  /// The exhaustive allocation histogram (the heap's own counts),
  /// for scoring the sampled one.
  prof::AllocationProfile trueAllocationProfile() const;

  /// Per-method timer-tick sample counts: the AOS hotness input.
  const std::vector<uint32_t> &methodTickSamples() const {
    return TickSamples;
  }
  /// Per-method invocation counts (host bookkeeping; used by Table 1 and
  /// the code-patching promotion trigger).
  const std::vector<uint64_t> &invocationCounts() const {
    return InvocationCounts;
  }
  /// Number of methods invoked at least once.
  size_t methodsExecuted() const;

  CodeCache &codeCache() { return Cache; }
  Heap &heap() { return TheHeap; }
  void setClient(VMClient *C) { Client = C; }

  /// The online profile-quality monitor (null unless
  /// ProfilerOptions::Quality.EveryTicks != 0).
  const prof::ProfileQualityMonitor *qualityMonitor() const {
    return Quality.get();
  }

  /// Modelled cycles attributed to profiling machinery across every
  /// overhead.* component (includes the attribute-only components —
  /// yieldpoint servicing and shard waits — that are not part of
  /// vm.profiling_cycles).
  uint64_t overheadCycles() const {
    return Stats.OvEntryCheck + Stats.OvCounterUpdate + Stats.OvListener +
           Stats.OvStackWalk + Stats.OvBufferFlush + Stats.OvSnapshot +
           Stats.OvYieldpoint + Stats.OvShardWait;
  }

  /// The full metrics registry, with derived gauges (heap, code cache,
  /// methods executed, overhead.total_fraction_bp) refreshed to the
  /// current run state. Supersets stats(): every VMStats field is a
  /// "vm.*" entry here.
  const tel::MetricRegistry &metrics();
  /// Mutable registry access for cooperating components (the adaptive
  /// system registers its "aos.*" metrics here).
  tel::MetricRegistry &metricsRegistry() { return Registry; }
  /// The installed trace sink (null when tracing is off).
  tel::TraceSink *traceSink() const { return Trace; }

  /// Installs a recompiled version (AOS path). Compile cycles are
  /// tracked in stats().CompileCycles, not charged to execution time
  /// (compilation runs on a background thread in the modelled VMs).
  void installCompiled(CompiledMethod CM);

  /// Deoptimizes \p Id: its active version is invalidated in the code
  /// cache and every frame still pinning it falls back to baseline
  /// execution speed at its thread's next taken yieldpoint (each such
  /// frame is charged CostModel::DeoptCost once at that transition).
  /// Future invocations recompile lazily through the normal baseline
  /// path. With VMConfig::EnableOSR a deopted frame additionally
  /// transfers to a fresh baseline version at its next loop-header
  /// backedge yieldpoint (deopt OSR) instead of limping on the
  /// invalidated code until it returns. Returns false when the method
  /// had no active version. Must be called from the VM thread (client
  /// hooks), like installCompiled.
  bool deoptimize(bc::MethodId Id);

private:
  enum class Where : uint8_t { Prologue, Epilogue, Backedge };

  /// Hot-path views into the registry-owned counters. Field names
  /// mirror VMStats so the interpreter updates read identically to the
  /// plain-struct era; each access costs one extra (loop-invariant)
  /// pointer load over a direct member.
  struct LiveStats {
    explicit LiveStats(tel::MetricRegistry &R);

    tel::Counter &Cycles;
    tel::Counter &Instructions;
    tel::Counter &CallsExecuted;
    tel::Counter &VirtualCallsExecuted;
    tel::Counter &TimerTicks;
    tel::Counter &YieldpointsTaken;
    tel::Counter &SamplesTaken;
    tel::Counter &ProfilingCycles;
    tel::Counter &CompileCycles;
    tel::Counter &GCCount;
    tel::Counter &ThreadSwitches;
    tel::Counter &ThreadsSpawned;
    tel::Counter &Deopts;         // vm.deopts
    tel::Counter &FramesDeopted;  // vm.frames_deopted
    tel::Counter &OsrEntries;     // vm.osr_entries (promotion transfers)
    tel::Counter &OsrExits;       // vm.osr_exits (deopt-frame transfers)
    tel::Counter &DCGFlushes;
    tel::Counter &DCGDropped;
    tel::Gauge &MaxStackDepth;
    tel::Histogram &SampleStackDepth;
    tel::Histogram &CompileCostCycles;

    /// Per-component overhead attribution (the online Figure 4). The
    /// first six partition vm.profiling_cycles exactly; the last two
    /// are attributed but never charged to execution time (yieldpoint
    /// tick servicing is a base runtime service, and shard waits are
    /// host-side contention, always 0 in the single-OS-thread VM).
    tel::Counter &OvEntryCheck;    // overhead.entry_check
    tel::Counter &OvCounterUpdate; // overhead.counter_update
    tel::Counter &OvListener;      // overhead.listener
    tel::Counter &OvStackWalk;     // overhead.stack_walk
    tel::Counter &OvBufferFlush;   // overhead.buffer_flush
    tel::Counter &OvSnapshot;      // overhead.snapshot
    tel::Counter &OvYieldpoint;    // overhead.yieldpoint_taken
    tel::Counter &OvShardWait;     // overhead.shard_wait
  };

  void fireTimer();
  /// \p BackedgeTarget is the taken backward branch's target when
  /// W == Backedge (the candidate OSR point); unused otherwise.
  void processTaken(Thread &T, Where W, uint32_t BackedgeTarget = 0);
  void maybeSwitch();
  size_t countRunnable() const;
  void recordEdgeSample(Thread &T);
  /// Organizer step: batch-flush \p T's sample buffer into the shared
  /// repository, folding drop/flush counts into the dcg.* metrics.
  void flushThreadBuffer(Thread &T);
  void flushAllBuffers();
  /// Charges \p Cost to execution time, the profiling total, and the
  /// named overhead.* component.
  void chargeProf(uint32_t Cost, tel::Counter &Component) {
    Stats.Cycles += Cost;
    Stats.ProfilingCycles += Cost;
    Component += Cost;
  }
  /// Quality-monitor window boundary (called from fireTimer).
  void closeQualityWindow();
  /// Routes an anomaly event to the trace sink and (when distinct) the
  /// flight recorder.
  void emitAnomaly(const tel::TraceEvent &E);
  /// Reconciles \p T's frames with the global deopt epoch: frames
  /// pinning invalidated versions flip to the baseline fallback path.
  void reconcileDeoptFrames(Thread &T);
  /// On-stack replacement (VMConfig::EnableOSR, taken backedge
  /// yieldpoints only): if \p T's top frame runs a version that is no
  /// longer its method's active one and both versions kept the loop
  /// header the backedge jumps to, the frame transfers to the active
  /// version (a Deopted frame with no active version transfers to a
  /// fresh baseline). Charges CostModel::OsrCost per transfer. Runs on
  /// the VM thread in virtual time — determinism-neutral.
  void maybeOSR(Thread &T, uint32_t BackedgeTarget);
  const CompiledMethod *ensureCompiled(bc::MethodId Id);
  /// Fills \p CM's per-instruction cost table from the cost model and
  /// installs it in the code cache: every version the interpreter runs
  /// goes through here.
  const CompiledMethod *installVersion(CompiledMethod CM);
  /// \p CM's unscaled per-instruction costs (the deopted-frame charge),
  /// built on first use.
  const uint32_t *baselineCosts(const CompiledMethod &CM) const;
  /// Pushes a frame for \p Callee consuming \p ArgCount values from the
  /// current operand stack; runs entry profiling hooks.
  void invoke(Thread &T, bc::MethodId Callee, uint32_t ArgCount,
              bc::SiteId Site);
  Thread &spawnThread(bc::MethodId Entry);
  void trap(const std::string &Message);

  const bc::Program &P;
  VMConfig Config;
  tel::MetricRegistry Registry;
  LiveStats Stats; ///< must follow Registry (references into it)
  tel::TraceSink *Trace = nullptr;
  tel::FlightRecorder *Recorder = nullptr;
  /// True when this configuration's profiling work is *charged* (CBS /
  /// Timer / CodePatching / charged Exhaustive): gates the modelled
  /// flush and snapshot costs so the free-exhaustive reference runs
  /// stay cost-free.
  bool ChargedProfiling = false;
  mutable VMStats Facade;
  CodeCache Cache;
  Heap TheHeap;
  RandomEngine RNG;

  std::vector<std::unique_ptr<Thread>> Threads;
  size_t Current = 0;
  bool SwitchPending = false;
  bool TickPending = false;
  bool GCRequested = false;
  uint64_t NextTimerAt = 0;
  uint64_t NextGCAt = 0;
  /// Bumped by deoptimize(); threads reconcile their frames against it
  /// lazily at taken yieldpoints (Thread::DeoptEpochSeen).
  uint64_t DeoptEpoch = 0;

  prof::DynamicCallGraph DCG;
  prof::CallingContextTree CCT;
  prof::AllocationProfile AllocProfile;
  std::unique_ptr<prof::CodePatchingProfiler> Patching;
  std::unique_ptr<prof::ProfileQualityMonitor> Quality;
  /// Counter values at the last recorder window note (delta baseline).
  struct WindowBaseline {
    uint64_t Cycles = 0;
    uint64_t Samples = 0;
    uint64_t Drops = 0;
    uint64_t Flushes = 0;
    uint64_t ProfilingCycles = 0;
  } WinBase;

  std::vector<uint64_t> InvocationCounts;
  std::vector<uint32_t> TickSamples;
  VMClient *Client = nullptr;

  RunState State = RunState::Running;
  /// Client->onStartup has fired (it fires once, at the start of the
  /// first run() call).
  bool StartupNotified = false;
  /// VMConfig::OnShutdown has fired (once, when run() first reaches a
  /// terminal state).
  bool ShutdownNotified = false;
  std::string TrapMsg;
  std::vector<int64_t> Output;
};

} // namespace cbs::vm

#endif // CBSVM_VM_VIRTUALMACHINE_H
