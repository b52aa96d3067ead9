//===- vm/Thread.h - Green threads and frames -------------------*- C++ -*-===//
//
// Part of the CBSVM project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Green (VM-scheduled) threads. Each thread owns one contiguous value
/// arena: a frame's locals occupy [LocalBase, LocalBase + NumLocals) and
/// its operand stack is everything beyond, so pushes/pops are vector
/// back operations and frame pop is a resize.
///
/// Per the paper (§5.2, "thread-local variables are used for the
/// counters to avoid potential scalability issues or race conditions"),
/// each thread carries its own sampler state machines; the shared
/// profile repository is updated only when a sample fires.
///
//===----------------------------------------------------------------------===//

#ifndef CBSVM_VM_THREAD_H
#define CBSVM_VM_THREAD_H

#include "profiling/CounterBasedSampler.h"
#include "profiling/SampleBuffer.h"
#include "profiling/TimerSampler.h"
#include "vm/CompiledMethod.h"

#include <vector>

namespace cbs::vm {

struct Frame {
  const CompiledMethod *CM = nullptr;
  uint32_t PC = 0;
  /// Index of locals[0] within the thread's value arena.
  uint32_t LocalBase = 0;
  /// The frame's pinned version was invalidated after the frame
  /// entered it: the frame keeps executing its code (semantics are
  /// unchanged — guard misses fall through to the real dispatch) but at
  /// baseline speed, the modelled stand-in for falling back to
  /// interpreted code. With VMConfig::EnableOSR the frame additionally
  /// transfers to a fresh baseline version at the next loop-header
  /// yieldpoint (deopt OSR), clearing this flag; without OSR it limps
  /// on its pinned code until it returns.
  bool Deopted = false;
  /// Per-instruction cycle charges of the code this frame runs: CM's
  /// scaled table, or its unscaled one once the frame has deopted.
  const uint32_t *Costs = nullptr;
};

/// The Jikes RVM yieldpoint control word states (§5.1): prologue and
/// epilogue yieldpoints are taken when the word is nonzero; backedge
/// yieldpoints only when it is positive.
enum class YieldWord : int8_t {
  CBSArmed = -1, ///< take prologue/epilogue yieldpoints (CBS window open)
  Clear = 0,     ///< take nothing
  TakeAll = 1,   ///< take all yieldpoints (timer/GC service request)
};

struct Thread {
  uint32_t Id = 0;
  std::vector<Frame> Frames;
  std::vector<int64_t> Values;
  bool Finished = false;

  /// The single overloadable check word (paper Figures 3-4 / §5.1).
  YieldWord Word = YieldWord::Clear;
  /// A thread switch was requested while the CBS window was armed; it is
  /// honoured when the window closes (§5.1: "then ... the thread switch
  /// is allowed to occur").
  bool DeferredSwitch = false;
  /// VM-global deopt epoch this thread last reconciled its frames
  /// against (at a taken yieldpoint); a lower value means invalidated
  /// versions may still be running at optimized speed in this stack.
  uint64_t DeoptEpochSeen = 0;

  prof::CounterBasedSampler CBS;
  /// §8 generalization: the same state machine over allocation events.
  prof::CounterBasedSampler Alloc;
  prof::TimerSampler Timer;
  /// Per-thread raw-sample staging (the paper's listener side): appends
  /// are thread-local and lock-free; the VM flushes the buffer into the
  /// shared repository as one batch when it fills, at thread switches,
  /// and at shutdown/snapshot points.
  prof::SampleBuffer Buffer;

  Frame &top() { return Frames.back(); }
  const Frame &top() const { return Frames.back(); }
  size_t depth() const { return Frames.size(); }
};

} // namespace cbs::vm

#endif // CBSVM_VM_THREAD_H
