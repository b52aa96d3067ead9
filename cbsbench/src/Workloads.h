//===- Workloads.h - The benchmark's workloads -----------------*- C++ -*-===//
//
// Part of the CBSVM benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three closed-loop workloads (see README.md for what each one
/// exercises and why).
///
//===----------------------------------------------------------------------===//

#ifndef CBSBENCH_WORKLOADS_H
#define CBSBENCH_WORKLOADS_H

#include "Bench.h"

#include "bytecode/Program.h"

namespace cbsbench {

RunResult runAdaptiveSuite(const RunOptions &Opts);
RunResult runAccuracySweep(const RunOptions &Opts);
RunResult runFuzzCampaign(const RunOptions &Opts);

/// Virtual cycle of the first optimized install in one cold run of \p P
/// under the adaptive-suite configuration; 0 when nothing installs.
uint64_t coldFirstInstall(const cbs::bc::Program &P, uint64_t Seed);

} // namespace cbsbench

#endif // CBSBENCH_WORKLOADS_H
