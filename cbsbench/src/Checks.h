//===- Checks.h - Independent output checks ---------------------*- C++ -*-===//
//
// Part of the CBSVM benchmark.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The output checks the workloads run in their untimed check phase.
/// Each one rests on an independent computation (a plain reference run,
/// the overlap recomputed from its definition) or on a property the
/// method must have (sampled edges are real edges, the exhaustive
/// profile counts every call), never on a stored copy of an earlier
/// output. Each returns "" when the check passes and a diagnostic
/// otherwise.
///
//===----------------------------------------------------------------------===//

#ifndef CBSBENCH_CHECKS_H
#define CBSBENCH_CHECKS_H

#include "profiling/DCGSnapshot.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cbsbench {

/// Overlap as the paper defines it, computed here without the
/// library's lookup: the sum over edges present in both profiles of
/// the smaller of the two weight fractions, in percent.
double paperOverlap(const cbs::prof::DCGSnapshot &A,
                    const cbs::prof::DCGSnapshot &B);

/// \p Reported (what prof::accuracy returned) must equal paperOverlap
/// within 1e-9.
std::string checkOverlap(const cbs::prof::DCGSnapshot &Sampled,
                         const cbs::prof::DCGSnapshot &Perfect,
                         double Reported);

/// Every edge of \p Sampled must occur in \p Perfect.
std::string checkSubset(const cbs::prof::DCGSnapshot &Sampled,
                        const cbs::prof::DCGSnapshot &Perfect);

/// The exhaustive profile counts every executed call exactly once.
std::string checkTotalWeight(const cbs::prof::DCGSnapshot &Perfect,
                             uint64_t CallsExecuted);

/// The two profiles hold the same edges with the same weights.
std::string checkSameEdges(const cbs::prof::DCGSnapshot &Want,
                           const cbs::prof::DCGSnapshot &Got);

/// ProfileCodec::decode(encode(P)) reproduces \p P edge for edge.
std::string checkCodecRoundTrip(const cbs::prof::DCGSnapshot &P);

/// \p Got must equal the reference run's output value for value. With
/// \p AnyOrder (multithreaded programs, whose green threads each print
/// their own result in an order the schedule decides) the two outputs
/// must hold the same values, in any order.
std::string checkSameOutput(std::vector<int64_t> Got,
                            std::vector<int64_t> Want, bool AnyOrder = false);

} // namespace cbsbench

#endif // CBSBENCH_CHECKS_H
