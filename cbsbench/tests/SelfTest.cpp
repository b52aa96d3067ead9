//===- SelfTest.cpp - Planted-fault test of the benchmark's checks -------===//
//
// Part of the CBSVM benchmark.
//
//===----------------------------------------------------------------------===//
//
// Each output check must pass on real results and fail once a single
// value in them is planted wrong: that is what shows the check can catch
// a wrong result. run.py runs this before every workload and refuses to
// benchmark when it fails. Exits 0 when every case behaves.
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "experiments/Experiments.h"
#include "profiling/OverlapMetric.h"
#include "vm/VirtualMachine.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <string>

using namespace cbs;
using namespace cbsbench;

namespace {

int Failures = 0;

void expect(bool Passes, const std::string &Diagnostic, const char *Case) {
  bool Ok = Passes ? Diagnostic.empty() : !Diagnostic.empty();
  std::printf("%s %s%s%s\n", Ok ? "ok  " : "FAIL", Case,
              Diagnostic.empty() ? "" : " -> ", Diagnostic.c_str());
  Failures += !Ok;
}

/// \p S with the weight of its edge \p Index raised by \p Delta.
prof::DCGSnapshot withWeight(const prof::DCGSnapshot &S, size_t Index,
                             uint64_t Delta) {
  std::vector<prof::DCGSnapshot::Edge> Edges = S.sortedEdges();
  Edges[Index].second += Delta;
  return prof::DCGSnapshot::fromEdges(std::move(Edges));
}

} // namespace

int main() {
  const uint64_t Seed = 7;
  bc::Program P = wl::buildJess(wl::InputSize::Small, Seed);
  exp::PerfectProfile Perfect =
      exp::runPerfect(P, vm::Personality::JikesRVM, Seed);

  vm::VMConfig Config = exp::jitOnlyConfig(P, vm::Personality::JikesRVM, Seed);
  Config.Profiler = exp::chosenCBS(vm::Personality::JikesRVM);
  vm::VirtualMachine VM(P, Config);
  VM.run();
  prof::DCGSnapshot Sampled = VM.profile();
  if (Sampled.numEdges() < 2 || Perfect.DCG.numEdges() < 2) {
    std::printf("FAIL the self-test program needs at least two edges\n");
    return 1;
  }
  double Reported = prof::accuracy(Sampled, Perfect.DCG);

  // Overlap: the recomputation agrees with prof::accuracy, and stops
  // agreeing once one edge weight of either profile is perturbed.
  expect(true, checkOverlap(Sampled, Perfect.DCG, Reported),
         "overlap of the real profiles");
  expect(false, checkOverlap(withWeight(Sampled, 0, 5), Perfect.DCG, Reported),
         "overlap with one sampled edge weight perturbed");
  expect(false,
         checkOverlap(Sampled, withWeight(Perfect.DCG, 1, 1000), Reported),
         "overlap with one exhaustive edge weight perturbed");

  // Output: a multithreaded program (three green threads each print
  // their result) equals its plain reference run as a multiset, and a
  // single changed value fails both comparison modes.
  bc::Program MT = wl::buildMtrt(wl::InputSize::Small, Seed);
  std::vector<int64_t> Want =
      exp::runPerfect(MT, vm::Personality::JikesRVM, Seed).Output;
  vm::VirtualMachine MTVM(MT, exp::jitOnlyConfig(MT, vm::Personality::J9,
                                                 Seed + 1));
  MTVM.run();
  std::vector<int64_t> Out = MTVM.output();
  size_t Other = 1;
  while (Other < Out.size() && Out[Other] == Out[0])
    ++Other;
  if (Other >= Out.size()) {
    std::printf("FAIL the output self-test needs two distinct values\n");
    return 1;
  }
  std::vector<int64_t> Changed = Out;
  Changed[Changed.size() / 2] += 1;
  std::vector<int64_t> Swapped = Out;
  std::swap(Swapped[0], Swapped[Other]);
  expect(true, checkSameOutput(Out, Want, /*AnyOrder=*/true),
         "any-order output of the real run");
  expect(false, checkSameOutput(Changed, Want, /*AnyOrder=*/true),
         "any-order output with one value changed");
  expect(false, checkSameOutput(Changed, Out),
         "in-order output with one value changed");
  expect(false, checkSameOutput(Swapped, Out),
         "in-order output with two values swapped");
  expect(true, checkSameOutput(Swapped, Out, /*AnyOrder=*/true),
         "any-order output with two values swapped");
  expect(false, checkSameOutput({Out.begin(), Out.end() - 1}, Want, true),
         "output with the last value missing");

  // Subset, total weight and codec round trip.
  std::vector<prof::DCGSnapshot::Edge> Extra = Sampled.sortedEdges();
  Extra.push_back({{bc::SiteId(0xFFFF), bc::MethodId(0xFFFF)}, 1});
  expect(true, checkSubset(Sampled, Perfect.DCG), "sampled edges are real");
  expect(false,
         checkSubset(prof::DCGSnapshot::fromEdges(std::move(Extra)),
                     Perfect.DCG),
         "sampled profile with an edge that never executed");
  expect(true, checkTotalWeight(Perfect.DCG, Perfect.Calls),
         "exhaustive weight equals calls");
  expect(false, checkTotalWeight(Perfect.DCG, Perfect.Calls + 1),
         "exhaustive weight against one call more");
  expect(true, checkCodecRoundTrip(Sampled), "codec round trip");
  expect(false, checkSameEdges(Sampled, withWeight(Sampled, 1, 1)),
         "edge-for-edge comparison with one weight perturbed");

  std::printf("%s: %d failing case(s)\n", Failures ? "FAIL" : "ok", Failures);
  return Failures ? 1 : 0;
}
