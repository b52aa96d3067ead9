//===- main.cpp - The cbsbench program -----------------------------------===//
//
// Part of the CBSVM benchmark.
//
//===----------------------------------------------------------------------===//
//
//   cbsbench --workload adaptive-suite|accuracy-sweep|fuzz-campaign
//            --seed N --seconds S --trace 0|1 --workdir DIR
//
// Prints human-readable notes, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 0 when the
// run completed (failed ops are reported, not fatal), 2 on bad usage.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

using namespace cbsbench;

namespace {

[[noreturn]] void usage(const std::string &Why) {
  std::fprintf(stderr,
               "cbsbench: %s\nusage: cbsbench --workload "
               "adaptive-suite|accuracy-sweep|fuzz-campaign --seed N "
               "--seconds S --trace 0|1 --workdir DIR\n",
               Why.c_str());
  std::exit(2);
}

uint64_t parseUInt(const char *Flag, const char *Text, uint64_t Lo,
                   uint64_t Hi) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno || End == Text || *End || Text[0] == '-' || V < Lo || V > Hi)
    usage(std::string(Flag) + " expects an integer in [" +
          std::to_string(Lo) + ", " + std::to_string(Hi) + "], got '" +
          Text + "'");
  return V;
}

void printJson(const RunResult &R) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const Metric &M = R.Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", M.Name.c_str(), V, M.Unit.c_str());
  }
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, WorkDir;
  RunOptions Opts;
  bool HaveSeed = false, HaveSeconds = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage("missing value for " + Flag);
    const char *Value = Argv[++I];
    if (Flag == "--workload") {
      Workload = Value;
    } else if (Flag == "--seed") {
      Opts.Seed = parseUInt("--seed", Value, 0, 1ull << 40);
      HaveSeed = true;
    } else if (Flag == "--seconds") {
      Opts.Seconds = static_cast<double>(parseUInt("--seconds", Value, 1, 600));
      HaveSeconds = true;
    } else if (Flag == "--trace") {
      Opts.Trace = parseUInt("--trace", Value, 0, 1) == 1;
    } else if (Flag == "--workdir") {
      WorkDir = Value;
    } else {
      usage("unknown option " + Flag);
    }
  }
  if (!HaveSeed || !HaveSeconds || WorkDir.empty())
    usage("--seed, --seconds and --workdir are required");

  RunResult (*Run)(const RunOptions &) = nullptr;
  if (Workload == "adaptive-suite")
    Run = runAdaptiveSuite;
  else if (Workload == "accuracy-sweep")
    Run = runAccuracySweep;
  else if (Workload == "fuzz-campaign")
    Run = runFuzzCampaign;
  else
    usage("unknown workload '" + Workload + "'");

  Opts.WorkDir = WorkDir;
  std::filesystem::create_directories(WorkDir);
  RunResult R = Run(Opts);
  for (const std::string &Line : R.Notes)
    std::printf("# %s\n", Line.c_str());
  for (const Metric &M : R.Metrics)
    std::printf("# %-40s %18.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("# ops attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  printJson(R);
  std::fflush(stdout);
  return 0;
}
