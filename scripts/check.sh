#!/usr/bin/env bash
# Tier-1 verification plus an observability smoke test, a differential
# fuzzing smoke stage, a deoptimization stage (guard policing must
# repair the phased workload's stale speculation and the quality
# timeline must recover; the forced-invalidation storm oracle must
# come back clean over 25 seeds), a self-observability report check
# (the quality monitor must flag the phased workload's hot-set swap
# and the overhead breakdown must sum to its total), an on-stack
# replacement stage (frames must transfer onto replacement versions at
# backedge yieldpoints, the code-cache graveyard must be fully
# reclaimed by end of run, --osr runs must stay byte-identical across
# compile worker counts, and the osr-stability oracle must come back
# clean over 25 long-loop seeds), a profile-repository warm-start
# stage (a second run over the same repository must load the first
# run's committed entry and reach its first optimized install strictly
# earlier, and repository bytes plus metrics must not depend on the
# compile worker count), a ThreadSanitizer pass over the parallel
# experiment engine, the sharded profile repository, and the
# background compile pipeline, an AddressSanitizer+UBSan pass over the
# fast tier and the fuzz smoke, and determinism checks: --jobs 8
# produces byte-identical JSON to --jobs 1, --dcg-shards 8 produces
# byte-identical profiles, metrics, and self-observability reports to
# --dcg-shards 1, and --compile-jobs 4 produces byte-identical
# profiles and metrics to --compile-jobs 0. The full suite includes the
# paper-table goldens (PaperGolden.*), which regenerate
# bench/golden/*.json and compare them byte for byte.
#
# Usage: scripts/check.sh [build-dir]
#
# Environment:
#   CBSVM_SANITIZE=address|undefined|...  configure the build with
#       -DCBSVM_SANITIZE (fresh configure only; an existing build dir
#       keeps its cached setting).
#   CBSVM_SKIP_TSAN=1  skip the ThreadSanitizer stage (it maintains a
#       second build tree at <build-dir>-tsan).
#
# The ASan+UBSan stage maintains a third build tree at <build-dir>-asan.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build}"

CMAKE_ARGS=()
if [[ -n "${CBSVM_SANITIZE:-}" ]]; then
  CMAKE_ARGS+=("-DCBSVM_SANITIZE=${CBSVM_SANITIZE}")
fi

echo "== configure =="
cmake -B "$BUILD" -S . "${CMAKE_ARGS[@]}"

echo "== build =="
cmake --build "$BUILD" -j

echo "== tests: fast tier =="
# The quick pre-commit tier first: fail here and we skip the soaks.
(cd "$BUILD" && ctest --output-on-failure -j "$(nproc)" -L fast)

echo "== tests: full suite =="
(cd "$BUILD" && ctest --output-on-failure -j "$(nproc)")

echo "== observability smoke =="
TRACE=$(mktemp /tmp/cbsvm-trace.XXXXXX.json)
METRICS=$(mktemp /tmp/cbsvm-metrics.XXXXXX.json)
STATS=$(mktemp /tmp/cbsvm-stats.XXXXXX.json)
JOBS1=$(mktemp /tmp/cbsvm-jobs1.XXXXXX.json)
JOBS8=$(mktemp /tmp/cbsvm-jobs8.XXXXXX.json)
SHARD1=$(mktemp /tmp/cbsvm-shard1.XXXXXX.dcg)
SHARD8=$(mktemp /tmp/cbsvm-shard8.XXXXXX.dcg)
SHARD1M=$(mktemp /tmp/cbsvm-shard1m.XXXXXX.json)
SHARD8M=$(mktemp /tmp/cbsvm-shard8m.XXXXXX.json)
REPORTA=$(mktemp /tmp/cbsvm-reporta.XXXXXX.json)
REPORTB=$(mktemp /tmp/cbsvm-reportb.XXXXXX.json)
CJOBS0=$(mktemp /tmp/cbsvm-cjobs0.XXXXXX.dcg)
CJOBS4=$(mktemp /tmp/cbsvm-cjobs4.XXXXXX.dcg)
CJOBS0M=$(mktemp /tmp/cbsvm-cjobs0m.XXXXXX.json)
CJOBS4M=$(mktemp /tmp/cbsvm-cjobs4m.XXXXXX.json)
CJOBS0R=$(mktemp /tmp/cbsvm-cjobs0r.XXXXXX.json)
CJOBS4R=$(mktemp /tmp/cbsvm-cjobs4r.XXXXXX.json)
AOSREPORT=$(mktemp /tmp/cbsvm-aosreport.XXXXXX.json)
trap 'rm -f "$TRACE" "$METRICS" "$STATS" "$JOBS1" "$JOBS8" \
  "$SHARD1" "$SHARD8" "$SHARD1M" "$SHARD8M" "$REPORTA" "$REPORTB" \
  "$CJOBS0" "$CJOBS4" "$CJOBS0M" "$CJOBS4M" "$CJOBS0R" "$CJOBS4R" \
  "$AOSREPORT" "${DEOPTREPORT:-}" "${DEOPTFUZZ1:-}" "${DEOPTFUZZ8:-}" \
  "${FUZZ1:-}" "${FUZZ8:-}" "${OSRREPORT:-}" "${OSRJOBS1:-}" \
  "${OSRJOBS8:-}" "${OSRJOBS1M:-}" "${OSRJOBS8M:-}" "${OSRFUZZ1:-}" \
  "${OSRFUZZ8:-}" "${WARM1:-}" "${WARM2:-}" "${RJ1A:-}" "${RJ1B:-}" \
  "${RJ8A:-}" "${RJ8B:-}"; \
  rm -rf "${FUZZDIR:-}" "${REPODIR:-}" "${REPOJOBS1:-}" "${REPOJOBS8:-}"' EXIT

CBSVM="$BUILD/tools/cbsvm"
"$CBSVM" run compress --trace "$TRACE" --metrics-json "$METRICS"
"$CBSVM" jsoncheck "$TRACE"
"$CBSVM" jsoncheck "$METRICS"
"$CBSVM" stats compress --json "$STATS" >/dev/null
"$CBSVM" jsoncheck "$STATS"

# The trace and the metrics registry must agree on the sample count.
python3 - "$TRACE" "$METRICS" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
metrics = json.load(open(sys.argv[2]))
samples = sum(1 for e in trace["traceEvents"] if e["name"] == "sample")
ticks = sum(1 for e in trace["traceEvents"] if e["name"] == "timer_tick")
assert samples == metrics["counters"]["vm.samples_taken"], \
    (samples, metrics["counters"]["vm.samples_taken"])
assert ticks == metrics["counters"]["vm.timer_ticks"], \
    (ticks, metrics["counters"]["vm.timer_ticks"])
print(f"trace/metrics agree: {samples} samples, {ticks} ticks")
EOF

echo "== fuzz smoke =="
# A short differential-fuzzing campaign: 25 seeds through every builtin
# oracle must come back clean, and the parallel campaign must report
# exactly what the serial one does.
FUZZ1=$(mktemp /tmp/cbsvm-fuzz1.XXXXXX.txt)
FUZZ8=$(mktemp /tmp/cbsvm-fuzz8.XXXXXX.txt)
FUZZDIR=$(mktemp -d /tmp/cbsvm-fuzz-artifacts.XXXXXX)
"$CBSVM" fuzz --runs 25 --seed 1 --jobs 1 | tee "$FUZZ1"
"$CBSVM" fuzz --runs 25 --seed 1 --jobs 8 >"$FUZZ8"
cmp "$FUZZ1" "$FUZZ8"
echo "fuzz jobs=1 and jobs=8 reports are byte-identical"

# The artifact pipeline end to end: a deliberately broken oracle must
# produce a reduced, replayable artifact, and the replay must reproduce
# the violation (exit 0 means reproduced).
if "$CBSVM" fuzz --runs 1 --seed 1 --broken-oracle --oracle broken \
    --artifact-dir "$FUZZDIR" >/dev/null; then
  echo "broken oracle failed to flag anything" >&2
  exit 1
fi
ARTIFACT=$(ls "$FUZZDIR"/broken-seed*.json | head -n 1)
"$CBSVM" jsoncheck "$ARTIFACT"
"$CBSVM" fuzz --broken-oracle --replay "$ARTIFACT"
echo "broken-oracle artifact replays and reproduces"

echo "== parallel determinism =="
# One sweep serial, one fanned out over 8 workers: the JSON reports must
# be byte-identical (the engine commits results in grid-index order).
CBSVM_RUNS=1 "$BUILD/bench/table2a_jikes_sweep" --json "$JOBS1" --jobs 1 >/dev/null
CBSVM_RUNS=1 "$BUILD/bench/table2a_jikes_sweep" --json "$JOBS8" --jobs 8 >/dev/null
cmp "$JOBS1" "$JOBS8"
echo "jobs=1 and jobs=8 sweeps are byte-identical"

echo "== shard determinism =="
# The same run through a 1-shard and an 8-shard repository must save the
# same profile and report the same metrics (snapshots are canonically
# ordered, weights are commutative sums).
"$CBSVM" run jess --dcg-shards 1 --save "$SHARD1" --metrics-json "$SHARD1M" >/dev/null
"$CBSVM" run jess --dcg-shards 8 --save "$SHARD8" --metrics-json "$SHARD8M" >/dev/null
cmp "$SHARD1" "$SHARD8"
cmp "$SHARD1M" "$SHARD8M"
echo "dcg-shards=1 and dcg-shards=8 runs are byte-identical"

echo "== background compile determinism =="
# The deterministic-install contract: compile worker threads only
# pre-compute pure compile results, installs stay pinned to virtual
# time, so a 4-worker run is byte-identical to a VM-thread-only run.
"$CBSVM" run jess --aos --compile-jobs 0 --save "$CJOBS0" --metrics-json "$CJOBS0M" >/dev/null
"$CBSVM" run jess --aos --compile-jobs 4 --save "$CJOBS4" --metrics-json "$CJOBS4M" >/dev/null
cmp "$CJOBS0" "$CJOBS4"
cmp "$CJOBS0M" "$CJOBS4M"
"$CBSVM" report jess --aos --compile-jobs 0 --json "$CJOBS0R" >/dev/null
"$CBSVM" report jess --aos --compile-jobs 4 --json "$CJOBS4R" >/dev/null
cmp "$CJOBS0R" "$CJOBS4R"
echo "compile-jobs=0 and compile-jobs=4 runs are byte-identical"

# Install-point re-validation: a long modelled latency on the phased
# workload must leave plans stale by install time, and the report must
# surface the queue traffic.
"$CBSVM" report phased --aos --compile-latency-scale 25 \
  --json "$AOSREPORT" >/dev/null
"$CBSVM" jsoncheck "$AOSREPORT"
python3 - "$AOSREPORT" "$CJOBS0M" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
queue = report["aos"]["queue"]
assert queue["installs"] >= 1, queue
assert queue["stale_drops"] >= 1, queue
assert queue["enqueued"] >= queue["installs"], queue
metrics = json.load(open(sys.argv[2]))
gauges = metrics["gauges"]
for name in ("depth", "enqueued", "installs", "stale_drops",
             "coalesced", "dropped"):
    assert f"aos.queue.{name}" in gauges, name
assert gauges["aos.queue.installs"] >= 1, gauges
print(f"compile queue: {queue['installs']} installs, "
      f"{queue['stale_drops']} stale drops re-validated at install")
EOF

echo "== deoptimization =="
# Guard policing end to end on the phased workload: the quality monitor
# must flag the hot-set swap, the phase-shift trigger must deoptimize
# the stale speculative versions and recompile them, and the quality
# timeline must recover after the repair (the last window's overlap
# beats the post-shift trough).
DEOPTREPORT=$(mktemp /tmp/cbsvm-deopt.XXXXXX.json)
"$CBSVM" report phased --deopt-threshold 40 --decay-ticks 8 \
  --phase-threshold 70 --json "$DEOPTREPORT" >/dev/null
"$CBSVM" jsoncheck "$DEOPTREPORT"
python3 - "$DEOPTREPORT" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
deopt = report["aos"]["deopt"]
assert report["quality"]["phaseShifts"] >= 1, report["quality"]
assert deopt["count"] >= 1, deopt
assert deopt["phaseShiftDeopts"] >= 1, deopt
assert deopt["recompiles"] >= 1, deopt
overlap = [w["overlapPct"] for w in report["quality"]["windows"]]
trough = min(overlap)
assert overlap[-1] > trough, overlap
print(f"deopt: {deopt['count']} deopts ({deopt['phaseShiftDeopts']} "
      f"phase-shift), {deopt['recompiles']} recompiles; overlap "
      f"recovered {trough:.1f} -> {overlap[-1]:.1f}")
EOF

# The forced-invalidation storm over 25 generated programs, and the
# campaign report must not depend on the worker count.
DEOPTFUZZ1=$(mktemp /tmp/cbsvm-deoptfuzz1.XXXXXX.txt)
DEOPTFUZZ8=$(mktemp /tmp/cbsvm-deoptfuzz8.XXXXXX.txt)
"$CBSVM" fuzz --oracle deopt-storm-stability --runs 25 --seed 1 \
  --jobs 1 | tee "$DEOPTFUZZ1"
"$CBSVM" fuzz --oracle deopt-storm-stability --runs 25 --seed 1 \
  --jobs 8 >"$DEOPTFUZZ8"
cmp "$DEOPTFUZZ1" "$DEOPTFUZZ8"
echo "deopt-storm-stability fuzz jobs=1 and jobs=8 are byte-identical"

echo "== on-stack replacement =="
# OSR end to end on the phased workload: a fast compile pipeline plus a
# policing threshold that kills mid-loop speculation makes frames
# transfer onto replacement versions at backedge yieldpoints, and the
# pin-tracked graveyard must be fully reclaimed once the last pinned
# frame leaves (the report runs the VM to completion, so zero retained
# graveyard instructions is an exact end-of-run invariant).
OSRREPORT=$(mktemp /tmp/cbsvm-osr.XXXXXX.json)
OSR_ARGS=(phased --osr --compile-latency-scale 0.2 --deopt-threshold 60)
"$CBSVM" report "${OSR_ARGS[@]}" --json "$OSRREPORT" >/dev/null
"$CBSVM" jsoncheck "$OSRREPORT"
python3 - "$OSRREPORT" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
osr = report["osr"]
assert osr["entries"] >= 1, osr
assert osr["graveyardReclaimedInstructions"] > 0, osr
assert osr["graveyardReclaims"] >= 1, osr
assert osr["graveyardInstructions"] == 0, osr
print(f"osr: {osr['entries']} promotions, {osr['exits']} deopt exits; "
      f"{osr['graveyardReclaimedInstructions']} graveyard instructions "
      f"reclaimed across {osr['graveyardReclaims']} frees, none retained")
EOF

# Frame transfer decisions happen on the VM thread at taken yieldpoints
# in virtual time, so --osr runs must stay byte-identical across
# compile worker counts.
OSRJOBS1=$(mktemp /tmp/cbsvm-osrjobs1.XXXXXX.dcg)
OSRJOBS8=$(mktemp /tmp/cbsvm-osrjobs8.XXXXXX.dcg)
OSRJOBS1M=$(mktemp /tmp/cbsvm-osrjobs1m.XXXXXX.json)
OSRJOBS8M=$(mktemp /tmp/cbsvm-osrjobs8m.XXXXXX.json)
"$CBSVM" run "${OSR_ARGS[@]}" --compile-jobs 1 \
  --save "$OSRJOBS1" --metrics-json "$OSRJOBS1M" >/dev/null
"$CBSVM" run "${OSR_ARGS[@]}" --compile-jobs 8 \
  --save "$OSRJOBS8" --metrics-json "$OSRJOBS8M" >/dev/null
cmp "$OSRJOBS1" "$OSRJOBS8"
cmp "$OSRJOBS1M" "$OSRJOBS8M"
echo "osr compile-jobs=1 and compile-jobs=8 runs are byte-identical"

# The osr-stability oracle over 25 long-loop programs (loops long
# enough for installs to land mid-frame), and the campaign report must
# not depend on the worker count.
OSRFUZZ1=$(mktemp /tmp/cbsvm-osrfuzz1.XXXXXX.txt)
OSRFUZZ8=$(mktemp /tmp/cbsvm-osrfuzz8.XXXXXX.txt)
"$CBSVM" fuzz --oracle osr-stability --long-loops --runs 25 --seed 1 \
  --jobs 1 | tee "$OSRFUZZ1"
"$CBSVM" fuzz --oracle osr-stability --long-loops --runs 25 --seed 1 \
  --jobs 8 >"$OSRFUZZ8"
cmp "$OSRFUZZ1" "$OSRFUZZ8"
echo "osr-stability fuzz jobs=1 and jobs=8 are byte-identical"

echo "== self-observability report =="
# The monitored phase-shift workload: the quality monitor must see the
# hot-set swap (>= 1 phase_shift dump), the overhead components must
# sum to the reported total fraction, and two seeded runs — one through
# an 8-shard repository — must produce byte-identical reports.
REPORT_ARGS=(report phased --decay-ticks 4 --decay-factor 0.5 \
  --every-ticks 4 --phase-threshold 75)
"$CBSVM" "${REPORT_ARGS[@]}" --json "$REPORTA" >/dev/null
"$CBSVM" "${REPORT_ARGS[@]}" --dcg-shards 8 --json "$REPORTB" >/dev/null
"$CBSVM" jsoncheck "$REPORTA"
cmp "$REPORTA" "$REPORTB"
echo "report runs (dcg-shards=1 vs 8) are byte-identical"
python3 - "$REPORTA" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
dumps = [d["trigger"] for d in report["flightRecorder"]["dumps"]]
assert "phase_shift" in dumps, dumps
windows = report["quality"]["windows"]
assert windows and report["quality"]["phaseShifts"] >= 1
overhead = report["overhead"]
total = sum(c["fractionPct"] for c in overhead["components"])
assert abs(total - overhead["totalFractionPct"]) < 1e-9, \
    (total, overhead["totalFractionPct"])
print(f"report: {len(windows)} windows, {len(dumps)} dumps "
      f"({', '.join(dumps)}), overhead {total:.3f}% fully attributed")
EOF

echo "== profile repository warm start =="
# The persistent repository end to end: the first monitored run over a
# fresh repository is a miss that commits its profile; the second run
# warm-starts from that entry and must reach its first optimized
# install strictly earlier than the cold run did (the time-to-peak
# benefit the repository exists to buy).
REPODIR=$(mktemp -d /tmp/cbsvm-repo.XXXXXX)
WARM1=$(mktemp /tmp/cbsvm-warm1.XXXXXX.json)
WARM2=$(mktemp /tmp/cbsvm-warm2.XXXXXX.json)
"$CBSVM" report phased --aos --profile-repo "$REPODIR" --json "$WARM1" >/dev/null
"$CBSVM" report phased --aos --profile-repo "$REPODIR" --json "$WARM2" >/dev/null
"$CBSVM" jsoncheck "$WARM1"
"$CBSVM" jsoncheck "$WARM2"
python3 - "$WARM1" "$WARM2" <<'EOF'
import json, sys
cold = json.load(open(sys.argv[1]))
warm = json.load(open(sys.argv[2]))
assert cold["repo"]["loaded"] == 0, cold["repo"]
assert cold["repo"]["committed"] == 1, cold["repo"]
assert warm["repo"]["loaded"] == 1, warm["repo"]
assert warm["repo"]["rejected"] == 0, warm["repo"]
assert warm["repo"]["runs"] == 1, warm["repo"]
assert warm["repo"]["committed"] == 1, warm["repo"]
cold_first = cold["aos"]["queue"]["firstInstallCycle"]
warm_first = warm["aos"]["queue"]["firstInstallCycle"]
assert cold_first > 0, cold["aos"]["queue"]
assert 0 < warm_first < cold_first, (cold_first, warm_first)
assert "warm" not in cold["aos"], cold["aos"].keys()
assert warm["aos"]["warm"]["enqueued"] >= 1, warm["aos"]["warm"]
print(f"warm start: first install {cold_first} -> {warm_first} cycles "
      f"({warm['aos']['warm']['enqueued']} methods pre-enqueued)")
EOF

# Repository bytes are part of the determinism contract: two cold+warm
# run pairs through separate fresh repositories — one at --compile-jobs
# 1, one at --compile-jobs 8 — must leave byte-identical repository
# entries and byte-identical metrics at every step.
REPOJOBS1=$(mktemp -d /tmp/cbsvm-repojobs1.XXXXXX)
REPOJOBS8=$(mktemp -d /tmp/cbsvm-repojobs8.XXXXXX)
RJ1A=$(mktemp /tmp/cbsvm-rj1a.XXXXXX.json)
RJ1B=$(mktemp /tmp/cbsvm-rj1b.XXXXXX.json)
RJ8A=$(mktemp /tmp/cbsvm-rj8a.XXXXXX.json)
RJ8B=$(mktemp /tmp/cbsvm-rj8b.XXXXXX.json)
"$CBSVM" run jess --profile-repo "$REPOJOBS1" --compile-jobs 1 \
  --metrics-json "$RJ1A" >/dev/null
"$CBSVM" run jess --profile-repo "$REPOJOBS1" --compile-jobs 1 \
  --metrics-json "$RJ1B" >/dev/null
"$CBSVM" run jess --profile-repo "$REPOJOBS8" --compile-jobs 8 \
  --metrics-json "$RJ8A" >/dev/null
"$CBSVM" run jess --profile-repo "$REPOJOBS8" --compile-jobs 8 \
  --metrics-json "$RJ8B" >/dev/null
cmp "$REPOJOBS1"/jess.dcg "$REPOJOBS8"/jess.dcg
cmp "$RJ1A" "$RJ8A"
cmp "$RJ1B" "$RJ8B"
echo "profile-repo compile-jobs=1 and compile-jobs=8 runs are byte-identical"

if [[ "${CBSVM_SKIP_TSAN:-}" != "1" ]]; then
  echo "== thread sanitizer: parallel engine + sharded DCG + compile queue + OSR + repository =="
  TSAN_BUILD="${BUILD}-tsan"
  cmake -B "$TSAN_BUILD" -S . -DCBSVM_SANITIZE=thread
  cmake --build "$TSAN_BUILD" -j \
    --target ParallelRunnerTest DCGConcurrencyTest CompileQueueTest OSRTest \
             ProfileRepositoryTest
  (cd "$TSAN_BUILD" && CBSVM_JOBS=8 \
    ctest --output-on-failure -R '^(ParallelRunner|DCGConcurrency|CompileQueue|Osr|ProfileRepository)')
fi

echo "== address + undefined-behaviour sanitizer: fast tier + fuzz smoke =="
# The code cache frees a retired version the moment its last pinned
# frame leaves, so a pin-count slip would be a use-after-free: run the
# fast tier and the fuzz smoke (plain and long-loop programs, where
# installs land mid-frame) under ASan+UBSan.
ASAN_BUILD="${BUILD}-asan"
cmake -B "$ASAN_BUILD" -S . -DCBSVM_SANITIZE=address,undefined
# A whole-tree sanitized build: bound the compile jobs, as each one is
# large.
cmake --build "$ASAN_BUILD" -j "$(nproc)"
export UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1
(cd "$ASAN_BUILD" && ctest --output-on-failure -j "$(nproc)" -L fast)
"$ASAN_BUILD/tools/cbsvm" fuzz --runs 25 --seed 1
"$ASAN_BUILD/tools/cbsvm" fuzz --runs 25 --seed 1 --long-loops

echo "== all checks passed =="
