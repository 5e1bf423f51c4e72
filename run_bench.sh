#!/bin/sh
# Regenerate bench_output.txt experiment by experiment (each invocation
# flushes on exit). Alongside the text report, every experiment writes
# its scalar metrics to a machine-readable BENCH_<id>.json in the
# repository root.
#
# A crashing or timed-out experiment must not be silent: its exit code
# is checked, the failure is reported in both the log and stderr, and
# the script exits nonzero listing every experiment that died.
#
# Every path below is relative to the directory holding this script,
# so a copy of the repository run elsewhere writes only into itself.
set -x
cd "$(dirname "$0")" || exit 1
# Lint gate: refuse to spend bench cycles on a tree with new findings —
# classic determinism rules plus the suspend/atomicity/domain-shared
# ratchets (any drift from the checked-in lint/ inventories fails).
if ! dune build @lint; then
  echo "run_bench.sh: lint gate failed (dune build @lint)" >&2
  exit 1
fi
: > bench_output.txt
rm -f BENCH_*.json PROFILE_*.txt PROFILE_*.folded \
  TELEMETRY_*.json TELEMETRY_*.prom
# Domain-parity gate: a short open-loop run of every stack on a windowed
# (partitions = 2) engine must produce bit-identical digests on 1 and 2
# domains before any experiment spends cycles — a divergence means the
# windowed engine is broken and every open-loop number below it would be
# suspect. Closed-loop runs keep the engine's one partition on any
# domain budget, so they have no parity to check.
if ! timeout 2400 dune exec bench/main.exe -- parity \
    >> bench_output.txt 2>&1; then
  echo "run_bench.sh: domain-parity gate failed (bench/main.exe parity)" >&2
  exit 1
fi
failed=""
# Byte gate: `ref_gate NAME REF OUT [FLAGS]` diffs OUT against its
# bench/ref reference REF with `xenicctl bench diff --tol 0 [FLAGS]`
# and adds NAME-diff-gate to $failed on any divergence. References are
# full-mode runs, so the gate is skipped under XENIC_QUICK (quick mode
# shrinks every metric) and when REF is missing.
ref_gate() {
  name=$1 ref=$2 out=$3
  shift 3
  [ -z "$XENIC_QUICK" ] && [ -f "$ref" ] || return 0
  dune exec bin/xenicctl.exe -- bench diff "$ref" "$out" --tol 0 "$@" \
    >> bench_output.txt 2>&1
  status=$?
  if [ "$status" -ne 0 ]; then
    failed="$failed $name-diff-gate"
    echo "FAILED: $out diverged from bench/ref reference" >> bench_output.txt
    echo "run_bench.sh: $name diff gate failed (exit $status)" >&2
  fi
}
# Scenario-corpus gate, ahead of the other experiments: replay the
# checked-in fault/load scenario files (crash, flap, churn, partition,
# gray failure, open-loop skew/wave) through the oracle-checked
# harness. The experiment itself aborts on any same-seed rerun
# divergence, and in full mode the emitted BENCH_scenario.json must
# byte-match the reference — if the scenario semantics drifted, every
# fault number below would be suspect.
timeout 2400 dune exec bench/main.exe -- scenario \
  >> bench_output.txt 2>&1
status=$?
if [ "$status" -ne 0 ]; then
  failed="$failed scenario"
  echo "FAILED: experiment scenario exited with status $status" \
    >> bench_output.txt
  echo "run_bench.sh: experiment scenario failed (exit $status)" >&2
fi
ref_gate scenario bench/ref/BENCH_scenario.ref.json BENCH_scenario.json
for exp in fig2 fig3 fig4 tab1 tab2 fig8 tab3 fig9 fault micro trace profile sim scale load; do
  timeout 2400 dune exec bench/main.exe -- "$exp" >> bench_output.txt 2>&1
  status=$?
  if [ "$status" -ne 0 ]; then
    failed="$failed $exp"
    echo "FAILED: experiment $exp exited with status $status" \
      >> bench_output.txt
    echo "run_bench.sh: experiment $exp failed (exit $status)" >&2
  fi
done
# Regression gate: the scale sweep is deterministic, so the fresh
# BENCH_scale.json must byte-match the checked-in reference once
# machine-dependent wall-clock metrics are dropped. The reference was
# produced by a full-mode run, so skip the gate under XENIC_QUICK
# (quick mode shrinks the workload and changes every metric).
ref_gate scale bench/ref/BENCH_scale.ref.json BENCH_scale.json \
  --ignore-prefix wallclock
# Same gate for the open-loop load sweep: deterministic by
# construction (the experiment itself aborts on any same-seed rerun or
# 2-domain divergence), so the emitted JSON must byte-match the
# reference.
ref_gate load bench/ref/BENCH_load.ref.json BENCH_load.json \
  --ignore-prefix wallclock
# Telemetry gate: the load experiment's flight-recorder series share
# the sweep's determinism (byte-identical across same-seed reruns and
# domain counts, enforced inside the experiment), so the exported
# TELEMETRY_load.json must byte-match its reference too. The telemetry
# JSON holds simulated-time series only — no wall-clock keys to drop.
ref_gate telemetry bench/ref/TELEMETRY_load.ref.json TELEMETRY_load.json
# Fault gate: the mid-run crash experiment is deterministic (fixed
# seed, one-partition engine), and nothing else catches it reporting
# zeros or a shifted recovery, so its BENCH_fault.json must byte-match
# the reference too. It holds simulated-time metrics only.
ref_gate fault bench/ref/BENCH_fault.ref.json BENCH_fault.json
# sim_digest gate: bench/cost's simulated results (throughput, latency
# percentiles, failure share, grid points) at a fixed --seconds 1 must
# match the reference bit for bit on all four workloads, so a refactor
# that claims "simulated behaviour unchanged" is checked, not assumed.
# Each 128-bit sim_digest is written as four 32-bit integers, the
# numeric shape `xenicctl bench diff --tol 0` compares exactly. The size
# is fixed, so the gate runs with and without XENIC_QUICK.
cost_digests() {
  for w in smallbank tpcc retwis-open smallbank-drtmh; do
    d=$(dune exec bench/cost/cost.exe -- --workload "$w" --seconds 1 --trace 0 \
      | sed -n 's/^  sim_digest //p')
    [ "${#d}" -eq 32 ] || return 1
    for i in 0 1 2 3; do
      echo "$w $i $((0x$(echo "$d" | cut -c$((i * 8 + 1))-$((i * 8 + 8)))))"
    done
  done | awk 'BEGIN { printf "{\n  \"experiment\": \"cost_digest\",\n  \"metrics\": {\n" }
    { printf "%s    \"%s sim_digest.%s\": %s", (NR > 1 ? ",\n" : ""), $1, $2, $3 }
    END { printf "\n  }\n}\n"; if (NR != 16) exit 1 }'
}
if cost_digests > COST_digest.json; then
  dune exec bin/xenicctl.exe -- bench diff \
    bench/ref/COST_digest.ref.json COST_digest.json \
    --tol 0 >> bench_output.txt 2>&1
  status=$?
else
  status=1
fi
if [ "$status" -ne 0 ]; then
  failed="$failed cost-digest-gate"
  echo "FAILED: bench/cost sim_digest diverged from bench/ref reference" \
    >> bench_output.txt
  echo "run_bench.sh: cost digest gate failed (exit $status)" >&2
fi
touch .bench_done
if [ -n "$failed" ]; then
  echo "run_bench.sh: failed experiments:$failed" >&2
  exit 1
fi
