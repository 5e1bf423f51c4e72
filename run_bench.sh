#!/bin/sh
# Regenerate bench_output.txt experiment by experiment (each invocation
# flushes on exit). Alongside the text report, every experiment writes
# its scalar metrics to a machine-readable BENCH_<id>.json in the
# repository root.
#
# A crashing or timed-out experiment must not be silent: its exit code
# is checked, the failure is reported in both the log and stderr, and
# the script exits nonzero listing every experiment that died.
set -x
# Lint gate: refuse to spend bench cycles on a tree with new findings —
# classic determinism rules plus the suspend/atomicity/domain-shared
# ratchets (any drift from the checked-in lint/ inventories fails).
if ! dune build @lint; then
  echo "run_bench.sh: lint gate failed (dune build @lint)" >&2
  exit 1
fi
: > /root/repo/bench_output.txt
rm -f /root/repo/BENCH_*.json /root/repo/PROFILE_*.txt /root/repo/PROFILE_*.folded \
  /root/repo/TELEMETRY_*.json /root/repo/TELEMETRY_*.prom
# Domain-parity gate: a short open-loop run of every stack on a windowed
# (partitions = 2) engine must produce bit-identical digests on 1 and 2
# domains before any experiment spends cycles — a divergence means the
# windowed engine is broken and every open-loop number below it would be
# suspect. Closed-loop runs use the single-heap engine on any domain
# budget, so they have no parity to check.
if ! timeout 2400 dune exec bench/main.exe -- parity \
    >> /root/repo/bench_output.txt 2>&1; then
  echo "run_bench.sh: domain-parity gate failed (bench/main.exe parity)" >&2
  exit 1
fi
failed=""
# Scenario-corpus gate, ahead of the other experiments: replay the
# checked-in fault/load scenario files (crash, flap, churn, partition,
# gray failure, open-loop skew/wave) through the oracle-checked
# harness. The experiment itself aborts on any same-seed rerun
# divergence, and in full mode the emitted BENCH_scenario.json must
# byte-match the reference — if the scenario semantics drifted, every
# fault number below would be suspect.
timeout 2400 dune exec bench/main.exe -- scenario \
  >> /root/repo/bench_output.txt 2>&1
status=$?
if [ "$status" -ne 0 ]; then
  failed="$failed scenario"
  echo "FAILED: experiment scenario exited with status $status" \
    >> /root/repo/bench_output.txt
  echo "run_bench.sh: experiment scenario failed (exit $status)" >&2
fi
if [ -z "$XENIC_QUICK" ] && [ -f /root/repo/bench/ref/BENCH_scenario.ref.json ]; then
  dune exec bin/xenicctl.exe -- bench diff \
    /root/repo/bench/ref/BENCH_scenario.ref.json /root/repo/BENCH_scenario.json \
    --tol 0 >> /root/repo/bench_output.txt 2>&1
  status=$?
  if [ "$status" -ne 0 ]; then
    failed="$failed scenario-diff-gate"
    echo "FAILED: BENCH_scenario.json diverged from bench/ref reference" \
      >> /root/repo/bench_output.txt
    echo "run_bench.sh: scenario diff gate failed (exit $status)" >&2
  fi
fi
for exp in fig2 fig3 fig4 tab1 tab2 fig8 tab3 fig9 fault micro trace profile sim scale load; do
  timeout 2400 dune exec bench/main.exe -- "$exp" >> /root/repo/bench_output.txt 2>&1
  status=$?
  if [ "$status" -ne 0 ]; then
    failed="$failed $exp"
    echo "FAILED: experiment $exp exited with status $status" \
      >> /root/repo/bench_output.txt
    echo "run_bench.sh: experiment $exp failed (exit $status)" >&2
  fi
done
# Regression gate: the scale sweep is deterministic, so the fresh
# BENCH_scale.json must byte-match the checked-in reference once
# machine-dependent wall-clock metrics are dropped. The reference was
# produced by a full-mode run, so skip the gate under XENIC_QUICK
# (quick mode shrinks the workload and changes every metric).
if [ -z "$XENIC_QUICK" ] && [ -f /root/repo/bench/ref/BENCH_scale.ref.json ]; then
  dune exec bin/xenicctl.exe -- bench diff \
    /root/repo/bench/ref/BENCH_scale.ref.json /root/repo/BENCH_scale.json \
    --tol 0 --ignore-prefix wallclock >> /root/repo/bench_output.txt 2>&1
  status=$?
  if [ "$status" -ne 0 ]; then
    failed="$failed scale-diff-gate"
    echo "FAILED: BENCH_scale.json diverged from bench/ref reference" \
      >> /root/repo/bench_output.txt
    echo "run_bench.sh: scale diff gate failed (exit $status)" >&2
  fi
fi
# Same gate for the open-loop load sweep: deterministic by
# construction (the experiment itself aborts on any same-seed rerun or
# 2-domain divergence), so the emitted JSON must byte-match the
# reference.
if [ -z "$XENIC_QUICK" ] && [ -f /root/repo/bench/ref/BENCH_load.ref.json ]; then
  dune exec bin/xenicctl.exe -- bench diff \
    /root/repo/bench/ref/BENCH_load.ref.json /root/repo/BENCH_load.json \
    --tol 0 --ignore-prefix wallclock >> /root/repo/bench_output.txt 2>&1
  status=$?
  if [ "$status" -ne 0 ]; then
    failed="$failed load-diff-gate"
    echo "FAILED: BENCH_load.json diverged from bench/ref reference" \
      >> /root/repo/bench_output.txt
    echo "run_bench.sh: load diff gate failed (exit $status)" >&2
  fi
fi
# Telemetry gate: the load experiment's flight-recorder series share
# the sweep's determinism (byte-identical across same-seed reruns and
# domain counts, enforced inside the experiment), so the exported
# TELEMETRY_load.json must byte-match its reference too. The telemetry
# JSON holds simulated-time series only — no wall-clock keys to drop.
if [ -z "$XENIC_QUICK" ] && [ -f /root/repo/bench/ref/TELEMETRY_load.ref.json ]; then
  dune exec bin/xenicctl.exe -- bench diff \
    /root/repo/bench/ref/TELEMETRY_load.ref.json /root/repo/TELEMETRY_load.json \
    --tol 0 >> /root/repo/bench_output.txt 2>&1
  status=$?
  if [ "$status" -ne 0 ]; then
    failed="$failed telemetry-diff-gate"
    echo "FAILED: TELEMETRY_load.json diverged from bench/ref reference" \
      >> /root/repo/bench_output.txt
    echo "run_bench.sh: telemetry diff gate failed (exit $status)" >&2
  fi
fi
# Fault gate: the mid-run crash experiment is deterministic (fixed
# seed, single-heap engine), and nothing else catches it reporting
# zeros or a shifted recovery, so its BENCH_fault.json must byte-match
# the reference too. It holds simulated-time metrics only. The
# reference is a full-mode run, so the gate is skipped under
# XENIC_QUICK. Paths are relative to the repository root, where this
# script runs.
if [ -z "$XENIC_QUICK" ] && [ -f bench/ref/BENCH_fault.ref.json ]; then
  dune exec bin/xenicctl.exe -- bench diff \
    bench/ref/BENCH_fault.ref.json BENCH_fault.json \
    --tol 0 >> bench_output.txt 2>&1
  status=$?
  if [ "$status" -ne 0 ]; then
    failed="$failed fault-diff-gate"
    echo "FAILED: BENCH_fault.json diverged from bench/ref reference" \
      >> bench_output.txt
    echo "run_bench.sh: fault diff gate failed (exit $status)" >&2
  fi
fi
touch /root/repo/.bench_done
if [ -n "$failed" ]; then
  echo "run_bench.sh: failed experiments:$failed" >&2
  exit 1
fi
