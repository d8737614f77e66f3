#!/usr/bin/env bash
# Tier-1 verification for viaduct, plus the fault/recovery sweeps:
#
#   1. release build with warnings as errors (VIADUCT_WERROR=ON) + full
#      ctest (the tier-1 gate from ROADMAP.md);
#   2. the fault-labelled recovery tests (ctest -L fault);
#   3. the checkpoint-labelled crash-safety/resume tests (ctest -L checkpoint);
#   4. a thread-sanitized build running the tsan-labelled set (includes the
#      fault and checkpoint tests — the registry's decision streams and the
#      trial recorder are TSan bait);
#   5. an uninjected CLI smoke run that must complete WARN-free: with no
#      site armed, no recovery path may fire and nothing may warn. The run
#      checkpoints, is re-run with --resume, and both must agree;
#   6. the perf_viaarray smoke: the incremental network solver must agree
#      step-by-step with a from-scratch LU oracle over full failure sweeps
#      at n = 3, 5, 7, 9 (exit is nonzero on mismatch, never on timing);
#   7. the perf_grid_scale smoke: the level-2 shared-base supernodal engine
#      on a ~1e4-node synthetic mesh — asserts up-looking/supernodal voltage
#      parity, thread-count bit-identity, a floor on the shared-base
#      speedup over factorization-per-trial, and at most one factored solve
#      per array failure plus one per rebase (`solves_per_failure` in
#      BENCH_grid_scale.json, fewer when the model's incidence-column cache
#      serves a repeat; `column_hit_ratio` reports its share), and that
#      every seeded, reach-limited incidence column (`solveIncidence`) is
#      bit-identical to the dense solve of e_i − e_j (`incidence_solve_ms`
#      and `forward_reach_fraction` report its cost), and that a Session's
#      voltages are bit-identical under the plain and AVX2 Woodbury
#      x0 − Z·y kernels (`woodbury_apply_gmac_per_s` reports both);
#      exit is nonzero on any miss;
#   8. the perf_obs_export smoke: grid MC with live telemetry fully on
#      (registry + JSONL sampler + the --obs-listen telemetry listener from
#      serve/protocol + a scraper thread) must
#      stay within the telemetry overhead budget and keep ttfSamples
#      bit-identical vs. obs-off across thread counts (BENCH_obs_export.json);
#   9. the perf_fea_mg smoke: multigrid vs IC(0) end-to-end FEA solve with
#      via-peak parity, warm-primitive-store, 1-vs-2-thread displacement
#      and plain-vs-AVX2 stencil-row bit-identity gates (BENCH_fea_mg.json,
#      which also reports the fine stencil sweep's ns/node per row kernel
#      and the multigrid set-up time; the >= 4x speedup floor applies to
#      the full-size run, not the smoke);
#  10. a CLI warm-store smoke: two characterize runs sharing a
#      --primitive-store file — the second must report zero FEA solves in
#      its --metrics-out snapshot and print identical TTF percentiles;
#  11. the perf_serve smoke: in-process serving-layer gates — concurrent
#      duplicate dedup (one execution, one FEA solve), admission-control
#      shedding, slow/malformed-client robustness, lossless drain
#      (BENCH_serve.json);
#  12. a serve daemon smoke: viaduct_server on an ephemeral port, a burst
#      of concurrent IDENTICAL characterize requests (held overlapping via
#      the debug execute-delay hook) must trigger exactly ONE FEA-solve
#      burst, and SIGTERM must drain to a clean exit 0 whose --metrics-out
#      snapshot proves the dedup (serve.executed == 1);
#  13. the perf_em_steady smoke: steady-state vs transient wire-EM audit on
#      a ~1e4-node mesh — closed-form/marched parity <= 1e-8 on the fig6/
#      fig7 line geometries, verdict + sample bit-identity across EM modes,
#      and a floor on the steady-vs-transient per-trial speedup
#      (BENCH_em_steady.json; the >= 5x floor applies to the full run);
#  14. the FEA shape benches: fig1_stress_profile, fig6_pattern_stress,
#      fig7_array_size_stress and claim_inner_via_lifetime must reproduce
#      every paper shape property on the multigrid stress solve (each exits
#      nonzero on a [FAIL] line).
#
# Usage: tools/run_tier1.sh [--skip-tsan]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_TSAN=0
for arg in "$@"; do
  case "$arg" in
    --skip-tsan) SKIP_TSAN=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "=== [1/14] tier-1: configure + -Werror build + full test suite ==="
cmake -B build -S . -DCMAKE_BUILD_TYPE=Release -DVIADUCT_WERROR=ON
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "=== [2/14] fault label: recovery-path tests ==="
ctest --test-dir build --output-on-failure -j "$JOBS" -L fault

echo "=== [3/14] checkpoint label: crash-safety and resume tests ==="
ctest --test-dir build --output-on-failure -j "$JOBS" -L checkpoint

if [[ "$SKIP_TSAN" -eq 1 ]]; then
  echo "=== [4/14] tsan sweep skipped (--skip-tsan) ==="
else
  echo "=== [4/14] thread-sanitized build: tsan label ==="
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DVIADUCT_SANITIZE=thread
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan --output-on-failure -j "$JOBS" -L tsan
fi

echo "=== [5/14] uninjected CLI smoke run must be WARN-free ==="
SMOKE_LOG="$(mktemp)"
SMOKE_CKPT="$(mktemp -u).ckpt"
trap 'rm -f "$SMOKE_LOG" "$SMOKE_CKPT"* ' EXIT
./build/tools/viaduct_cli analyze --preset PG1 --trials 50 --char-trials 50 \
  --checkpoint "$SMOKE_CKPT" \
  --metrics-stream build/SMOKE_metrics_stream.jsonl --metrics-every 0.5 \
  2> "$SMOKE_LOG" \
  || { cat "$SMOKE_LOG" >&2; exit 1; }
# The background sampler must have left a parseable JSONL stream behind.
[ -s build/SMOKE_metrics_stream.jsonl ] \
  && grep -q "viaduct-obs-stream-v1" build/SMOKE_metrics_stream.jsonl \
  || { echo "FAIL: --metrics-stream produced no samples" >&2; exit 1; }
# Resuming the finished run must restore every trial and stay WARN-free.
./build/tools/viaduct_cli analyze --preset PG1 --trials 50 --char-trials 50 \
  --checkpoint "$SMOKE_CKPT" --resume 2>> "$SMOKE_LOG" \
  | grep -q "checkpoint: resumed 50/50" \
  || { echo "FAIL: --resume did not restore all 50 grid trials" >&2
       cat "$SMOKE_LOG" >&2; exit 1; }
if grep -E "\[viaduct (WARN|ERROR)" "$SMOKE_LOG"; then
  echo "FAIL: WARN/ERROR log lines in an uninjected run (above)" >&2
  exit 1
fi
echo "smoke run clean (no WARN/ERROR lines, resume exact)"

echo "=== [6/14] perf_viaarray: incremental solver vs LU oracle smoke ==="
# Benchmark registrations are skipped (filter matches nothing); the
# per-step sweep check and BENCH_viaarray.json still run. Exit is nonzero
# only if the incremental solve and the LU oracle disagree.
(cd build/bench && ./perf_viaarray --benchmark_filter='^$')

echo "=== [7/14] perf_grid_scale: shared-base level-2 engine smoke ==="
# Parity, determinism, speedup, solves-per-failure and seeded-column
# bit-identity gates on the smallest mesh (a failure costs at most one
# factored solve, none when the column cache holds its array;
# column_hit_ratio, incidence_solve_ms and forward_reach_fraction are
# reported, not gated); the full 1e4 -> 2e6 sweep is the same binary
# without --smoke.
(cd build/bench && ./perf_grid_scale --smoke)

echo "=== [8/14] perf_obs_export: live-telemetry overhead + bit-identity ==="
# Grid MC with the registry, JSONL sampler, the --obs-listen telemetry
# listener (serve::startTelemetryListener, the same HTTP transport as the
# daemon), and a live scraper all running must stay within the overhead
# budget and produce bit-identical samples vs. obs-off across thread counts.
(cd build/bench && ./perf_obs_export --smoke)

echo "=== [9/14] perf_fea_mg: multigrid vs IC(0) FEA solve smoke ==="
# End-to-end solve parity (mg and ic0 via peaks must agree), the
# warm-primitive-store zero-solve gate, the mg displacement's
# bit-identity at 1 and 2 threads and the plain and AVX2 stencil rows'
# bit-identity (where the CPU has AVX2) on a reduced problem; the full
# fig7-size run with the >= 4x speedup floor is the same binary
# without --smoke (CI uploads its BENCH_fea_mg.json).
(cd build/bench && ./perf_fea_mg --smoke)

echo "=== [10/14] CLI warm-store smoke: second run must skip all FEA ==="
STORE_FILE="$(mktemp -u).primitives"
COLD_OUT="$(mktemp)"
WARM_OUT="$(mktemp)"
WARM_METRICS="$(mktemp)"
trap 'rm -f "$SMOKE_LOG" "$SMOKE_CKPT"* "$STORE_FILE" "$COLD_OUT" \
  "$WARM_OUT" "$WARM_METRICS"' EXIT
./build/tools/viaduct_cli characterize --n 4 --trials 100 \
  --primitive-store "$STORE_FILE" > "$COLD_OUT"
./build/tools/viaduct_cli characterize --n 4 --trials 100 \
  --primitive-store "$STORE_FILE" --metrics-out "$WARM_METRICS" > "$WARM_OUT"
cmp -s "$COLD_OUT" "$WARM_OUT" \
  || { echo "FAIL: warm-store characterize output differs from cold" >&2
       diff "$COLD_OUT" "$WARM_OUT" >&2 || true; exit 1; }
python3 - "$WARM_METRICS" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
solves = snap.get("counters", {}).get("viaarray.fea_solves", 0)
hits = snap.get("counters", {}).get("primitive_store.hits", 0)
if solves != 0 or hits < 1:
    sys.exit(f"FAIL: warm run had fea_solves={solves}, store hits={hits}")
print(f"warm store clean: 0 FEA solves, {hits} primitive hit(s)")
EOF

echo "=== [11/14] perf_serve: serving-layer dedup/admission/drain smoke ==="
# In-process gates: N concurrent identical characterize requests collapse
# to ONE execution and ONE FEA solve; the queue limit sheds load with 429;
# malformed/slow clients get 400/413/408; drain loses no in-flight
# response (exit is nonzero on any gate miss; writes BENCH_serve.json).
(cd build/bench && ./perf_serve --smoke)

echo "=== [12/14] serve daemon smoke: dedup burst + clean SIGTERM drain ==="
SERVE_LOG="$(mktemp)"
SERVE_METRICS="$(mktemp)"
trap 'rm -f "$SMOKE_LOG" "$SMOKE_CKPT"* "$STORE_FILE" "$COLD_OUT" \
  "$WARM_OUT" "$WARM_METRICS" "$SERVE_LOG" "$SERVE_METRICS"' EXIT
# The debug execute-delay holds the first request open long enough that
# the rest of the burst provably overlaps it in flight; workers >= burst
# so every duplicate is being handled concurrently when it joins.
./build/tools/viaduct_server --listen 127.0.0.1:0 --workers 6 \
  --debug-execute-delay-ms 300 --metrics-out "$SERVE_METRICS" \
  > "$SERVE_LOG" 2>&1 &
SERVE_PID=$!
SERVE_PORT=""
for _ in $(seq 1 100); do
  SERVE_PORT="$(sed -n 's#^listening on http://127\.0\.0\.1:\([0-9]*\)$#\1#p' \
    "$SERVE_LOG")"
  [ -n "$SERVE_PORT" ] && break
  kill -0 "$SERVE_PID" 2>/dev/null \
    || { echo "FAIL: viaduct_server exited early" >&2
         cat "$SERVE_LOG" >&2; exit 1; }
  sleep 0.1
done
[ -n "$SERVE_PORT" ] \
  || { echo "FAIL: viaduct_server never announced its port" >&2
       cat "$SERVE_LOG" >&2; exit 1; }
python3 - "$SERVE_PORT" <<'EOF'
import json, sys, threading, urllib.request
port, burst = sys.argv[1], 6
body = b'{"n": 3, "trials": 20, "criterion": "open"}'
results = [None] * burst
def fire(i):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}/v1/characterize", data=body,
        headers={"Content-Type": "application/json"}, method="POST")
    with urllib.request.urlopen(req, timeout=30) as resp:
        results[i] = (resp.status, json.load(resp))
threads = [threading.Thread(target=fire, args=(i,)) for i in range(burst)]
for t in threads: t.start()
for t in threads: t.join()
if any(r is None or r[0] != 200 for r in results):
    sys.exit(f"FAIL: burst responses incomplete: {results}")
medians = {r[1]["medianYears"] for r in results}
deduped = sum(1 for r in results if r[1].get("deduped"))
if len(medians) != 1:
    sys.exit(f"FAIL: duplicate requests disagreed: {medians}")
if deduped != burst - 1:
    sys.exit(f"FAIL: expected {burst - 1} deduped joins, saw {deduped}")
print(f"burst ok: {burst} duplicates agree, {deduped} joined in flight")
EOF
kill -TERM "$SERVE_PID"
SERVE_RC=0
wait "$SERVE_PID" || SERVE_RC=$?
[ "$SERVE_RC" -eq 0 ] \
  || { echo "FAIL: viaduct_server exited $SERVE_RC on SIGTERM" >&2
       cat "$SERVE_LOG" >&2; exit 1; }
python3 - "$SERVE_METRICS" <<'EOF'
import json, sys
snap = json.load(open(sys.argv[1]))
counters = snap.get("counters", {})
solves = counters.get("viaarray.fea_solves", 0)
executed = counters.get("serve.executed", 0)
deduped = counters.get("serve.deduped", 0)
if solves != 1 or executed != 1:
    sys.exit(f"FAIL: burst ran fea_solves={solves}, executed={executed}; "
             "expected exactly one of each")
if deduped < 1:
    sys.exit("FAIL: drained snapshot shows no deduped joins")
print(f"drain snapshot clean: 1 FEA-solve burst, {deduped} deduped join(s)")
EOF

echo "=== [13/14] perf_em_steady: steady-state wire-EM parity + speedup ==="
# Closed-form steady-state audit vs the marched transient reference on the
# paper line geometries (parity <= 1e-8), EM-mode verdict identity, and
# MC sample bit-identity with the audit on; the full run with the >= 5x
# per-trial floor is the same binary without --smoke.
(cd build/bench && ./perf_em_steady --smoke)

echo "=== [14/14] FEA shape benches: paper stress shapes on the mg solve ==="
# Figures 1, 6 and 7 and the inner-via lifetime claim, at their default
# sizes: each prints [PASS]/[FAIL] per shape property and exits nonzero on
# any [FAIL].
for fea_bench in fig1_stress_profile fig6_pattern_stress \
    fig7_array_size_stress claim_inner_via_lifetime; do
  (cd build/bench && "./$fea_bench" > /dev/null) \
    || { echo "FAIL: $fea_bench shape check (rerun it for the table)" >&2
         exit 1; }
  echo "$fea_bench: all shape checks pass"
done

echo "ALL TIER-1 CHECKS PASSED"
