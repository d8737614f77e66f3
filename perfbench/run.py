#!/usr/bin/env python3
"""Repository benchmark: one workload, its metrics and its correctness gates.

    python3 perfbench/run.py --workload pg1_cold --seed 1 --seconds 20 --trace 0

Builds the viaduct libraries and the benchmark driver from source (into
$CARGO_TARGET_DIR, default .bench_build), runs the driver on one workload and
prints every metric BENCHMARK.json names for that mode, each with its unit:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. A failing gate prints that line with "correct": false
and exits 1; a build or driver failure exits 2 without printing it.

Maintenance:
    python3 perfbench/run.py --regen-reference   # rewrite reference.json
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
REFERENCE_JSON = os.path.join(HERE, "reference.json")
BATCH_WORKLOADS = ("pg1_cold", "pg5_warm", "mesh_audit")
WORKLOADS = BATCH_WORKLOADS + ("serve_mix",)
REFERENCE_INSTANCES = 32  # the driver maps --seed to seed % 32
RUN_TIMEOUT_S = 170
# A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


# ------------------------------------------------------------------ stats

def median(values):
    return statistics.median(values) if values else 0.0


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    if not values:
        return 0.0, 0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def relative_spread(values):
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# ---------------------------------------------------------------- metrics

def end_to_end(record):
    """End-to-end metric values from one untraced driver record."""
    latency = record["latency_ms"]
    p90, _ = percentile(latency, 0.9)
    return {
        "setup_s": median(record["setup_s"]),
        "analyze_s": median(record["analyze_s"]),
        "req_per_s": record["completed"] / record["measured_s"],
        "latency_p50_ms": median(latency),
        "latency_p90_ms": p90,
        "peak_rss_mb": record["peak_rss_mb"],
    }


def per_layer(record):
    """Per-layer metric values from one traced driver record."""
    s = record["layer_samples"]
    v = record["layer_values"]

    def med(name):
        return median(s.get(name, []))

    def val(name):
        return float(v.get(name, 0.0))

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    lookups = sum(val("char_cache." + k)
                  for k in ("memory_hit", "miss", "inflight_join", "store_hit"))
    return {
        "spice.parse_s": med("spice.parse"),
        "spice.parse_mb_per_s": rate(record["netlist_mb"],
                                     med("spice.parse")),
        "grid.tune_s": med("grid.tune"),
        "grid.model_build_s": med("grid.model_build"),
        "numerics.factor_s": med("numerics.factor"),
        "numerics.factor_nnz": val("numerics.factor_nnz"),
        "numerics.fill_ratio": val("numerics.fill_ratio"),
        "grid_mc.run_s": med("grid_mc.run"),
        "grid_mc.trials_per_s": rate(val("grid_mc.trials"), med("grid_mc.run")),
        "grid_mc.array_failures": val("grid_mc.array_failures"),
        "grid_mc.resolves": val("grid_mc.resolves"),
        "woodbury.branch_updates": val("woodbury.branch_updates"),
        "woodbury.rebases": val("woodbury.rebases"),
        "cholesky.refactorizations": val("cholesky.refactorizations"),
        "cholesky.triangular_solves": val("cholesky.triangular_solves"),
        "fea.solve_s": med("fea.solve"),
        "viaarray.fea_solves": val("viaarray.fea_solves"),
        "cg.iterations_total": val("cg.iterations_total"),
        "fea.mg_cycles": val("fea.mg_cycles"),
        "viaarray.mc_s": med("viaarray.mc"),
        "viaarray.trials_per_s": rate(val("viaarray.trials"), med("viaarray.mc")),
        "viaarray.downdates": val("viaarray.downdates"),
        "viaarray.memory_hit_ratio": (val("char_cache.memory_hit") / lookups
                                      if lookups else 0.0),
        "primitive_store.hits": val("primitive_store.hits"),
        "em.tree_build_s": med("em.tree_build"),
        "em.audit_ms": 1e3 * med("em.audit"),
        "em.steady_solves": val("em.steady_solves"),
        "em.mortal_configs": val("em.mortal_configs"),
        "core.bootstrap_s": med("core.bootstrap"),
        "serve.dedup_ratio": val("serve.dedup_ratio"),
        "serve.executed": val("serve.executed"),
        "serve.rejected": val("serve.rejected"),
        "serve.characterize_p50_ms": val("serve.characterize_p50_ms"),
        "serve.analyze_p50_ms": val("serve.analyze_p50_ms"),
        "analyze.span_coverage": val("analyze.span_coverage"),
        "trace_overhead_frac": val("trace_overhead_frac"),
        "error_rate": record["failed"] / max(1, record["attempted"]),
    }


def gates(record, trace):
    """Correctness gate failures beyond the ones the driver reports."""
    failures = list(record["gate_failures"])
    if record["attempted"] < 1:
        failures.append("no operation was attempted")
    if record["failed"]:
        failures.append("%d of %d operations failed"
                        % (record["failed"], record["attempted"]))
    if record["workload"] == "serve_mix" and not trace:
        _, beyond = percentile(record["latency_ms"], 0.9)
        if beyond < MIN_BEYOND:
            failures.append("only %d requests lie beyond latency_p90_ms "
                            "(need %d)" % (beyond, MIN_BEYOND))
        if not record["analyze_s"]:
            failures.append("no /v1/analyze request completed")
    return failures


def result(record, spec, trace):
    """(printable lines, final JSON object) for one driver record."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = per_layer(record) if trace else end_to_end(record)
    failures = gates(record, trace)
    metrics = {}
    lines = []
    for m in declared:
        name, unit = m["name"], m["unit"]
        if name not in values:
            failures.append("metric %s was not measured" % name)
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        lines.append("metric %-28s %.6g %s" % (name, values[name], unit))
    fp = record["fingerprint"]
    lines.insert(0, "fingerprint " + json.dumps(fp, sort_keys=True))
    if fp.get("inconclusive"):
        lines.insert(1, "inconclusive: %d threads requested on %d cores"
                     % (fp["threads_used"], fp["nproc"]))
    lines.append("operations attempted %d, failed %d"
                 % (record["attempted"], record["failed"]))
    for f in failures:
        lines.append("GATE FAILED: " + f)
    out = {
        "correct": not failures,
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]) if not failures
        else max(1, int(record["failed"])),
        "metrics": metrics,
    }
    return lines, out


# ------------------------------------------------------------ build & run

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build(out_dir):
    """Configures and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no viaduct sources under %s/src"
              % ROOT, file=sys.stderr)
        return None
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", out_dir, "-j", "4",
                  "--target", "perfbench_driver"])
    with open(log_path, "a") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    tail = f.read()[-4000:]
                print("perfbench: build failed:\n" + tail, file=sys.stderr)
                return None
    return os.path.join(out_dir, "perfbench_driver")


def run_driver(driver, args, timeout):
    proc = subprocess.run([driver] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        print("perfbench: driver exited with %d" % proc.returncode,
              file=sys.stderr)
        return None
    return proc.stdout


def regen_reference(driver):
    refs = {}
    for workload in BATCH_WORKLOADS:
        out = run_driver(driver, ["--workload", workload, "--emit-reference",
                                  str(REFERENCE_INSTANCES)], timeout=3600)
        if out is None:
            return 2
        for line in out.splitlines():
            row = json.loads(line)
            if not row["ok"]:
                print("perfbench: %s has discarded or salvaged trials"
                      % row["key"], file=sys.stderr)
                return 2
            refs[row["key"]] = [row["worst_case_years"], row["median_years"]]
    with open(REFERENCE_JSON, "w") as f:
        f.write("{\n" + ",\n".join('  "%s": [%r, %r]' % (k, v[0], v[1])
                                   for k, v in refs.items()) + "\n}\n")
    print("wrote %d references to %s" % (len(refs), REFERENCE_JSON))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.regen_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    started = time.monotonic()
    try:
        with open(BENCHMARK_JSON) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        print("perfbench: cannot read BENCHMARK.json: %s" % e, file=sys.stderr)
        return 2
    out_dir = build_dir()
    driver = build(out_dir)
    if driver is None:
        return 2
    if args.regen_reference:
        return regen_reference(driver)

    work_dir = os.path.join(out_dir, "perfbench-work")
    os.makedirs(work_dir, exist_ok=True)
    budget = max(30.0, RUN_TIMEOUT_S - (time.monotonic() - started))
    try:
        out = run_driver(driver, [
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work_dir, "--reference", REFERENCE_JSON], budget)
    except subprocess.TimeoutExpired:
        print("perfbench: driver exceeded %.0f s" % budget, file=sys.stderr)
        return 2
    if not out or not out.strip():
        return 2
    record = json.loads(out.strip().splitlines()[-1])
    lines, final = result(record, spec, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
