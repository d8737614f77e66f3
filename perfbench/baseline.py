#!/usr/bin/env python3
"""Runs the benchmark over several seeds and records the spread of every metric.

    python3 perfbench/baseline.py --seeds 1-10 --traced-seeds 1-3
        --out perfbench/baseline.json

For every workload it runs `run.py --trace 0` once per seed and
`run.py --trace 1` once per traced seed, then writes, per metric, the
median and quartiles over those runs with the machine fingerprint. It
exits nonzero if any run fails its gates, or if the quartile spread of an
end-to-end metric reaches its bound from BENCHMARK.json; spreads above a
third of the bound are reported as warnings.
"""

import argparse
import json
import os
import subprocess
import sys
import time

import run

DEFAULT_SEED = 1
HELD_OUT_SEED = 17


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=run.ROOT)
    wall = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    fingerprint = next((json.loads(l[len("fingerprint "):]) for l in lines
                        if l.startswith("fingerprint ")), None)
    final = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if proc.returncode != 0 or final is None or not final["correct"]:
        sys.stderr.write(proc.stdout[-3000:] + proc.stderr[-3000:])
        return None, fingerprint, wall
    return final, fingerprint, wall


def summarize(values):
    q1, q2, q3 = run.quartiles(values)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": run.relative_spread(values), "values": values}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="")
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)
    with open(run.BENCHMARK_JSON) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    traced_seeds = seed_list(args.traced_seeds) if args.traced_seeds else []

    ok = True
    fingerprint = None
    summary = {}
    for workload in args.workloads.split(","):
        entry = {"end_to_end": {}, "per_layer": {}, "wall_s": []}
        for trace, run_seeds, key in ((0, seeds, "end_to_end"),
                                      (1, traced_seeds, "per_layer")):
            values = {}
            for seed in run_seeds:
                final, fp, wall = one_run(workload, seed, seconds, trace)
                entry["wall_s"].append(round(wall, 2))
                fingerprint = fingerprint or fp
                if final is None:
                    print("FAIL %s seed %d trace %d" % (workload, seed, trace))
                    ok = False
                    continue
                for name, m in final["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print("ok   %s seed %d trace %d (%.1f s)"
                      % (workload, seed, trace, wall), flush=True)
            for name, vals in values.items():
                entry[key][name] = summarize(vals)
        for name, s in entry["end_to_end"].items():
            bound = bounds[name]
            flag = ""
            if s["spread"] >= bound:
                flag = "  SPREAD AT OR ABOVE BOUND"
                ok = False
            elif s["spread"] > bound / 3:
                flag = "  (above a third of the bound)"
            print("%-11s %-15s median %-12.6g spread %.4f bound %.2f%s"
                  % (workload, name, s["median"], s["spread"], bound, flag))
        summary[workload] = entry

    if args.out:
        with open(args.out, "w") as f:
            json.dump({"fingerprint": fingerprint, "run_seconds": seconds,
                       "seeds": seeds, "traced_seeds": traced_seeds,
                       "default_seed": DEFAULT_SEED,
                       "held_out_seed": HELD_OUT_SEED,
                       "workloads": summary}, f, indent=1, sort_keys=True)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
