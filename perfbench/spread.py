#!/usr/bin/env python3
"""Runs one workload of the benchmark once per seed and reports, for each
metric, the median and the quartile spread (Q3 - Q1) / median -- the
steadiness check BENCHMARK.json's bounds are judged against.

    python3 perfbench/spread.py --workload classify-dtw --seeds 1 2 3 4 5

Run from the repository root. Each seed's result line is appended to
perfbench/out/spread-<workload>.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log_path = os.path.join(HERE, "out", "spread-%s.jsonl" % args.workload)
    values = {}
    with open(log_path, "a") as log:
        for seed in args.seeds:
            cmd = bench["command"] + [
                "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            log.write(json.dumps({"seed": seed, "result": result}) + "\n")
            if not result["correct"]:
                print("seed %d: %d of %d runs failed" % (seed, result["failed"], result["attempted"]))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("seed %d: %s" % (seed, ", ".join(
                "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items()
                if args.trace == 0)), flush=True)

    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
        else:
            spread = 0.0
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound else "TOO WIDE")
            verdict = "  bound %.3g: %s" % (bound, verdict)
        print("%-32s median %-14.6g spread %.4f%s" % (name, med, spread, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
