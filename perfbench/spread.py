#!/usr/bin/env python3
"""Runs the benchmark once per seed and reports each end-to-end metric's
median and its interquartile spread as a share of the median, next to the
metric's bound in BENCHMARK.json. Run from the root of a checkout:

    python3 perfbench/spread.py --workload fleet-hunt --seeds 1-10
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    first, last = (int(x) for x in args.seeds.split("-"))
    for wl in args.workload:
        values = {}
        for seed in range(first, last + 1):
            cmd = bench["command"] + ["--workload", wl, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            res = subprocess.run(cmd, capture_output=True, text=True)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                print(f"{wl} seed {seed}: exit {res.returncode}\n{res.stderr[-2000:]}", file=sys.stderr)
                sys.exit(1)
            with open(f".bench_build/spread-{wl}-seed{seed}.txt", "w") as f:
                f.write("\n".join(lines[-2:]) + "\n")
            out = json.loads(lines[-1])
            if not out["correct"] or out["failed"]:
                print(f"{wl} seed {seed}: correct={out['correct']} failed={out['failed']}", file=sys.stderr)
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"== {wl} ({last - first + 1} seeds)")
        for name, vs in sorted(values.items()):
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4)
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:24s} median {med:12.4f}  spread {spread:6.3f}  bound {bound}{flag}")


if __name__ == "__main__":
    main()
