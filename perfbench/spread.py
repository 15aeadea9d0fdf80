#!/usr/bin/env python3
"""Runs one workload of the benchmark over several seeds and reports each
end-to-end metric's median and run-to-run spread: (Q3 - Q1) / median, with
the quartiles of statistics.quantiles(values, n=4). A metric is steady when
its spread stays below a third of its bound in BENCHMARK.json (setup_s is
exempt from the spread rule, not from its bound).

    python3 perfbench/spread.py --workload road-inproc --seeds 1-10 \\
        --seconds 25 [--out results.jsonl]

Run it from the root of a checkout; it calls perfbench/run.py once per seed,
one run at a time.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    """(Q3 - Q1) / median, with the quartiles of statistics.quantiles."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(name, value, bound):
    """How a metric's spread stands against its bound: "steady" below a
    third of it, "within bound" up to it, "too noisy" above it. setup_s is
    "exempt" from the spread rule."""
    if name == "setup_s":
        return "exempt"
    if value < bound / 3:
        return "steady"
    if value <= bound:
        return "within bound"
    return "too noisy"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None,
                        help="append each run's JSON result to this file")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    values = {name: [] for name in metrics}
    for seed in parse_seeds(args.seeds):
        began = time.monotonic()
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout}"
                  f"{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if args.out:
            with open(args.out, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed,
                                    **result}) + "\n")
        for name in metrics:
            values[name].append(result["metrics"][name]["value"])
        # The run's share of CPU time stolen by the hypervisor, if printed:
        # a slow run with a high share was slowed by the host.
        steal = [line for line in lines if line.startswith("host:")]
        print(f"seed {seed} ({time.monotonic() - began:.1f} s): " + "  ".join(
            f"{name}={result['metrics'][name]['value']:.6g}"
            for name in metrics) + "".join(f"\n  {line}" for line in steal),
            flush=True)

    print(f"\n{args.workload}: {len(values['setup_s'])} runs of {seconds} s")
    print(f"{'metric':22} {'median':>14} {'spread':>8} {'bound':>6}  verdict")
    ranks = ["exempt", "steady", "within bound", "too noisy"]
    worst = "steady"
    for name, spec in metrics.items():
        vals = values[name]
        s = spread(vals) if len(vals) >= 2 else float("nan")
        v = verdict(name, s, spec["bound"])
        worst = max(worst, v, key=ranks.index)
        print(f"{name:22} {statistics.median(vals):14.6g} {s:8.4f} "
              f"{spec['bound']:6.3f}  {v}")
    print(f"overall: {worst}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
