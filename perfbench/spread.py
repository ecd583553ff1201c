"""Run-to-run spread of the benchmark: several seeds per workload, one
fresh process per run, then the median and quartiles of every metric.

    python3 perfbench/spread.py --workloads headline large ablate --seeds 1-10
    python3 perfbench/spread.py --workloads large --seeds 1-5

Each run measures for the `run_seconds` of BENCHMARK.json, at the root of
the checkout.  The spread of a metric is (q3 - q1) / median over the runs,
with the quartiles of `statistics.quantiles(values, n=4)`.  Each untraced
spread is compared with its metric's bound in BENCHMARK.json: `ok` below a
third of it, `wide` up to the bound, `OVER` beyond.  The medians, quartiles
and raw values go to perfbench/out/spread-*.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def benchmark():
    """(run_seconds, bound of each end-to-end metric) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["run_seconds"], {m["name"]: m["bound"]
                                 for m in spec["end_to_end"]}


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    return json.loads(lines[-1]), wall, machine


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=["headline", "large", "ablate"])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    seconds, limits = benchmark()
    if args.trace:
        limits = {}
    report = {}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            result, wall, machine = run_once(workload, seed, seconds,
                                             args.trace)
            runs.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"attempted {result['attempted']} failed {result['failed']} "
                  f"wall {wall:.1f} s", flush=True)
        table = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            if any(v is None for v in values) or len(values) < 2:
                table[name] = {"values": values}
                continue
            table[name] = summarize(values)
        report[workload] = {"seeds": seeds, "seconds": seconds,
                            "trace": args.trace, "machine": machine,
                            "metrics": table,
                            "correct": all(r["correct"] for r in runs)}
        for name, row in table.items():
            if "median" not in row:
                print(f"  {name:<34} values {row['values']}")
                continue
            verdict = ""
            bound = limits.get(name)
            if bound is not None and row["spread"] is not None:
                verdict = ("ok" if row["spread"] < bound / 3
                           else "wide" if row["spread"] <= bound else "OVER")
                verdict = f"bound {bound:<5} {verdict}"
            spread = "-" if row["spread"] is None else f"{row['spread']:.4f}"
            print(f"  {name:<34} median {row['median']:<12.6g} "
                  f"q1 {row['q1']:<12.6g} q3 {row['q3']:<12.6g} "
                  f"spread {spread:<8} {verdict}", flush=True)
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"spread-{time.strftime('%Y%m%d-%H%M%S')}"
                        f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
