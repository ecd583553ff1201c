"""Write perfbench/baseline.json from reports of spread.py.

    python3 perfbench/spread.py --seeds 1-10 --trace 0
    python3 perfbench/spread.py --seeds 1-3 --trace 1
    python3 perfbench/baseline.py perfbench/out/spread-<a>-trace0.json \\
        perfbench/out/spread-<b>-trace1.json

Each report holds some workloads, untraced or traced; where two reports
hold the same workload and kind, the later one on the command line wins.
The baseline keeps, per workload, the median, quartiles and spread of every
end-to-end metric, the median of every per-layer metric, the machine they
were measured on, and LAYER_MAP: the end-to-end metric and the workloads
each per-layer metric should move, so that later changes can cite both.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import LAYER_METRICS  # noqa: E402

ALL = ["headline", "large", "ablate"]
CLI_ONLY = "predicts no change on headline or large"


def _moves(metrics, workloads, note=None):
    entry = {"moves": metrics, "workloads": workloads}
    if note:
        entry["note"] = note
    return entry


LAYER_MAP = {
    "solver.init_s": _moves(["solve_s"], ["ablate"]),
    **{f"solver.{b}_s": _moves(["solve_s"], ["large"])
       for b in ("X", "G", "R", "L", "Z", "mult", "objective", "loop_other")},
    "solver.U_s": _moves(["solve_s"], ["headline"]),
    "solver.Y_s": _moves(["solve_s"], ["headline"]),
    **{k: _moves(["solve_s"], ALL)
       for k in ("solver.iterations", "solver.converged", "solver.iter_ms_p50",
                 "solver.iter_ms_p95")},
    **{k: _moves(["solve_s", "f1"], ["large", "ablate"])
       for k in ("solver.R_halvings", "solver.block_diff_calls",
                 "solver.final_objective", "solver.supp_R", "solver.supp_Z")},
    **{k: _moves(["solve_s"], ["headline"])
       for k in ("stiefel.calls", "stiefel.evals", "stiefel.grads",
                 "stiefel.evals_per_call", "stiefel.s")},
    **{k: _moves(["solve_s"], ["large"])
       for k in ("prox.l0_calls", "prox.l0_s", "prox.l20_calls", "prox.l20_s",
                 "tensor_ops.mode_n_product_calls",
                 "tensor_ops.mode_n_product_s",
                 "tensor_ops.toeplitz_diff_calls",
                 "tensor_ops.tensor_mb_computed")},
    **{k: _moves(["solve_s"], ["ablate"], CLI_ONLY)
       for k in ("io.read_s", "io.write_s", "io.read_mb", "io.write_mb",
                 "metrics.s", "cli.solves", "cli.variant_s_p50",
                 "cli.variant_s_max", "cli.other_s")},
    "trace.overhead_pct": _moves([], [], "health of the tracer, not of tslto"),
}


def _digits(x):
    return None if x is None else float(f"{x:.6g}")


def build(e2e, layers, bounds):
    machine = dict(e2e[ALL[0]]["machine"] or {})
    machine.pop("git_commit", None)
    out = {
        "about": (f"Baseline of the tslto solver benchmark on the machine "
                  f"below.  End-to-end: one fresh {e2e[ALL[0]]['seconds']} s "
                  f"run per seed and workload, untraced.  Per-layer: traced "
                  f"runs, median over their seeds.  layer_map names the "
                  f"end-to-end metric and workloads each per-layer metric "
                  f"should move."),
        "machine": machine,
        "end_to_end": {},
        "per_layer": {},
        "layer_map": LAYER_MAP,
    }
    for w in ALL:
        rows = {}
        for name, row in e2e[w]["metrics"].items():
            if "median" not in row:
                continue
            rows[name] = {k: _digits(row[k]) for k in ("median", "q1", "q3",
                                                       "spread")}
            rows[name]["bound"] = bounds.get(name)
        out["end_to_end"][w] = {"seeds": e2e[w]["seeds"], "metrics": rows}
        medians = {}
        for name, row in layers[w]["metrics"].items():
            values = row["values"]
            medians[name] = (None if any(v is None for v in values)
                             else _digits(statistics.median(values)))
        out["per_layer"][w] = {"seeds": layers[w]["seeds"], "median": medians}
    return out


def main(argv):
    if not argv:
        raise SystemExit(__doc__)
    if set(LAYER_MAP) != set(LAYER_METRICS):
        raise SystemExit("LAYER_MAP and tracer.LAYER_METRICS name different "
                         f"metrics: {sorted(set(LAYER_MAP) ^ set(LAYER_METRICS))}")
    e2e, layers = {}, {}
    for path in argv:
        with open(path) as f:
            for workload, entry in json.load(f).items():
                (layers if entry["trace"] else e2e)[workload] = entry
    missing = [f"{w} trace {t}" for t, kind in ((0, e2e), (1, layers))
               for w in ALL if w not in kind]
    if missing:
        raise SystemExit(f"no report for: {', '.join(missing)}")
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    path = os.path.join(HERE, "baseline.json")
    with open(path, "w") as f:
        json.dump(build(e2e, layers, bounds), f, indent=1)
        f.write("\n")
    print(f"wrote {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
