"""Batch command-line front end.

Subcommands: generate | solve | evaluate | preprocess | ablate | grid.
Every run reads an optional flat key=value config file, applies same-named
command-line overrides, and records the fully resolved config next to its
outputs.  Exit codes: 0 success, 1 usage error, 2 runtime error.
"""

import argparse
import concurrent.futures
import csv
import functools
import inspect
import os
import sys
from dataclasses import asdict, fields

from . import io as tio
from .datagen import SyntheticInstance, SyntheticSpec, generate, sparsity_report
from .lanes import usable_cpus
from .metrics import (DetectionRule, check_scope, detection_metrics,
                      imputation_metrics)
from .preprocess import (
    ScaleTransform,
    observation_mask_from_zeros,
    scale_revert,
    scale_transform,
    select_rank,
    tucker_smooth,
)
from .solver import (ABLATION_VARIANTS, SolverConfig, TraceRow,
                     ablation_config, solve)
from .tensor_ops import project_observed


class UsageError(Exception):
    pass


# All recognized config keys with their defaults, read from their definitions.
# `seed` is SyntheticSpec's; `solve` and `ablate` accept it and only record it.
KEYS = {
    **asdict(SolverConfig()),
    **asdict(SyntheticSpec()),
    "scope": "missing",
    "detect_mode": DetectionRule.mode,
    "detect_threshold": DetectionRule.threshold,
    "theta": inspect.signature(select_rank).parameters["theta"].default,
    "shift": ScaleTransform.shift,
    "core_scale": ScaleTransform.core_scale,
    "scale_ranks": ScaleTransform.ranks,
    "trace_every": 10,
}


def parse_value(key, text):
    """Parse a config value by the type of the key's default; a tuple key
    takes 1 or 3 comma-separated values of its elements' type."""
    default = KEYS[key]
    try:
        if not isinstance(default, tuple):
            return type(default)(text)
        parts = [p for p in str(text).replace("(", "").replace(")", "").split(",")
                 if p]
        if len(parts) == 1:
            parts = parts * 3
        if len(parts) != 3:
            raise ValueError(
                f"expected 1 or 3 comma-separated values, got {text!r}"
            )
        return tuple(type(default[0])(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"{key}: {exc}") from None


# Range checks of the keys whose type alone does not make them valid.
CHECKS = {
    "scope": check_scope,
    "detect_mode": lambda v: DetectionRule(mode=v).validate(),
    "detect_threshold": lambda v: DetectionRule(threshold=v).validate(),
}


def check_values(values):
    """UsageError naming the first key in CHECKS whose value is invalid."""
    for key, check in CHECKS.items():
        try:
            check(values[key])
        except ValueError as exc:
            raise UsageError(f"{key}: {exc}") from None


def resolve_config(args):
    """Merge defaults, config-file values, and command-line overrides."""
    values = dict(KEYS)
    path = getattr(args, "config", None)
    if path:
        for key, raw in tio.read_manifest(path).items():
            if key not in KEYS:
                raise UsageError(f"unknown config key {key!r} in {path}")
            values[key] = parse_value(key, raw)
    for key in KEYS:
        override = getattr(args, key, None)
        if override is not None:
            values[key] = parse_value(key, override)
    check_values(values)
    return values


def _validated(obj):
    """obj once its validate() passes; a ValueError is a UsageError."""
    try:
        obj.validate()
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    return obj


def solver_config_from(values):
    kwargs = {f.name: values[f.name] for f in fields(SolverConfig)}
    return _validated(SolverConfig(**kwargs))


def synthetic_spec_from(values):
    kwargs = {f.name: values[f.name] for f in fields(SyntheticSpec)}
    return _validated(SyntheticSpec(**kwargs))


def _write_resolved(outdir, values):
    entries = {k: _fmt(v) for k, v in sorted(values.items())}
    tio.write_manifest(os.path.join(outdir, "config_resolved.txt"), entries)


def _fmt(v):
    if isinstance(v, tuple):
        return ",".join(str(x) for x in v)
    return v


def _ensure_outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ---------------------------------------------------------------- commands


def cmd_generate(args):
    values = resolve_config(args)
    spec = synthetic_spec_from(values)
    outdir = _ensure_outdir(args)
    inst = generate(spec)
    names = {f.name: f"{f.name}.tsr3" for f in fields(SyntheticInstance)}
    for name, file in names.items():
        tio.write_tsr3(os.path.join(outdir, file), getattr(inst, name))
    report = sparsity_report(inst)
    d1, d2, d3 = spec.dims
    manifest = {f.name: _fmt(getattr(spec, f.name)) for f in fields(SyntheticSpec)}
    manifest.update(
        {f"file_{k}": v for k, v in names.items()},
        anomaly_ratio=spec.block_count * spec.block_area / (d1 * d2 * d3),
        anomaly_entries=report["anomaly_entries"],
        observed_fraction=report["observed_fraction"],
        factor_diff_nonzero_rows=_fmt(report["factor_diff_nonzero_rows"]),
    )
    tio.write_manifest(os.path.join(outdir, "manifest.txt"), manifest)
    _write_resolved(outdir, values)
    return 0


def cmd_solve(args):
    values = resolve_config(args)
    cfg = solver_config_from(values)
    y = tio.read_tsr3(args.input)
    mask = tio.read_mask(args.mask)
    outdir = _ensure_outdir(args)
    # only `tslto solve` writes trace.csv, so only it asks for trace rows
    result = solve(y, mask, cfg, trace_every=values["trace_every"])
    for name in ("x", "l", "r"):
        tio.write_tsr3(os.path.join(outdir, f"{name}.tsr3"), getattr(result, name))
    with open(os.path.join(outdir, "trace.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(TraceRow._fields)
        w.writerows(result.trace)
    _write_resolved(outdir, values)
    return 0


def _evaluate(values, truth, estimate, r, mask, anomaly_truth):
    rule = DetectionRule(values["detect_mode"], values["detect_threshold"])
    metrics = imputation_metrics(
        truth, estimate, scope=values["scope"], mask=mask,
        anomaly_truth=anomaly_truth,
    )
    if anomaly_truth is not None:
        metrics.update(detection_metrics(anomaly_truth, r, rule))
    return metrics


METRIC_COLUMNS = ["rmse", "mape", "mae", "n", "mape_skipped",
                  "precision", "recall", "f1"]


def _write_metrics_csv(path, rows, extra_columns=()):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(list(extra_columns) + METRIC_COLUMNS)
        for extra, metrics in rows:
            w.writerow(list(extra) + [metrics.get(c, "") for c in METRIC_COLUMNS])


def cmd_evaluate(args):
    values = resolve_config(args)
    truth = tio.read_tsr3(args.truth)
    estimate = tio.read_tsr3(args.estimate)
    r = tio.read_tsr3(args.anomaly)
    mask = tio.read_mask(args.mask) if args.mask else None
    anomaly_truth = (
        tio.read_mask(args.anomaly_truth) if args.anomaly_truth else None
    )
    metrics = _evaluate(values, truth, estimate, r, mask, anomaly_truth)
    _write_metrics_csv(args.metrics_out, [((), metrics)])
    return 0


def cmd_preprocess(args):
    values = resolve_config(args)
    if args.input.endswith(".csv"):
        x = tio.read_csv_triples(args.input)
    else:
        x = tio.read_tsr3(args.input)
    outdir = _ensure_outdir(args)
    if args.mask_from_zeros:
        tio.write_mask(
            os.path.join(outdir, "mask.tsr3"), observation_mask_from_zeros(x)
        )
    manifest = {"op": args.op, "input": args.input}
    if args.op == "select-rank":
        ranks = select_rank(x, values["theta"])
        manifest["selected_ranks"] = _fmt(ranks)
    else:
        t = ScaleTransform(
            values["shift"], values["core_scale"], values["scale_ranks"]
        )
        if args.op == "smooth":
            out = tucker_smooth(x, values["scale_ranks"])
        elif args.op == "transform":
            out = scale_transform(x, t)
        elif args.op == "revert":
            out = scale_revert(x, t)
        else:
            raise UsageError(f"unknown preprocess op {args.op!r}")
        tio.write_tsr3(os.path.join(outdir, "output.tsr3"), out)
        manifest["output"] = "output.tsr3"
    tio.write_manifest(os.path.join(outdir, "manifest.txt"), manifest)
    _write_resolved(outdir, values)
    return 0


def _read_scored_inputs(input, mask, truth, anomaly_truth):
    """Observed tensor, mask, truth and anomaly truth of a scored run."""
    return (tio.read_tsr3(input), tio.read_mask(mask), tio.read_tsr3(truth),
            tio.read_mask(anomaly_truth))


def cmd_ablate(args):
    values = resolve_config(args)
    base = solver_config_from(values)
    y, mask, truth, anomaly_truth = _read_scored_inputs(
        args.input, args.mask, args.truth, args.anomaly_truth
    )
    outdir = _ensure_outdir(args)
    rows = []
    for variant in ABLATION_VARIANTS:
        result = solve(y, mask, ablation_config(base, variant))
        metrics = _evaluate(values, truth, result.x, result.r, mask, anomaly_truth)
        rows.append(((variant,), metrics))
    _write_metrics_csv(
        os.path.join(outdir, "ablation.csv"), rows, extra_columns=("variant",)
    )
    _write_resolved(outdir, values)
    return 0


def _grid_cell(cell, input_files):
    if input_files:
        y, mask, truth, anomaly_truth = _read_scored_inputs(*input_files)
    else:
        inst = generate(synthetic_spec_from(cell))
        y = project_observed(inst.full, inst.mask)
        mask = inst.mask
        truth = inst.full
        anomaly_truth = inst.anomaly_truth
    result = solve(y, mask, solver_config_from(cell))
    return _evaluate(cell, truth, result.x, result.r, mask, anomaly_truth)


def _check_cell(cell, synthetic):
    """UsageError unless the cell's config, and its instance when it is
    synthetic, are valid and its scope selects entries of that instance."""
    check_values(cell)
    solver_config_from(cell)
    if synthetic:
        synthetic_spec_from(cell)
        if cell["scope"] == "missing" and cell["missing_rate"] == 0:
            raise UsageError("scope 'missing' selects no entries when "
                             "missing_rate is 0")


def _call_each(calls):
    """Results of the calls in order; a call that raises yields its exception."""
    outcomes = []
    for call in calls:
        try:
            outcomes.append(call())
        except Exception as exc:  # failed cells must not abort the grid
            outcomes.append(exc)
    return outcomes


def _job_count(flag):
    """--jobs, or env TSLTO_JOBS (default 1) when the flag is 0."""
    if flag < 0:
        raise UsageError(f"--jobs must be >= 0, got {flag}")
    if flag:
        return flag
    text = os.environ.get("TSLTO_JOBS", "1")
    if not (text.strip().isdecimal() and int(text) >= 1):
        raise UsageError(f"TSLTO_JOBS must be an integer >= 1, got {text!r}")
    return int(text)


def cmd_grid(args):
    values = resolve_config(args)
    key1 = args.grid_key1
    key2 = args.grid_key2
    if (key2 is None) != (args.grid_values2 is None):
        raise UsageError("--grid-key2 and --grid-values2 must be given together")
    for key in (key1, key2):
        if key is not None and key not in KEYS:
            raise UsageError(f"unknown grid key {key!r}")
    values1 = [parse_value(key1, v) for v in args.grid_values1.split(";")]
    values2 = (
        [parse_value(key2, v) for v in args.grid_values2.split(";")] if key2
        else [None]
    )
    pairs = [(v1, v2) for v1 in values1 for v2 in values2]
    if len(pairs) > args.max_cells:
        raise UsageError(f"grid has {len(pairs)} cells, cap is {args.max_cells}")
    input_files = None
    if args.input:
        input_files = (args.input, args.mask, args.truth, args.anomaly_truth)
        if not all(input_files):
            raise UsageError(
                "--input requires --mask, --truth and --anomaly-truth"
            )
    cells = []
    for idx, (v1, v2) in enumerate(pairs):
        cell = dict(values)
        cell[key1] = v1
        if key2:
            cell[key2] = v2
        if "seed" not in (key1, key2):
            cell["seed"] = values["seed"] ^ idx
        cells.append(cell)
    jobs = min(_job_count(args.jobs), len(cells), usable_cpus())
    for idx, ((v1, v2), cell) in enumerate(zip(pairs, cells)):
        try:
            _check_cell(cell, input_files is None)
        except UsageError as exc:
            swept = f"{key1}={_fmt(v1)}"
            if key2:
                swept += f", {key2}={_fmt(v2)}"
            raise UsageError(f"grid cell {idx} ({swept}): {exc}") from None
    runs = [functools.partial(_grid_cell, cell, input_files) for cell in cells]
    outdir = _ensure_outdir(args)
    if jobs > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = _call_each([pool.submit(run).result for run in runs])
    else:
        outcomes = _call_each(runs)
    with open(os.path.join(outdir, "grid.csv"), "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["cell", "key1", "value1", "key2", "value2", "seed",
                    "metric", "value", "error"])
        for idx, ((v1, v2), cell, out) in enumerate(zip(pairs, cells, outcomes)):
            # csv writes None (no second key) as an empty field
            base = [idx, key1, _fmt(v1), key2, _fmt(v2), cell["seed"]]
            if isinstance(out, Exception):
                w.writerow(base + ["", "", f"{type(out).__name__}: {out}"])
                continue
            for metric in METRIC_COLUMNS:
                if metric in out:
                    w.writerow(base + [metric, out[metric], ""])
    _write_resolved(outdir, values)
    if all(isinstance(out, Exception) for out in outcomes):
        first = outcomes[0]
        print(f"error: every grid cell failed; cell 0: "
              f"{type(first).__name__}: {first}", file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------- parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tslto",
        description="Sparse low-rank tensor completion and anomaly diagnosis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_keys(p, keys):
        p.add_argument("--config", help="flat key=value config file")
        for key in keys:
            p.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)

    solver_keys = [f.name for f in fields(SolverConfig)]
    spec_keys = [f.name for f in fields(SyntheticSpec) if f.name != "seed"]
    eval_keys = ["scope", "detect_mode", "detect_threshold"]

    p = sub.add_parser("generate", help="write a synthetic instance")
    p.add_argument("--out", required=True)
    add_config_keys(p, spec_keys + ["seed"])
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run the solver on a tensor + mask")
    p.add_argument("--input", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--out", required=True)
    add_config_keys(p, solver_keys + ["seed", "trace_every"])
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("evaluate", help="score solver outputs against truth")
    p.add_argument("--truth", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--anomaly", required=True)
    p.add_argument("--anomaly-truth", dest="anomaly_truth")
    p.add_argument("--mask")
    p.add_argument("--metrics-out", dest="metrics_out", required=True)
    add_config_keys(p, eval_keys)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("preprocess", help="rank selection / smoothing / scaling")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument(
        "--op", required=True,
        choices=["select-rank", "smooth", "transform", "revert"],
    )
    p.add_argument("--mask-from-zeros", action="store_true")
    add_config_keys(p, ["theta", "shift", "core_scale", "scale_ranks"])
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("ablate", help="run the regularizer-removal variants")
    p.add_argument("--input", required=True)
    p.add_argument("--mask", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--anomaly-truth", dest="anomaly_truth", required=True)
    p.add_argument("--out", required=True)
    add_config_keys(p, solver_keys + eval_keys + ["seed", "trace_every"])
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("grid", help="grid search over two config keys")
    p.add_argument("--grid-key1", required=True)
    p.add_argument("--grid-values1", required=True,
                   help="semicolon-separated values")
    p.add_argument("--grid-key2")
    p.add_argument("--grid-values2")
    p.add_argument("--input", help="optional fixed instance tensor")
    p.add_argument("--mask")
    p.add_argument("--truth")
    p.add_argument("--anomaly-truth", dest="anomaly_truth")
    p.add_argument("--jobs", type=int, default=0,
                   help="parallel cells (default: env TSLTO_JOBS or 1)")
    p.add_argument("--max-cells", dest="max_cells", type=int, default=256)
    p.add_argument("--out", required=True)
    add_config_keys(p, solver_keys + spec_keys + eval_keys
                    + ["seed", "trace_every"])
    p.set_defaults(func=cmd_grid)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
