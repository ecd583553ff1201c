"""Solver benchmark for tslto: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload headline --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --trace 0   # each in a fresh process

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics with `--trace 1`.  Everything above it is
for people: the machine stamp, each output check, each metric with its unit.
A full record (machine, checks, call times and, when traced, every span) is
written to perfbench/out/.  perfbench/README.md describes the workloads and
metrics.
"""

import argparse
import csv
import glob
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


@dataclass(frozen=True)
class Workload:
    dims: tuple
    block_count: int  # anomaly blocks of 2 x 125 entries: 10 % of the tensor
    max_outer: int  # ADMM iterations per solve
    instances: int  # instances per run, all drawn from the run's seed
    traced: int  # how many of them the traced run solves
    batch: bool  # time `tslto ablate` on .tsr3 files instead of solve()


# Sized on 2 cores so that one pass over the instances, which every run
# makes, takes 25 to 30 s.  Quality is deterministic per instance but varies
# between instances; summarising it over this many instances is what keeps
# it steady from seed to seed.
WORKLOADS = {
    "headline": Workload((50, 50, 50), 50, 30, 16, 4, False),
    "large": Workload((100, 100, 100), 400, 8, 10, 2, False),
    "ablate": Workload((50, 50, 50), 50, 5, 10, 2, True),
}
MISSING_RATE = 0.3
SETUP_REPEATS = 9  # set-up is short and noisy: report the median of several
SEED_STRIDE = 1000  # instance j of seed s is drawn with seed s + 1000 j
MU1_ZERO_VARIANTS = ("b", "d", "f", "g")

UNITS = {
    "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "success_rate": "ratio", "f1": "ratio", "mape_pct": "%",
    "rmse": "units", "mae": "units",
}
QUALITY = ("f1", "mape_pct", "rmse", "mae")
# How a run summarises each quality metric over its instances.  MAPE is
# heavy-tailed, because near-zero truth entries blow it up (17 to 117 % on
# large instances of one seed), so it takes the median; the others the mean.
QUALITY_SUMMARY = {"f1": statistics.fmean, "mape_pct": statistics.median,
                   "rmse": statistics.fmean, "mae": statistics.fmean}

# ---------------------------------------------------------------- machine


def machine_stamp():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(np),
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads(np):
    """OpenBLAS thread count, asked of the library numpy bundles."""
    import ctypes

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_commit():
    """Commit of the checkout, read from .git without starting git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """sha256 over the package sources, which identifies the build."""
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "tslto", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


# ---------------------------------------------------------------- inputs


def make_instance(tslto, wl, seed, j, folder):
    """Instance j of the run: arrays for solve(), .tsr3 files in `folder`
    for the batch workload."""
    spec = tslto.SyntheticSpec(dims=wl.dims, block_count=wl.block_count,
                               missing_rate=MISSING_RATE,
                               seed=seed + SEED_STRIDE * j)
    inst = tslto.generate(spec)
    y = tslto.project_observed(inst.full, inst.mask)
    if not wl.batch:
        return {"y": y, "mask": inst.mask, "lowrank": inst.lowrank,
                "truth": inst.anomaly_truth}
    os.makedirs(folder, exist_ok=True)
    files = {k: os.path.join(folder, f"{k}.tsr3")
             for k in ("y", "mask", "lowrank", "truth")}
    tslto.io.write_tsr3(files["y"], y)
    tslto.io.write_mask(files["mask"], inst.mask)
    tslto.io.write_tsr3(files["lowrank"], inst.lowrank)
    tslto.io.write_mask(files["truth"], inst.anomaly_truth)
    return {"files": files, "anomaly_share": float(inst.anomaly_truth.mean())}


def instance_digest(inst):
    h = hashlib.sha256()
    if "files" in inst:
        for path in inst["files"].values():
            with open(path, "rb") as f:
                h.update(f.read())
    else:
        for key in ("y", "mask", "lowrank", "truth"):
            h.update(inst[key].tobytes())
    return h.hexdigest()


def build_inputs(tslto, wl, seed, inputs_dir):
    """One timed build of the run's instances.

    Returns (seconds, digest per instance, kept instances).  Each instance
    is hashed, untimed, and dropped; only the batch workload keeps its
    instances, which are file names.  The solve workloads regenerate each
    instance just before its call, so the process holds one at a time and
    its peak memory is the solver's, not the harness's.
    """
    seconds, digests, kept = 0.0, [], []
    for j in range(wl.instances):
        start = time.perf_counter()
        inst = make_instance(tslto, wl, seed, j,
                             os.path.join(inputs_dir, f"instance{j}"))
        seconds += time.perf_counter() - start
        digests.append(instance_digest(inst))
        if wl.batch:
            kept.append(inst)
        inst = None
    return seconds, digests, kept


# ---------------------------------------------------------------- calls


class Call:
    """One timed call of the program on one instance, with its output checks."""

    def __init__(self, tslto, wl, workdir):
        import numpy as np

        self.np, self.tslto, self.wl = np, tslto, wl
        self.outdir = os.path.join(workdir, "ablate_out")

    def run(self, inst, score=False):
        """Returns (seconds, digest, failure reason or None, quality or None).

        Quality is scored, outside the timed region, only when `score` is set.
        """
        try:
            if self.wl.batch:
                return self._ablate(inst, score)
            return self._solve(inst, score)
        except Exception as exc:  # a failed solve is counted, not fatal
            return math.nan, None, f"{type(exc).__name__}: {exc}", None

    def _solve(self, inst, score):
        tslto = self.tslto
        cfg = tslto.SolverConfig(max_outer=self.wl.max_outer)
        start = time.perf_counter()
        result = tslto.solve(inst["y"], inst["mask"], cfg)
        seconds = time.perf_counter() - start
        h = hashlib.sha256()
        for name in ("x", "l", "r"):
            out = getattr(result, name)
            if out.shape != inst["y"].shape:
                return seconds, None, f"{name} has shape {out.shape}", None
            if not self.np.isfinite(out).all():
                return seconds, None, f"{name} is not finite", None
            h.update(out.tobytes())
        quality = None
        if score:
            imp = tslto.imputation_metrics(inst["lowrank"], result.l,
                                           scope="missing", mask=inst["mask"])
            det = tslto.detection_metrics(inst["truth"], result.r)
            quality = {"f1": det["f1"], "mape_pct": imp["mape"],
                       "rmse": imp["rmse"], "mae": imp["mae"]}
        return seconds, h.hexdigest(), None, quality

    def _ablate(self, inst, score):
        f = inst["files"]
        argv = ["ablate", "--input", f["y"], "--mask", f["mask"],
                "--truth", f["lowrank"], "--anomaly-truth", f["truth"],
                "--out", self.outdir, "--max-outer", str(self.wl.max_outer)]
        start = time.perf_counter()
        code = self.tslto.cli.main(argv)
        seconds = time.perf_counter() - start
        if code != 0:
            return seconds, None, f"tslto ablate exited with {code}", None
        path = os.path.join(self.outdir, "ablation.csv")
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        variants = [row["variant"] for row in rows]
        if variants != list(self.tslto.cli.ABLATION_VARIANTS):
            return seconds, None, f"ablation.csv rows {variants}", None
        cols = ("f1", "mape", "rmse", "mae")
        table = [{c: float(row[c]) for c in cols} for row in rows]
        if not all(math.isfinite(v) for row in table for v in row.values()):
            return seconds, None, "non-finite value in ablation.csv", None
        # With mu1 = 0 nothing thresholds R, so every entry is flagged and F1
        # is 2p / (1 + p).  When mu2 = 0 as well (f, g), a few dozen of the
        # 125,000 entries cancel to exactly 0.0 in the first iterations, so
        # the check allows 0.1 % of entries to go unflagged.
        p = inst["anomaly_share"]
        flagged_f1 = 2 * p / (1 + p)
        for variant, row in zip(variants, table):
            if variant in MU1_ZERO_VARIANTS and not math.isclose(
                    row["f1"], flagged_f1, rel_tol=1e-3):
                return (seconds, None, f"variant {variant} F1 {row['f1']} != "
                        f"all-flagged {flagged_f1}", None)
        quality = None
        if score:
            quality = {key: statistics.fmean(row[col] for row in table)
                       for key, col in zip(QUALITY, cols)}
        return seconds, digest, None, quality


# ---------------------------------------------------------------- runs


class Checks:
    def __init__(self):
        self.table = {}
        self.notes = []

    def add(self, name, ok, note=None):
        passed, total = self.table.get(name, (0, 0))
        self.table[name] = (passed + bool(ok), total + 1)
        if not ok and note:
            self.notes.append(f"{name}: {note}")

    @property
    def ok(self):
        return all(p == t for p, t in self.table.values())


def timed_runs(call, fetch, count, seconds, checks, warm_digest):
    """Untraced calls in whole passes over the instances.

    The first pass always runs, and another one while it fits in `seconds`,
    so every instance weighs the same in the median on any machine.  Each
    output is compared with the last one of its instance; instance 0 is
    first compared with the untimed warm-up call.
    """
    times, quality, attempted, failed, passes = [], {}, 0, 0, 0
    digests = {0: warm_digest} if warm_digest else {}
    start = time.perf_counter()
    while True:
        for j in range(count):
            dt, digest, error, q = call.run(fetch(j), score=j not in quality)
            attempted += 1
            checks.add("output_valid", error is None, error)
            if error is not None:
                failed += 1
                continue
            times.append(dt)
            quality.setdefault(j, q)
            if j in digests:
                same = digests[j] == digest
                checks.add("repeat_identical", same, f"instance {j} changed")
                failed += not same
            digests[j] = digest
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            return attempted, failed, times, quality, passes


def traced_runs(call, fetch, count, seconds, checks, tracer):
    """Pairs of untraced and traced calls on the first `count` instances.

    Whole rounds only, so per-call counters are averages over the same
    instances on every machine.
    """
    pairs, attempted, failed, rounds = [], 0, 0, 0
    start = time.perf_counter()
    while True:
        for j in range(count):
            inst = fetch(j)
            plain = call.run(inst)
            tracer.install()
            try:
                traced = call.run(inst)
            finally:
                tracer.uninstall()
            inst = None
            attempted += 2
            for label, error in (("untraced", plain[2]), ("traced", traced[2])):
                checks.add("output_valid", error is None, f"{label}: {error}")
            if plain[2] or traced[2]:
                failed += bool(plain[2]) + bool(traced[2])
                continue
            same = plain[1] == traced[1]
            checks.add("trace_identical", same, "traced outputs differ")
            failed += not same
            pairs.append((plain[0], traced[0]))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return attempted, failed, pairs, rounds


def run_workload(name, seed, seconds, trace):
    wl = WORKLOADS[name]
    if not os.path.isfile(os.path.join(SRC, "tslto", "__init__.py")):
        raise SystemExit(f"error: no tslto sources at {SRC}")
    sys.path.insert(0, SRC)
    import tslto
    import tslto.cli
    import tslto.io

    if not os.path.abspath(tslto.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported tslto from {tslto.__file__}, not {SRC}")
    stamp = machine_stamp()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    checks = Checks()
    try:
        setup_times, builds = [], []
        for k in range(SETUP_REPEATS):
            # Each build writes fresh files: overwriting the last build's
            # files would also time the write-back of their pages.
            shutil.rmtree(os.path.join(workdir, f"inputs{k - 1}"),
                          ignore_errors=True)
            dt, digests, kept = build_inputs(
                tslto, wl, seed, os.path.join(workdir, f"inputs{k}"))
            setup_times.append(dt)
            builds.append(digests)
        checks.add("inputs_deterministic", all(b == digests for b in builds),
                   "the same seed built different inputs")

        def fetch(j):
            """Instance j: the batch workload's files, or the arrays,
            regenerated untimed and checked against the set-up build."""
            if wl.batch:
                return kept[j]
            inst = make_instance(tslto, wl, seed, j, None)
            checks.add("inputs_deterministic",
                       instance_digest(inst) == digests[j],
                       f"instance {j} was regenerated differently")
            return inst

        call = Call(tslto, wl, workdir)
        warm = call.run(fetch(0))  # first-call costs, untimed
        checks.add("output_valid", warm[2] is None, f"warm-up: {warm[2]}")

        record = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": trace, "workload_config": wl.__dict__,
                  "machine": stamp, "setup_times_s": setup_times}
        if trace:
            from tracer import CLI_PATH, LAYER_METRICS, SOLVER_PATH, Tracer

            tracer = Tracer()
            attempted, failed, pairs, rounds = traced_runs(
                call, fetch, wl.traced, seconds, checks, tracer)
            ratio = statistics.median(t / p for p, t in pairs) if pairs else math.nan
            values, warnings = tracer.layer_metrics(
                calls=max(1, len(pairs)),
                expected=CLI_PATH if wl.batch else SOLVER_PATH,
                overhead_pct=100.0 * (ratio - 1.0))
            metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]}
                       for k, v in values.items()}
            record.update(pairs_s=pairs, rounds=rounds, warnings=warnings,
                          spans=tracer.span_records())
        else:
            attempted, failed, times, quality, passes = timed_runs(
                call, fetch, wl.instances, seconds, checks, warm[1])
            warnings = []
            # `fail_rate` (failed / attempted) is printed below but not
            # reported: it is 0 on a healthy run, and `success_rate`
            # carries the same count.
            values = {
                "solve_s": statistics.median(times) if times else None,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "success_rate": (attempted - failed) / attempted,
            }
            for key, summary in QUALITY_SUMMARY.items():
                scored = [q[key] for q in quality.values()]
                values[key] = summary(scored) if scored else None
            metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}
            record.update(call_times_s=times, passes=passes,
                          quality_per_instance=quality)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for m in metrics.values():  # JSON has no NaN: an unmeasured value is null
        if m["value"] is not None and not math.isfinite(m["value"]):
            m["value"] = None
    correct = checks.ok and failed == 0
    record.update(checks=checks.table, check_notes=checks.notes,
                  correct=correct, attempted=attempted, failed=failed,
                  metrics=metrics)
    with open(os.path.join(OUT, f"{name}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(f"workload {name}  seed {seed}  seconds {seconds}  trace {trace}  "
          f"dims {'x'.join(map(str, wl.dims))}  max_outer {wl.max_outer}  "
          f"instances {wl.traced if trace else wl.instances}")
    print("machine " + json.dumps(stamp))
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
        print(f"warning {warning}")
    for check, (passed, total) in checks.table.items():
        print(f"check {check:<22} {'ok' if passed == total else 'FAIL':<4} "
              f"{passed}/{total}")
    for note in checks.notes[:20]:
        print(f"  {note}")
    print(f"solves attempted {attempted}  failed {failed}  "
          f"fail_rate {failed / attempted:.4f}")
    if not trace:
        print(f"timed calls {len(times)} in {passes} whole passes: "
              f"solve_s is their median")
    for key, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"metric {key:<34} {value:>14} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_all(seed, seconds, trace):
    """Each workload in a fresh process, so that RSS and set-up are its own."""
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    print("\nsummary")
    for name, res in results.items():
        print(f"{name:<9} correct {res['correct']}  attempted {res['attempted']}"
              f"  failed {res['failed']}"
              f"  fail_rate {res['failed'] / res['attempted']:.4f}")
        for key, m in res["metrics"].items():
            value = "null" if m["value"] is None else f"{m['value']:.6g}"
            print(f"  {key:<34} {value:>14} {m['unit']}")
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
