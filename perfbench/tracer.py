"""Per-layer tracing of tslto, installed from outside the package.

`Tracer.install()` replaces public functions of the tslto modules with
wrappers in every tslto namespace that holds them (``from .x import y``
copies a name into the importing module, so each copy is replaced), and
`Tracer.uninstall()` puts the originals back.  Layer boundaries become spans
(name, start, end, parent span) kept in memory; hot inner calls only bump
counters, because one headline solve makes hundreds of thousands of Stiefel
objective evaluations.  The wrappers return exactly what the wrapped call
returned, so a traced solve is bit-identical to an untraced one.

A hook whose target never fires during a workload that is expected to reach
it (a later refactor may bypass a public name) turns the metrics that depend
on it into null, with a warning, instead of a misleading 0.
"""

import functools
import math
import statistics
import sys
import time

import numpy as np

# Spans: (span name, module, function).  A span's self time is its duration
# minus the time covered by its direct child spans.
SPAN_HOOKS = [
    ("cli.main", "tslto.cli", "main"),
    ("solve", "tslto.solver", "solve"),
    ("init", "tslto.solver", "init_state"),
    ("X", "tslto.solver", "update_X"),
    ("G", "tslto.solver", "update_G"),
    ("U", "tslto.solver", "update_U"),
    ("R", "tslto.solver", "update_R"),
    ("L", "tslto.solver", "update_L"),
    ("Y", "tslto.solver", "update_Y"),
    ("Z", "tslto.solver", "update_Z"),
    ("mult", "tslto.solver", "update_multipliers"),
    ("objective", "tslto.solver", "model_objective"),
    ("stiefel", "tslto.stiefel", "minimize_on_stiefel"),
    ("l0", "tslto.prox", "hard_threshold_l0"),
    ("l20", "tslto.prox", "group_hard_threshold_l20"),
    ("io.read", "tslto.io", "read_tsr3"),
    ("io.read", "tslto.io", "read_manifest"),
    ("io.write", "tslto.io", "write_tsr3"),
    ("io.write", "tslto.io", "write_manifest"),
    ("metrics", "tslto.metrics", "imputation_metrics"),
    ("metrics", "tslto.metrics", "detection_metrics"),
]

# Counters: (counter name, module, function, time the call too).
COUNTER_HOOKS = [
    ("mode_n_product", "tslto.tensor_ops", "mode_n_product", True),
    ("toeplitz_diff", "tslto.tensor_ops", "toeplitz_diff", False),
    ("block_diff", "tslto.solver", "block_diff", False),
]

SOLVER_BLOCKS = ["init", "X", "G", "U", "R", "L", "Y", "Z", "mult", "objective"]

# Per-layer metric -> (unit, hooks it is derived from).  Each metric is
# reported per timed call (one solve(), or one whole `tslto ablate`),
# averaged over the traced calls.
LAYER_METRICS = {
    **{f"solver.{b}_s": ("s", [b]) for b in SOLVER_BLOCKS},
    "solver.loop_other_s": ("s", ["solve", *SOLVER_BLOCKS]),
    "solver.iterations": ("count", ["X"]),
    "solver.converged": ("ratio", ["solve"]),
    "solver.iter_ms_p50": ("ms", ["solve", "X"]),
    "solver.iter_ms_p95": ("ms", ["solve", "X"]),
    "solver.R_halvings": ("count", ["R"]),
    "solver.block_diff_calls": ("count", ["block_diff"]),
    "solver.final_objective": ("objective", ["solve", "objective"]),
    "solver.supp_R": ("count", ["solve"]),
    "solver.supp_Z": ("count", ["solve", "Z"]),
    "stiefel.calls": ("count", ["stiefel"]),
    "stiefel.evals": ("count", ["stiefel"]),
    "stiefel.grads": ("count", ["stiefel"]),
    "stiefel.evals_per_call": ("count", ["stiefel"]),
    "stiefel.s": ("s", ["stiefel"]),
    "prox.l0_calls": ("count", ["l0"]),
    "prox.l0_s": ("s", ["l0"]),
    "prox.l20_calls": ("count", ["l20"]),
    "prox.l20_s": ("s", ["l20"]),
    "tensor_ops.mode_n_product_calls": ("count", ["mode_n_product"]),
    "tensor_ops.mode_n_product_s": ("s", ["mode_n_product"]),
    "tensor_ops.toeplitz_diff_calls": ("count", ["toeplitz_diff"]),
    "tensor_ops.tensor_mb_computed": ("MB", ["mode_n_product", "toeplitz_diff"]),
    "io.read_s": ("s", ["io.read"]),
    "io.write_s": ("s", ["io.write"]),
    "io.read_mb": ("MB", ["io.read"]),
    "io.write_mb": ("MB", ["io.write"]),
    "metrics.s": ("s", ["metrics"]),
    "cli.solves": ("count", ["cli.main", "solve"]),
    "cli.variant_s_p50": ("s", ["cli.main", "solve"]),
    "cli.variant_s_max": ("s", ["cli.main", "solve"]),
    "cli.other_s": ("s", ["cli.main", "solve", "io.read", "io.write", "metrics"]),
    "trace.overhead_pct": ("%", []),
}

# Metrics that come from a span's bookkeeping hooks rather than its timing.
BOOKKEEPING_METRICS = {
    "R": ["solver.R_halvings"],
    "objective": ["solver.final_objective"],
    "Z": ["solver.supp_Z"],
    "solve": ["solver.converged", "solver.final_objective", "solver.supp_R",
              "solver.supp_Z"],
    "stiefel": ["stiefel.evals", "stiefel.grads", "stiefel.evals_per_call"],
    "io.read": ["io.read_mb"],
    "io.write": ["io.write_mb"],
}

# Hooks every workload reaches; the batch path reaches the rest as well.
SOLVER_PATH = {"solve", *SOLVER_BLOCKS, "stiefel", "l0", "l20",
               "mode_n_product", "toeplitz_diff", "block_diff"}
CLI_PATH = SOLVER_PATH | {"cli.main", "io.read", "io.write", "metrics"}

MB = 1e-6


def _tslto_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "tslto" or n.startswith("tslto."))]


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.counts = {}
        self.seconds = {}
        self.mb = {}
        self.fired = set()
        self.missing = set()  # hooks whose target does not exist
        self.r_halvings = 0
        self.stiefel_evals = 0
        self.stiefel_grads = 0
        self.solve_results = []  # (converged, final objective, |supp R|, |supp Z|)
        self._last_objective = math.nan
        self._last_z = None
        self.broken = {}  # span name -> bookkeeping error
        self._undo = []

    # ------------------------------------------------------------ install

    def install(self):
        for name, module, attr in SPAN_HOOKS:
            key = name.replace(".", "_")
            before = getattr(self, "_before_" + key, None)
            after = getattr(self, "_after_" + key, None)
            self._replace(module, attr, lambda fn, n=name, b=before, a=after:
                          self._span_wrapper(n, fn, b, a))
        for name, module, attr, timed in COUNTER_HOOKS:
            self._replace(module, attr, lambda fn, n=name, t=timed:
                          self._counter_wrapper(n, fn, t))

    def uninstall(self):
        for namespace, attr, original in reversed(self._undo):
            setattr(namespace, attr, original)
        self._undo.clear()

    def _replace(self, module, attr, make):
        original = getattr(sys.modules.get(module), attr, None)
        if original is None:
            self.missing.add(f"{module}.{attr}")
            return
        wrapped = make(original)
        for namespace in _tslto_modules():
            for key, value in list(vars(namespace).items()):
                if value is original:
                    self._undo.append((namespace, key, original))
                    setattr(namespace, key, wrapped)

    # ------------------------------------------------------------ wrappers

    def _span_wrapper(self, name, fn, before, after):
        spans, stack, fired = self.spans, self._stack, self.fired
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            fired.add(name)
            if before is not None:
                args, kwargs = self._guard(name, before, (args, kwargs),
                                           (args, kwargs))
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                self._guard(name, after, (args, out), None)
            return out

        return wrapper

    def _guard(self, name, hook, hook_args, fallback):
        """Run bookkeeping so that it can never change or break the call.

        A hook that no longer fits the code it wraps (say, a renamed state
        field) marks its span as broken; the metrics derived from it are
        then reported as null.
        """
        try:
            return hook(*hook_args)
        except Exception as exc:  # bookkeeping must not fail the solve
            if name not in self.broken:
                self.broken[name] = f"{type(exc).__name__}: {exc}"
            return fallback

    def _counter_wrapper(self, name, fn, timed):
        counts, seconds, mb, fired = self.counts, self.seconds, self.mb, self.fired
        counts.setdefault(name, 0)
        seconds.setdefault(name, 0.0)
        mb.setdefault(name, 0.0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock() if timed else 0.0
            out = fn(*args, **kwargs)
            if timed:
                seconds[name] += clock() - start
            fired.add(name)
            counts[name] += 1
            mb[name] += out.nbytes * MB
            return out

        return wrapper

    # Bookkeeping hooks, found by name: `_before_<span>(args, kwargs)` may
    # replace the arguments, `_after_<span>(args, out)` sees the result.

    def _before_R(self, args, kwargs):
        self._lam_before = args[0].prox_lam
        return args, kwargs

    def _after_R(self, args, out):
        ratio = self._lam_before / out[1]
        self.r_halvings += round(math.log(ratio) / -math.log(args[1].prox_rho))

    def _after_objective(self, args, out):
        self._last_objective = float(out)

    def _after_Z(self, args, out):
        self._last_z = out

    def _after_solve(self, args, out):
        z, self._last_z = self._last_z, None
        self.solve_results.append((
            float(out.converged),
            self._last_objective,
            int(np.count_nonzero(out.r)),
            math.nan if z is None else int(np.count_nonzero(z)),
        ))

    def _before_stiefel(self, args, kwargs):
        from tslto.stiefel import SmoothObjective

        kwargs = dict(kwargs)
        obj = args[0] if args else kwargs.pop("obj")
        tracer = self

        def evaluate(u):
            tracer.stiefel_evals += 1
            return obj.evaluate(u)

        def gradient(u):
            tracer.stiefel_grads += 1
            return obj.gradient(u)

        return (SmoothObjective(evaluate, gradient), *args[1:]), kwargs

    def _after_io_read(self, args, out):
        if isinstance(out, np.ndarray):
            self.mb["io.read"] = self.mb.get("io.read", 0.0) + (out.nbytes + 16) * MB

    def _before_io_write(self, args, kwargs):
        payload = args[1]
        if isinstance(payload, dict):
            size = sum(len(f"{k}={v}\n") for k, v in payload.items())
        else:
            size = 8 * np.size(payload) + 16
        self.mb["io.write"] = self.mb.get("io.write", 0.0) + size * MB
        return args, kwargs

    # ------------------------------------------------------------ results

    def durations(self):
        """Inclusive and self seconds per span name."""
        inclusive, self_time = {}, {}
        for name, start, end, parent in self.spans:
            d = end - start
            inclusive[name] = inclusive.get(name, 0.0) + d
            self_time[name] = self_time.get(name, 0.0) + d
            if parent >= 0:
                pname = self.spans[parent][0]
                self_time[pname] = self_time.get(pname, 0.0) - d
        return inclusive, self_time

    def iteration_ms(self):
        """Iteration lengths: from one update_X to the next, or to solve's end."""
        out, solve_end, last_x = [], {}, {}
        for index, (name, start, end, parent) in enumerate(self.spans):
            if name == "solve":
                solve_end[index] = end
            elif name == "X" and parent in solve_end:
                if parent in last_x:
                    out.append(1e3 * (start - last_x[parent]))
                last_x[parent] = start
        out.extend(1e3 * (solve_end[s] - t) for s, t in last_x.items())
        return out

    def layer_metrics(self, calls, expected, overhead_pct):
        """Per-layer metrics, per timed call, averaged over `calls` calls."""
        inclusive, self_time = self.durations()
        per = 1.0 / calls
        solves = self.solve_results
        variant_s = [end - start for name, start, end, parent in self.spans
                     if name == "solve" and parent >= 0
                     and self.spans[parent][0] == "cli.main"]
        iters = self.iteration_ms()
        stiefel_calls = sum(1 for s in self.spans if s[0] == "stiefel")

        def mean_col(i):
            values = [row[i] for row in solves]
            return statistics.fmean(values) if values else 0.0

        def pct(values, q):
            if not values:
                return 0.0
            if len(values) == 1:
                return values[0]
            return statistics.quantiles(values, n=100, method="inclusive")[q - 1]

        values = {
            **{f"solver.{b}_s": inclusive.get(b, 0.0) * per for b in SOLVER_BLOCKS},
            "solver.loop_other_s": self_time.get("solve", 0.0) * per,
            "solver.iterations": sum(1 for s in self.spans if s[0] == "X") * per,
            "solver.converged": mean_col(0),
            "solver.iter_ms_p50": pct(iters, 50),
            "solver.iter_ms_p95": pct(iters, 95),
            "solver.R_halvings": self.r_halvings * per,
            "solver.block_diff_calls": self.counts.get("block_diff", 0) * per,
            "solver.final_objective": mean_col(1),
            "solver.supp_R": mean_col(2),
            "solver.supp_Z": mean_col(3),
            "stiefel.calls": stiefel_calls * per,
            "stiefel.evals": self.stiefel_evals * per,
            "stiefel.grads": self.stiefel_grads * per,
            "stiefel.evals_per_call": (self.stiefel_evals / stiefel_calls
                                       if stiefel_calls else 0.0),
            "stiefel.s": inclusive.get("stiefel", 0.0) * per,
            "prox.l0_calls": sum(1 for s in self.spans if s[0] == "l0") * per,
            "prox.l0_s": inclusive.get("l0", 0.0) * per,
            "prox.l20_calls": sum(1 for s in self.spans if s[0] == "l20") * per,
            "prox.l20_s": inclusive.get("l20", 0.0) * per,
            "tensor_ops.mode_n_product_calls":
                self.counts.get("mode_n_product", 0) * per,
            "tensor_ops.mode_n_product_s":
                self.seconds.get("mode_n_product", 0.0) * per,
            "tensor_ops.toeplitz_diff_calls":
                self.counts.get("toeplitz_diff", 0) * per,
            "tensor_ops.tensor_mb_computed":
                (self.mb.get("mode_n_product", 0.0)
                 + self.mb.get("toeplitz_diff", 0.0)) * per,
            "io.read_s": inclusive.get("io.read", 0.0) * per,
            "io.write_s": inclusive.get("io.write", 0.0) * per,
            "io.read_mb": self.mb.get("io.read", 0.0) * per,
            "io.write_mb": self.mb.get("io.write", 0.0) * per,
            "metrics.s": inclusive.get("metrics", 0.0) * per,
            "cli.solves": len(variant_s) * per,
            "cli.variant_s_p50": statistics.median(variant_s) if variant_s else 0.0,
            "cli.variant_s_max": max(variant_s, default=0.0),
            "cli.other_s": self_time.get("cli.main", 0.0) * per,
            "trace.overhead_pct": overhead_pct,
        }
        warnings = [f"hook target not found: {m}" for m in sorted(self.missing)]
        silent = sorted(h for h in expected if h not in self.fired)
        for hook in silent:
            warnings.append(f"hook {hook!r} never fired; its metrics are null")
        for metric, (_, hooks) in LAYER_METRICS.items():
            if any(h in silent for h in hooks):
                values[metric] = None
        for hook, error in self.broken.items():
            warnings.append(f"bookkeeping for {hook!r} failed ({error}); "
                            "its derived metrics are null")
            for metric in BOOKKEEPING_METRICS.get(hook, ()):
                values[metric] = None
        return values, warnings

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]

