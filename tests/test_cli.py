import concurrent.futures
import csv
import inspect
from dataclasses import asdict, fields

import numpy as np
import pytest

from tslto import (DetectionRule, ScaleTransform, SolverConfig,
                   SyntheticInstance, SyntheticSpec, cli, generate,
                   select_rank, tucker_reconstruct)
from tslto.cli import main
from tslto.io import read_manifest, read_mask, read_tsr3, write_mask, write_tsr3

GEN_FLAGS = [
    "--dims", "12,10,8", "--core-ranks", "2,2,2", "--block-count", "4",
    "--block-rows", "2", "--block-cols", "8", "--missing-rate", "0.3",
    "--seed", "5",
]
SOLVE_FLAGS = ["--ranks", "2,2,2", "--max-outer", "15", "--trace-every", "5"]
# scoring flags outside their range, with the key each error names
BAD_EVAL_FLAGS = [
    (["--detect-mode", "blocks"], "detect_mode"),
    (["--scope", "bogus"], "scope"),
    (["--detect-threshold", "-1"], "detect_threshold"),
]


def generate_instance(outdir):
    assert main(["generate", "--out", str(outdir)] + GEN_FLAGS) == 0
    return outdir


def read_csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestKeys:
    EXTRA = {"scope", "detect_mode", "detect_threshold", "theta", "shift",
             "core_scale", "scale_ranks", "trace_every"}

    def test_every_field_with_its_default(self):
        rule, scale = DetectionRule(), ScaleTransform()
        defaults = {
            **asdict(SolverConfig()), **asdict(SyntheticSpec()),
            "detect_mode": rule.mode, "detect_threshold": rule.threshold,
            "theta": inspect.signature(select_rank).parameters["theta"].default,
            "shift": scale.shift, "core_scale": scale.core_scale,
            "scale_ranks": scale.ranks,
        }
        assert set(cli.KEYS) == set(defaults) | self.EXTRA
        for key, default in defaults.items():
            assert cli.KEYS[key] == default
            assert type(cli.KEYS[key]) is type(default)

    @pytest.mark.parametrize("key, cast", [
        ("ranks", int), ("dims", int), ("core_ranks", int),
        ("scale_ranks", int), ("lam", float), ("alpha", float),
    ])
    def test_triples_parse_to_element_type(self, key, cast):
        for text, expected in (("4", (4, 4, 4)), ("4,5,6", (4, 5, 6))):
            value = cli.parse_value(key, text)
            assert value == expected
            assert all(type(v) is cast for v in value)

    @pytest.mark.parametrize("flags, key", [
        (["--dims", "4,a,4"], "dims"),
        (["--dims", "4,4"], "dims"),
        (["--missing-rate", "lots"], "missing_rate"),
        (["--block-count", "2.5"], "block_count"),
    ])
    def test_malformed_flag_is_usage_error(self, tmp_path, capsys, flags, key):
        rc = main(["generate", "--out", str(tmp_path / "g")] + flags)
        assert rc == 1
        assert f"error: {key}: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags, message", [
        ("generate", ["--missing-rate", "1.5"], "missing_rate must lie"),
        ("solve", ["--prox-rho", "2"], "prox_rho must lie in (0, 1)"),
    ])
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys,
                                               command, flags, message):
        inputs = []
        if command == "solve":
            write_tsr3(tmp_path / "y.tsr3", np.ones((3, 3, 3)))
            write_mask(tmp_path / "mask.tsr3", np.ones((3, 3, 3), bool))
            inputs = ["--input", str(tmp_path / "y.tsr3"),
                      "--mask", str(tmp_path / "mask.tsr3")]
        rc = main([command, "--out", str(tmp_path / "out")] + inputs + flags)
        assert rc == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_config_line_is_usage_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("max_outer=many\n")
        write_tsr3(tmp_path / "y.tsr3", np.ones((3, 3, 3)))
        write_mask(tmp_path / "mask.tsr3", np.ones((3, 3, 3), bool))
        rc = main(["solve", "--input", str(tmp_path / "y.tsr3"),
                   "--mask", str(tmp_path / "mask.tsr3"),
                   "--out", str(tmp_path / "out"), "--config", str(cfgfile)])
        assert rc == 1
        assert "error: max_outer: " in capsys.readouterr().err


class TestGenerate:
    def test_outputs_and_manifest(self, tmp_path):
        out = generate_instance(tmp_path / "gen")
        for name in ("full", "lowrank", "anomaly", "mask", "anomaly_truth"):
            assert (out / f"{name}.tsr3").exists()
        manifest = read_manifest(out / "manifest.txt")
        assert float(manifest["anomaly_ratio"]) == pytest.approx(
            4 * 2 * 8 / (12 * 10 * 8)
        )
        assert (out / "config_resolved.txt").exists()

    def test_files_hold_the_instance(self, tmp_path):
        out = generate_instance(tmp_path / "gen")
        spec = SyntheticSpec(dims=(12, 10, 8), core_ranks=(2, 2, 2),
                             block_count=4, block_rows=2, block_cols=8,
                             missing_rate=0.3, seed=5)
        inst = generate(spec)
        for f in fields(SyntheticInstance):
            expected = getattr(inst, f.name)
            if expected.dtype == bool:
                got = read_mask(out / f"{f.name}.tsr3")
                assert got.dtype == bool
            else:
                got = read_tsr3(out / f"{f.name}.tsr3")
            assert np.array_equal(got, expected)

    def test_default_ratio_ten_percent(self, tmp_path):
        assert main(["generate", "--out", str(tmp_path), "--seed", "1"]) == 0
        manifest = read_manifest(tmp_path / "manifest.txt")
        assert float(manifest["anomaly_ratio"]) == pytest.approx(0.10)

    def test_byte_identical_reruns(self, tmp_path):
        a = generate_instance(tmp_path / "a")
        b = generate_instance(tmp_path / "b")
        for name in ("full", "mask", "anomaly_truth"):
            assert (a / f"{name}.tsr3").read_bytes() == \
                   (b / f"{name}.tsr3").read_bytes()


class TestSolve:
    def test_runs_and_writes_outputs(self, tmp_path):
        gen = generate_instance(tmp_path / "gen")
        full = read_tsr3(gen / "full.tsr3")
        mask = read_mask(gen / "mask.tsr3")
        write_tsr3(gen / "observed.tsr3", np.where(mask, full, 0.0))
        out = tmp_path / "run"
        rc = main(["solve", "--input", str(gen / "observed.tsr3"),
                   "--mask", str(gen / "mask.tsr3"),
                   "--out", str(out)] + SOLVE_FLAGS)
        assert rc == 0
        x = read_tsr3(out / "x.tsr3")
        assert np.array_equal(x[mask], full[mask])  # observed entries kept
        rows = read_csv_rows(out / "trace.csv")
        assert rows and rows[0]["iter"] == "1"
        resolved = read_manifest(out / "config_resolved.txt")
        assert resolved["max_outer"] == "15"

    def test_huge_eps_two_iterations(self, tmp_path):
        rng = np.random.default_rng(0)
        g = rng.uniform(0, 5, (2, 2, 2))
        us = [np.linalg.qr(rng.standard_normal((8, 2)))[0] for _ in range(3)]
        y = tucker_reconstruct(g, *us)
        write_tsr3(tmp_path / "y.tsr3", y)
        write_mask(tmp_path / "mask.tsr3", np.ones(y.shape, bool))
        out = tmp_path / "run"
        rc = main(["solve", "--input", str(tmp_path / "y.tsr3"),
                   "--mask", str(tmp_path / "mask.tsr3"), "--out", str(out),
                   "--ranks", "2,2,2", "--eps", "1", "--trace-every", "1"])
        assert rc == 0
        rows = read_csv_rows(out / "trace.csv")
        assert rows[-1]["iter"] == "2"

    def test_resolved_config_reruns_identically(self, tmp_path):
        # every key a run records must be one the CLI reads back
        gen = generate_instance(tmp_path / "gen")
        inputs = ["--input", str(gen / "full.tsr3"),
                  "--mask", str(gen / "mask.tsr3")]
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["solve", "--out", str(first)] + inputs + SOLVE_FLAGS) == 0
        assert main(["solve", "--out", str(second), "--config",
                     str(first / "config_resolved.txt")] + inputs) == 0
        for name in ("x", "l", "r"):
            assert (first / f"{name}.tsr3").read_bytes() == \
                   (second / f"{name}.tsr3").read_bytes()

    def test_missing_input_is_runtime_error(self, tmp_path):
        rc = main(["solve", "--input", str(tmp_path / "nope.tsr3"),
                   "--mask", str(tmp_path / "nope.tsr3"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    def test_mode_of_size_one_is_runtime_error(self, tmp_path, capsys):
        write_tsr3(tmp_path / "y.tsr3", np.ones((6, 1, 5)))
        write_mask(tmp_path / "mask.tsr3", np.ones((6, 1, 5), bool))
        rc = main(["solve", "--input", str(tmp_path / "y.tsr3"),
                   "--mask", str(tmp_path / "mask.tsr3"),
                   "--out", str(tmp_path / "out"), "--ranks", "1,1,1"])
        assert rc == 2
        assert "dims (6, 1, 5)" in capsys.readouterr().err


class TestEvaluate:
    def test_perfect_estimate_zero_row(self, tmp_path):
        x = np.random.default_rng(1).uniform(1, 2, (4, 3, 2))
        write_tsr3(tmp_path / "truth.tsr3", x)
        write_tsr3(tmp_path / "est.tsr3", x)
        write_tsr3(tmp_path / "r.tsr3", np.zeros(x.shape))
        write_mask(tmp_path / "anom.tsr3", np.zeros(x.shape, bool))
        metrics = tmp_path / "metrics.csv"
        rc = main(["evaluate", "--truth", str(tmp_path / "truth.tsr3"),
                   "--estimate", str(tmp_path / "est.tsr3"),
                   "--anomaly", str(tmp_path / "r.tsr3"),
                   "--anomaly-truth", str(tmp_path / "anom.tsr3"),
                   "--metrics-out", str(metrics), "--scope", "all"])
        assert rc == 0
        row = read_csv_rows(metrics)[0]
        assert float(row["rmse"]) == 0.0
        assert float(row["mae"]) == 0.0
        assert float(row["f1"]) == 1.0

    def test_without_anomaly_truth_scores_imputation_only(self, tmp_path,
                                                          capsys):
        rng = np.random.default_rng(2)
        x = rng.uniform(1, 2, (4, 3, 2))
        write_tsr3(tmp_path / "truth.tsr3", x)
        write_tsr3(tmp_path / "est.tsr3", x + 0.5)
        write_tsr3(tmp_path / "r.tsr3", rng.standard_normal(x.shape))
        metrics = tmp_path / "metrics.csv"
        argv = ["evaluate", "--truth", str(tmp_path / "truth.tsr3"),
                "--estimate", str(tmp_path / "est.tsr3"),
                "--anomaly", str(tmp_path / "r.tsr3"),
                "--metrics-out", str(metrics), "--scope", "all"]
        assert main(argv) == 0
        [row] = read_csv_rows(metrics)
        assert float(row["rmse"]) == pytest.approx(0.5)
        assert float(row["mae"]) == pytest.approx(0.5)
        assert int(row["n"]) == x.size
        assert row["precision"] == row["recall"] == row["f1"] == ""
        # the detection rule is still checked
        assert main(argv + ["--detect-mode", "blocks"]) == 1
        assert ("error: detect_mode: unknown detection mode 'blocks'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("flags, key", BAD_EVAL_FLAGS)
    def test_bad_scoring_value_is_usage_error(self, tmp_path, capsys, flags,
                                              key):
        x = np.ones((2, 2, 2))
        write_tsr3(tmp_path / "x.tsr3", x)
        rc = main(["evaluate", "--truth", str(tmp_path / "x.tsr3"),
                   "--estimate", str(tmp_path / "x.tsr3"),
                   "--anomaly", str(tmp_path / "x.tsr3"),
                   "--metrics-out", str(tmp_path / "m.csv")] + flags)
        assert rc == 1
        assert f"error: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "m.csv").exists()

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        x = np.ones((2, 2, 2))
        write_tsr3(tmp_path / "x.tsr3", x)
        cfgfile = tmp_path / "cfg.txt"
        cfgfile.write_text("not_a_key=1\n")
        rc = main(["evaluate", "--truth", str(tmp_path / "x.tsr3"),
                   "--estimate", str(tmp_path / "x.tsr3"),
                   "--anomaly", str(tmp_path / "x.tsr3"),
                   "--anomaly-truth", str(tmp_path / "x.tsr3"),
                   "--metrics-out", str(tmp_path / "m.csv"),
                   "--config", str(cfgfile)])
        assert rc == 1


class TestPreprocess:
    def test_select_rank(self, tmp_path):
        rng = np.random.default_rng(2)
        g = rng.uniform(1, 5, (2, 2, 2))
        us = [np.linalg.qr(rng.standard_normal((9, 2)))[0] for _ in range(3)]
        write_tsr3(tmp_path / "x.tsr3", tucker_reconstruct(g, *us))
        out = tmp_path / "pp"
        rc = main(["preprocess", "--input", str(tmp_path / "x.tsr3"),
                   "--out", str(out), "--op", "select-rank",
                   "--theta", "0.999999999"])
        assert rc == 0
        assert read_manifest(out / "manifest.txt")["selected_ranks"] == "2,2,2"

    def test_transform_revert_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        g = rng.uniform(1, 5, (2, 2, 2))
        us = [np.linalg.qr(rng.standard_normal((9, 2)))[0] for _ in range(3)]
        x = tucker_reconstruct(g, *us) + 20.0
        write_tsr3(tmp_path / "x.tsr3", x)
        flags = ["--scale-ranks", "2,2,2"]
        t_out = tmp_path / "t"
        assert main(["preprocess", "--input", str(tmp_path / "x.tsr3"),
                     "--out", str(t_out), "--op", "transform"] + flags) == 0
        r_out = tmp_path / "r"
        assert main(["preprocess", "--input", str(t_out / "output.tsr3"),
                     "--out", str(r_out), "--op", "revert"] + flags) == 0
        np.testing.assert_allclose(read_tsr3(r_out / "output.tsr3"), x,
                                   atol=1e-8)

    def test_csv_input_and_mask_from_zeros(self, tmp_path):
        from tslto.io import write_csv_triples

        x = np.random.default_rng(4).uniform(1, 2, (3, 3, 3))
        x[0, 0, 0] = 0.0
        write_csv_triples(tmp_path / "x.csv", x)
        out = tmp_path / "pp"
        rc = main(["preprocess", "--input", str(tmp_path / "x.csv"),
                   "--out", str(out), "--op", "select-rank",
                   "--mask-from-zeros"])
        assert rc == 0
        mask = read_mask(out / "mask.tsr3")
        assert not mask[0, 0, 0]
        assert mask.sum() == 26


class TestAblate:
    @staticmethod
    def run_ablate(tmp_path, *extra):
        gen = generate_instance(tmp_path / "gen")
        full = read_tsr3(gen / "full.tsr3")
        mask = read_mask(gen / "mask.tsr3")
        write_tsr3(gen / "observed.tsr3", np.where(mask, full, 0.0))
        out = tmp_path / "abl"
        rc = main(["ablate", "--input", str(gen / "observed.tsr3"),
                   "--mask", str(gen / "mask.tsr3"),
                   "--truth", str(gen / "full.tsr3"),
                   "--anomaly-truth", str(gen / "anomaly_truth.tsr3"),
                   "--out", str(out), "--ranks", "2,2,2",
                   "--max-outer", "5", "--scope", "missing", *extra])
        assert rc == 0
        return out

    @pytest.mark.parametrize("flags, key", BAD_EVAL_FLAGS)
    def test_bad_scoring_value_is_usage_error(self, tmp_path, capsys, flags,
                                              key):
        gen = generate_instance(tmp_path / "gen")
        rc = main(["ablate", "--input", str(gen / "full.tsr3"),
                   "--mask", str(gen / "mask.tsr3"),
                   "--truth", str(gen / "lowrank.tsr3"),
                   "--anomaly-truth", str(gen / "anomaly_truth.tsr3"),
                   "--out", str(tmp_path / "abl")] + flags)
        assert rc == 1
        assert f"error: {key}: " in capsys.readouterr().err
        assert not (tmp_path / "abl").exists()

    def test_all_variants_reported(self, tmp_path):
        rows = read_csv_rows(self.run_ablate(tmp_path) / "ablation.csv")
        assert [r["variant"] for r in rows] == list("abcdefg") + ["full"]
        assert all(r["f1"] != "" for r in rows)

    def test_variants_build_no_trace_rows(self, tmp_path, monkeypatch):
        # ablate writes no trace.csv, so its solves must not build trace rows
        seen = []
        real_solve = cli.solve

        def recording_solve(*args, trace_every=0, **kwargs):
            seen.append(trace_every)
            return real_solve(*args, trace_every=trace_every, **kwargs)

        monkeypatch.setattr(cli, "solve", recording_solve)
        self.run_ablate(tmp_path, "--trace-every", "2")
        assert seen == [0] * 8


    def test_unthresholded_variants_flag_every_entry(self, tmp_path,
                                                    monkeypatch):
        """Variants b, d, f and g (mu1 = 0) flag at least 99.9 % of the
        entries, so their F1 is the all-flagged 2p / (1 + p) to 1e-3: the
        rule perfbench/run.py applies to its ablate workload.

        For f and g (mu1 = mu2 = 0) this outcome rests on rounding noise.
        Off the mask X = L + R - P/s, so R's residual X - L + P/s - R there
        is exactly zero in exact arithmetic, and so is the Z term of R's
        gradient once W has cancelled; only the rounding noise of those
        residuals moves an unobserved entry of R off zero.  A solver that
        formed that residual exactly would leave those entries unflagged.
        """
        gen = tmp_path / "gen"
        assert main(["generate", "--out", str(gen), "--dims", "20,20,20",
                     "--block-count", "10", "--block-rows", "2",
                     "--block-cols", "40", "--missing-rate", "0.3",
                     "--seed", "1"]) == 0
        full = read_tsr3(gen / "full.tsr3")
        mask = read_mask(gen / "mask.tsr3")
        write_tsr3(gen / "observed.tsr3", np.where(mask, full, 0.0))
        flagged = []
        real_solve = cli.solve

        def recording_solve(*args, **kwargs):
            result = real_solve(*args, **kwargs)
            flagged.append(np.count_nonzero(result.r) / result.r.size)
            return result

        monkeypatch.setattr(cli, "solve", recording_solve)
        out = tmp_path / "abl"
        assert main(["ablate", "--input", str(gen / "observed.tsr3"),
                     "--mask", str(gen / "mask.tsr3"),
                     "--truth", str(gen / "lowrank.tsr3"),
                     "--anomaly-truth", str(gen / "anomaly_truth.tsr3"),
                     "--out", str(out), "--max-outer", "5"]) == 0
        rows = read_csv_rows(out / "ablation.csv")
        p = read_mask(gen / "anomaly_truth.tsr3").mean()
        for row, share in zip(rows, flagged):
            if row["variant"] in ("b", "d", "f", "g"):
                assert share >= 0.999, (row["variant"], share)
                assert float(row["f1"]) == pytest.approx(2 * p / (1 + p),
                                                         rel=1e-3)


class TestGrid:
    def test_single_cell_matches_solo_run(self, tmp_path):
        out = tmp_path / "grid"
        rc = main(["grid", "--grid-key1", "missing_rate",
                   "--grid-values1", "0.2", "--out", str(out),
                   "--seed", "9"] + GEN_FLAGS[:-2] + SOLVE_FLAGS)
        assert rc == 0
        rows = read_csv_rows(out / "grid.csv")
        assert {r["metric"] for r in rows} >= {"rmse", "f1"}
        assert all(r["error"] == "" for r in rows)

    def test_swept_seed_sets_the_instance(self, tmp_path):
        rc = main(["grid", "--grid-key1", "seed", "--grid-values1", "5;9",
                   "--out", str(tmp_path / "seeds")] + GEN_FLAGS[:-2]
                  + SOLVE_FLAGS)
        assert rc == 0
        rows = read_csv_rows(tmp_path / "seeds" / "grid.csv")
        assert all(r["error"] == "" for r in rows)
        assert {(r["value1"], r["seed"]) for r in rows} == {("5", "5"),
                                                             ("9", "9")}
        # GEN_FLAGS sets missing_rate 0.3, so this one cell is seed 5's
        rc = main(["grid", "--grid-key1", "missing_rate", "--grid-values1",
                   "0.3", "--out", str(tmp_path / "solo"), "--seed", "5"]
                  + GEN_FLAGS[:-2] + SOLVE_FLAGS)
        assert rc == 0
        solo = read_csv_rows(tmp_path / "solo" / "grid.csv")
        assert {r["seed"] for r in solo} == {"5"}
        swept = [r for r in rows if r["seed"] == "5"]
        assert ([(r["metric"], r["value"]) for r in swept]
                == [(r["metric"], r["value"]) for r in solo])

    def test_failed_cell_marked(self, tmp_path):
        out = tmp_path / "grid"
        rc = main(["grid", "--grid-key1", "ranks",
                   "--grid-values1", "2;40", "--out", str(out),
                   "--seed", "9"] + GEN_FLAGS[:-2] + SOLVE_FLAGS[2:])
        assert rc == 0
        rows = read_csv_rows(out / "grid.csv")
        by_cell = {}
        for r in rows:
            by_cell.setdefault(r["cell"], []).append(r)
        assert any(r["error"] for r in by_cell["1"])  # ranks 40 > dims
        assert all(not r["error"] for r in by_cell["0"])

    def test_every_cell_failed_exits_2(self, tmp_path, capsys):
        # ranks above the dims pass the cell checks and fail at solve time
        out = tmp_path / "grid"
        rc = main(["grid", "--grid-key1", "ranks", "--grid-values1", "30;40",
                   "--out", str(out), "--seed", "9"]
                  + GEN_FLAGS[:-2] + SOLVE_FLAGS[2:])
        assert rc == 2
        assert capsys.readouterr().err == (
            "error: every grid cell failed; cell 0: ValueError: ranks "
            "(30, 30, 30) exceed tensor dims (12, 10, 8)\n")
        rows = read_csv_rows(out / "grid.csv")
        assert [(r["cell"], bool(r["error"])) for r in rows] == [
            ("0", True), ("1", True)]
        assert (out / "config_resolved.txt").exists()

    def test_failed_cell_marked_in_pool(self, tmp_path, monkeypatch):
        # A stand-in pool runs cells inline and, like a real executor, keeps
        # a cell's exception in its future.
        class InlinePool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                try:
                    fut.set_result(fn(*args))
                except Exception as exc:
                    fut.set_exception(exc)
                return fut

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        out = tmp_path / "grid"
        rc = main(["grid", "--grid-key1", "ranks", "--grid-values1", "2;40",
                   "--jobs", "2", "--out", str(out), "--seed", "9"]
                  + GEN_FLAGS[:-2] + SOLVE_FLAGS[2:])
        assert rc == 0
        rows = read_csv_rows(out / "grid.csv")
        by_cell = {}
        for r in rows:
            by_cell.setdefault(r["cell"], []).append(r)
        assert [r["error"] for r in by_cell["1"]] == [
            "ValueError: ranks (40, 40, 40) exceed tensor dims (12, 10, 8)"
        ]
        assert {r["metric"] for r in by_cell["0"]} >= {"rmse", "f1"}
        assert all(not r["error"] for r in by_cell["0"])

    def test_readme_seed_sweep(self, tmp_path):
        # README's `tslto grid --grid-key1 seed --grid-values1 "1;2;3"
        # --missing-rate 0.3 --out seeds`, at small dims
        rc = main(["grid", "--grid-key1", "seed", "--grid-values1", "1;2;3",
                   "--missing-rate", "0.3", "--out", str(tmp_path / "seeds")]
                  + GEN_FLAGS[:-4] + SOLVE_FLAGS[:4])
        assert rc == 0
        rows = read_csv_rows(tmp_path / "seeds" / "grid.csv")
        assert {r["seed"] for r in rows} == {"1", "2", "3"}
        assert {r["metric"] for r in rows} >= {"rmse", "f1"}
        assert all(r["error"] == "" for r in rows)

    @pytest.mark.parametrize("flags, named", [
        # the default missing_rate is 0: no entry is missing to score
        (["--grid-key1", "seed", "--grid-values1", "1;2;3"],
         "grid cell 0 (seed=1): scope 'missing' selects no entries"),
        (["--grid-key1", "prox_rho", "--grid-values1", "0.5;2",
          "--missing-rate", "0.3"],
         "grid cell 1 (prox_rho=2.0): prox_rho must lie in (0, 1)"),
        (["--grid-key1", "mu1", "--grid-values1", "2",
          "--grid-key2", "missing_rate", "--grid-values2", "0.3;1.5"],
         "grid cell 1 (mu1=2.0, missing_rate=1.5): missing_rate must lie"),
        (["--grid-key1", "scope", "--grid-values1", "all;bogus"],
         "grid cell 1 (scope=bogus): scope: unknown scope 'bogus'"),
        (["--grid-key1", "mu1", "--grid-values1", "2;5",
          "--missing-rate", "0.3", "--detect-mode", "blocks"],
         "detect_mode: unknown detection mode 'blocks'"),
    ])
    def test_invalid_cell_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                         flags, named):
        solved = []
        monkeypatch.setattr(cli, "solve", lambda *a, **k: solved.append(a))
        rc = main(["grid", "--out", str(tmp_path / "g")] + flags
                  + GEN_FLAGS[:-4] + SOLVE_FLAGS[:4])
        assert rc == 1
        assert f"error: {named}" in capsys.readouterr().err
        assert solved == []
        assert not (tmp_path / "g").exists()

    def test_malformed_grid_value_is_usage_error(self, tmp_path, capsys):
        rc = main(["grid", "--grid-key1", "mu1", "--grid-values1", "2;x",
                   "--out", str(tmp_path / "g")])
        assert rc == 1
        assert "error: mu1: " in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--grid-key2", "mu2"],
        ["--grid-values2", "1;2"],
    ])
    def test_unpaired_second_key_is_usage_error(self, tmp_path, flags):
        rc = main(["grid", "--grid-key1", "mu1", "--grid-values1", "2",
                   "--out", str(tmp_path / "g")] + flags)
        assert rc == 1
        assert not (tmp_path / "g").exists()

    def test_unknown_grid_key(self, tmp_path):
        rc = main(["grid", "--grid-key1", "bogus", "--grid-values1", "1",
                   "--out", str(tmp_path / "g")])
        assert rc == 1

    # cpus is the process's affinity set; the host has 8 CPUs either way
    @pytest.mark.parametrize("jobs, cpus, workers",
                             [(4, 8, 2), (3, 2, 2), (4, 1, 1)])
    def test_jobs_capped(self, tmp_path, monkeypatch, jobs, cpus, workers):
        # A stand-in pool runs cells inline and records its size, so no
        # worker process starts.
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                fut = concurrent.futures.Future()
                fut.set_result(fn(*args))
                return fut

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        monkeypatch.setattr(cli.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        rc = main(["grid", "--grid-key1", "missing_rate",
                   "--grid-values1", "0.2;0.3", "--jobs", str(jobs),
                   "--out", str(tmp_path / "g"), "--seed", "9"]
                  + GEN_FLAGS[:-2] + SOLVE_FLAGS)
        assert rc == 0
        # one worker runs the cells inline, without a pool
        assert sizes == ([workers] if workers > 1 else [])

    @pytest.mark.parametrize("env, flags, named", [
        ("two", [], "TSLTO_JOBS"),
        ("0", [], "TSLTO_JOBS"),
        ("-2", [], "TSLTO_JOBS"),
        ("2", ["--jobs", "-3"], "--jobs"),
    ])
    def test_bad_job_count_is_usage_error(self, tmp_path, monkeypatch, capsys,
                                          env, flags, named):
        monkeypatch.setenv("TSLTO_JOBS", env)
        rc = main(["grid", "--grid-key1", "mu1", "--grid-values1", "2;5",
                   "--out", str(tmp_path / "g")] + flags)
        assert rc == 1
        assert f"error: {named} must be" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("env, jobs", [(None, 1), ("2", 2)])
    def test_jobs_zero_reads_env(self, monkeypatch, env, jobs):
        # --jobs 0 means TSLTO_JOBS, or 1 when it is unset
        if env is None:
            monkeypatch.delenv("TSLTO_JOBS", raising=False)
        else:
            monkeypatch.setenv("TSLTO_JOBS", env)
        assert cli._job_count(0) == jobs
        assert cli._job_count(3) == 3

    def test_cell_cap(self, tmp_path):
        rc = main(["grid", "--grid-key1", "seed",
                   "--grid-values1", ";".join(str(i) for i in range(5)),
                   "--max-cells", "3", "--out", str(tmp_path / "g")])
        assert rc == 1
