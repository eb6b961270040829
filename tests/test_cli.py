import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import blindsearch
from blindsearch import cli, evaluation
from blindsearch.engine import GridSpec, PulsarGrid, default_q_reject
from blindsearch.fit import load_strategy
from blindsearch.stats import read_photons


def run_ok(argv):
    rc = cli.run(argv)
    assert rc == 0, f"command failed: {argv}"


def simulate(tmp_path, name="photons.txt", theta=0.6, photons=80, span=50.0,
             omega=2.0, seed=1):
    out = tmp_path / name
    run_ok(["simulate", "--theta", str(theta), "--photons", str(photons),
            "--span", str(span), "--omega", str(omega), "--omegadot=0",
            "--seed", str(seed), "--out", str(out)])
    return out


GRID_FLAGS = ["--omega-min", "1.0", "--omega-max", "2.0",
              "--omegadot-min=-1e-6", "--omegadot-max=0",
              "--layers", "3", "--oversampling", "3", "--span", "50"]


def fit(tmp_path, lam="0.0", extra=(), name="strategy.json"):
    out = tmp_path / name
    run_ok(["fit", *GRID_FLAGS, "--lambda", lam, "--paths", "800",
            "--qtrain-quantile", "0.9", "--photons", "80", "--seed", "3",
            "--out", str(out), *extra])
    return out


class TestSimulate:
    def test_writes_readable_photons(self, tmp_path):
        out = simulate(tmp_path)
        series = read_photons(out)
        assert series.times.size == 80
        assert series.span == 50.0
        assert np.all((series.times >= 0) & (series.times <= 50.0))

    def test_seed_controls_output(self, tmp_path):
        a = simulate(tmp_path, "a.txt", seed=5)
        b = simulate(tmp_path, "b.txt", seed=5)
        c = simulate(tmp_path, "c.txt", seed=6)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != c.read_bytes()

    def test_exponent_form_negative_value(self, tmp_path):
        out = tmp_path / "p.txt"
        run_ok(["simulate", "--photons", "20", "--span", "10", "--omega", "2.0",
                "--omegadot", "-1e-11", "--out", str(out)])
        manifest = json.loads((tmp_path / "p.txt.manifest.json").read_text())
        assert manifest["config"]["omegadot"] == -1e-11

    def test_missing_value_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.run(["simulate", "--omegadot", "--seed", "1", "--out", str(tmp_path / "p.txt")])
        assert exc.value.code == cli.USAGE_ERROR


class TestFit:
    def test_strategy_file_and_manifest(self, tmp_path):
        out = fit(tmp_path)
        strat = load_strategy(out)
        assert strat.tree.num_layers == 3
        assert strat.grid is not None
        manifest = json.loads((tmp_path / "strategy.json.manifest.json").read_text())
        assert manifest["command"] == "fit"
        assert manifest["tool"] == "blindsearch"
        assert str(out) in manifest["outputs"]

    def test_missing_lambda_is_usage_error(self, tmp_path, capsys):
        rc = cli.run(["fit", *GRID_FLAGS, "--paths", "800",
                      "--out", str(tmp_path / "s.json")])
        assert rc == cli.USAGE_ERROR
        assert "lambda" in capsys.readouterr().err

    def test_degenerate_training_run_flagged(self, tmp_path, capsys):
        rc = cli.run(["fit", *GRID_FLAGS, "--lambda", "0.1", "--paths", "50",
                      "--qtrain-quantile", "0.999999999", "--photons", "20",
                      "--seed", "0", "--out", str(tmp_path / "s.json")])
        assert rc == cli.DEGENERATE_FIT
        err = capsys.readouterr().err
        assert "qtrain" in err or "paths" in err

    # the training flags' own cases are test_bad_training_flags_rejected_before_sampling's
    @pytest.mark.parametrize("flags, named", [
        (["--lambda=-1", "--paths", "3000"], "--lambda"),
        (["--lambda", "0.1", "--span", "inf"], "span"),
        (["--lambda", "0.1", "--span", "1e300"], "span"),  # the drift spacing underflows to 0
    ])
    def test_bad_flags_rejected_before_sampling(self, tmp_path, monkeypatch, capsys,
                                                flags, named):
        def unexpected(*args, **kwargs):
            raise AssertionError("sample_paths called")
        monkeypatch.setattr(evaluation, "sample_paths", unexpected)
        rc = cli.run(["fit", *GRID_FLAGS, *flags, "--out", str(tmp_path / "s.json")])
        assert rc == cli.DATA_ERROR
        assert named in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_reports_timing_in_stdout_and_manifest(self, tmp_path, capsys):
        out = fit(tmp_path)
        first, second = capsys.readouterr().out.splitlines()
        assert first.startswith("fitted lambda=") and "training paths exceed" in first
        assert "sampling" in second and "paths/s" in second and "regression" in second
        timing = json.loads((tmp_path / "strategy.json.manifest.json").read_text())["timing"]
        assert set(timing) == {"sample_s", "regression_s", "paths_per_s"}
        assert all(v > 0 for v in timing.values())
        assert "timing" not in json.loads(out.read_text())

    def test_exponent_form_negative_grid_flag(self, tmp_path):
        out = fit(tmp_path, extra=["--omegadot-min", "-2e-6"])
        assert load_strategy(out).grid["omegadot_min"] == -2e-6

    def test_refit_is_byte_identical(self, tmp_path):
        a = fit(tmp_path, name="a.json")
        b = fit(tmp_path, name="b.json")
        assert a.read_bytes() == b.read_bytes()


class TestSearch:
    def test_end_to_end_outputs(self, tmp_path):
        strat = fit(tmp_path)
        photons = simulate(tmp_path, theta=0.8, omega=1.5, span=50.0)
        out_dir = tmp_path / "run"
        run_ok(["search", "--strategy", str(strat), "--photons-file", str(photons),
                "--out-dir", str(out_dir)])
        dets = (out_dir / "detections.csv").read_text().splitlines()
        assert dets[0] == "omega_hz,omegadot_s2,statistic,leaf_index"
        layers = (out_dir / "layers.csv").read_text().splitlines()
        assert layers[0] == "layer,observed_count,cost"
        assert len(layers) == 4
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == "search"
        assert str(strat) in manifest["inputs"]

    def test_rerun_byte_identical(self, tmp_path):
        strat = fit(tmp_path)
        photons = simulate(tmp_path, theta=0.8, omega=1.5)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            run_ok(["search", "--strategy", str(strat), "--photons-file",
                    str(photons), "--out-dir", str(d)])
        assert (d1 / "detections.csv").read_bytes() == (d2 / "detections.csv").read_bytes()
        assert (d1 / "layers.csv").read_bytes() == (d2 / "layers.csv").read_bytes()

    def test_per_layer_report_in_stdout_and_manifest(self, tmp_path, capsys):
        strat = fit(tmp_path)
        photons = simulate(tmp_path, theta=0.8, omega=1.5)
        runs = [tmp_path / "r1", tmp_path / "r2"]
        outputs = []
        for d in runs:
            capsys.readouterr()
            run_ok(["search", "--strategy", str(strat), "--photons-file", str(photons),
                    "--emit-observed", "--out-dir", str(d)])
            outputs.append(capsys.readouterr().out)
        lines = outputs[0].splitlines()
        first = lines[0]
        assert "; cost " in first and " (" in first.split("; cost ", 1)[1]
        layers = json.loads((runs[0] / "manifest.json").read_text())["layers"]
        assert [row["layer"] for row in layers] == [1, 2, 3]
        counts = [int(r.split(",")[1]) for r in
                  (runs[0] / "layers.csv").read_text().splitlines()[1:]]
        assert [row["observed"] for row in layers] == counts
        assert layers[0]["evaluate_calls"] >= 1 and layers[0]["seconds"] >= 0.0
        reported = [row for row in layers if row["evaluate_calls"]]
        assert lines[1:1 + len(reported)] == [
            f"  layer {row['layer']}: {row['observed']} nodes in "
            f"{row['evaluate_calls']} evaluate calls, {row['seconds']:.3f} s"
            for row in reported]
        for name in ("detections.csv", "layers.csv", "observed.csv"):
            assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes()
            assert b"seconds" not in (runs[0] / name).read_bytes()

    def test_observed_log_flag(self, tmp_path):
        strat = fit(tmp_path)
        photons = simulate(tmp_path)
        out_dir = tmp_path / "obs"
        run_ok(["search", "--strategy", str(strat), "--photons-file", str(photons),
                "--emit-observed", "--out-dir", str(out_dir)])
        lines = (out_dir / "observed.csv").read_text().splitlines()
        assert lines[0] == "layer,node_index,omega_hz,omegadot_s2,statistic,action"

    def test_missing_photon_file_is_data_error(self, tmp_path):
        strat = fit(tmp_path)
        rc = cli.run(["search", "--strategy", str(strat), "--photons-file",
                      str(tmp_path / "nope.txt"), "--out-dir", str(tmp_path / "x")])
        assert rc == cli.DATA_ERROR

    @pytest.mark.parametrize("text, reason", [("# T=50\n10.0\n60.0\n", "[0, span]"),
                                              ("# T=-5\n1.0\n", "span must be positive"),
                                              ("# T=50\n", "no arrival times")],
                             ids=["late_time", "negative_span", "no_times"])
    def test_invalid_photon_series_names_the_file(self, tmp_path, capsys, text, reason):
        strat = fit(tmp_path)
        photons = tmp_path / "bad_photons.txt"
        photons.write_text(text)
        rc = cli.run(["search", "--strategy", str(strat), "--photons-file", str(photons),
                      "--out-dir", str(tmp_path / "x")])
        err = capsys.readouterr().err
        assert rc == cli.DATA_ERROR
        assert f"{photons}: " in err and reason in err

    def test_strategy_without_grid_is_data_error(self, tmp_path, capsys):
        path = fit(tmp_path)
        doc = json.loads(path.read_text())
        del doc["grid"]
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(doc))
        photons = simulate(tmp_path)
        rc = cli.run(["search", "--strategy", str(bare), "--photons-file",
                      str(photons), "--out-dir", str(tmp_path / "y")])
        assert rc == cli.DATA_ERROR
        assert "grid" in capsys.readouterr().err

    @pytest.mark.parametrize("malform", ["no_tree", "grid_without_span", "list", "tree_list",
                                         "layer_not_object", "actions_number",
                                         "grid_span_list", "grid_omega_text", "tree_n1"])
    def test_malformed_strategy_is_data_error(self, tmp_path, capsys, malform):
        doc = json.loads(fit(tmp_path).read_text())
        if malform == "no_tree":
            del doc["tree"]
        elif malform == "grid_without_span":
            del doc["grid"]["span"]
        elif malform == "list":
            doc = [doc]
        elif malform == "tree_list":
            doc["tree"] = list(doc["tree"].values())
        elif malform == "layer_not_object":
            doc["layers"][0] = 1
        elif malform == "actions_number":
            doc["layers"][0]["actions"] = 2
        elif malform == "grid_span_list":
            doc["grid"]["span"] = [doc["grid"]["span"]]
        elif malform == "tree_n1":  # the embedded grid no longer gives the tree
            doc["tree"]["n1"] += 1
        else:
            doc["grid"]["omega_min"] = "1.0"
        bad = tmp_path / f"{malform}.json"
        bad.write_text(json.dumps(doc))
        photons = simulate(tmp_path)
        rc = cli.run(["search", "--strategy", str(bad), "--photons-file",
                      str(photons), "--out-dir", str(tmp_path / "y")])
        err = capsys.readouterr().err
        assert rc == cli.DATA_ERROR
        assert bad.name in err
        assert "Traceback" not in err

    def test_grid_beyond_the_phase_bound_is_data_error(self, tmp_path, capsys):
        doc = json.loads(fit(tmp_path).read_text())
        doc["grid"].update(FAR_GRID, span=1e13)
        far = tmp_path / "far.json"
        far.write_text(json.dumps(doc))
        rc = cli.run(["search", "--strategy", str(far), "--photons-file",
                      str(far_photons(tmp_path)), "--out-dir", str(tmp_path / "y")])
        err = capsys.readouterr().err
        assert rc == cli.DATA_ERROR
        assert far.name in err and "phase bound" in err
        assert not (tmp_path / "y").exists()


# one grid position observed for 1e13 s: 1e13 cycles at 1 Hz, beyond the 2^40-cycle phase bound
FAR_GRID = {"omega_min": 1.0, "omega_max": 1.0, "omegadot_min": 0.0, "omegadot_max": 0.0}


def far_photons(tmp_path):
    photons = tmp_path / "far.txt"
    photons.write_text("# T=1e13\n1.0\n2.0\n")
    return photons


class TestNaive:
    def test_matches_leaf_sweep_format(self, tmp_path):
        photons = simulate(tmp_path, theta=0.8, omega=1.5)
        out_dir = tmp_path / "naive"
        run_ok(["naive", *GRID_FLAGS, "--photons-file", str(photons),
                "--qreject", "12", "--out-dir", str(out_dir)])
        dets = (out_dir / "detections.csv").read_text().splitlines()
        assert dets[0] == "omega_hz,omegadot_s2,statistic,leaf_index"

    def test_reports_leaf_layer(self, tmp_path, capsys):
        photons = simulate(tmp_path, theta=0.8, omega=1.5)
        out_dir = tmp_path / "naive"
        capsys.readouterr()
        run_ok(["naive", *GRID_FLAGS, "--photons-file", str(photons),
                "--qreject", "12", "--out-dir", str(out_dir)])
        lines = capsys.readouterr().out.splitlines()
        layers = json.loads((out_dir / "manifest.json").read_text())["layers"]
        leaf = layers[-1]
        assert [row["evaluate_calls"] for row in layers[:-1]] == [0] * (len(layers) - 1)
        assert leaf["evaluate_calls"] >= 1
        assert lines[1].startswith(f"  layer {leaf['layer']}: {leaf['observed']} nodes in ")

    def test_reports_how_it_swept(self, tmp_path, capsys):
        photons = simulate(tmp_path, theta=0.8, omega=1.5)
        out_dir = tmp_path / "naive"
        capsys.readouterr()
        run_ok(["naive", *GRID_FLAGS, "--photons-file", str(photons),
                "--qreject", "12", "--out-dir", str(out_dir)])
        lines = capsys.readouterr().out.splitlines()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        sweep = manifest["sweep"]
        assert sweep["method"] == "screen" and sweep["segments"] >= 1
        dets = (out_dir / "detections.csv").read_text().splitlines()[1:]
        assert 1 <= len(dets) <= sweep["confirmed"]
        assert manifest["layers"][-1]["evaluate_calls"] > sweep["segments"]
        assert lines[1].endswith(f"; sweep by screen, {sweep['segments']} segments, "
                                 f"{sweep['confirmed']} confirmed")
        for name in ("detections.csv", "layers.csv"):
            assert b"screen" not in (out_dir / name).read_bytes()

    @pytest.mark.parametrize("header", ["# T=inf", "# T=nan"])
    def test_non_finite_span_header_names_the_file(self, tmp_path, capsys, header):
        photons = tmp_path / "photons.txt"
        photons.write_text(f"{header}\n1.0\n2.0\n")
        rc = cli.run(["naive", "--photons-file", str(photons), "--qreject", "12",
                      "--out-dir", str(tmp_path / "naive")])
        err = capsys.readouterr().err
        assert rc == cli.DATA_ERROR
        assert f"{photons}: span must be positive and finite" in err
        assert not (tmp_path / "naive").exists()

    def test_span_header_not_a_number_names_the_line(self, tmp_path, capsys):
        photons = tmp_path / "photons.txt"
        photons.write_text("# T=abc\n1.0\n")
        rc = cli.run(["naive", "--photons-file", str(photons), "--qreject", "12",
                      "--out-dir", str(tmp_path / "naive")])
        assert rc == cli.DATA_ERROR
        assert f"{photons}:1: bad span header" in capsys.readouterr().err
        assert not (tmp_path / "naive").exists()

    def test_grid_beyond_the_phase_bound_is_data_error(self, tmp_path, capsys):
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in FAR_GRID.items()]
        rc = cli.run(["naive", *flags, "--layers", "3", "--photons-file",
                      str(far_photons(tmp_path)), "--qreject", "12",
                      "--out-dir", str(tmp_path / "naive")])
        assert rc == cli.DATA_ERROR
        assert "phase bound" in capsys.readouterr().err
        assert not (tmp_path / "naive").exists()


class TestEvaluate:
    def test_tiny_curve(self, tmp_path):
        out = tmp_path / "curve.csv"
        run_ok(["evaluate", *GRID_FLAGS, "--lambdas", "0.0,50.0",
                "--thetas", "0.85", "--sims", "4", "--paths", "500",
                "--qtrain-quantile", "0.9", "--photons", "60",
                "--qreject", "12", "--workers", "1", "--seed", "2",
                "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("lambda,cost_fraction,power_fraction")
        assert len(lines) == 3

    def test_manifest_records_resolved_threshold(self, tmp_path):
        out = tmp_path / "curve.csv"
        argv = ["evaluate", *GRID_FLAGS, "--lambdas", "50.0", "--thetas", "0.85",
                "--sims", "2", "--paths", "500", "--qtrain-quantile", "0.9",
                "--photons", "40", "--workers", "1", "--seed", "2", "--out", str(out)]
        run_ok(argv)
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        tree = PulsarGrid(GridSpec(1.0, 2.0, -1e-6, 0.0, 3, 3), 50.0).tree
        assert manifest["config"]["resolved_qreject"] == default_q_reject(tree)
        run_ok(argv + ["--qreject", "12"])
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["config"]["resolved_qreject"] == 12.0

    def test_progress_goes_to_stderr_only(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        run_ok(["evaluate", *GRID_FLAGS, "--lambdas", "0.0,50.0", "--thetas", "0.85",
                "--sims", "3", "--paths", "500", "--qtrain-quantile", "0.9",
                "--photons", "40", "--qreject", "12", "--workers", "1", "--seed", "2",
                "--out", str(out)])
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert "evaluate: cost sims: 3/3 done" in err
        assert "evaluate: power sims: 3/3 done" in err
        assert any(line.startswith("evaluate: power sims:") and "nodes evaluated" in line
                   for line in err)
        assert "sims:" not in captured.out
        assert "sims:" not in out.read_text()

    def test_multiple_thetas_get_separate_files(self, tmp_path):
        out = tmp_path / "curve.csv"
        run_ok(["evaluate", *GRID_FLAGS, "--lambdas", "50.0",
                "--thetas", "0.3,0.85", "--sims", "2", "--paths", "500",
                "--qtrain-quantile", "0.9", "--photons", "40",
                "--qreject", "12", "--workers", "1", "--seed", "2",
                "--out", str(out)])
        assert (tmp_path / "curve_theta0.3.csv").exists()
        assert (tmp_path / "curve_theta0.85.csv").exists()

    @pytest.mark.parametrize("curve", [["--lambdas", "0.1", "--thetas", "0.5,1.5"],
                                       ["--lambdas", "0.1,-1", "--thetas", "0.5"],
                                       ["--lambdas", "0.1", "--thetas", "0.5",
                                        "--qreject", "nan"],
                                       ["--lambdas", "0.1", "--thetas", "0.5",
                                        "--span", "inf"]])
    def test_bad_grid_rejected_before_any_work(self, tmp_path, monkeypatch, curve):
        def unexpected(*args, **kwargs):
            raise AssertionError("sample_paths called")
        monkeypatch.setattr(evaluation, "sample_paths", unexpected)
        rc = cli.run(["evaluate", *GRID_FLAGS, "--sims", "2", "--paths", "500",
                      "--photons", "40", "--qreject", "12", "--workers", "1", *curve,
                      "--out", str(tmp_path / "curve.csv")])
        assert rc == 3
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("thetas, first, second, name", [
        ("0.5,0.5", "0.5", "0.5", "curve_theta0.5.csv"),
        ("0.3,0.1234567,0.12345671", "0.1234567", "0.12345671", "curve_theta0.123457.csv"),
    ])
    def test_thetas_that_share_a_file_rejected_before_any_work(self, tmp_path, monkeypatch,
                                                               capsys, thetas, first, second,
                                                               name):
        def unexpected(*args, **kwargs):
            raise AssertionError("sample_paths called")
        monkeypatch.setattr(evaluation, "sample_paths", unexpected)
        rc = cli.run(["evaluate", *GRID_FLAGS, "--sims", "2", "--paths", "500",
                      "--photons", "40", "--qreject", "12", "--workers", "1",
                      "--lambdas", "0.1", "--thetas", thetas,
                      "--out", str(tmp_path / "curve.csv")])
        err = capsys.readouterr().err
        assert rc == cli.DATA_ERROR
        assert f"thetas {first} and {second} would both write {tmp_path / name}" in err
        assert not list(tmp_path.iterdir())

    def test_training_sample_that_fit_refuses_is_refused(self, tmp_path, monkeypatch, capsys):
        # no path of 200 reaches the 0.9999 quantile: every strategy would stop at layer 1
        sample = [*GRID_FLAGS, "--photons", "200", "--paths", "200",
                  "--qtrain-quantile", "0.9999"]

        def unexpected(*args, **kwargs):
            raise AssertionError("_cost_sim called")
        monkeypatch.setattr(evaluation, "_cost_sim", unexpected)
        rc = cli.run(["evaluate", *sample, "--lambdas", "0.0,0.01", "--thetas", "0.8",
                      "--sims", "8", "--qreject", "12", "--workers", "1",
                      "--out", str(tmp_path / "curve.csv")])
        assert rc == cli.DEGENERATE_FIT
        assert "evaluate: no training path reaches the leaf threshold" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        rc = cli.run(["fit", *sample, "--lambda", "0.01", "--out", str(tmp_path / "s.json")])
        assert rc == cli.DEGENERATE_FIT

    def test_grid_splitting_late_runs(self, tmp_path):
        # drift splits at every layer, frequency only from layer 2 on
        out = tmp_path / "curve.csv"
        run_ok(["evaluate", "--omega-min", "1.0", "--omega-max", "1.02",
                "--omegadot-min=-1e-3", "--omegadot-max=0", "--layers", "5",
                "--oversampling", "3", "--span", "100", "--lambdas", "0.0,0.1,50.0",
                "--thetas", "0.5", "--sims", "2", "--paths", "500",
                "--photons", "40", "--qreject", "12", "--workers", "1",
                "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("lambda,cost_fraction,power_fraction")
        assert [line.split(",")[0] for line in lines[1:]] == ["0.0", "0.1", "50.0"]


# the training flags as fit and evaluate share them, each naming itself when it is bad
TRAINING_TASKS = {"fit": ["--lambda", "0.1"],
                  "evaluate": ["--lambdas", "0.1", "--thetas", "0.5", "--sims", "2",
                               "--qreject", "12", "--workers", "1"]}


@pytest.mark.parametrize("command", sorted(TRAINING_TASKS))
@pytest.mark.parametrize("flags, message", [
    (["--paths", "1"], "--paths must be >= 2"),
    (["--photons", "0"], "--photons must be >= 1"),
    (["--qtrain-quantile", "0"], "--qtrain-quantile must lie in (0, 1)"),
    (["--qtrain-quantile", "1.0"], "--qtrain-quantile must lie in (0, 1)"),
], ids=["paths_1", "photons_0", "quantile_0", "quantile_1"])
def test_bad_training_flags_rejected_before_sampling(tmp_path, monkeypatch, capsys, command,
                                                     flags, message):
    def unexpected(*args, **kwargs):
        raise AssertionError("sample_paths called")
    monkeypatch.setattr(evaluation, "sample_paths", unexpected)
    rc = cli.run([command, *GRID_FLAGS, *TRAINING_TASKS[command], *flags,
                  "--out", str(tmp_path / "out")])
    assert rc == cli.DATA_ERROR
    assert f"{command}: {message}" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, flags", [
    ("simulate", ["--theta", "0.6", "--photons", "80", "--span", "50", "--omega", "2.0",
                  "--omegadot=0", "--seed", "1"]),
    ("fit", [*GRID_FLAGS, "--lambda", "0.0", "--paths", "800", "--qtrain-quantile", "0.9",
             "--photons", "80", "--seed", "3"]),
    ("evaluate", [*GRID_FLAGS, "--lambdas", "0.0,50.0", "--thetas", "0.85", "--sims", "2",
                  "--paths", "500", "--qtrain-quantile", "0.9", "--photons", "40",
                  "--qreject", "12", "--workers", "1", "--seed", "2"]),
])
def test_out_directory_is_created(tmp_path, command, flags):
    here, nested = tmp_path / "out.txt", tmp_path / "missing" / "dir" / "out.txt"
    for out in (here, nested):
        run_ok([command, *flags, "--out", str(out)])
    assert nested.read_bytes() == here.read_bytes()
    assert Path(f"{nested}.manifest.json").exists()


class TestOracle:
    def test_reports_ratio(self, capsys):
        run_ok(["oracle", "--rho", "0.8", "--layers", "2", "--branching", "2",
                "--lambda", "0.05", "--q", "1.0", "--paths", "2000",
                "--sims", "2000", "--seed", "0"])
        out = capsys.readouterr().out
        assert "exact optimal expected payoff" in out
        assert "ratio fitted/exact" in out

    @pytest.mark.parametrize("flags, named", [
        (["--sims", "0"], "n_sims must be >= 2, not 0"),
        (["--sims", "1"], "n_sims must be >= 2, not 1"),
        (["--sims", "-5"], "n_sims must be >= 2, not -5"),
        (["--q", "nan"], "q must be finite, not nan"),
    ])
    def test_bad_sims_or_threshold_is_data_error(self, capsys, flags, named):
        rc = cli.run(["oracle", "--layers", "2", "--paths", "400", *flags])
        captured = capsys.readouterr()
        assert rc == cli.DATA_ERROR
        assert f"oracle: {named}" in captured.err
        assert captured.out == ""


class TestConfigResolution:
    def test_config_file_supplies_defaults_flags_override(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("theta = 0.9\nphotons = 30\nspan = 25\n"
                           "# comment line\nseed = 4\n")
        out = tmp_path / "p.txt"
        run_ok(["simulate", "--config", str(cfgfile), "--photons", "45",
                "--omega", "2.0", "--omegadot=0", "--out", str(out)])
        series = read_photons(out)
        assert series.times.size == 45  # flag wins over config
        assert series.span == 25.0  # config wins over default

    def test_unknown_config_key_is_data_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("thtea = 0.9\n")
        rc = cli.run(["simulate", "--config", str(cfgfile),
                      "--out", str(tmp_path / "p.txt")])
        assert rc == cli.DATA_ERROR
        assert "thtea" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line, key", [
        ("fit", "layers = 3.5", "layers"),
        ("fit", "span = abc", "span"),
        ("simulate", "seed = 1.5", "seed"),
        ("search", "emit_observed = no", "emit_observed"),
        ("fit", "layers 3", "expected key=value"),
        ("evaluate", "lambdas = ,", "bad value for lambdas: expected a comma separated list"),
    ])
    def test_value_its_flag_rejects_is_data_error(self, tmp_path, capsys, command, line, key):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"# read as the flag reads it\n{line}\n")
        paths = {"fit": ["--out", str(tmp_path / "s.json")],
                 "simulate": ["--out", str(tmp_path / "p.txt")],
                 "evaluate": ["--out", str(tmp_path / "c.csv")],
                 "search": ["--strategy", str(tmp_path / "s.json"), "--photons-file",
                            str(tmp_path / "p.txt"), "--out-dir", str(tmp_path / "run")]}
        rc = cli.run([command, "--config", str(cfgfile), *paths[command]])
        err = capsys.readouterr().err
        assert rc == cli.DATA_ERROR
        assert f"{cfgfile}:2" in err and key in err
        assert list(tmp_path.iterdir()) == [cfgfile]

    @pytest.mark.parametrize("key", ["lambdas", "thetas"])
    def test_bad_number_list_is_data_error(self, tmp_path, capsys, key):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text(f"sims = 2\n{key} = abc\n")
        rc = cli.run(["evaluate", "--config", str(cfgfile), "--out", str(tmp_path / "c.csv")])
        err = capsys.readouterr().err
        assert rc == cli.DATA_ERROR
        assert f"{cfgfile}:2" in err and key in err
        assert list(tmp_path.iterdir()) == [cfgfile]

    def test_number_lists_are_recorded_as_written(self, tmp_path):
        cfgfile = tmp_path / "curve.cfg"
        cfgfile.write_text("lambdas = 0.0, 1e-1\nthetas = 0.5\n")
        out = tmp_path / "curve.csv"
        run_ok(["evaluate", "--config", str(cfgfile), *GRID_FLAGS, "--sims", "2",
                "--paths", "500", "--photons", "40", "--qreject", "12", "--workers", "1",
                "--out", str(out)])
        config = json.loads(Path(f"{out}.manifest.json").read_text())["config"]
        assert (config["lambdas"], config["thetas"]) == ("0.0, 1e-1", "0.5")
        rows = out.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["0.0", "0.1"]

    def test_config_file_writes_the_flag_runs_bytes(self, tmp_path):
        by_flags = fit(tmp_path, name="flags.json")
        cfgfile = tmp_path / "fit.cfg"
        cfgfile.write_text("omega_min = 1.0\nomega_max = 2.0\nomegadot_min = -1e-6\n"
                           "omegadot_max = 0\nlayers = 3\noversampling = 3\nspan = 50\n"
                           "lam = 0.0\npaths = 800\nqtrain_quantile = 0.9\nphotons = 80\n"
                           "seed = 3\n")
        by_file = tmp_path / "file.json"
        run_ok(["fit", "--config", str(cfgfile), "--out", str(by_file)])
        assert by_file.read_bytes() == by_flags.read_bytes()
        configs = [json.loads(Path(f"{p}.manifest.json").read_text())["config"]
                   for p in (by_flags, by_file)]
        assert configs[0] == configs[1]

    def test_config_values_end_with_their_run(self, tmp_path):
        cfgfile = tmp_path / "fit.cfg"
        cfgfile.write_text("seed = 7\n")
        flags = ["fit", *GRID_FLAGS, "--lambda", "0.0", "--paths", "800",
                 "--qtrain-quantile", "0.9", "--photons", "80"]
        by_file, by_flags = tmp_path / "file.json", tmp_path / "flags.json"
        run_ok([*flags, "--config", str(cfgfile), "--out", str(by_file)])
        run_ok([*flags, "--out", str(by_flags)])  # in the same process, without the file
        configs = [json.loads(Path(f"{p}.manifest.json").read_text())["config"]
                   for p in (by_file, by_flags)]
        assert (configs[0]["seed"], configs[1]["seed"]) == (7, 0)  # 0 is the flag's default

    @pytest.mark.parametrize("value, written", [("false", False), ("true", True)])
    def test_config_switch(self, tmp_path, value, written):
        strat = fit(tmp_path)
        photons = simulate(tmp_path)
        cfgfile = tmp_path / "search.cfg"
        cfgfile.write_text(f"emit_observed = {value}\n")
        out_dir = tmp_path / "run"
        run_ok(["search", "--config", str(cfgfile), "--strategy", str(strat),
                "--photons-file", str(photons), "--out-dir", str(out_dir)])
        assert (out_dir / "observed.csv").exists() == written

    def test_evaluate_defaults_are_the_desk_config(self):
        args = cli.build_parser().parse_args(["evaluate", "--out", "curve.csv"])
        cfg = vars(args)
        desk = evaluation.desk_scale_config()
        assert cli._grid_from_cfg(cfg) == desk.grid
        assert ((cfg["span"], cfg["photons"], cfg["paths"], cfg["qtrain_quantile"])
                == (desk.span, desk.num_photons, desk.num_paths, desk.qtrain_quantile))

    def test_fit_defaults_are_the_desk_config(self):
        parser = cli.build_parser()
        cfg = vars(parser.parse_args(["fit", "--out", "strategy.json"]))
        desk = evaluation.desk_scale_config()
        assert cli._grid_from_cfg(cfg) == desk.grid
        assert ((cfg["span"], cfg["photons"], cfg["paths"], cfg["qtrain_quantile"])
                == (desk.span, desk.num_photons, desk.num_paths, desk.qtrain_quantile))
        simulate_args = parser.parse_args(["simulate", "--out", "photons.txt"])
        assert simulate_args.photons == evaluation.REFERENCE_PHOTONS

    def test_version_banner(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--version"])
        assert exc.value.code == 0
        assert "blindsearch" in capsys.readouterr().out


def test_search_detects_planted_signal(tmp_path):
    """Loud injection at a known frequency must surface in detections.csv."""
    photons = simulate(tmp_path, theta=0.95, photons=300, omega=1.5, span=50.0)
    strat = fit(tmp_path, lam="1e-4", extra=["--photons", "300"])
    out_dir = tmp_path / "hit"
    run_ok(["search", "--strategy", str(strat), "--photons-file", str(photons),
            "--qreject", "20", "--out-dir", str(out_dir)])
    rows = (out_dir / "detections.csv").read_text().splitlines()[1:]
    assert rows, "no detections for a loud planted signal"
    omegas = np.array([float(r.split(",")[0]) for r in rows])
    assert np.min(np.abs(omegas - 1.5)) < 0.05


def test_commands_run_without_scipy(tmp_path):
    """Every command runs on numpy alone: none of them loads a SciPy module.

    A fresh interpreter imports the package, runs each command in-process
    on tiny inputs and then lists what ``sys.modules`` holds; the test
    process itself has SciPy loaded by the other tests.
    """
    script = textwrap.dedent("""
        import sys
        from blindsearch import cli

        grid = ["--omega-min", "1.0", "--omega-max", "2.0", "--omegadot-min=-1e-6",
                "--omegadot-max=0", "--layers", "3", "--span", "50"]
        for argv in (
            ["simulate", "--theta", "0.8", "--photons", "80", "--span", "50",
             "--omega", "1.5", "--omegadot=0", "--seed", "1", "--out", "photons.txt"],
            ["fit", *grid, "--photons", "80", "--lambda", "0.01", "--paths", "400",
             "--qtrain-quantile", "0.9", "--seed", "1", "--out", "strategy.json"],
            ["search", "--strategy", "strategy.json", "--photons-file", "photons.txt",
             "--qreject", "12", "--out-dir", "search"],
            ["naive", *grid, "--photons-file", "photons.txt", "--qreject", "12",
             "--out-dir", "sweep"],
            ["evaluate", *grid, "--photons", "80", "--lambdas", "0.0,0.01", "--thetas", "0.8",
             "--sims", "2", "--paths", "400", "--qtrain-quantile", "0.9", "--qreject", "12",
             "--workers", "1", "--seed", "1", "--out", "curve.csv"],
            ["oracle", "--layers", "2", "--paths", "400", "--sims", "400"],
        ):
            assert cli.run(argv) == 0, argv
        print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(blindsearch.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_benchmark_tracer_wraps_search_and_sweep(tmp_path):
    """perfbench's tracer resolves every binding it wraps and records search and naive.

    The tracer raises on a renamed binding, which stops a traced benchmark
    run, and it counts observed rows from the outcome that
    ``write_observed_csv`` takes as its second positional argument.
    """
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", Path(__file__).parents[1] / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    strat = fit(tmp_path)
    photons = simulate(tmp_path, theta=0.8, omega=1.5)
    with tracer.recording(0):
        run_ok(["search", "--strategy", str(strat), "--photons-file", str(photons),
                "--qreject", "12", "--emit-observed", "--out-dir", str(tmp_path / "search")])
        run_ok(["naive", *GRID_FLAGS, "--photons-file", str(photons), "--qreject", "12",
                "--out-dir", str(tmp_path / "sweep")])
    names = [span[0] for span in tracer.spans]
    for name in ("run_search", "naive_search", "write_observed_csv", "evaluate"):
        assert name in names
    assert names.count("write_detections_csv") == names.count("write_layer_summary_csv") == 2
    [rows] = [span[-1]["rows"] for span in tracer.spans if span[0] == "write_observed_csv"]
    observed = (tmp_path / "search" / "observed.csv").read_text().splitlines()
    assert rows == len(observed) - 1 > 0
