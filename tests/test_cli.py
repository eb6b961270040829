import json

import numpy as np
import pytest

from blindsearch import cli, evaluation
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
                                       ["--lambdas", "0.1,-1", "--thetas", "0.5"]])
    def test_bad_grid_rejected_before_any_work(self, tmp_path, monkeypatch, curve):
        def unexpected(*args, **kwargs):
            raise AssertionError("sample_paths called")
        monkeypatch.setattr(evaluation, "sample_paths", unexpected)
        rc = cli.run(["evaluate", *GRID_FLAGS, *curve, "--sims", "2", "--paths", "500",
                      "--photons", "40", "--qreject", "12", "--workers", "1",
                      "--out", str(tmp_path / "curve.csv")])
        assert rc == 3
        assert not list(tmp_path.glob("*.csv"))


class TestOracle:
    def test_reports_ratio(self, capsys):
        run_ok(["oracle", "--rho", "0.8", "--layers", "2", "--branching", "2",
                "--lambda", "0.05", "--q", "1.0", "--paths", "2000",
                "--sims", "2000", "--seed", "0"])
        out = capsys.readouterr().out
        assert "exact optimal expected payoff" in out
        assert "ratio fitted/exact" in out


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
