import csv
import dataclasses
import logging
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst
from scipy import integrate
from scipy import special
from scipy import stats as sps

from blindsearch import cli, engine, evaluation
from blindsearch.engine import (ArrayEvaluator, GridSpec, PulsarEvaluator, PulsarGrid,
                                SparsePeakEvaluator, run_search)
from blindsearch.evaluation import (DESK_SPAN, REFERENCE_FD, REFERENCE_PHOTONS,
                                    TradeoffConfig, desk_scale_config, estimate_tradeoff,
                                    exact_dp_oracle, fitted_payoff_estimate,
                                    leaf_window, naive_power_check,
                                    tree_payoff_batch, write_tradeoff_csv)
from blindsearch.fit import FitConfig, Strategy, fit_strategy, load_strategy, sample_paths
from blindsearch.isotonic import MonotoneFn
from blindsearch.models import GaussianChainModel, PulsarNullModel
from blindsearch.stats import FreqDrift, SignalSpec, chi2_2_quantile, simulate_photons
from blindsearch.tree import TreeConfig, descendant_count, nodes_in_layer
from blindsearch.util import resolve_workers, subseed
from reference import (chain_tree, const_fn, fitted_strategy, manual_strategy,
                       search_instance, threshold_strategy, walk_payoff)


class TestExactOracle:
    def test_two_layer_tree_matches_direct_quadrature(self):
        """Independent route: integrate max(0, Q(x)) phi(x) dx by quad."""
        tree = chain_tree(2, branch=3, roots=2)
        model = GaussianChainModel(tree, rho=0.6)
        lam, q = 0.1, 1.0
        sd = math.sqrt(1 - 0.36)

        def gain(x):
            return max(0.0, 3.0 * (sps.norm.sf((q - 0.6 * x) / sd) - lam))

        kink = (q - sd * sps.norm.isf(lam)) / 0.6
        v1, err = integrate.quad(lambda x: gain(x) * sps.norm.pdf(x),
                                 -8.0, 8.0, points=[kink], limit=200)
        assert err < 1e-9
        exact = 2.0 * v1

        fine = exact_dp_oracle(model, lam, q, n_grid=200).total_payoff
        coarse = exact_dp_oracle(model, lam, q, n_grid=25).total_payoff
        assert fine == pytest.approx(exact, rel=5e-3)
        assert abs(fine - exact) <= abs(coarse - exact)

    def test_free_search_low_threshold_collects_every_leaf(self):
        tree = chain_tree(3, branch=2, roots=3)
        model = GaussianChainModel(tree, rho=0.5)
        res = exact_dp_oracle(model, lam=0.0, q=-6.0)
        assert res.total_payoff == pytest.approx(nodes_in_layer(tree, 3), rel=1e-4)
        # free search never stops, whatever the statistic
        for act in res.layer_actions:
            assert np.all(act > 0)

    @pytest.mark.parametrize("rho", [0.5, 0.9, 0.99])
    def test_free_search_jumps_to_the_leaves(self, rho):
        """At lambda = 0 every jump target ties; the deepest one takes every cell."""
        for layers in (2, 3, 4):
            for branch in (2, 4):
                for q in (-6.0, 1.0, 2.5):
                    model = GaussianChainModel(chain_tree(layers, branch), rho)
                    res = exact_dp_oracle(model, lam=0.0, q=q)
                    assert all(np.all(act == layers) for act in res.layer_actions), \
                        (layers, branch, q)

    def test_prohibitive_cost_stops_at_the_roots(self):
        model = GaussianChainModel(chain_tree(3), rho=0.8)
        res = exact_dp_oracle(model, lam=1e6, q=1.0)
        assert res.total_payoff == 0.0
        assert all(np.all(a == 0) for a in res.layer_actions)

    def test_payoff_decreases_with_lambda(self):
        model = GaussianChainModel(chain_tree(3, branch=4), rho=0.7)
        totals = [exact_dp_oracle(model, lam, q=1.8).total_payoff
                  for lam in (0.0, 0.02, 0.1, 0.5)]
        assert all(a >= b - 1e-12 for a, b in zip(totals, totals[1:]))

    def test_dominates_simple_strategies_and_fit(self):
        tree = chain_tree(3, branch=2)
        model = GaussianChainModel(tree, rho=0.8)
        lam, q = 0.05, 1.5
        res = exact_dp_oracle(model, lam, q)
        # stop-at-root earns exactly zero
        assert res.total_payoff >= 0.0
        # jump straight to the leaves: closed-form payoff
        straight = 4.0 * (sps.norm.sf(q) - lam)
        assert res.total_payoff >= straight - 1e-3
        # the fitted strategy cannot beat the optimum
        paths = sample_paths(model, 4000, seed=0)
        strat = fit_strategy(paths, FitConfig(tree, lam, q))
        mean, se = fitted_payoff_estimate(strat, model, q, n_sims=4000, seed=1)
        assert mean <= res.total_payoff + 4 * se

    def test_normal_cdf_matches_scipy(self):
        """The oracle's own normal CDF agrees with ``scipy.special.ndtr``.

        Both round the argument x / sqrt(2) once, which moves the CDF by
        up to about x^2 ulp relative in the lower tail, and near the
        centre SciPy sums 0.5 + 0.5 erf, which rounds at 0.5's scale. So
        the bound is 4 eps (1 + x^2) relative, or 1e-300 where both
        underflow.
        """
        x = np.concatenate([[0.0, 1e-300, -1e-300, 1.0, -1.0, 8.0, -8.0, 37.0, -37.0,
                             40.0, -40.0], np.linspace(-10.0, 10.0, 20001)])
        got = evaluation._ndtr(x)
        ref = special.ndtr(x)
        assert got.dtype == np.float64 and got.shape == x.shape
        tol = np.maximum(4 * np.finfo(float).eps * (1 + x * x) * ref, 1e-300)
        assert np.all(np.abs(got - ref) <= tol)
        assert evaluation._ndtr(np.array([-np.inf, np.inf])).tolist() == [0.0, 1.0]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            exact_dp_oracle(GaussianChainModel(chain_tree(5), 0.5), 0.1, 1.0)
        with pytest.raises(ValueError):
            exact_dp_oracle(GaussianChainModel(chain_tree(4, branch=8), 0.5), 0.1, 1.0)
        model = GaussianChainModel(chain_tree(2), 0.5)
        with pytest.raises(ValueError):
            exact_dp_oracle(model, 0.1, 1.0, n_grid=1)
        with pytest.raises(ValueError):
            exact_dp_oracle(model, 0.1, 1.0, n_grid=201)
        with pytest.raises(ValueError):
            exact_dp_oracle(model, -0.1, 1.0)


class TestTreePayoffBatch:
    def random_strategy(self, tree, lam, rng):
        fns = {}
        for layer in range(1, tree.num_layers):
            fns[layer] = {}
            for s in range(layer + 1, tree.num_layers + 1):
                nb = int(rng.integers(1, 4))
                bps = np.sort(rng.uniform(-2.0, 8.0, nb))
                levels = np.sort(rng.uniform(-1.0, 1.0, nb))
                levels += 1e-6 * np.arange(nb)  # keep strictly increasing
                fns[layer][s] = MonotoneFn(bps, levels)
        return manual_strategy(tree, fns, lam)

    def test_matches_set_walk_reference(self):
        rng = np.random.default_rng(42)
        for trial in range(25):
            G = int(rng.integers(2, 5))
            branch = int(rng.integers(2, 4))
            roots = int(rng.integers(1, 3))
            costs = tuple(float(c) for c in rng.uniform(0.2, 2.0, G))
            tree = chain_tree(G, branch=branch, roots=roots, costs=costs)
            lam = float(rng.choice([0.0, 0.07, 0.3]))
            strat = self.random_strategy(tree, lam, rng)
            q = float(rng.uniform(-1.0, 2.0))
            vals = GaussianChainModel(tree, 0.6).sample_tree_batch(4, rng)
            pay, cost, det = tree_payoff_batch(strat, vals, q)
            for sim in range(4):
                one = [v[sim] for v in vals]
                rp, rc, rd = walk_payoff(strat, one, q)
                assert det[sim] == rd, f"trial {trial} sim {sim}"
                assert cost[sim] == pytest.approx(rc, abs=1e-9)
                assert pay[sim] == pytest.approx(rp, abs=1e-9)

    def test_payoff_identity(self):
        tree = chain_tree(3, branch=3)
        rng = np.random.default_rng(7)
        strat = self.random_strategy(tree, 0.11, rng)
        vals = GaussianChainModel(tree, 0.5).sample_tree_batch(50, rng)
        pay, cost, det = tree_payoff_batch(strat, vals, q=0.8)
        assert np.allclose(pay, det - 0.11 * cost)

    def test_never_stop_observes_full_tree(self):
        tree = chain_tree(3, branch=2, roots=2)
        fns = {1: {2: const_fn(1.0), 3: const_fn(0.5)},
               2: {3: const_fn(1.0)}}
        strat = manual_strategy(tree, fns)
        rng = np.random.default_rng(9)
        vals = GaussianChainModel(tree, 0.5).sample_tree_batch(30, rng)
        pay, cost, det = tree_payoff_batch(strat, vals, q=0.0)
        full = nodes_in_layer(tree, 2) + nodes_in_layer(tree, 3)
        assert np.all(cost == full)
        assert np.array_equal(det, (vals[2] >= 0.0).sum(axis=1))

    def test_leaf_equal_to_q_counts(self):
        tree = chain_tree(2, branch=3)
        strat = manual_strategy(tree, {1: {2: const_fn(1.0)}})
        vals = [np.zeros((1, 1)), np.array([[0.5, 1.0, 2.0]])]
        _, _, det = tree_payoff_batch(strat, vals, q=1.0)
        assert det.tolist() == [2]

    def test_straight_jump_skips_middle_layer_cost(self):
        tree = chain_tree(3, branch=2, roots=2)
        fns = {1: {2: const_fn(0.5), 3: const_fn(1.0)},
               2: {3: const_fn(1.0)}}
        strat = manual_strategy(tree, fns)
        rng = np.random.default_rng(9)
        vals = GaussianChainModel(tree, 0.5).sample_tree_batch(30, rng)
        _, cost, det = tree_payoff_batch(strat, vals, q=0.0)
        assert np.all(cost == nodes_in_layer(tree, 3))
        assert np.array_equal(det, (vals[2] >= 0.0).sum(axis=1))


class TestLeafWindow:
    def brute(self, grid, fd, rw, rd):
        leaves = nodes_in_layer(grid.tree, grid.spec.num_layers)
        om, od = grid.node_params(grid.spec.num_layers, np.arange(leaves))
        keep = (np.abs(om - fd.omega) <= rw) & (np.abs(od - fd.omegadot) <= rd)
        return np.flatnonzero(keep)

    def test_frequency_only_grid(self):
        spec = GridSpec(1.0, 2.0, -1e-5, 0.0, num_layers=3, oversampling=3)
        grid = PulsarGrid(spec, 60.0)
        assert all(f == 1 for f in grid.drift_factor)
        rng = np.random.default_rng(0)
        for _ in range(20):
            fd = FreqDrift(rng.uniform(1.0, 2.0), rng.uniform(-1e-5, 0.0))
            rw = float(rng.choice([1 / 60.0, 0.05, 0.004]))
            win = leaf_window(grid, fd, rw, 1e-5)
            assert np.array_equal(np.sort(win), self.brute(grid, fd, rw, 1e-5))

    def test_both_dimensions_split(self):
        spec = GridSpec(1.0, 1.5, -2e-3, 0.0, num_layers=3, oversampling=3)
        grid = PulsarGrid(spec, 60.0)
        assert all(f == 4 for f in grid.drift_factor)
        rng = np.random.default_rng(1)
        for _ in range(20):
            fd = FreqDrift(rng.uniform(1.0, 1.5), rng.uniform(-2e-3, 0.0))
            rw = float(rng.choice([1 / 60.0, 0.02]))
            rd = float(rng.choice([1 / 3600.0, 2e-4]))
            win = leaf_window(grid, fd, rw, rd)
            assert np.array_equal(np.sort(win), self.brute(grid, fd, rw, rd))

    def test_outside_box_far_away_is_empty(self):
        spec = GridSpec(1.0, 2.0, -1e-5, 0.0, num_layers=3, oversampling=3)
        grid = PulsarGrid(spec, 60.0)
        win = leaf_window(grid, FreqDrift(5.0, 0.0), 1e-3, 1e-5)
        assert win.size == 0

    def test_mixed_split_dimension(self):
        cases = [
            # drift splits at the last transition only
            (GridSpec(1.0, 1.2, -5e-5, 0.0, num_layers=3, oversampling=3), 60.0,
             ((2, 2), (1, 4))),
            # frequency splits from layer 2 on
            (GridSpec(1.0, 1.02, -1e-3, 0.0, num_layers=5, oversampling=3), 100.0,
             ((1, 2, 2, 2), (4, 4, 4, 4))),
        ]
        rng = np.random.default_rng(2)
        for spec, span, factors in cases:
            grid = PulsarGrid(spec, span)
            assert (grid.freq_factor, grid.drift_factor) == factors
            for _ in range(20):
                fd = FreqDrift(rng.uniform(spec.omega_min, spec.omega_max),
                               rng.uniform(spec.omegadot_min, 0.0))
                rw = float(rng.choice([1 / span, 0.3 * grid.d_omega[-1]]))
                rd = float(rng.choice([1 / span ** 2, 0.3 * grid.d_omegadot[-1]]))
                win = leaf_window(grid, fd, rw, rd)
                assert np.array_equal(np.sort(win), self.brute(grid, fd, rw, rd))


class TestEstimateTradeoff:
    def tiny_config(self):
        grid = GridSpec(1.0, 2.0, -1e-6, 0.0, num_layers=3, oversampling=3)
        return TradeoffConfig(grid=grid, span=40.0, num_photons=60,
                              num_paths=3000, qtrain_quantile=0.9, q_reject=12.0)

    def test_free_and_prohibitive_endpoints(self):
        cfg = self.tiny_config()
        [pts] = estimate_tradeoff([0.0, 50.0], [0.85], cfg, n_sims=12, seed=5, workers=1)
        free, blocked = pts
        grid = PulsarGrid(cfg.grid, cfg.span)
        n1 = nodes_in_layer(grid.tree, 1)
        n2 = nodes_in_layer(grid.tree, 2)
        n3 = nodes_in_layer(grid.tree, 3)
        # lambda = 0 never stops, so every leaf is observed and relative
        # power is exactly 1; jumps may or may not route through layer 2,
        # which brackets the cost between root sweep + leaves and the
        # whole tree (the roots are always observed)
        assert (n1 + n3) / n3 - 1e-9 <= free.cost_fraction
        assert free.cost_fraction <= (n1 + n2 + n3) / n3 + 1e-9
        assert free.power_fraction == 1.0
        # a prohibitive lambda stops at the roots: only their cost remains
        assert blocked.cost_fraction == pytest.approx(n1 / n3)
        assert blocked.cost_se == 0.0
        assert blocked.power_fraction == 0.0
        assert free.n_sims == 12

    def test_deterministic_and_worker_count_invariant(self):
        cfg = self.tiny_config()
        a = estimate_tradeoff([0.3], [0.5, 0.85], cfg, n_sims=6, seed=3, workers=1)
        b = estimate_tradeoff([0.3], [0.5, 0.85], cfg, n_sims=6, seed=3, workers=1)
        c = estimate_tradeoff([0.3], [0.5, 0.85], cfg, n_sims=6, seed=3, workers=2)
        assert a == b == c
        assert len(a) == 2

    def test_thetas_share_one_pass(self, monkeypatch):
        calls = {"sample_paths": 0, "fit_strategy": 0, "_cost_sim": 0, "_power_sim": 0}
        for name in calls:
            fn = getattr(evaluation, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(evaluation, name, counted)
        curves = estimate_tradeoff([0.0, 0.3], [0.5, 0.85], self.tiny_config(),
                                   n_sims=4, seed=8, workers=1)
        assert [len(points) for points in curves] == [2, 2]
        assert calls == {"sample_paths": 1, "fit_strategy": 2, "_cost_sim": 4,
                         "_power_sim": 8}

    def test_each_theta_matches_its_own_pass(self):
        cfg = self.tiny_config()
        lams = [0.0, 0.3, 50.0]
        both = estimate_tradeoff(lams, [0.85, 0.5], cfg, n_sims=5, seed=4, workers=1)
        alone = [estimate_tradeoff(lams, [theta], cfg, n_sims=5, seed=4, workers=1)[0]
                 for theta in (0.85, 0.5)]
        assert both == alone

    @pytest.mark.parametrize("workers", [1, 2])
    def test_lambdas_do_not_couple(self, workers):
        # the strategies share one walk per dataset; no lambda's point may move
        cfg = self.tiny_config()
        lams = [0.0, 0.3, 50.0]
        [shared] = estimate_tradeoff(lams, [0.85], cfg, n_sims=5, seed=6, workers=workers)
        alone = [estimate_tradeoff([lam], [0.85], cfg, n_sims=5, seed=6, workers=workers)[0][0]
                 for lam in lams]
        assert shared == alone

    def test_logs_progress_and_shared_nodes(self, caplog):
        caplog.set_level(logging.INFO, logger="blindsearch")
        estimate_tradeoff([0.0, 0.3], [0.5, 0.85], self.tiny_config(), n_sims=4, seed=8,
                          workers=1)
        lines = [r.getMessage() for r in caplog.records if r.name == "blindsearch.evaluation"]
        assert lines[:4] == [f"cost sims: {k}/4 done" for k in range(1, 5)]
        assert lines[5:13] == [f"power sims: {k}/8 done" for k in range(1, 9)]
        words = lines[4].split()
        assert words[:2] == ["cost", "sims:"]
        evaluated, observed = int(words[2]), int(words[6])
        # lambda = 0 observes every node the other strategy does
        assert 0 < evaluated < observed
        # a power sim follows chains and observes nothing, so it reports no observed count
        words = lines[13].split()
        assert words[:2] + words[3:] == ["power", "sims:", "nodes", "evaluated"]
        assert int(words[2]) > 0

    def test_rejects_degenerate_sim_count(self):
        with pytest.raises(ValueError):
            estimate_tradeoff([0.1], [0.85], self.tiny_config(), n_sims=1, seed=0)

    @pytest.mark.parametrize("lams, thetas", [([0.1], [0.5, 1.5]), ([0.1], [math.nan]),
                                              ([0.1, -1.0], [0.5]), ([math.inf], [0.5])])
    def test_rejects_bad_grid_before_sampling(self, monkeypatch, lams, thetas):
        def unexpected(*args, **kwargs):
            raise AssertionError("sample_paths called")
        monkeypatch.setattr(evaluation, "sample_paths", unexpected)
        with pytest.raises(ValueError, match="lambda|theta"):
            estimate_tradeoff(lams, thetas, self.tiny_config(), n_sims=4, seed=0, workers=1)

    @pytest.mark.parametrize("value", ["1", "64", "not a number"])
    def test_threads_variable_is_ignored(self, monkeypatch, value):
        monkeypatch.setenv("BLINDSEARCH_THREADS", value)
        assert resolve_workers(None) == resolve_workers(0) == (os.cpu_count() or 1)
        assert resolve_workers(3) == 3
        with pytest.raises(ValueError, match="worker count"):
            resolve_workers(-1)

    def test_csv_roundtrip(self, tmp_path):
        cfg = self.tiny_config()
        [pts] = estimate_tradeoff([0.0], [0.85], cfg, n_sims=4, seed=2, workers=1)
        out = tmp_path / "curve.csv"
        write_tradeoff_csv(out, pts)
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["lambda"]) == 0.0
        assert float(rows[0]["cost_fraction"]) == pts[0].cost_fraction
        assert float(rows[0]["power_fraction"]) == pts[0].power_fraction
        assert int(rows[0]["n_sims"]) == 4

    def test_cost_phase_counts_no_leaf(self, caplog):
        # lambda = 0 observes every leaf of every null dataset, and a cost
        # sim computes none of them
        caplog.set_level(logging.INFO, logger="blindsearch")
        cfg = self.tiny_config()
        estimate_tradeoff([0.0], [0.85], cfg, n_sims=4, seed=8, workers=1)
        line = next(r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("cost sims:") and "evaluated" in r.getMessage())
        words = line.split()
        tree = PulsarGrid(cfg.grid, cfg.span).tree
        assert int(words[2]) == int(words[6]) - 4 * nodes_in_layer(tree, tree.num_layers)

    # every field's repr at lambda 0, 0.3, 50 (rows) and theta 0.5, 0.85 (curves)
    PINNED_CURVES = {
        12.0: [[("0.0", "1.25", "1.0", "0.0", "0.408248290463863", "6"),
                ("0.3", "0.3", "0.3333333333333333", "0.020637972912229678",
                 "0.3042903097250923", "6"),
                ("50.0", "0.25", "0.0", "0.0", "0.0", "6")],
               [("0.0", "1.25", "1.0", "0.0", "0.0", "6"),
                ("0.3", "0.3", "1.0", "0.020637972912229678", "0.0", "6"),
                ("50.0", "0.25", "0.0", "0.0", "0.0", "6")]],
        # no window leaf reaches the threshold, so the sweep never hits
        1e6: [[("0.0", "1.25", "nan", "0.0", "nan", "6"),
               ("0.3", "0.3", "nan", "0.020637972912229678", "nan", "6"),
               ("50.0", "0.25", "nan", "0.0", "nan", "6")]] * 2,
    }

    @pytest.mark.parametrize("q_reject", sorted(PINNED_CURVES))
    def test_curves_keep_their_bits(self, q_reject):
        cfg = dataclasses.replace(self.tiny_config(), q_reject=q_reject)
        curves = estimate_tradeoff([0.0, 0.3, 50.0], [0.5, 0.85], cfg, n_sims=6, seed=3,
                                   workers=1)
        assert [[tuple(repr(getattr(point, f.name)) for f in dataclasses.fields(point))
                 for point in curve] for curve in curves] == self.PINNED_CURVES[q_reject]
        points = [point for curve in curves for point in curve]
        nan = [point.power_fraction is math.nan and point.power_se is math.nan
               for point in points]
        assert nan == [q_reject == 1e6] * len(points)

    def test_fit_command_writes_the_strategy_evaluate_measures(self, tmp_path):
        cfg = self.tiny_config()
        spec = cfg.grid
        out = tmp_path / "strategy.json"
        assert cli.run(["fit", "--omega-min", repr(spec.omega_min),
                        "--omega-max", repr(spec.omega_max),
                        f"--omegadot-min={spec.omegadot_min!r}",
                        f"--omegadot-max={spec.omegadot_max!r}",
                        "--layers", str(spec.num_layers), "--oversampling", str(spec.oversampling),
                        "--span", repr(cfg.span), "--photons", str(cfg.num_photons),
                        "--paths", str(cfg.num_paths),
                        "--qtrain-quantile", repr(cfg.qtrain_quantile),
                        "--lambda", "0.3", "--seed", "3", "--out", str(out)]) == 0
        written = load_strategy(out)
        _, [fitted] = evaluation._fit_strategies(cfg, PulsarGrid(spec, cfg.span), [0.3], 3)
        assert (written.lam, written.q_train) == (fitted.lam, fitted.q_train)
        for layer in range(1, spec.num_layers):
            for got, want in zip(written.decision_regions(layer), fitted.decision_regions(layer)):
                assert np.array_equal(got, want)
            assert written.continuation[layer].keys() == fitted.continuation[layer].keys()
            for s, fn in fitted.continuation[layer].items():
                assert np.array_equal(written.continuation[layer][s].breakpoints, fn.breakpoints)
                assert np.array_equal(written.continuation[layer][s].levels, fn.levels)


def reference_cost_sim(task, st):
    """``_cost_sim``'s costs from run_search on a plain PulsarEvaluator."""
    i, seed = task
    grid = st["grid"]
    photons = simulate_photons(
        SignalSpec(REFERENCE_FD, 0.0, st["num_photons"], grid.span), subseed(seed, 1, i))
    ev = PulsarEvaluator(photons, grid)
    return [run_search(s, ev, st["q_reject"]).total_cost for s in st["strategies"]]


def reference_power_sim(task, st, window=None):
    """``_power_sim``'s result from a full walk that computes every leaf.

    The success window is found by brute force over every leaf's
    parameters, unless ``window`` is given. The hits and the sweep hit
    come with the count of the window leaves and their ancestors, the
    nodes a power sim computes; a sim on a wrong window may still score
    the same hits, but it cannot compute that count.
    """
    i, seed, theta = task
    grid = st["grid"]
    spec = grid.spec
    rng = np.random.default_rng(subseed(seed, 2, i))
    fd = FreqDrift(omega=rng.uniform(spec.omega_min, spec.omega_max),
                   omegadot=rng.uniform(spec.omegadot_min, spec.omegadot_max))
    photons = simulate_photons(
        SignalSpec(fd, theta, st["num_photons"], grid.span), subseed(seed, 3, i))
    ev = PulsarEvaluator(photons, grid)
    if window is None:
        leaves = np.arange(nodes_in_layer(grid.tree, spec.num_layers))
        om, od = grid.node_params(spec.num_layers, leaves)
        window = leaves[(np.abs(om - fd.omega) <= 1.0 / grid.span)
                        & (np.abs(od - fd.omegadot) <= 1.0 / grid.span ** 2)]
    sweep_hit = bool(window.size
                     and np.any(ev.evaluate(spec.num_layers, window) >= st["q_reject"]))
    hits = [bool(np.isin(run_search(s, ev, st["q_reject"]).detections["index"], window).any())
            for s in st["strategies"]]
    G = spec.num_layers
    nodes = sum(np.unique(window // descendant_count(grid.tree, layer, G)).size
                for layer in range(1, G + 1))
    return hits, sweep_hit, nodes


def mixed_config():
    """A 5-layer grid whose frequency splits from layer 2 on, its leaves centred on one root."""
    return TradeoffConfig(grid=GridSpec(1.0, 1.02, -1e-3, 0.0, num_layers=5, oversampling=3),
                          span=100.0, num_photons=150, num_paths=3000,
                          qtrain_quantile=0.9, q_reject=12.0)


def jump_strategy(tree, jumps):
    """A strategy that takes layer l to ``jumps[l]`` whatever its value and stops elsewhere."""
    G = tree.num_layers
    return manual_strategy(tree, {
        layer: {s: const_fn(1.0 if jumps.get(layer) == s else -1.0)
                for s in range(layer + 1, G + 1)}
        for layer in range(1, G)}, lam=0.1)


class TestSimLeafWork:
    """Cost sims compute no leaf; power sims compute only the window's ancestor chains."""

    @pytest.fixture(scope="class", params=["tiny", "drift", "mixed"])
    def state(self, request):
        cfg = TestEstimateTradeoff().tiny_config()
        if request.param == "drift":
            # drift splits too, so leaf_window lists a window out of index order
            cfg = TradeoffConfig(grid=GridSpec(1.0, 1.5, -2e-3, 0.0, num_layers=3,
                                               oversampling=3),
                                 span=80.0, num_photons=150, num_paths=3000,
                                 qtrain_quantile=0.9, q_reject=12.0)
        elif request.param == "mixed":
            cfg = mixed_config()
        grid = PulsarGrid(cfg.grid, cfg.span)
        paths = sample_paths(PulsarNullModel(grid, cfg.num_photons), cfg.num_paths, 11)
        q_train = chi2_2_quantile(cfg.qtrain_quantile)
        strategies = [fit_strategy(paths, FitConfig(grid.tree, lam, q_train))
                      for lam in (0.0, 0.3, 50.0)]
        return {"grid": grid, "strategies": strategies, "num_photons": cfg.num_photons,
                "q_reject": cfg.q_reject}

    @pytest.mark.parametrize("q_reject", [12.0, 0.0, -1.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sims_match_exact_reference(self, state, seed, q_reject):
        st = dict(state, q_reject=q_reject)
        for i in range(3):
            costs, _ = evaluation._cost_sim((i, seed), st)
            assert costs == reference_cost_sim((i, seed), st)
            for theta in (0.0, 0.85):
                assert (evaluation._power_sim((i, seed, theta), st)
                        == reference_power_sim((i, seed, theta), st))

    def test_high_theta_cases_hit(self, state):
        # the equivalence above compares hits that do occur
        hits = [reference_power_sim((i, seed, 0.85), state)
                for seed in (1, 2, 3) for i in range(3)]
        assert any(h[0][0] for h in hits) and any(h[1] for h in hits)

    @pytest.mark.parametrize("q_reject", [12.0, -1.0])
    def test_empty_window(self, state, monkeypatch, q_reject):
        monkeypatch.setattr(evaluation, "leaf_window",
                            lambda *args: np.empty(0, dtype=np.int64))
        st = dict(state, q_reject=q_reject)
        for seed in (1, 2):
            empty = np.empty(0, dtype=np.int64)
            assert (evaluation._power_sim((0, seed, 0.85), st)
                    == reference_power_sim((0, seed, 0.85), st, empty)
                    == ([False] * 3, False, 0))

    @pytest.mark.parametrize("q_reject", [12.0, 0.0, -1.0])
    def test_skip_layer_chains_match_reference(self, q_reject):
        cfg = mixed_config()
        grid = PulsarGrid(cfg.grid, cfg.span)
        G = grid.tree.num_layers
        strategies = [jump_strategy(grid.tree, {1: G}),
                      jump_strategy(grid.tree, {1: 3, 3: G}),
                      jump_strategy(grid.tree, {1: 2})]
        st = {"grid": grid, "strategies": strategies, "num_photons": cfg.num_photons,
              "q_reject": q_reject}
        for seed in (1, 2):
            for i in range(3):
                for theta in (0.0, 0.85):
                    hits, sweep_hit, nodes = evaluation._power_sim((i, seed, theta), st)
                    assert (hits, sweep_hit, nodes) == reference_power_sim((i, seed, theta), st)
                    # both jumping strategies observe every leaf; stopping at 2 observes none
                    assert hits == [sweep_hit, sweep_hit, False]

    def test_cost_evaluator_exact_except_leaves_zero(self, state):
        grid = state["grid"]
        spec = grid.spec
        G = grid.tree.num_layers
        fd = FreqDrift(0.5 * (spec.omega_min + spec.omega_max),
                       0.5 * (spec.omegadot_min + spec.omegadot_max))
        ev = PulsarEvaluator(simulate_photons(SignalSpec(fd, 0.85, state["num_photons"],
                                                         grid.span), 4), grid)
        sim = evaluation._SimEvaluator(ev)
        for layer in range(1, G):
            nodes = np.arange(nodes_in_layer(grid.tree, layer))
            np.testing.assert_array_equal(sim.evaluate(layer, nodes), ev.evaluate(layer, nodes))
            np.testing.assert_array_equal(sim.evaluate(layer, nodes[::-1]),
                                          ev.evaluate(layer, nodes)[::-1])
        leaves = np.arange(nodes_in_layer(grid.tree, G))
        assert np.any(ev.evaluate(G, leaves) != 0.0)
        np.testing.assert_array_equal(sim.evaluate(G, leaves), np.zeros(leaves.size))
        # the reversed calls are answered from the values kept: each node is computed once
        assert sim.nodes == sum(nodes_in_layer(grid.tree, layer) for layer in range(1, G))

    def test_kernel_sees_no_leaf_outside_the_window(self, state, monkeypatch):
        calls = []
        evaluate = PulsarEvaluator.evaluate

        def spy(self, layer, indices):
            calls.append((layer, np.array(indices)))
            return evaluate(self, layer, indices)
        monkeypatch.setattr(PulsarEvaluator, "evaluate", spy)
        windows = []

        def recorded(*args, _fn=evaluation.leaf_window):
            windows.append(_fn(*args))
            return windows[-1]
        monkeypatch.setattr(evaluation, "leaf_window", recorded)
        G = state["grid"].tree.num_layers
        for seed in (1, 2):
            calls.clear()
            _, (evaluated, observed) = evaluation._cost_sim((0, seed), state)
            assert calls and all(layer < G for layer, _ in calls)
            assert evaluated == sum(idx.size for _, idx in calls) < observed

            calls.clear()
            _, _, evaluated = evaluation._power_sim((0, seed, 0.85), state)
            window = windows[-1]
            layers = [layer for layer, _ in calls]
            # at most one call per layer, the leaf layer's for the sweep hit
            assert window.size and len(set(layers)) == len(layers) and G in layers
            for layer, idx in calls:
                ancestors = np.unique(window // descendant_count(state["grid"].tree, layer, G))
                np.testing.assert_array_equal(np.sort(idx), ancestors)
            assert evaluated == sum(idx.size for _, idx in calls)

    def test_decide_calls_are_one_per_reached_layer(self, state, monkeypatch):
        """Each strategy's ``decide_batch`` calls: one per layer some chain reaches, in
        layer order, on exactly the rows that reach it, as a per-strategy loop over the
        window's chains makes them."""
        evaluate, decide = PulsarEvaluator.evaluate, Strategy.decide_batch
        values, windows, calls = {}, [], []

        def spy_evaluate(self, layer, indices):
            values[layer] = evaluate(self, layer, indices)
            return values[layer]

        def spy_decide(self, layer, xs):
            calls.append((id(self), layer, np.array(xs)))
            return decide(self, layer, xs)

        def recorded(*args, _fn=evaluation.leaf_window):
            windows.append(_fn(*args))
            return windows[-1]
        monkeypatch.setattr(PulsarEvaluator, "evaluate", spy_evaluate)
        monkeypatch.setattr(Strategy, "decide_batch", spy_decide)
        monkeypatch.setattr(evaluation, "leaf_window", recorded)
        tree = state["grid"].tree
        G = tree.num_layers
        # steps one layer down where x >= 2, so chains part at every layer
        step = manual_strategy(tree, {
            layer: {s: MonotoneFn(np.array([0.0, 2.0]), np.array([-1.0, 1.0]))
                    if s == layer + 1 else const_fn(-1.0) for s in range(layer + 1, G + 1)}
            for layer in range(1, G)}, lam=0.1)
        state = dict(state, strategies=state["strategies"] + [step])
        deeper = 0
        for seed, theta in ((1, 0.85), (2, 0.85), (1, 0.0), (2, 0.0), (3, 0.0)):
            calls.clear()
            hits, _, _ = evaluation._power_sim((0, seed, theta), state)
            window = windows[-1]
            chains = [values[layer][np.unique(window // descendant_count(tree, layer, G),
                                              return_inverse=True)[1]]
                      for layer in range(1, G + 1)]
            want, want_hits = [], []
            for strategy in state["strategies"]:
                at = np.ones(window.size, dtype=np.int64)
                for layer in range(1, G):
                    here = at == layer
                    if here.any():
                        want.append((id(strategy), layer, chains[layer - 1][here]))
                        at[here] = decide(strategy, layer, chains[layer - 1][here])
                want_hits.append(bool(np.any((chains[-1] >= state["q_reject"]) & (at == G))))
            assert hits == want_hits
            assert [c[:2] for c in calls] == [w[:2] for w in want]
            for (_, _, got), (_, _, xs) in zip(calls, want):
                np.testing.assert_array_equal(got, xs)
            deeper += sum(0 < xs.size < window.size for _, _, xs in want)
        assert deeper


class CountingEvaluator:
    """Records every (layer, index) it is asked to evaluate."""

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.tree = evaluator.tree
        self.seen = []

    def evaluate(self, layer, indices):
        self.seen += [(layer, i) for i in np.asarray(indices).tolist()]
        return self.evaluator.evaluate(layer, indices)


@hst.composite
def sim_walk_instance(draw):
    tree, _, seed = draw(search_instance())
    # fitted strategies, and threshold strategies that prune at a drawn cut
    kinds = hst.one_of(hst.tuples(hst.just("lam"), hst.sampled_from([0.0, 0.02, 0.2, 1.0])),
                       hst.tuples(hst.just("cut"), hst.floats(0.5, 6.0)))
    specs = draw(hst.lists(kinds, min_size=1, max_size=4))
    sparse = draw(hst.booleans())
    return tree, specs, seed, sparse


class TestSimEvaluator:
    """Strategies walked in turn over one ``_SimEvaluator`` share each node's value."""

    @settings(deadline=None, max_examples=60)
    @given(sim_walk_instance(), hst.sampled_from([1, 3, 4096]))
    def test_each_strategy_as_if_alone(self, inst, chunk):
        tree, specs, seed, sparse = inst
        G = tree.num_layers
        strats = [fitted_strategy(tree, x, seed=seed + k) if kind == "lam"
                  else threshold_strategy(tree, cut=x) for k, (kind, x) in enumerate(specs)]
        if sparse:
            ev = SparsePeakEvaluator(tree, peak_leaf=seed % nodes_in_layer(tree, G),
                                     height=6.0, seed=seed)
        else:
            rng = np.random.default_rng(seed)
            ev = ArrayEvaluator(tree, [rng.chisquare(2, size=nodes_in_layer(tree, l)) + 0.3 * l
                                       for l in tree.layers()])
        counted = CountingEvaluator(ev)
        sim = evaluation._SimEvaluator(counted)
        backwards = evaluation._SimEvaluator(ev)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "_SEARCH_CHUNK", chunk)
            shared = [run_search(s, sim, 6.0, emit_observed=True) for s in strats]
            solo = [run_search(s, ev, 6.0, emit_observed=True) for s in strats]
            reversed_costs = [run_search(s, backwards, 6.0).total_cost for s in strats[::-1]]
        observed = set()
        for out, alone in zip(shared, solo):
            assert out.per_layer_observed.tolist() == alone.per_layer_observed.tolist()
            assert out.total_cost == alone.total_cost
            # above the leaves every value, and so every action, is the solo walk's
            inner = out.observed_log[out.observed_log["layer"] < G]
            assert inner.tobytes() == alone.observed_log[alone.observed_log["layer"] < G].tobytes()
            observed |= set(zip(inner["layer"].tolist(), inner["index"].tolist()))
        # each observed non-leaf node is computed once, and no leaf
        assert len(counted.seen) == len(set(counted.seen))
        assert set(counted.seen) == observed
        assert sim.nodes == len(observed)
        assert reversed_costs == [o.total_cost for o in shared][::-1]
        assert backwards.nodes == sim.nodes

    def test_nested_strategies_compute_the_widest_walk(self, monkeypatch):
        tree = TreeConfig(num_layers=5, root_count=16, branching=(8,) * 4,
                          costs=(1.0,) * 5)
        leaves = nodes_in_layer(tree, 5)
        ev = SparsePeakEvaluator(tree, peak_leaf=leaves // 2, height=80.0, seed=3)
        strats = [threshold_strategy(tree, cut=cut) for cut in (10.0, 8.0, 6.0)]
        counted = CountingEvaluator(ev)
        sim = evaluation._SimEvaluator(counted)
        monkeypatch.setattr(engine, "_SEARCH_CHUNK", 4)
        costs = [run_search(s, sim, 25.0).total_cost for s in strats]
        alone = [run_search(s, ev, 25.0) for s in strats]
        assert costs == [a.total_cost for a in alone]
        # the cut-6 strategy observes every node the others do
        widest = int(alone[-1].per_layer_observed[:-1].sum())
        assert len(counted.seen) == len(set(counted.seen)) == sim.nodes == widest
        # a walk over nodes already computed computes nothing more
        run_search(strats[0], sim, 25.0)
        assert len(counted.seen) == sim.nodes == widest


class TestNaivePowerCheck:
    def test_strong_signal_detected(self):
        p, se = naive_power_check(theta=0.9, num_photons=120, q_reject=20.0,
                                  n_sims=60, seed=0, fd=FreqDrift(3.3, 0.0),
                                  span=200.0)
        assert p > 0.8
        assert 0 < se < 0.1

    def test_null_never_clears_headline_threshold(self):
        p, _ = naive_power_check(theta=0.0, num_photons=200, q_reject=47.4,
                                 n_sims=50, seed=1, fd=FreqDrift(3.3, 0.0),
                                 span=200.0)
        assert p == 0.0

    def test_reproducible(self):
        a = naive_power_check(0.5, 100, 15.0, 30, seed=9, fd=FreqDrift(2.0, 0.0),
                              span=100.0)
        b = naive_power_check(0.5, 100, 15.0, 30, seed=9, fd=FreqDrift(2.0, 0.0),
                              span=100.0)
        assert a == b

    def test_rejects_empty_run(self):
        with pytest.raises(ValueError):
            naive_power_check(0.5, 100, 15.0, 0, seed=0)


class TestFittedPayoffEstimate:
    def test_never_stop_strategy_matches_closed_form(self):
        tree = chain_tree(3, branch=2)
        fns = {1: {2: const_fn(0.5), 3: const_fn(1.0)},
               2: {3: const_fn(1.0)}}
        strat = manual_strategy(tree, fns)
        model = GaussianChainModel(tree, rho=0.5)
        q = 1.2
        mean, se = fitted_payoff_estimate(strat, model, q, n_sims=20_000, seed=4)
        assert mean == pytest.approx(4.0 * sps.norm.sf(q), abs=4 * se)

    def test_reproducible(self):
        tree = chain_tree(2)
        model = GaussianChainModel(tree, rho=0.5)
        paths = sample_paths(model, 500, seed=0)
        strat = fit_strategy(paths, FitConfig(tree, 0.1, 1.0))
        a = fitted_payoff_estimate(strat, model, 1.0, 300, seed=6)
        assert a == fitted_payoff_estimate(strat, model, 1.0, 300, seed=6)


class TestConfigs:
    def test_desk_defaults(self):
        cfg = desk_scale_config()
        assert cfg.span == DESK_SPAN == pytest.approx(1205197.0 / 32)
        assert cfg.num_photons == REFERENCE_PHOTONS == 1072
        assert cfg.grid.num_layers == 9

    def test_validation(self):
        grid = GridSpec(1.0, 2.0, 0.0, 0.0, num_layers=2, oversampling=3)
        with pytest.raises(ValueError):
            TradeoffConfig(grid, span=-1.0, num_photons=10,
                           num_paths=10, qtrain_quantile=0.9)
        with pytest.raises(ValueError):
            TradeoffConfig(grid, span=10.0, num_photons=10,
                           num_paths=10, qtrain_quantile=1.0)
        with pytest.raises(ValueError):
            TradeoffConfig(grid, span=10.0, num_photons=10,
                           num_paths=1, qtrain_quantile=0.9)
        with pytest.raises(ValueError, match="NaN"):
            TradeoffConfig(grid, span=10.0, num_photons=10,
                           num_paths=10, qtrain_quantile=0.9, q_reject=float("nan"))
