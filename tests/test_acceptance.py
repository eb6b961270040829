"""Acceptance suite: the externally meaningful claims, one test each.

Every test prints a single PASS/FAIL line with the measured numbers, so
``pytest tests/test_acceptance.py -v -s`` reads as a report. Module
tests elsewhere cover internals; this file pins only headline behavior,
at the stated tolerances, with fixed seeds.
"""

import itertools
import time

import numpy as np
import pytest

from blindsearch.engine import (GridSpec, PulsarEvaluator, PulsarGrid,
                                SparsePeakEvaluator, naive_search, run_search)
from blindsearch.evaluation import (DESK_LAMBDAS, DESK_THETAS, REFERENCE_FD,
                                    REFERENCE_PHOTONS, REFERENCE_SPAN,
                                    desk_scale_config, estimate_tradeoff,
                                    exact_dp_oracle, fitted_payoff_estimate,
                                    naive_power_check)
from blindsearch.fit import FitConfig, Strategy, fit_strategy, path_payoff, sample_paths
from blindsearch.isotonic import MonotoneFn, pava
from blindsearch.models import GaussianChainModel, PulsarNullModel
from blindsearch.stats import (FreqDrift, SignalSpec, chi2_2_isf, rayleigh_power,
                               simulate_photons)
from blindsearch.tree import TreeConfig, descendant_count, nodes_in_layer
from blindsearch import cli


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# 1 ------------------------------------------------------------------


def test_naive_power_at_reference_signal_fractions():
    """Exhaustive-sweep power at the headline threshold and photon budget."""
    q = chi2_2_isf(5e-11)
    p_hi, se_hi = naive_power_check(theta=0.34, num_photons=REFERENCE_PHOTONS,
                                    q_reject=q, n_sims=2000, seed=101)
    p_lo, se_lo = naive_power_check(theta=0.24, num_photons=REFERENCE_PHOTONS,
                                    q_reject=q, n_sims=2000, seed=102)
    ok = 0.80 <= p_hi <= 0.92 and 0.08 <= p_lo <= 0.18
    report("naive power", ok,
           f"theta=0.34: {p_hi:.3f}+-{se_hi:.3f} (need 0.80..0.92); "
           f"theta=0.24: {p_lo:.3f}+-{se_lo:.3f} (need 0.08..0.18); "
           f"q={q:.2f}, m={REFERENCE_PHOTONS}, 2000 sims each")


# 2 ------------------------------------------------------------------


def test_desk_scale_tradeoff_point():
    """Some default (theta, lambda) keeps >=90% power at <=1% sweep cost.

    The binary desk tree pays 0.39% of the sweep just to observe layer 1,
    and that layer separates signal from noise by under 2 sigma at
    theta=0.34, so the percent-cost regime only clears 90% power for the
    stronger pulsed fractions on the default signal grid. Both amplitudes
    are measured and reported; theta=0.34 documents the gap.
    """
    t0 = time.time()
    assert {0.34, 0.5} <= set(DESK_THETAS)
    rows = []
    hits = []
    for theta, lams, n_sims in [(0.34, [5.5e-2, 6.5e-2], 100),
                                (0.5, [5.5e-2, 6e-2, 6.5e-2], 200)]:
        assert set(lams) <= set(DESK_LAMBDAS)
        cfg = desk_scale_config(theta=theta)
        for p in estimate_tradeoff(lams, cfg, n_sims=n_sims, seed=7, workers=1):
            rows.append(f"theta={theta:g} lam={p.lam:g}: "
                        f"cost={p.cost_fraction:.4f}+-{p.cost_se:.4f}, "
                        f"power={p.power_fraction:.3f}+-{p.power_se:.3f}")
            if p.power_fraction >= 0.90 and p.cost_fraction <= 1e-2:
                hits.append((theta, p.lam))
    elapsed = time.time() - t0
    report("desk tradeoff", bool(hits) and elapsed < 3600,
           "; ".join(rows) + f"; passing points {hits}; {elapsed:.0f}s (budget 3600s)")


# 3 ------------------------------------------------------------------


def test_free_search_recovers_exactly_the_naive_detections():
    """lambda = 0 must change cost only, never the detected set."""
    spec = GridSpec(1.0, 2.0, -1e-6, 0.0, num_layers=4, oversampling=3)
    grid = PulsarGrid(spec, 60.0)
    model = PulsarNullModel(grid, num_photons=150)
    paths = sample_paths(model, 10_000, seed=30)
    strat = fit_strategy(paths, FitConfig(grid.tree, 0.0, 9.21, 10_000))
    q = 16.0
    rng = np.random.default_rng(31)
    mismatches = 0
    datasets = 0
    for i in range(60):
        if i % 3 == 0:
            theta, fd = 0.0, FreqDrift(1.5, 0.0)
        else:
            theta = 0.6
            fd = FreqDrift(rng.uniform(1.0, 2.0), rng.uniform(-1e-6, 0.0))
        photons = simulate_photons(SignalSpec(fd, theta, 150, 60.0), seed=(32, i))
        ev = PulsarEvaluator(photons, grid)
        hier = {(n, v) for n, v in run_search(strat, ev, q).detections}
        naive = {(n, v) for n, v in naive_search(ev, q).detections}
        datasets += 1
        mismatches += hier != naive
    report("free-search equivalence", mismatches == 0,
           f"{datasets} datasets, {mismatches} set mismatches")


# 4 ------------------------------------------------------------------


def test_fitted_strategy_near_exact_optimum():
    """MC-fitted strategy earns >= 95% of the exact DP payoff."""
    tree = TreeConfig(num_layers=3, root_count=1, branching=(2, 2),
                      costs=(1.0, 1.0, 1.0))
    model = GaussianChainModel(tree, rho=0.9)
    lam, q = 0.05, 1.5
    oracle = exact_dp_oracle(model, lam, q)
    paths = sample_paths(model, 100_000, seed=40)
    strat = fit_strategy(paths, FitConfig(tree, lam, q, 100_000))
    mean, se = fitted_payoff_estimate(strat, model, q, n_sims=50_000, seed=41)
    ratio = mean / oracle.total_payoff
    report("fit vs exact optimum", ratio >= 0.95,
           f"fitted {mean:.4f}+-{se:.4f} vs exact {oracle.total_payoff:.4f}, "
           f"ratio {ratio:.3f} (need >= 0.95; 1e5 paths, 5e4 fresh sims)")


# 5 ------------------------------------------------------------------


def lineage_paths(tree):
    """(layer-1 index, ..., leaf index) for every root-to-leaf chain."""
    chains = [[i] for i in range(nodes_in_layer(tree, 1))]
    for layer in range(2, tree.num_layers + 1):
        b = tree.branching[layer - 2]
        chains = [c + [c[-1] * b + j] for c in chains for j in range(b)]
    return chains


def executed_payoff(strategy, vals, q):
    """Frontier walk over one realized tree; payoff net of sub-root cost."""
    tree = strategy.tree
    G = tree.num_layers
    observed = {l: set() for l in range(1, G + 1)}
    observed[1] = set(range(nodes_in_layer(tree, 1)))
    for layer in range(1, G):
        for idx in observed[layer]:
            s = strategy.decide(layer, float(vals[layer - 1][idx]))
            if s:
                b = descendant_count(tree, layer, s)
                observed[s].update(range(idx * b, (idx + 1) * b))
    cost = sum(tree.cost(l) * len(observed[l]) for l in range(2, G + 1))
    det = sum(1 for i in observed[G] if vals[G - 1][i] > q)
    return det - strategy.lam * cost


def test_path_payoff_identity():
    """Mean lineage payoff equals the executed payoff, to 1e-12."""
    tree = TreeConfig(num_layers=3, root_count=2, branching=(3, 2),
                      costs=(1.0, 0.7, 0.4))
    model = GaussianChainModel(tree, rho=0.8)
    lam, q = 0.15, 1.0
    paths = sample_paths(model, 5000, seed=50)
    strat = fit_strategy(paths, FitConfig(tree, lam, q, 5000))
    rng = np.random.default_rng(51)
    worst = 0.0
    for _ in range(25):
        vals = [v[0] for v in model.sample_tree_batch(1, rng)]
        total = executed_payoff(strat, vals, q)
        per_path = [
            path_payoff(np.array([vals[l - 1][c[l - 1]] for l in range(1, 4)]),
                        strat, lam, q, start_layer=1)
            for c in lineage_paths(tree)]
        worst = max(worst, abs(np.mean(per_path) * nodes_in_layer(tree, 1) - total))
    report("path payoff identity", worst < 1e-12,
           f"max |mean lineage payoff - executed payoff| = {worst:.2e} "
           f"over 25 realized trees (need < 1e-12)")


# 6 ------------------------------------------------------------------


def best_partition_sse(x, y, w):
    """Exhaustive minimum of weighted SSE over monotone step functions."""
    order = np.argsort(x, kind="stable")
    x, y, w = x[order], y[order], w[order]
    # group exact-duplicate abscissae: a function cannot separate them
    cuts = [0] + [i for i in range(1, len(x)) if x[i] != x[i - 1]] + [len(x)]
    blocks = [(slice(a, b)) for a, b in zip(cuts, cuts[1:])]
    k = len(blocks)
    best = np.inf
    for mask in itertools.product([0, 1], repeat=k - 1):
        bounds = [0] + [i + 1 for i, m in enumerate(mask) if m] + [k]
        means = []
        sse = 0.0
        for a, b in zip(bounds, bounds[1:]):
            sl = slice(blocks[a].start, blocks[b - 1].stop)
            mu = np.average(y[sl], weights=w[sl])
            means.append(mu)
            sse += float(np.sum(w[sl] * (y[sl] - mu) ** 2))
        if all(m2 >= m1 - 1e-12 for m1, m2 in zip(means, means[1:])):
            best = min(best, sse)
    return best


def test_monotone_regression_reaches_partition_optimum():
    rng = np.random.default_rng(60)
    worst = 0.0
    for trial in range(1000):
        n = int(rng.integers(1, 9))
        x = np.round(rng.uniform(0, 4, n), 1)  # ties happen
        y = rng.normal(0, 1, n)
        w = rng.uniform(0.2, 3.0, n)
        fn = pava(x, y, w)
        got = float(np.sum(w * (y - fn(x)) ** 2))
        want = best_partition_sse(x, y, w)
        scale = max(1.0, abs(want))
        worst = max(worst, abs(got - want) / scale)
    report("isotonic optimality", worst < 1e-9,
           f"1000 random instances (n <= 8), max rel SSE gap {worst:.2e} "
           f"(need < 1e-9)")


# 7 ------------------------------------------------------------------


def test_null_statistic_calibration():
    """KS distance of the coherent statistic to chi-square(2) under the null."""
    from scipy import stats as sps
    m, reps = 1000, 10_000
    fd = FreqDrift(4.17, 0.0)
    vals = np.empty(reps)
    for i in range(reps):
        photons = simulate_photons(SignalSpec(fd, 0.0, m, 250.0), seed=(70, i))
        vals[i] = rayleigh_power(photons, fd)
    ks = sps.kstest(vals, sps.chi2(df=2).cdf).statistic
    report("null calibration", ks < 0.02,
           f"KS = {ks:.4f} over {reps} null series of {m} photons (need < 0.02)")


# 8 ------------------------------------------------------------------


def step_fn(cut, lo, hi):
    return MonotoneFn(np.array([0.0, float(cut)]), np.array([lo, hi]))


def test_search_tracks_tiny_frontier_on_million_leaf_tree():
    """Executor state stays thousands of records on a 2^21-leaf tree."""
    G = 22
    tree = TreeConfig(num_layers=G, root_count=1, branching=(2,) * (G - 1),
                      costs=(1.0,) * G)
    leaves = nodes_in_layer(tree, G)
    continuation = {}
    for layer in range(1, G):
        fns = {s: step_fn(8.0, -1.0, 1.0) if s == layer + 1 else step_fn(8.0, -2.0, 0.5)
               for s in range(layer + 1, G + 1)}
        continuation[layer] = fns
    strat = Strategy(tree=tree, lam=0.1, q_train=8.0, continuation=continuation)
    ev = SparsePeakEvaluator(tree, peak_leaf=1_482_911, height=40.0, seed=1)
    out = run_search(strat, ev, q_reject=30.0)
    found = any(n.index == 1_482_911 for n, _ in out.detections)
    ok = leaves >= 1_000_000 and out.peak_tracked < 10_000 and found
    report("sparse frontier", ok,
           f"{leaves} leaves, peak {out.peak_tracked} node records "
           f"(need < 1e4), planted leaf detected: {found}")


# 9 ------------------------------------------------------------------


def test_cli_runs_are_byte_identical(tmp_path):
    grid_flags = ["--omega-min", "1.0", "--omega-max", "2.0",
                  "--omegadot-min=-1e-6", "--omegadot-max=0",
                  "--layers", "3", "--oversampling", "3", "--span", "50"]
    photons = tmp_path / "photons.txt"
    assert cli.run(["simulate", "--theta", "0.7", "--photons", "120",
                    "--span", "50", "--omega", "1.4", "--omegadot=0",
                    "--seed", "9", "--out", str(photons)]) == 0
    strategies = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        assert cli.run(["fit", *grid_flags, "--lambda", "1e-3", "--paths", "2000",
                        "--qtrain-quantile", "0.95", "--photons", "120",
                        "--seed", "5", "--out", str(out)]) == 0
        strategies.append(out.read_bytes())
    dirs = []
    for name in ("r1", "r2"):
        d = tmp_path / name
        assert cli.run(["search", "--strategy", str(tmp_path / "a.json"),
                        "--photons-file", str(photons), "--qreject", "15",
                        "--out-dir", str(d)]) == 0
        dirs.append(d)
    same_fit = strategies[0] == strategies[1]
    same_det = ((dirs[0] / "detections.csv").read_bytes()
                == (dirs[1] / "detections.csv").read_bytes())
    same_layers = ((dirs[0] / "layers.csv").read_bytes()
                   == (dirs[1] / "layers.csv").read_bytes())
    report("reproducible runs", same_fit and same_det and same_layers,
           f"fit byte-identical: {same_fit}, search outputs byte-identical: "
           f"{same_det and same_layers}")
