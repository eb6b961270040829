import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindsearch.engine import GridSpec, PulsarGrid
from blindsearch.fit import (FitConfig, Strategy, _apply_regions, _build_regions, fit_strategy,
                             load_strategy, path_payoff, save_strategy, strategy_from_dict,
                             strategy_to_dict)
from blindsearch.isotonic import MonotoneFn
from blindsearch.models import PulsarNullModel
from blindsearch.stats import chi2_2_quantile
from blindsearch.tree import TreeConfig, descendant_count, nodes_in_layer
from reference import chain_tree, const_fn, lineages, manual_strategy, set_walk, walk_payoff
from test_isotonic import reference_pava


def step_fn(at, lo, hi):
    return MonotoneFn(np.array([0.0, float(at)]), np.array([float(lo), float(hi)]))


def test_two_layer_fit_by_hand():
    # targets: 3 * (leaf exceedance - lam); pava pools the first two points
    tree = chain_tree(2, branch=3)
    paths = np.array([[1.0, 6.0], [2.0, 4.0], [3.0, 7.0]])
    strat = fit_strategy(paths, FitConfig(tree, lam=0.1, q_train=5.0))
    fn = strat.continuation[1][2]
    assert fn.breakpoints.tolist() == [1.0, 3.0]
    assert fn.levels == pytest.approx([3 * (0.5 - 0.1), 3 * (1.0 - 0.1)], rel=1e-12)
    assert strat.decide_batch(1, 0.0) == 2  # positive value everywhere
    assert strat.decide_batch(1, 10.0) == 2


def test_lambda_zero_never_stops():
    tree = chain_tree(3)
    rng = np.random.default_rng(0)
    paths = rng.uniform(0, 1, (50, 3))  # no path reaches q_train = 2
    strat = fit_strategy(paths, FitConfig(tree, lam=0.0, q_train=2.0))
    for layer in (1, 2):
        for x in (-1.0, 0.2, 0.9, 50.0):
            # every target ties at zero; free search continues as deep as it can
            assert strat.decide_batch(layer, x) == 3


def test_positive_lambda_stops_when_hopeless():
    tree = chain_tree(3)
    rng = np.random.default_rng(0)
    paths = rng.uniform(0, 1, (50, 3))
    strat = fit_strategy(paths, FitConfig(tree, lam=0.2, q_train=2.0))
    for layer in (1, 2):
        assert strat.decide_batch(layer, 0.5) == 0


def test_tie_prefers_deepest_jump():
    tree = chain_tree(3)
    strat = manual_strategy(tree, {1: {2: const_fn(1.0), 3: const_fn(1.0)},
                                   2: {3: const_fn(1.0)}})
    assert strat.decide_batch(1, 0.0) == 3


def test_decision_regions_merge_actions():
    tree = chain_tree(3)
    strat = manual_strategy(
        tree,
        {1: {2: step_fn(2.0, -1.0, 5.0), 3: step_fn(4.0, -1.0, 9.0)},
         2: {3: const_fn(-1.0)}},
        lam=0.5)
    bounds, actions = strat.decision_regions(1)
    assert actions.tolist() == [0, 2, 3]
    assert bounds.tolist() == [2.0, 4.0]
    assert strat.decide_batch(1, np.array([1.9, 2.0, 3.9, 4.0])).tolist() == [0, 2, 2, 3]
    # leaf layer always stops
    bounds, actions = strat.decision_regions(3)
    assert actions.tolist() == [0]


def test_decide_rejects_non_finite():
    tree = chain_tree(2)
    strat = manual_strategy(tree, {1: {2: const_fn(1.0)}})
    with pytest.raises(ValueError):
        strat.decide_batch(1, float("nan"))
    with pytest.raises(ValueError):
        strat.decide_batch(1, np.array([1.0, np.inf]))


def test_degenerate_layer_warns():
    tree = chain_tree(2)
    paths = np.array([[1.0, 0.5], [1.0, 3.0], [1.0, 0.2]])
    with pytest.warns(UserWarning, match="identical"):
        fit_strategy(paths, FitConfig(tree, lam=0.1, q_train=2.0))


def hand_strategy():
    """Layer 1 jumps to 2 at x >= 1; layer 2 jumps to 3 at x >= 2; else stop."""
    tree = TreeConfig(num_layers=3, root_count=1, branching=(2, 2), costs=(1.0, 0.5, 0.25))
    return manual_strategy(tree, {1: {2: step_fn(1.0, -1.0, 1.0), 3: const_fn(-1.0)},
                                  2: {3: step_fn(2.0, -1.0, 1.0)}}, lam=0.2)


def test_path_payoff_by_hand():
    strat = hand_strategy()
    sample = np.array([1.5, 2.5, 7.0])
    # visit layer 2 (2 nodes, cost 0.5) and layer 3 (4 nodes, 0.25), detect
    want = -0.2 * 2 * 0.5 - 0.2 * 4 * 0.25 + 4
    assert path_payoff(sample, strat, 0.2, 5.0, 1) == pytest.approx(want, rel=1e-15)
    # starting underneath: descendant counts shrink
    want2 = -0.2 * 2 * 0.25 + 2
    assert path_payoff(sample, strat, 0.2, 5.0, 2) == pytest.approx(want2, rel=1e-15)
    # stop at once: nothing spent
    assert path_payoff(np.array([0.5, 2.5, 7.0]), strat, 0.2, 5.0, 1) == 0.0
    # a leaf statistic equal to q counts, as in the fit and the search
    assert path_payoff(np.array([1.5, 2.5, 5.0]), strat, 0.2, 5.0, 1) == \
        pytest.approx(want, rel=1e-15)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_follow_marks_the_set_walk_on_every_lineage(seed):
    rng = np.random.default_rng(seed)
    G = int(rng.integers(2, 5))
    tree = TreeConfig(num_layers=G, root_count=int(rng.integers(1, 3)),
                      branching=tuple(int(b) for b in rng.integers(2, 4, G - 1)),
                      costs=tuple(rng.uniform(0.2, 1.5, G)))
    train = rng.normal(size=(60, G)) + np.linspace(0, 1, G)
    strat = fit_strategy(train, FitConfig(tree, float(rng.choice([0.0, 0.05, 0.3])), 1.0))
    layer_values = [rng.normal(size=nodes_in_layer(tree, l)) + 0.5 * l for l in tree.layers()]
    chains = lineages(tree)
    paths = np.array([[layer_values[l][i] for l, i in enumerate(c)] for c in chains])
    observed = set_walk(strat, layer_values)
    want = np.array([[i in observed[l] for l, i in enumerate(c, start=1)] for c in chains])
    np.testing.assert_array_equal(strat.follow(paths), want)


def test_follow_from_a_deeper_start():
    strat = hand_strategy()
    paths = np.array([[0.5, 2.5, 7.0], [1.5, 2.5, 7.0], [1.5, 1.0, 7.0], [0.5, 1.0, 7.0]])
    assert strat.follow(paths).tolist() == [[True, False, False], [True, True, True],
                                           [True, True, False], [True, False, False]]
    # the layer-1 statistic is never read from layer 2 on
    paths[:, 0] = np.nan
    assert strat.follow(paths, start_layer=2).tolist() == [[False, True, True]] * 2 + \
        [[False, True, False]] * 2
    assert strat.follow(paths, start_layer=3).tolist() == [[False, False, True]] * 4
    with pytest.raises(ValueError, match="start_layer"):
        strat.follow(paths, start_layer=0)


def test_follow_reads_only_the_layers_a_path_reaches():
    strat = hand_strategy()
    # stops at layer 1, so neither NaN is read
    assert strat.follow(np.array([[0.5, np.nan, np.nan]])).tolist() == [[True, False, False]]
    # jumps to layer 2, whose NaN is then read
    with pytest.raises(ValueError, match="finite"):
        strat.follow(np.array([[1.5, np.nan, 7.0]]))
    with pytest.raises(ValueError, match="finite"):
        strat.follow(np.array([[np.nan, 2.5, 7.0]]))
    with pytest.raises(ValueError, match="paths must be"):
        strat.follow(np.zeros((2, 4)))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 10_000))
def test_mean_path_payoff_equals_executed_payoff(seed):
    rng = np.random.default_rng(seed)
    tree = TreeConfig(num_layers=3, root_count=1,
                      branching=(int(rng.integers(2, 4)), int(rng.integers(2, 4))),
                      costs=tuple(rng.uniform(0.2, 1.5, 3)))
    lam = float(rng.choice([0.0, 0.05, 0.3]))
    q = 1.0
    train = rng.normal(size=(40, 3)) + np.linspace(0, 1, 3)
    strat = fit_strategy(train, FitConfig(tree, lam, q_train=q))
    layer_values = [rng.normal(size=nodes_in_layer(tree, l)) + 0.5 * l
                    for l in tree.layers()]
    paths = [np.array([layer_values[l][i] for l, i in enumerate(chain)])
             for chain in lineages(tree)]
    mean = float(np.mean([path_payoff(p, strat, lam, q, 1) for p in paths]))
    want, _, _ = walk_payoff(strat, layer_values, q)
    assert mean == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_serialization_roundtrip(tmp_path):
    tree = TreeConfig(num_layers=4, root_count=5, branching=(2, 8, 4),
                      costs=(1.0, 0.5, 0.25, 0.125))
    rng = np.random.default_rng(3)
    paths = rng.chisquare(2, size=(200, 4))
    strat = fit_strategy(paths, FitConfig(tree, lam=0.01, q_train=9.0),
                         seed=3)
    strat.grid = {"omega_min": 1.0, "omega_max": 2.0, "omegadot_min": 0.0,
                  "omegadot_max": 0.0, "num_layers": 4, "oversampling": 3,
                  "span": 100.0}
    path = tmp_path / "s.json"
    save_strategy(path, strat)
    again = load_strategy(path)
    assert again.tree == strat.tree
    assert again.lam == strat.lam
    assert again.q_train == strat.q_train
    assert again.grid == strat.grid
    assert strategy_to_dict(again) == strategy_to_dict(strat)
    xs = np.linspace(-1, 30, 200)
    for layer in (1, 2, 3):
        assert np.array_equal(again.decide_batch(layer, xs), strat.decide_batch(layer, xs))
    # a second save is byte-identical
    path2 = tmp_path / "s2.json"
    save_strategy(path2, strat)
    assert path.read_bytes() == path2.read_bytes()


def test_from_dict_rejects_bad_documents():
    tree = chain_tree(3)
    strat = manual_strategy(tree, {1: {2: const_fn(0.0), 3: const_fn(0.0)},
                                   2: {3: const_fn(0.0)}})
    doc = strategy_to_dict(strat)
    bad = json.loads(json.dumps(doc))
    bad["format_version"] = 99
    with pytest.raises(ValueError, match="format_version"):
        strategy_from_dict(bad)
    bad = json.loads(json.dumps(doc))
    del bad["layers"][0]
    with pytest.raises(ValueError, match="layers 1"):
        strategy_from_dict(bad)
    bad = json.loads(json.dumps(doc))
    del bad["layers"][0]["actions"][1]
    with pytest.raises(ValueError, match="every deeper layer"):
        strategy_from_dict(bad)


def test_fit_config_validation():
    tree = chain_tree(2)
    with pytest.raises(ValueError):
        FitConfig(tree, lam=-0.1, q_train=1.0)
    with pytest.raises(ValueError):
        FitConfig(tree, lam=0.0, q_train=float("nan"))
    with pytest.raises(ValueError, match="at least 2 paths"):
        fit_strategy(np.zeros((1, 2)), FitConfig(tree, lam=0.0, q_train=1.0))
    with pytest.raises(ValueError):
        fit_strategy(np.zeros((2, 3)), FitConfig(chain_tree(2), 0.0, 1.0))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 99999), st.floats(0.0, 0.5))
def test_fitted_continuation_curves_are_monotone(seed, lam):
    rng = np.random.default_rng(seed)
    tree = chain_tree(4, branch=2)
    paths = rng.chisquare(2, size=(60, 4))
    strat = fit_strategy(paths, FitConfig(tree, lam, q_train=4.0))
    for layer, fns in strat.continuation.items():
        assert set(fns) == set(range(layer + 1, 5))
        for fn in fns.values():
            assert np.all(np.diff(fn.levels) > 0) or fn.levels.size == 1


def reference_fit(paths, cfg: FitConfig) -> Strategy:
    """Backward induction with one point-by-point PAVA per (layer, jump target)."""
    tree, G = cfg.tree, cfg.tree.num_layers
    payoff = {G: (paths[:, G - 1] >= cfg.q_train).astype(float)}
    continuation = {}
    for layer in range(G - 1, 0, -1):
        xs = paths[:, layer - 1]
        scaled = {s: float(descendant_count(tree, layer, s)) * (payoff[s] - cfg.lam * tree.cost(s))
                  for s in range(layer + 1, G + 1)}
        continuation[layer] = {s: reference_pava(xs, target) for s, target in scaled.items()}
        act = _apply_regions(*_build_regions(continuation[layer], cfg.lam), xs)
        payoff[layer] = np.zeros(len(xs))
        for s, target in scaled.items():
            payoff[layer][act == s] = target[act == s]
    return Strategy(tree=tree, lam=cfg.lam, q_train=cfg.q_train, continuation=continuation)


@pytest.mark.parametrize("spec, span, m", [
    (GridSpec(1.0, 2.0, -1e-6, 0.0, num_layers=6, oversampling=3), 500.0, 100),
    (GridSpec(1.0, 3.0, -2e-3, 0.0, num_layers=4, oversampling=3), 80.0, 150),
    (GridSpec(1.0, 1.02, -1e-3, 0.0, num_layers=5, oversampling=3), 100.0, 200),
], ids=["drift-box", "eight-ary", "mixed"])
def test_decisions_match_point_by_point_reference_fit(spec, span, m):
    """Held-out decisions agree with a fit by the reference PAVA, up to near-ties.

    Regression targets take few values, so two actions' curves can be
    equal in exact arithmetic and differ in rounding. A decision may
    differ only where the curves of the two actions (0 for stopping)
    agree to 1e-12 relative. Layers are compared from the leaves up; a
    training decision flipped at such a tie changes the payoffs of every
    layer above it, so the comparison of that fit stops there.
    """
    grid = PulsarGrid(spec, span)
    model = PulsarNullModel(grid, m)
    train = model.sample_path_values_batch(4000, np.random.default_rng(1))
    held = model.sample_path_values_batch(4000, np.random.default_rng(2))
    compared = total = 0
    for lam in (0.0, 0.01, 0.05, 0.2):
        for quantile in (0.9, 0.99):
            cfg = FitConfig(grid.tree, lam, chi2_2_quantile(quantile))
            fitted, ref = fit_strategy(train, cfg), reference_fit(train, cfg)
            total += grid.tree.num_layers - 1
            for layer in range(grid.tree.num_layers - 1, 0, -1):
                fns = fitted.continuation[layer]
                for xs in (held[:, layer - 1], train[:, layer - 1]):
                    got, want = fitted.decide_batch(layer, xs), ref.decide_batch(layer, xs)
                    for x, a, b in zip(xs[got != want], got[got != want], want[got != want]):
                        va, vb = (fns[s](x) if s else 0.0 for s in (a, b))
                        assert abs(va - vb) <= 1e-12 * max(1.0, abs(va), abs(vb)), (lam, layer, x)
                compared += 1
                if np.any(got != want):  # the training paths' decisions
                    break
    assert compared >= 0.8 * total
