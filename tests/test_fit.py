import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindsearch.fit import (FitConfig, Strategy, fit_strategy, load_strategy,
                             path_payoff, save_strategy, strategy_from_dict,
                             strategy_to_dict, threshold_rule_of_thumb)
from blindsearch.isotonic import MonotoneFn
from blindsearch.stats import chi2_2_quantile
from blindsearch.tree import NodeId, TreeConfig, ancestor_index, descendant_count, nodes_in_layer


def chain_tree(layers, branch=2, roots=1, cost=1.0):
    return TreeConfig(num_layers=layers, root_count=roots,
                      branching=(branch,) * (layers - 1), costs=(cost,) * layers)


def const_fn(level):
    return MonotoneFn(np.array([0.0]), np.array([float(level)]))


def step_fn(at, lo, hi):
    return MonotoneFn(np.array([0.0, float(at)]), np.array([float(lo), float(hi)]))


def manual_strategy(tree, continuation, lam=0.0, q_train=1.0):
    return Strategy(tree=tree, lam=lam, q_train=q_train, continuation=continuation)


def test_two_layer_fit_by_hand():
    # targets: 3 * (leaf exceedance - lam); pava pools the first two points
    tree = chain_tree(2, branch=3)
    paths = np.array([[1.0, 6.0], [2.0, 4.0], [3.0, 7.0]])
    strat = fit_strategy(paths, FitConfig(tree, lam=0.1, q_train=5.0, num_paths=3))
    fn = strat.continuation[1][2]
    assert fn.breakpoints.tolist() == [1.0, 3.0]
    assert fn.levels == pytest.approx([3 * (0.5 - 0.1), 3 * (1.0 - 0.1)], rel=1e-12)
    assert strat.decide(1, 0.0) == 2  # positive value everywhere
    assert strat.decide(1, 10.0) == 2


def test_lambda_zero_never_stops():
    tree = chain_tree(3)
    rng = np.random.default_rng(0)
    paths = rng.uniform(0, 1, (50, 3))  # no path reaches q_train = 2
    strat = fit_strategy(paths, FitConfig(tree, lam=0.0, q_train=2.0, num_paths=50))
    for layer in (1, 2):
        for x in (-1.0, 0.2, 0.9, 50.0):
            # every target ties at zero; free search continues as deep as it can
            assert strat.decide(layer, x) == 3


def test_positive_lambda_stops_when_hopeless():
    tree = chain_tree(3)
    rng = np.random.default_rng(0)
    paths = rng.uniform(0, 1, (50, 3))
    strat = fit_strategy(paths, FitConfig(tree, lam=0.2, q_train=2.0, num_paths=50))
    for layer in (1, 2):
        assert strat.decide(layer, 0.5) == 0


def test_tie_prefers_deepest_jump():
    tree = chain_tree(3)
    strat = manual_strategy(tree, {1: {2: const_fn(1.0), 3: const_fn(1.0)},
                                   2: {3: const_fn(1.0)}})
    assert strat.decide(1, 0.0) == 3


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
        strat.decide(1, float("nan"))
    with pytest.raises(ValueError):
        strat.decide_batch(1, np.array([1.0, np.inf]))


def test_degenerate_layer_warns():
    tree = chain_tree(2)
    paths = np.array([[1.0, 0.5], [1.0, 3.0], [1.0, 0.2]])
    with pytest.warns(UserWarning, match="identical"):
        fit_strategy(paths, FitConfig(tree, lam=0.1, q_train=2.0, num_paths=3))


def test_path_payoff_by_hand():
    tree = TreeConfig(num_layers=3, root_count=1, branching=(2, 2),
                      costs=(1.0, 0.5, 0.25))
    strat = manual_strategy(tree, {1: {2: step_fn(1.0, -1.0, 1.0), 3: const_fn(-1.0)},
                                   2: {3: step_fn(2.0, -1.0, 1.0)}}, lam=0.2)
    sample = np.array([1.5, 2.5, 7.0])
    # visit layer 2 (2 nodes, cost 0.5) and layer 3 (4 nodes, 0.25), detect
    want = -0.2 * 2 * 0.5 - 0.2 * 4 * 0.25 + 4
    assert path_payoff(sample, strat, 0.2, 5.0, 1) == pytest.approx(want, rel=1e-15)
    # starting underneath: descendant counts shrink
    want2 = -0.2 * 2 * 0.25 + 2
    assert path_payoff(sample, strat, 0.2, 5.0, 2) == pytest.approx(want2, rel=1e-15)
    # stop at once: nothing spent
    assert path_payoff(np.array([0.5, 2.5, 7.0]), strat, 0.2, 5.0, 1) == 0.0
    # exceedance is strict
    assert path_payoff(np.array([1.5, 2.5, 5.0]), strat, 0.2, 5.0, 1) == \
        pytest.approx(-0.2 * 2 * 0.5 - 0.2 * 4 * 0.25, rel=1e-15)


def enumerate_lineage_paths(tree, layer_values):
    """Path values per leaf: the values of its ancestors down the lineage."""
    G = tree.num_layers
    out = []
    for leaf in range(nodes_in_layer(tree, G)):
        vals = []
        for l in range(1, G):
            vals.append(layer_values[l - 1][ancestor_index(tree, NodeId(G, leaf), l)])
        vals.append(layer_values[G - 1][leaf])
        out.append(np.array(vals))
    return out


def reference_payoff(tree, strategy, layer_values, lam, q):
    """Executed payoff of one realization, by direct set bookkeeping."""
    G = tree.num_layers
    observed = {1: set(range(nodes_in_layer(tree, 1)))}
    for l in range(2, G + 1):
        observed[l] = set()
    for l in range(1, G):
        for i in sorted(observed[l]):
            s = strategy.decide(l, float(layer_values[l - 1][i]))
            if s:
                lo = i * descendant_count(tree, l, s)
                observed[s].update(range(lo, lo + descendant_count(tree, l, s)))
    cost = sum(len(observed[l]) * tree.cost(l) for l in range(2, G + 1))
    dets = sum(1 for i in observed[G] if layer_values[G - 1][i] > q)
    return dets - lam * cost


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
    strat = fit_strategy(train, FitConfig(tree, lam, q_train=q, num_paths=40))
    layer_values = [rng.normal(size=nodes_in_layer(tree, l)) + 0.5 * l
                    for l in tree.layers()]
    paths = enumerate_lineage_paths(tree, layer_values)
    mean = float(np.mean([path_payoff(p, strat, lam, q, 1) for p in paths]))
    want = reference_payoff(tree, strat, layer_values, lam, q)
    assert mean == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_serialization_roundtrip(tmp_path):
    tree = TreeConfig(num_layers=4, root_count=5, branching=(2, 8, 4),
                      costs=(1.0, 0.5, 0.25, 0.125))
    rng = np.random.default_rng(3)
    paths = rng.chisquare(2, size=(200, 4))
    strat = fit_strategy(paths, FitConfig(tree, lam=0.01, q_train=9.0, num_paths=200),
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


def test_threshold_rule_of_thumb():
    assert threshold_rule_of_thumb(1e-3) == pytest.approx(chi2_2_quantile(0.999))
    with pytest.raises(ValueError):
        threshold_rule_of_thumb(0.0)


def test_fit_config_validation():
    tree = chain_tree(2)
    with pytest.raises(ValueError):
        FitConfig(tree, lam=-0.1, q_train=1.0, num_paths=10)
    with pytest.raises(ValueError):
        FitConfig(tree, lam=0.0, q_train=float("nan"), num_paths=10)
    with pytest.raises(ValueError):
        FitConfig(tree, lam=0.0, q_train=1.0, num_paths=1)
    with pytest.raises(ValueError):
        fit_strategy(np.zeros((2, 3)), FitConfig(chain_tree(2), 0.0, 1.0, 2))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 99999), st.floats(0.0, 0.5))
def test_fitted_continuation_curves_are_monotone(seed, lam):
    rng = np.random.default_rng(seed)
    tree = chain_tree(4, branch=2)
    paths = rng.chisquare(2, size=(60, 4))
    strat = fit_strategy(paths, FitConfig(tree, lam, q_train=4.0, num_paths=60))
    for layer, fns in strat.continuation.items():
        assert set(fns) == set(range(layer + 1, 5))
        for fn in fns.values():
            assert np.all(np.diff(fn.levels) > 0) or fn.levels.size == 1
