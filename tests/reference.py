"""Test helpers shared by several test modules: small trees, hand-made
and small fitted strategies, drawn search instances, and a plain set-based
walk of a strategy over one materialized tree, the reference the executor,
the batch payoff and the path payoff are checked against.
"""

import numpy as np
from hypothesis import strategies as st

from blindsearch.fit import FitConfig, Strategy, fit_strategy
from blindsearch.isotonic import MonotoneFn
from blindsearch.tree import TreeConfig, descendant_count, nodes_in_layer


def chain_tree(layers, branch=2, roots=1, costs=None):
    return TreeConfig(num_layers=layers, root_count=roots,
                      branching=(branch,) * (layers - 1),
                      costs=costs or (1.0,) * layers)


def const_fn(level):
    return MonotoneFn(np.array([0.0]), np.array([float(level)]))


def manual_strategy(tree, continuation, lam=0.0, q_train=1.0):
    """continuation: {layer: {target: MonotoneFn}} for layers 1..G-1."""
    return Strategy(tree=tree, lam=lam, q_train=q_train, continuation=continuation)


def fitted_strategy(tree, lam, q_train=4.0, seed=0, n=80):
    rng = np.random.default_rng(seed)
    paths = rng.chisquare(2, size=(n, tree.num_layers))
    return fit_strategy(paths, FitConfig(tree, lam, q_train))


def threshold_strategy(tree, cut, lam=0.1):
    """Descend one layer at a time wherever the statistic reaches ``cut``."""

    def step(lo, hi):
        return MonotoneFn(np.array([0.0, float(cut)]), np.array([lo, hi]))

    continuation = {}
    for layer in range(1, tree.num_layers):
        fns = {}
        for s in range(layer + 1, tree.num_layers + 1):
            fns[s] = step(-1.0, 1.0) if s == layer + 1 else step(-2.0, 0.5)
        continuation[layer] = fns
    return manual_strategy(tree, continuation, lam=lam, q_train=float(cut))


@st.composite
def search_instance(draw):
    """(tree, lambda, seed): a small drawn tree with drawn costs."""
    layers = draw(st.integers(2, 4))
    branching = tuple(draw(st.integers(2, 3)) for _ in range(layers - 1))
    roots = draw(st.integers(1, 3))
    costs = tuple(draw(st.floats(0.2, 2.0)) for _ in range(layers))
    tree = TreeConfig(num_layers=layers, root_count=roots, branching=branching,
                      costs=costs)
    lam = draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))
    seed = draw(st.integers(0, 10_000))
    return tree, lam, seed


def set_walk(strategy, values):
    """The nodes ``strategy`` observes on one realized tree, as a set per layer.

    ``values[l - 1][i]`` is the statistic of node i of layer l. Layer 1 is
    observed whole; an observed node whose action is s > 0 adds its
    layer-s descendants.
    """
    tree = strategy.tree
    G = tree.num_layers
    observed = {l: set() for l in tree.layers()}
    observed[1] = set(range(nodes_in_layer(tree, 1)))
    for l in range(1, G):
        for i in sorted(observed[l]):
            s = int(strategy.decide_batch(l, values[l - 1][i]))
            if s:
                b = descendant_count(tree, l, s)
                observed[s].update(range(i * b, (i + 1) * b))
    return observed


def walk_payoff(strategy, values, q):
    """(payoff, cost, detections) of ``set_walk`` on one realized tree.

    Detections are observed leaves at or above q; the cost counts the
    observed nodes below layer 1, which every strategy observes.
    """
    tree = strategy.tree
    G = tree.num_layers
    observed = set_walk(strategy, values)
    cost = sum(tree.cost(l) * len(observed[l]) for l in range(2, G + 1))
    det = sum(1 for i in observed[G] if values[G - 1][i] >= q)
    return det - strategy.lam * cost, cost, det


def lineages(tree):
    """(layer-1 index, ..., leaf index) for every root-to-leaf chain, in leaf order."""
    chains = [[i] for i in range(nodes_in_layer(tree, 1))]
    for layer in range(2, tree.num_layers + 1):
        b = tree.branching[layer - 2]
        chains = [c + [c[-1] * b + j] for c in chains for j in range(b)]
    return chains
