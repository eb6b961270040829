"""Strategy fitting by backward induction on Monte-Carlo path samples.

A strategy maps an observed statistic at layer l to an action: 0 (stop)
or a deeper layer s to jump to, observing every descendant of the node
in layer s. Fitting walks the layers backward. At each layer it regresses
per-path continuation payoffs on the layer statistic with monotone least
squares, one curve per candidate jump target, then replaces each path's
payoff using the action those curves pick. Payoffs are scaled by the
descendant count of the jump so that a single sampled path is an unbiased
stand-in for the whole subtree it threads.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .isotonic import MonotoneFn, pava
from .tree import TreeConfig, descendant_count

FORMAT_VERSION = 1


@dataclass(frozen=True)
class FitConfig:
    """Fitting parameters: tree shape, cost weight, training threshold."""

    tree: TreeConfig
    lam: float
    q_train: float

    def __post_init__(self):
        if not self.lam >= 0 or not math.isfinite(self.lam):
            raise ValueError("lam must be finite and >= 0")
        if not math.isfinite(self.q_train):
            raise ValueError("q_train must be finite")


def _build_regions(fns: dict, lam: float):
    """Collapse per-action step functions into decision regions.

    Returns (bounds, actions): for x < bounds[0] the action is actions[0];
    for bounds[i-1] <= x < bounds[i] it is actions[i]. Ties resolve to
    stop when stopping attains the maximum and lam > 0, otherwise to the
    deepest maximizing jump (so a free search never stops early).
    """
    targets = sorted(fns)
    bps = np.unique(np.concatenate([fns[s].breakpoints for s in targets]))
    k = len(targets)
    vals = np.empty((k, bps.size + 1))
    for i, s in enumerate(targets):
        vals[i, 0] = fns[s].levels[0]
        vals[i, 1:] = fns[s](bps)
    best = vals.max(axis=0)
    actions = np.zeros(bps.size + 1, dtype=np.int64)
    continue_mask = (best > 0.0) | ((best == 0.0) & (lam == 0.0))
    for i, s in enumerate(targets):
        # ascending s: the last writer is the deepest maximizing jump
        hit = continue_mask & (vals[i] == best)
        actions[hit] = s
    keep = np.concatenate(([True], actions[1:] != actions[:-1]))
    return bps[keep[1:]], actions[keep]


def _apply_regions(bounds, actions, x):
    idx = np.searchsorted(bounds, x, side="right")
    return actions[idx]


@dataclass(eq=False)
class Strategy:
    """Fitted search strategy: per-layer continuation-value curves.

    ``continuation[l]`` maps each candidate jump target s > l to the
    fitted curve for the expected payoff of jumping there, already scaled
    by descendant count and net of cost. Layers 1..G-1 are present; the
    leaf layer always stops.
    """

    tree: TreeConfig
    lam: float
    q_train: float
    continuation: dict
    seed: int | None = None
    num_paths: int | None = None
    grid: dict | None = None
    _regions: dict = field(default_factory=dict, repr=False)

    def decision_regions(self, layer: int):
        """(bounds, actions) arrays describing decide_batch() as a step function."""
        if not 1 <= layer <= self.tree.num_layers:
            raise ValueError(f"layer {layer} outside 1..{self.tree.num_layers}")
        if layer == self.tree.num_layers:
            return np.empty(0), np.zeros(1, dtype=np.int64)
        if layer not in self._regions:
            self._regions[layer] = _build_regions(self.continuation[layer], self.lam)
        return self._regions[layer]

    def decide_batch(self, layer: int, xs) -> np.ndarray:
        """Action at a layer for each observed statistic: 0 or a deeper layer."""
        xs = np.asarray(xs, dtype=float)
        if not np.all(np.isfinite(xs)):
            raise ValueError("statistics must be finite")
        bounds, actions = self.decision_regions(layer)
        return _apply_regions(bounds, actions, xs)

    def follow(self, paths, start_layer: int = 1) -> np.ndarray:
        """(n, G) bool mask of the layers each path's decisions observe.

        ``paths[i, l - 1]`` is path i's statistic at layer l. The ``start_layer``
        node is observed; an observed node with action s > 0 makes the path's
        layer-s node observed, and action 0 ends the path. One ``decide_batch``
        call per layer, on the rows that reach it, reads only observed statistics.
        """
        x = np.asarray(paths, dtype=float)
        G = self.tree.num_layers
        if x.ndim != 2 or x.shape[1] != G:
            raise ValueError(f"paths must be (n, {G})")
        if not 1 <= start_layer <= G:
            raise ValueError(f"start_layer must lie in 1..{G}")
        seen = np.zeros(x.shape, dtype=bool)
        at = np.full(x.shape[0], start_layer, dtype=np.int64)  # the layer reached, 0 stopped
        for layer in range(start_layer, G):
            here = seen[:, layer - 1] = at == layer
            if here.any():
                at[here] = self.decide_batch(layer, x[here, layer - 1])
        seen[:, G - 1] = at == G
        return seen


def sample_paths(model, n: int, seed) -> np.ndarray:
    """Draw n paths as an (n, G) array from the model's batch sampler."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    return np.asarray(model.sample_path_values_batch(n, rng), dtype=float)


class DegenerateTraining(ValueError):
    """No training path reaches the leaf threshold, so every fitted strategy would stop at once."""


def training_exceedances(paths: np.ndarray, q_train: float, quantile: float) -> int:
    """Training paths whose leaf statistic reaches ``q_train``, the null ``quantile``.

    Raises DegenerateTraining when there are none.
    """
    exceed = int((paths[:, -1] >= q_train).sum())
    if exceed == 0:
        raise DegenerateTraining(
            f"no training path reaches the leaf threshold {q_train:.4f} (quantile "
            f"{quantile}); every strategy would stop immediately. Lower "
            f"--qtrain-quantile or raise --paths.")
    return exceed


def _as_path_matrix(paths, num_layers: int) -> np.ndarray:
    x = np.asarray(paths, dtype=float)
    if x.ndim != 2 or x.shape[1] != num_layers:
        raise ValueError(f"paths must be (n, {num_layers})")
    if x.shape[0] < 2:
        raise ValueError("need at least 2 paths")
    if not np.all(np.isfinite(x)):
        raise ValueError("path statistics must all be finite")
    return x


def fit_strategy(paths, cfg: FitConfig, seed=None) -> Strategy:
    """Fit a strategy from sampled paths by backward induction.

    Parameters
    ----------
    paths : (n, G) array
        Statistics along independently sampled root-to-leaf paths.
    cfg : FitConfig
        Tree shape, cost weight lambda, and training threshold q_train.
    seed : optional
        Recorded as provenance metadata only.

    Returns
    -------
    Strategy

    Notes
    -----
    Leaf payoffs start as the indicator of reaching q_train (``>=``).
    For layer l and jump target s the regression targets are
    ``B(l,s) * (payoff_s - lam * cost_s)`` against the layer-l statistic,
    where B(l,s) is the number of layer-s descendants; the monotone fit of
    those targets is the continuation-value curve. A layer whose sampled
    statistics are all identical is flagged and fitted as a constant.
    """
    tree = cfg.tree
    G = tree.num_layers
    x = _as_path_matrix(paths, G)
    n = x.shape[0]

    payoff = {G: (x[:, G - 1] >= cfg.q_train).astype(float)}
    continuation = {}
    regions = {}
    for layer in range(G - 1, 0, -1):
        xs = x[:, layer - 1]
        if np.all(xs == xs[0]):
            warnings.warn(f"layer {layer}: all sampled statistics identical, fit is constant")
        # one sort per layer serves every jump target's regression
        order = np.argsort(xs, kind="stable")
        xs_sorted = xs[order]
        fns = {}
        scaled = {}
        for s in range(layer + 1, G + 1):
            b = float(descendant_count(tree, layer, s))
            target = b * (payoff[s] - cfg.lam * tree.cost(s))
            fns[s] = pava(xs_sorted, target[order])
            scaled[s] = target
        bounds, actions = _build_regions(fns, cfg.lam)
        regions[layer] = bounds, actions
        act = _apply_regions(bounds, actions, xs)
        p = np.zeros(n)
        for s in scaled:
            hit = act == s
            p[hit] = scaled[s][hit]
        payoff[layer] = p
        continuation[layer] = fns

    return Strategy(tree=tree, lam=cfg.lam, q_train=cfg.q_train, continuation=continuation,
                    seed=seed, num_paths=n, _regions=regions)


def path_payoff(values, strategy: Strategy, lam: float, q: float,
                start_layer: int) -> float:
    """Payoff of one path under a strategy, scaled to stand for the subtree.

    The layers visited from an observed node at ``start_layer`` are those
    ``Strategy.follow`` marks. Each visited layer s below it contributes
    ``-lam * B(start,s) * cost_s``, in layer order; reaching the leaf layer
    adds ``B(start,G)`` when the leaf statistic reaches q (``>= q``).
    """
    G = strategy.tree.num_layers
    if not 1 <= start_layer < G:
        raise ValueError(f"start_layer must lie in 1..{G - 1}")
    values = np.asarray(values, dtype=float)
    seen = strategy.follow(values.reshape(1, -1), start_layer)[0]
    total = 0.0
    for s in np.flatnonzero(seen)[1:] + 1:  # the visited layers below the start, in order
        total -= lam * descendant_count(strategy.tree, start_layer, s) * strategy.tree.cost(s)
    if seen[G - 1] and values[G - 1] >= q:
        total += descendant_count(strategy.tree, start_layer, G)
    return total


def strategy_to_dict(strategy: Strategy) -> dict:
    """Plain-JSON form of a strategy; floats survive a round-trip exactly."""
    doc = {
        "format_version": FORMAT_VERSION,
        "tree": {
            "G": strategy.tree.num_layers,
            "n1": strategy.tree.root_count,
            "branching": list(strategy.tree.branching),
            "costs": list(strategy.tree.costs),
        },
        "lambda": strategy.lam,
        "q_train": strategy.q_train,
        "layers": [
            {
                "layer": layer,
                "actions": [
                    {
                        "s": s,
                        "breakpoints": strategy.continuation[layer][s].breakpoints.tolist(),
                        "levels": strategy.continuation[layer][s].levels.tolist(),
                    }
                    for s in sorted(strategy.continuation[layer])
                ],
            }
            for layer in sorted(strategy.continuation)
        ],
        "seed": strategy.seed,
        "num_paths": strategy.num_paths,
    }
    if strategy.grid is not None:
        doc["grid"] = dict(strategy.grid)
    return doc


def strategy_from_dict(doc: dict) -> Strategy:
    if not isinstance(doc, dict):
        raise ValueError(f"strategy must be a JSON object, not {type(doc).__name__}")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported strategy format_version: {doc.get('format_version')!r}")
    try:
        t = doc["tree"]
        tree = TreeConfig(num_layers=int(t["G"]), root_count=int(t["n1"]),
                          branching=tuple(t["branching"]), costs=tuple(t["costs"]))
        continuation = {}
        for entry in doc["layers"]:
            layer = int(entry["layer"])
            fns = {}
            for act in entry["actions"]:
                fns[int(act["s"])] = MonotoneFn(np.asarray(act["breakpoints"], dtype=float),
                                                np.asarray(act["levels"], dtype=float))
            continuation[layer] = fns
        lam, q_train = float(doc["lambda"]), float(doc["q_train"])
    except KeyError as exc:
        raise ValueError(f"strategy lacks {exc}") from exc
    except TypeError as exc:  # a field of the wrong JSON type, such as a list for "tree"
        raise ValueError(f"strategy has a malformed field: {exc}") from exc
    expected = set(range(1, tree.num_layers))
    if set(continuation) != expected:
        raise ValueError("strategy file must define layers 1..G-1")
    for layer, fns in continuation.items():
        if set(fns) != set(range(layer + 1, tree.num_layers + 1)):
            raise ValueError(f"layer {layer} must define actions for every deeper layer")
    return Strategy(tree=tree, lam=lam, q_train=q_train,
                    continuation=continuation, seed=doc.get("seed"),
                    num_paths=doc.get("num_paths"), grid=doc.get("grid"))


def save_strategy(path, strategy: Strategy) -> None:
    with open(path, "w") as fh:
        json.dump(strategy_to_dict(strategy), fh, indent=1)
        fh.write("\n")


def load_strategy(path) -> Strategy:
    with open(path) as fh:
        return strategy_from_dict(json.load(fh))
