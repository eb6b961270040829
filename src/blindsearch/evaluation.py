"""Power/cost evaluation: tradeoff curves, exact small-tree optimum, benchmarks.

``estimate_tradeoff`` reproduces the headline experiment at desk scale in
three phases:

- fits: one sample of null paths fits one strategy per lambda;
- null costs: on each global-null dataset the strategies walk the tree in
  turn over one evaluator that computes each node once and keeps its value
  (16 B per computed non-leaf node, for the length of one sim), and no
  leaf statistic is computed, since a cost reads none. It returns a
  (lambda, sim) cost matrix;
- power hits: a sim injects a signal at pulsed fraction theta and walks no
  tree: it computes the leaves of the success window around the signal and
  their ancestors, and follows each strategy's decisions down those
  chains. It returns (theta, sim, lambda) strategy hits and (theta, sim)
  hits of the exhaustive leaf sweep.

Only the last phase depends on theta, so paths, fits and null datasets are
made once for all thetas. The curve is array arithmetic over the phases'
results: cost and power relative to the sweep.
Progress goes to the ``blindsearch.evaluation`` logger at INFO.

``exact_dp_oracle`` computes the true optimal value function on small
reference trees with closed-form conditional laws by numerically
integrating the backward recursion over a discretized state space; the
Monte-Carlo fitter is validated against it.
"""

from __future__ import annotations

import functools
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .engine import (GridSpec, PulsarGrid, PulsarEvaluator, default_q_reject, run_search)
from .fit import FitConfig, fit_strategy, sample_paths, training_exceedances
from .models import GaussianChainModel, PulsarNullModel
from .stats import FreqDrift, SignalSpec, chi2_2_quantile, rayleigh_power, simulate_photons
from .tree import descendant_count, nodes_in_layer
from .util import resolve_workers, subseed

_log = logging.getLogger(__name__)

REFERENCE_FD = FreqDrift(omega=9.761175993, omegadot=-8.827879e-12)
REFERENCE_SPAN = 1205197.0
REFERENCE_PHOTONS = 1072
_ORACLE_SPAN = 8.0  # the oracle's state cells cover at least [-8, 8] standard deviations


@dataclass(frozen=True)
class TradeoffPoint:
    """One lambda on the tradeoff curve, fractions relative to naive."""

    lam: float
    cost_fraction: float
    power_fraction: float
    cost_se: float
    power_se: float
    n_sims: int


@dataclass(frozen=True)
class TradeoffConfig:
    """Everything estimate_tradeoff needs besides the lambda and theta grids.

    Without ``q_reject`` the threshold is ``default_q_reject`` of the grid's tree;
    a NaN threshold is rejected here, before any path is sampled.
    """

    grid: GridSpec
    span: float
    num_photons: int
    num_paths: int
    qtrain_quantile: float
    q_reject: float | None = None

    def __post_init__(self):
        if not self.span > 0:
            raise ValueError("span must be positive")
        if not 0.0 < self.qtrain_quantile < 1.0:
            raise ValueError("qtrain_quantile must lie in (0, 1)")
        if self.num_paths < 2:
            raise ValueError("num_paths must be >= 2")
        if self.q_reject is not None and math.isnan(self.q_reject):
            raise ValueError("q_reject must not be NaN")


DESK_NUM_LAYERS = 9
DESK_SPAN = REFERENCE_SPAN / 32.0
# Dense where the curve bends: between 3e-2 and 1e-1 the null cost drops
# through the percent range while power is still near the sweep.
DESK_LAMBDAS = (0.0, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
                5e-2, 5.5e-2, 6e-2, 6.5e-2, 1e-1)
DESK_THETAS = (0.24, 0.34, 0.5)


def desk_scale_config() -> TradeoffConfig:
    """Scaled-down benchmark: same photon budget, 1/32 of the span.

    Frequencies 1..5 Hz and a drift range that sits inside one leaf drift
    cell at this span, giving a few-hundred-thousand-leaf tree whose
    exhaustive sweep is still computable as ground truth.
    """
    grid = GridSpec(omega_min=1.0, omega_max=5.0, omegadot_min=-5e-11, omegadot_max=0.0,
                    num_layers=DESK_NUM_LAYERS, oversampling=3)
    return TradeoffConfig(grid=grid, span=DESK_SPAN, num_photons=REFERENCE_PHOTONS,
                          num_paths=100_000, qtrain_quantile=0.99)


def leaf_window(grid: PulsarGrid, fd: FreqDrift, radius_omega: float,
                radius_omegadot: float) -> np.ndarray:
    """Leaf indices whose parameters lie within the success radius of fd."""
    nw, w0, dw = grid.leaf_lattice(0)
    nd, d0, dd = grid.leaf_lattice(1)
    kw_lo = max(0, math.floor((fd.omega - radius_omega - w0) / dw) - 1)
    kw_hi = min(nw - 1, math.ceil((fd.omega + radius_omega - w0) / dw) + 1)
    kd_lo = max(0, math.floor((fd.omegadot - radius_omegadot - d0) / dd) - 1)
    kd_hi = min(nd - 1, math.ceil((fd.omegadot + radius_omegadot - d0) / dd) + 1)
    if kw_hi < kw_lo or kd_hi < kd_lo:
        return np.empty(0, dtype=np.int64)
    kw = np.arange(kw_lo, kw_hi + 1)
    kd = np.arange(kd_lo, kd_hi + 1)
    kwg, kdg = np.meshgrid(kw, kd, indexing="ij")
    idx = grid.leaf_index(kwg.ravel(), kdg.ravel())
    om, od = grid.node_params(grid.spec.num_layers, idx)
    keep = (np.abs(om - fd.omega) <= radius_omega) & (np.abs(od - fd.omegadot) <= radius_omegadot)
    return idx[keep]


class _SimEvaluator:
    """A null dataset's evaluator as cost sims read it: each node computed once.

    Above the leaf layer it keeps, per layer, the sorted indices it has
    computed and their values (16 B a node), and forwards only the unseen
    indices of a call to ``evaluator``, in one ``evaluate`` call. A
    node's value does not depend on the call, so every strategy walked
    over it reads the values it would read alone. ``nodes`` counts the
    nodes computed. Every leaf reads 0.0: a cost counts the nodes a
    strategy observes, and leaves take no action, so no cost depends on a
    leaf's value.
    """

    def __init__(self, evaluator):
        self.evaluator = evaluator
        self.tree = evaluator.tree
        self.nodes = 0
        self.known = {}  # layer -> (sorted computed indices, their values)

    def evaluate(self, layer, indices):
        indices = np.asarray(indices, dtype=np.int64)
        if layer == self.tree.num_layers:
            return np.zeros(indices.size)
        keys, vals = self.known.get(layer, (np.empty(0, dtype=np.int64), np.empty(0)))
        at = np.searchsorted(keys, indices)
        seen = np.zeros(indices.size, dtype=bool)
        inside = at < keys.size
        seen[inside] = keys[at[inside]] == indices[inside]
        if not seen.all():
            new = np.unique(indices[~seen])
            where = np.searchsorted(keys, new)
            keys = np.insert(keys, where, new)
            vals = np.insert(vals, where, self.evaluator.evaluate(layer, new))
            self.known[layer] = keys, vals
            self.nodes += new.size
            at = np.searchsorted(keys, indices)
        return vals[at]


def _cost_sim(task, state):
    """(search cost per lambda, node counts) on one global-null dataset.

    Each lambda's strategy walks the dataset in turn, by ``run_search``
    on one ``_SimEvaluator``, which computes each node once and no leaf.
    The counts are (nodes computed, nodes the strategies observed in all).
    """
    i, seed = task
    grid = state["grid"]
    photons = simulate_photons(
        SignalSpec(REFERENCE_FD, 0.0, state["num_photons"], grid.span), subseed(seed, 1, i))
    ev = _SimEvaluator(PulsarEvaluator(photons, grid))
    outcomes = [run_search(s, ev, state["q_reject"]) for s in state["strategies"]]
    return ([o.total_cost for o in outcomes],
            (ev.nodes, sum(int(o.per_layer_observed.sum()) for o in outcomes)))


def _power_sim(task, state):
    """(hit per lambda, sweep hit, nodes computed) on one injection at pulsed fraction theta.

    A hit is a detected leaf in the success window around the truth; the
    sweep hit is a window leaf at or above q_reject. A window leaf is
    observed exactly when the strategy's decisions along its unique
    chain of ancestors, from layer 1, which is always observed, lead to
    it, so a hit reads only the window leaves and their ancestors. Each
    layer's unique ancestors of the window are computed in one
    ``evaluate`` call, and each strategy follows every leaf's chain with
    ``Strategy.follow``. No tree is walked. An empty window computes
    nothing and hits nothing.
    """
    i, seed, theta = task
    grid = state["grid"]
    spec = grid.spec
    tree = grid.tree
    G = tree.num_layers
    strategies = state["strategies"]
    rng = np.random.default_rng(subseed(seed, 2, i))
    fd = FreqDrift(omega=rng.uniform(spec.omega_min, spec.omega_max),
                   omegadot=rng.uniform(spec.omegadot_min, spec.omegadot_max))
    photons = simulate_photons(
        SignalSpec(fd, theta, state["num_photons"], grid.span), subseed(seed, 3, i))
    window = leaf_window(grid, fd, 1.0 / grid.span, 1.0 / grid.span ** 2)
    if not window.size:
        return [False] * len(strategies), False, 0
    ev = PulsarEvaluator(photons, grid)
    chains = np.empty((window.size, G))  # each window leaf's ancestor values, by layer
    nodes = 0
    for layer in range(1, G + 1):
        ancestors, of_leaf = np.unique(window // descendant_count(tree, layer, G),
                                       return_inverse=True)
        vals = ev.evaluate(layer, ancestors)
        if not np.all(np.isfinite(vals)):
            raise ValueError("evaluator produced non-finite statistics")
        nodes += ancestors.size
        chains[:, layer - 1] = vals[of_leaf]
    detected = chains[:, -1] >= state["q_reject"]
    hits = [bool(np.any(detected & strategy.follow(chains)[:, -1])) for strategy in strategies]
    return hits, bool(detected.any()), nodes


def _map_sims(fn, tasks, workers, phase: str):
    """Results of ``fn`` over ``tasks`` in order, logging progress about every tenth."""
    step = max(1, len(tasks) // 10)

    def logged(results):
        done = []
        for result in results:
            done.append(result)
            if len(done) % step == 0 or len(done) == len(tasks):
                _log.info("%s sims: %d/%d done", phase, len(done), len(tasks))
        return done

    if workers <= 1 or len(tasks) < 2:
        return logged(fn(t) for t in tasks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return logged(pool.map(fn, tasks, chunksize=max(1, len(tasks) // (4 * workers))))


def _fit_strategies(cfg: TradeoffConfig, grid: PulsarGrid, lambdas, seed):
    """The null paths drawn on ``subseed(seed, 0)`` and one strategy per lambda fitted from them."""
    q_train = chi2_2_quantile(cfg.qtrain_quantile)
    paths = sample_paths(PulsarNullModel(grid, cfg.num_photons), cfg.num_paths, subseed(seed, 0))
    training_exceedances(paths, q_train, cfg.qtrain_quantile)
    return paths, [fit_strategy(paths, FitConfig(grid.tree, lam, q_train)) for lam in lambdas]


def _null_costs(state, n_sims: int, seed, workers) -> np.ndarray:
    """(lambda, sim) search costs on the null datasets.

    Each strategy's row is C-contiguous, so its mean and std sum in the
    order of a 1-D array of its costs.
    """
    sims = _map_sims(functools.partial(_cost_sim, state=state),
                     [(i, seed) for i in range(n_sims)], workers, "cost")
    evaluated = sum(n for _, (n, _) in sims)
    observed = sum(n for _, (_, n) in sims)
    _log.info("cost sims: %d nodes evaluated for %d observed by the strategies (%.3f)",
              evaluated, observed, evaluated / observed)
    return np.ascontiguousarray(np.array([costs for costs, _ in sims], dtype=float).T)


def _power_hits(state, thetas, n_sims: int, seed, workers):
    """(theta, sim, lambda) strategy hits and (theta, sim) sweep hits on the injections."""
    sims = _map_sims(functools.partial(_power_sim, state=state),
                     [(i, seed, theta) for theta in thetas for i in range(n_sims)],
                     workers, "power")
    _log.info("power sims: %d nodes evaluated", sum(n for _, _, n in sims))
    shape = (len(thetas), n_sims)
    hits = np.array([h for h, _, _ in sims], dtype=bool).reshape(*shape, len(state["strategies"]))
    return hits, np.array([sweep for _, sweep, _ in sims], dtype=bool).reshape(shape)


def estimate_tradeoff(lambdas, thetas, cfg: TradeoffConfig, n_sims: int, seed,
                      workers=None) -> list:
    """Tradeoff curves, one list of points per theta, in the order given.

    Runs the three phases of the module docstring: fits, null costs and
    power hits. A point's cost fraction is its strategy's mean null cost
    over the sweep's cost; its power fraction is the strategy's hit rate
    over the sweep's, NaN when the sweep never hits. Injections draw a
    uniform true (omega, omegadot); success means detecting a leaf within
    1/span in frequency and 1/span^2 in drift of the truth. Every lambda
    runs on the same datasets, so each curve is internally paired, and the
    injections at different thetas share their true parameters.
    Each lambda's point equals the one a full walk that computes every
    leaf gives it alone. Deterministic for a given seed, independent of
    the worker count. When no training path reaches the training
    threshold it raises ``DegenerateTraining`` before any fit.

    Logs at INFO, per phase (cost sims, then power sims), the sims done
    out of the total and, at the phase's end, the nodes whose statistic
    was computed; the cost phase puts it next to the sum of the nodes the
    strategies observed.
    """
    if n_sims < 2:
        raise ValueError("n_sims must be >= 2")
    lambdas = [float(lam) for lam in lambdas]
    thetas = [float(theta) for theta in thetas]
    if not all(math.isfinite(lam) and lam >= 0.0 for lam in lambdas):
        raise ValueError("every lambda must be finite and >= 0")
    if not all(0.0 <= theta <= 1.0 for theta in thetas):
        raise ValueError("every theta must lie in [0, 1]")
    workers = resolve_workers(workers)
    grid = PulsarGrid(cfg.grid, cfg.span)
    tree = grid.tree
    q_reject = default_q_reject(tree) if cfg.q_reject is None else cfg.q_reject
    # ``paths`` is held until the curve is done: freed before the sims, its
    # memory lets glibc trim the heap, and the sims fault it in again (about
    # 4,300 minor faults per op of the benchmark's tradeoff workload, 900 held)
    paths, strategies = _fit_strategies(cfg, grid, lambdas, seed)
    state = {"grid": grid, "strategies": strategies, "num_photons": cfg.num_photons,
             "q_reject": q_reject}
    null_costs = _null_costs(state, n_sims, seed, workers)
    hits, sweeps = _power_hits(state, thetas, n_sims, seed, workers)

    naive_cost = nodes_in_layer(tree, tree.num_layers) * tree.cost(tree.num_layers)
    cost = null_costs.mean(axis=1) / naive_cost
    cost_se = null_costs.std(axis=1, ddof=1) / math.sqrt(n_sims) / naive_cost
    p = hits.mean(axis=1)
    rate = sweeps.mean(axis=1)
    with np.errstate(invalid="ignore"):  # a sweep that never hits leaves 0 / 0
        power = p / rate[:, None]
        power_se = np.sqrt(p * (1 - p) / n_sims) / rate[:, None]
    # NaN fields are math.nan itself, so that points compare equal by identity
    return [[TradeoffPoint(lam=lam, cost_fraction=float(cost[k]),
                           power_fraction=float(power[t, k]) if rate[t] > 0 else math.nan,
                           cost_se=float(cost_se[k]),
                           power_se=float(power_se[t, k]) if rate[t] > 0 else math.nan,
                           n_sims=n_sims)
             for k, lam in enumerate(lambdas)]
            for t in range(len(thetas))]


def write_tradeoff_csv(path, points) -> None:
    """Curve as CSV: lambda, cost_fraction, power_fraction, cost_se, power_se, n_sims."""
    with open(path, "w") as fh:
        fh.write("lambda,cost_fraction,power_fraction,cost_se,power_se,n_sims\n")
        for p in points:
            fh.write(f"{p.lam!r},{p.cost_fraction!r},{p.power_fraction!r},"
                     f"{p.cost_se!r},{p.power_se!r},{p.n_sims}\n")


def naive_power_check(theta: float, num_photons: int, q_reject: float, n_sims: int,
                      seed, fd: FreqDrift = REFERENCE_FD,
                      span: float = REFERENCE_SPAN):
    """MC estimate of the exhaustive search's per-signal detection power.

    Simulates modulated series and evaluates the full-coherence statistic
    at the exact true parameters; a statistic at or above ``q_reject``
    is a detection. Returns (power, standard error).
    """
    if n_sims < 1:
        raise ValueError("n_sims must be >= 1")
    spec = SignalSpec(fd, theta, num_photons, span)
    hits = 0
    for i in range(n_sims):
        photons = simulate_photons(spec, subseed(seed, i))
        if rayleigh_power(photons, fd) >= q_reject:
            hits += 1
    p = hits / n_sims
    return p, math.sqrt(max(p * (1 - p), 1.0 / n_sims) / n_sims)


@dataclass(frozen=True)
class OracleResult:
    """Exact optimum on a reference tree: value tables and expected payoff."""

    centers: np.ndarray
    layer_values: list
    layer_actions: list
    expected_root_value: float
    total_payoff: float
    lam: float
    q: float


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of an array, elementwise: 0.5 * erfc(-x / sqrt(2)) by ``math.erfc``."""
    return 0.5 * np.frompyfunc(math.erfc, 1, 1)(x * -math.sqrt(0.5)).astype(float)


def exact_dp_oracle(model: GaussianChainModel, lam: float, q: float,
                    n_grid: int = 200) -> OracleResult:
    """Optimal value function by backward induction on a discretized state.

    Restricted to small reference trees (at most 4 layers, 256 leaves,
    200 grid cells): the state space is binned with a cell edge pinned at
    q, conditional layer-to-layer laws are integrated exactly within the
    discretization, and the recursion maximizes over stop and every jump
    target with the same tie rule the fitted strategies use.
    """
    tree = model.tree
    G = tree.num_layers
    if G > 4:
        raise ValueError("oracle restricted to trees of at most 4 layers")
    if nodes_in_layer(tree, G) > 256:
        raise ValueError("oracle restricted to trees of at most 256 leaves")
    if not 2 <= n_grid <= 200:
        raise ValueError("n_grid must lie in 2..200")
    if not lam >= 0:
        raise ValueError("lam must be >= 0")
    if not math.isfinite(q):
        raise ValueError(f"q must be finite, not {q!r}")
    h = 2.0 * _ORACLE_SPAN / n_grid
    k_down = math.ceil((q + _ORACLE_SPAN) / h)
    k_up = max(1, math.ceil((_ORACLE_SPAN - q) / h))
    edges = q + h * np.arange(-k_down, k_up + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])

    values = {G: (centers >= q).astype(float)}
    actions = {}
    for layer in range(G - 1, 0, -1):
        qs = []
        targets = list(range(layer + 1, G + 1))
        for s in targets:
            a, sd = model.transition(layer, s)
            cdf = _ndtr((edges[None, :] - a * centers[:, None]) / sd)
            trans = np.diff(cdf, axis=1)
            b = descendant_count(tree, layer, s)
            qs.append(b * (trans @ values[s] - lam * tree.cost(s)))
        qs = np.vstack(qs)
        best = qs.max(axis=0)
        if lam == 0.0:
            # with no cost every target is worth the expected detections
            # below the node: a tie that rounding would break, so the deepest
            # target takes it
            act = np.full(centers.size, G, dtype=np.int64)
        else:
            act = np.zeros(centers.size, dtype=np.int64)
            for i, s in enumerate(targets):
                act[(best > 0.0) & (qs[i] == best)] = s
        values[layer] = np.maximum(best, 0.0)
        actions[layer] = act

    weights = np.diff(_ndtr(edges))
    expected = float(weights @ values[1])
    return OracleResult(centers=centers,
                        layer_values=[values[l] for l in range(1, G + 1)],
                        layer_actions=[actions[l] for l in range(1, G)],
                        expected_root_value=expected,
                        total_payoff=tree.root_count * expected,
                        lam=lam, q=q)


def tree_payoff_batch(strategy, layer_values, q: float):
    """Exact per-realization payoff of a strategy on materialized trees.

    ``layer_values[l-1]`` holds (n_sims, nodes_in_layer) statistics.
    Returns (payoffs, costs, detections) arrays over realizations; the
    payoff counts observed leaves at or above q minus lambda times the
    observation cost of layers below the roots.
    """
    tree = strategy.tree
    G = tree.num_layers
    n_sims = layer_values[0].shape[0]
    observed = {1: np.ones_like(layer_values[0], dtype=bool)}
    for layer in range(2, G + 1):
        observed[layer] = np.zeros_like(layer_values[layer - 1], dtype=bool)
    for layer in range(1, G):
        vals = layer_values[layer - 1]
        acts = strategy.decide_batch(layer, vals.ravel()).reshape(vals.shape)
        for s in range(layer + 1, G + 1):
            mask = observed[layer] & (acts == s)
            if mask.any():
                b = descendant_count(tree, layer, s)
                observed[s] |= np.repeat(mask, b, axis=1)
    costs = np.zeros(n_sims)
    for layer in range(2, G + 1):
        costs += tree.cost(layer) * observed[layer].sum(axis=1)
    detections = (observed[G] & (layer_values[G - 1] >= q)).sum(axis=1)
    return detections - strategy.lam * costs, costs, detections


def fitted_payoff_estimate(strategy, model: GaussianChainModel, q: float,
                           n_sims: int, seed):
    """Mean payoff of a fitted strategy over fresh full-tree simulations."""
    if n_sims < 2:
        raise ValueError(f"n_sims must be >= 2, not {n_sims!r}")
    rng = np.random.default_rng(subseed(seed, 17))
    vals = model.sample_tree_batch(n_sims, rng)
    payoffs, _, _ = tree_payoff_batch(strategy, vals, q)
    return float(payoffs.mean()), float(payoffs.std(ddof=1) / math.sqrt(n_sims))
