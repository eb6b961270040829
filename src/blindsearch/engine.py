"""Search execution over layered hypothesis trees.

An evaluator computes the layer statistic for batches of node indices;
``run_search`` drives a fitted strategy over it from layer 1, and
``naive_search`` sweeps the leaf layer exhaustively. Both run the same
batched walker, which holds pending work as index ranges, never as the
tree itself. The concrete evaluator for pulsar-style data
maps node indices to (frequency, drift) hypotheses on a dyadic grid and
scores them with the blocked statistic matched to the layer.

Evaluator protocol (duck-typed): a ``tree`` attribute carrying the
TreeConfig, and ``evaluate(layer, indices) -> values`` accepting an int64
index array. Implementations may also provide
``node_params(layer, indices) -> (omega, omegadot)`` for reporting.
Evaluation must be deterministic given the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .stats import TWO_PI, PhotonSeries, block_edges
from .tree import NodeId, TreeConfig, descendant_count, nodes_in_layer

_MAX_ENGINE_NODES = 1 << 62  # numpy int64 indexing; tree.py itself has no such limit


@dataclass(frozen=True)
class GridSpec:
    """Search box and layering for a frequency/drift grid.

    The leaf layer samples frequency at 1/(oversampling*T) and drift at
    1/(oversampling^2*T^2); each coarser layer doubles the frequency
    spacing and quadruples the drift spacing, matching the resolution of
    the blocked statistic used there.
    """

    omega_min: float
    omega_max: float
    omegadot_min: float = 0.0
    omegadot_max: float = 0.0
    num_layers: int = 5
    oversampling: int = 3

    def __post_init__(self):
        if not 0 < self.omega_min <= self.omega_max:
            raise ValueError("need 0 < omega_min <= omega_max")
        if self.omegadot_min > self.omegadot_max:
            raise ValueError("need omegadot_min <= omegadot_max")
        if self.num_layers < 2:
            raise ValueError("num_layers must be >= 2")
        if self.oversampling < 1:
            raise ValueError("oversampling must be >= 1")


class PulsarGrid:
    """Geometry of the layered (omega, omegadot) lattice for one span.

    Roots tile the search box at the layer-1 spacing, centered on the
    box; children refine position by half-spacing offsets. A dimension
    only splits while its next-layer spacing still fits inside the box,
    so a degenerate drift range yields pure frequency branching and the
    full-resolution case is 8-ary (2 frequency x 4 drift). Children near
    the box edge may probe slightly outside it.
    """

    def __init__(self, spec: GridSpec, span: float, costs=None):
        if not span > 0:
            raise ValueError("span must be positive")
        self.spec = spec
        self.span = float(span)
        G = spec.num_layers
        osf = spec.oversampling
        self.d_omega = np.array([2.0 ** (G - l) / (osf * span) for l in range(1, G + 1)])
        self.d_omegadot = np.array(
            [4.0 ** (G - l) / (osf * osf * span * span) for l in range(1, G + 1)])
        w_span = spec.omega_max - spec.omega_min
        d_span = spec.omegadot_max - spec.omegadot_min
        self.freq_factor = tuple(2 if w_span > self.d_omega[l] else 1 for l in range(1, G))
        self.drift_factor = tuple(4 if d_span > self.d_omegadot[l] else 1 for l in range(1, G))
        branching = tuple(f * d for f, d in zip(self.freq_factor, self.drift_factor))
        self.n1_omega = max(1, math.ceil(w_span / self.d_omega[0])) if w_span > 0 else 1
        self.n1_omegadot = max(1, math.ceil(d_span / self.d_omegadot[0])) if d_span > 0 else 1
        n1 = self.n1_omega * self.n1_omegadot
        if costs is None:
            costs = (1.0,) * G
        self.tree = TreeConfig(num_layers=G, root_count=n1, branching=branching, costs=costs)
        if nodes_in_layer(self.tree, G) >= _MAX_ENGINE_NODES:
            raise ValueError("grid too large for engine indexing")
        mid_w = 0.5 * (spec.omega_min + spec.omega_max)
        mid_d = 0.5 * (spec.omegadot_min + spec.omegadot_max)
        self.omega_start = mid_w - 0.5 * self.n1_omega * self.d_omega[0]
        self.omegadot_start = mid_d - 0.5 * self.n1_omegadot * self.d_omegadot[0]

    def kappa(self, layer: int) -> int:
        """Blocking exponent at a layer: leaves are fully coherent."""
        return self.spec.num_layers - layer

    def node_params(self, layer: int, indices):
        """(omega, omegadot) arrays for node indices in a layer."""
        G = self.spec.num_layers
        if not 1 <= layer <= G:
            raise ValueError(f"layer {layer} outside 1..{G}")
        v = np.asarray(indices, dtype=np.int64)
        if v.size and (v.min() < 0 or v.max() >= nodes_in_layer(self.tree, layer)):
            raise ValueError("node index out of range")
        omega = np.zeros(v.shape)
        omegadot = np.zeros(v.shape)
        for j in range(layer - 1, 0, -1):
            b = self.tree.branching[j - 1]
            v, c = np.divmod(v, b)
            fd = self.drift_factor[j - 1]
            fw = self.freq_factor[j - 1]
            iw, idot = np.divmod(c, fd)
            omega += (iw - 0.5 * (fw - 1)) * self.d_omega[j]
            omegadot += (idot - 0.5 * (fd - 1)) * self.d_omegadot[j]
        rw, rd = np.divmod(v, self.n1_omegadot)
        omega += self.omega_start + (rw + 0.5) * self.d_omega[0]
        omegadot += self.omegadot_start + (rd + 0.5) * self.d_omegadot[0]
        return omega, omegadot

    def to_dict(self) -> dict:
        s = self.spec
        return {"omega_min": s.omega_min, "omega_max": s.omega_max,
                "omegadot_min": s.omegadot_min, "omegadot_max": s.omegadot_max,
                "num_layers": s.num_layers, "oversampling": s.oversampling,
                "span": self.span}

    @classmethod
    def from_dict(cls, doc: dict, costs=None) -> "PulsarGrid":
        spec = GridSpec(omega_min=doc["omega_min"], omega_max=doc["omega_max"],
                        omegadot_min=doc["omegadot_min"], omegadot_max=doc["omegadot_max"],
                        num_layers=int(doc["num_layers"]), oversampling=int(doc["oversampling"]))
        return cls(spec, doc["span"], costs=costs)


class PulsarEvaluator:
    """Blocked-statistic evaluator for one photon series on a PulsarGrid."""

    _row_chunk = 1024  # bounds the (rows x photons) phase matrix

    def __init__(self, photons: PhotonSeries, grid: PulsarGrid):
        if abs(photons.span - grid.span) > 1e-9 * grid.span:
            raise ValueError("photon span does not match the grid span")
        self.photons = photons
        self.grid = grid
        self.tree = grid.tree
        self._t = photons.times
        self._ht2 = 0.5 * photons.times ** 2
        self._starts = {}
        for layer in range(1, grid.spec.num_layers + 1):
            k = grid.kappa(layer)
            if k > 0 and k not in self._starts:
                edges = block_edges(photons.span, k)
                st = np.searchsorted(self._t, edges[:-1], side="left")
                self._starts[k] = (st, np.append(st[1:], photons.count))

    def node_params(self, layer: int, indices):
        return self.grid.node_params(layer, indices)

    def evaluate(self, layer: int, indices) -> np.ndarray:
        """Statistic F^kappa at each node, kappa matched to the layer."""
        v = np.asarray(indices, dtype=np.int64)
        omega, omegadot = self.grid.node_params(layer, v)
        kappa = self.grid.kappa(layer)
        m = self.photons.count
        out = np.empty(v.shape)
        for lo in range(0, v.size, self._row_chunk):
            hi = min(lo + self._row_chunk, v.size)
            ph = omega[lo:hi, None] * self._t + omegadot[lo:hi, None] * self._ht2
            ph *= TWO_PI
            re = np.cos(ph)
            im = np.sin(ph)
            if kappa == 0:
                out[lo:hi] = re.sum(axis=1) ** 2 + im.sum(axis=1) ** 2
            else:
                starts, ends = self._starts[kappa]
                cre = np.concatenate([np.zeros((hi - lo, 1)), np.cumsum(re, axis=1)], axis=1)
                cim = np.concatenate([np.zeros((hi - lo, 1)), np.cumsum(im, axis=1)], axis=1)
                sre = cre[:, ends] - cre[:, starts]
                sim = cim[:, ends] - cim[:, starts]
                out[lo:hi] = (sre * sre + sim * sim).sum(axis=1)
        return 2.0 * out / m


def pulsar_evaluator(photons: PhotonSeries, grid: GridSpec, costs=None) -> PulsarEvaluator:
    """Build the grid for the photon span and wrap both in an evaluator."""
    return PulsarEvaluator(photons, PulsarGrid(grid, photons.span, costs=costs))


class ArrayEvaluator:
    """Evaluator over fully materialized per-layer value arrays (small trees)."""

    def __init__(self, tree: TreeConfig, values):
        self.tree = tree
        self.values = [np.asarray(v, dtype=float) for v in values]
        if len(self.values) != tree.num_layers:
            raise ValueError("need one value array per layer")
        for layer in tree.layers():
            if self.values[layer - 1].size != nodes_in_layer(tree, layer):
                raise ValueError(f"layer {layer} values have the wrong length")

    def evaluate(self, layer, indices):
        return self.values[layer - 1][np.asarray(indices, dtype=np.int64)]


def _splitmix64(x: np.ndarray) -> np.ndarray:
    z = x + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class SparsePeakEvaluator:
    """Synthetic evaluator: hashed exponential noise plus one planted lineage.

    Deterministic per (seed, layer, index) with O(1) state, so it can
    stand in for huge trees. The peak adds ``height`` to the planted
    leaf's ancestor at every layer.
    """

    def __init__(self, tree: TreeConfig, peak_leaf: int, height: float, seed: int = 0):
        self.tree = tree
        if not 0 <= peak_leaf < nodes_in_layer(tree, tree.num_layers):
            raise ValueError("peak_leaf out of range")
        self.peak_leaf = peak_leaf
        self.height = float(height)
        self.seed = int(seed)

    def evaluate(self, layer, indices):
        v = np.asarray(indices, dtype=np.int64)
        key = np.uint64(self.seed * 1315423911 + layer)
        bits = _splitmix64(v.astype(np.uint64) ^ _splitmix64(np.uint64([key]))[0])
        u = (bits >> np.uint64(11)) * (2.0 ** -53)
        vals = -2.0 * np.log1p(-u)
        anc = self.peak_leaf // descendant_count(self.tree, layer, self.tree.num_layers)
        vals = np.where(v == anc, vals + self.height, vals)
        return vals


_LOG_DTYPE = np.dtype([("layer", np.int64), ("index", np.int64),
                       ("statistic", np.float64), ("action", np.int64)])


@dataclass
class SearchOutcome:
    """Result of one search run.

    ``peak_tracked`` is the instrumented high-water mark of records held
    at once: the evaluate batch in flight, the pending ``[lo, hi)``
    ranges (one record each, however many nodes a range spans), the
    detections and the observed-log rows. Pending work never exists as
    one record per node, so the mark stays far below the leaf count on
    a pruned tree.

    ``observed_log``, when requested, is a numpy structured array with
    one row per observed node and the fields ``layer``, ``index``,
    ``statistic`` and ``action``, sorted by (layer, index).
    """

    detections: list
    per_layer_observed: np.ndarray
    total_cost: float
    peak_tracked: int
    observed_log: np.ndarray | None = None


def _walk(evaluator, decide, start: int, q_reject: float, chunk_size: int,
          emit_observed: bool = False) -> SearchOutcome:
    """Observe every ``start``-layer node and follow ``decide`` down the tree.

    Start-layer nodes are taken in consecutive groups of ``chunk_size``.
    Inside a group the layers run in order: a layer's pending ``[lo, hi)``
    ranges are sorted and cut into ``evaluate`` calls of at most
    ``chunk_size`` nodes, and ``decide(layer, values)`` maps each
    statistic to 0 (stop) or the deeper layer whose descendants become
    pending in turn. Leaves reaching ``q_reject`` are detections; the
    ordered groups and sorted ranges emit them in leaf-index order.
    """
    if math.isnan(q_reject):
        raise ValueError("q_reject must not be NaN")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    tree = evaluator.tree
    G = tree.num_layers
    n = nodes_in_layer(tree, start)
    if n >= _MAX_ENGINE_NODES:
        raise ValueError(f"layer {start} too large for engine indexing")
    observed = np.zeros(G, dtype=np.int64)
    detections = []
    log = [] if emit_observed else None
    logged = peak = 0
    for first in range(0, n, chunk_size):
        # layer -> (lo, hi) array pairs; the ranges are disjoint, since every
        # observed node has exactly one observed ancestor that jumped to it
        pending = {start: [(np.array([first]), np.array([min(first + chunk_size, n)]))]}
        queued = 1
        for layer in range(start, G + 1):
            if layer not in pending:
                continue
            los, his = zip(*pending.pop(layer))
            lo, hi = np.concatenate(los), np.concatenate(his)
            order = np.argsort(lo)
            lo, hi = lo[order], hi[order]
            ends = np.cumsum(hi - lo)
            shift = hi - ends  # node index minus queue position, per range
            for pos_lo in range(0, int(ends[-1]), chunk_size):
                pos = np.arange(pos_lo, min(pos_lo + chunk_size, int(ends[-1])))
                idx = pos + shift[np.searchsorted(ends, pos, side="right")]
                vals = np.asarray(evaluator.evaluate(layer, idx), dtype=float)
                if not np.all(np.isfinite(vals)):
                    raise ValueError("evaluator produced non-finite statistics")
                observed[layer - 1] += idx.size
                if layer == G:
                    acts = np.zeros(idx.size, dtype=np.int64)
                    hit = vals >= q_reject
                    detections += [(NodeId(G, i), v)
                                   for i, v in zip(idx[hit].tolist(), vals[hit].tolist())]
                else:
                    acts = decide(layer, vals)
                    # maximal runs of one action over consecutive indices
                    cut = np.flatnonzero((np.diff(acts) != 0) | (np.diff(idx) != 1)) + 1
                    run_lo = np.concatenate(([0], cut))
                    run_hi = np.concatenate((cut, [idx.size]))
                    run_act = acts[run_lo]
                    for s in np.unique(run_act[run_act > 0]).tolist():
                        b = descendant_count(tree, layer, s)
                        sel = run_act == s
                        pending.setdefault(s, []).append(
                            (idx[run_lo[sel]] * b, (idx[run_hi[sel] - 1] + 1) * b))
                        queued += int(sel.sum())
                if log is not None:
                    log.append((np.full(idx.size, layer), idx, vals, acts))
                    logged += idx.size
                peak = max(peak, queued + idx.size + len(detections) + logged)
            queued -= lo.size
    if log is not None:
        cols = [np.concatenate(col) for col in zip(*log)]
        order = np.lexsort((cols[1], cols[0]))
        log = np.empty(order.size, dtype=_LOG_DTYPE)
        for name, col in zip(_LOG_DTYPE.names, cols):
            log[name] = col[order]
    total_cost = sum(int(observed[layer - 1]) * tree.cost(layer) for layer in tree.layers())
    return SearchOutcome(detections=detections, per_layer_observed=observed,
                         total_cost=total_cost, peak_tracked=peak, observed_log=log)


def run_search(strategy, evaluator, q_reject: float, emit_observed: bool = False,
               chunk_size: int = 4096) -> SearchOutcome:
    """Execute a fitted strategy over an evaluator's tree.

    Layer 1 is observed completely; every node given a nonzero action has
    its jump-target descendants observed in turn. Observed leaves whose
    statistic reaches ``q_reject`` become detections, in leaf-index
    order. ``chunk_size`` bounds both the layer-1 nodes walked together
    and the nodes per ``evaluate`` call.

    Returns a SearchOutcome; with ``emit_observed`` it also carries the
    log of every observed node.
    """
    if evaluator.tree != strategy.tree:
        raise ValueError("strategy and evaluator disagree on the tree shape")
    return _walk(evaluator, strategy.decide_batch, 1, q_reject, chunk_size, emit_observed)


def naive_search(evaluator, q_reject: float, chunk_size: int = 8192) -> SearchOutcome:
    """Sweep every leaf; the benchmark the hierarchy is measured against."""
    return _walk(evaluator, None, evaluator.tree.num_layers, q_reject, chunk_size)


def default_q_reject(tree: TreeConfig, alpha: float = 0.05, n_effective=None) -> float:
    """Bonferroni-style rejection threshold for the leaf sweep.

    The effective test count defaults to leaf_count/9, crediting the 3x
    oversampling per grid dimension for correlated neighbors.
    """
    from .stats import chi2_2_isf
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if n_effective is None:
        n_effective = nodes_in_layer(tree, tree.num_layers) / 9
    if not n_effective > 0:
        raise ValueError("n_effective must be positive")
    return chi2_2_isf(min(alpha / n_effective, 1.0))


def write_detections_csv(path, outcome: SearchOutcome, evaluator=None) -> None:
    """Detections as CSV: omega_hz, omegadot_s2, statistic, leaf_index.

    Parameter columns are empty when the evaluator cannot map nodes to
    (omega, omegadot).
    """
    params = getattr(evaluator, "node_params", None) if evaluator is not None else None
    with open(path, "w") as fh:
        fh.write("omega_hz,omegadot_s2,statistic,leaf_index\n")
        if not outcome.detections:
            return
        idx = np.array([node.index for node, _ in outcome.detections], dtype=np.int64)
        layer = outcome.detections[0][0].layer
        if params is not None:
            om, od = params(layer, idx)
        for k, (node, val) in enumerate(outcome.detections):
            if params is not None:
                fh.write(f"{float(om[k])!r},{float(od[k])!r},{val!r},{node.index}\n")
            else:
                fh.write(f",,{val!r},{node.index}\n")


def write_layer_summary_csv(path, outcome: SearchOutcome, tree: TreeConfig) -> None:
    """Per-layer observation counts and costs as CSV: layer, observed_count, cost."""
    with open(path, "w") as fh:
        fh.write("layer,observed_count,cost\n")
        for layer in tree.layers():
            count = int(outcome.per_layer_observed[layer - 1])
            fh.write(f"{layer},{count},{count * tree.cost(layer)!r}\n")


def write_observed_csv(path, outcome: SearchOutcome, evaluator=None) -> None:
    """Observed-node log as CSV: layer, node_index, omega_hz, omegadot_s2, statistic, action.

    Rows follow the log's (layer, node_index) order. The evaluator's
    ``node_params`` is called once per layer; the parameter columns are
    empty when the evaluator cannot map nodes to (omega, omegadot).
    """
    log = outcome.observed_log
    if log is None:
        raise ValueError("run_search was not asked to record the observed log")
    params = getattr(evaluator, "node_params", None) if evaluator is not None else None
    with open(path, "w") as fh:
        fh.write("layer,node_index,omega_hz,omegadot_s2,statistic,action\n")
        for layer in np.unique(log["layer"]).tolist():
            rows = log[log["layer"] == layer]
            if params is None:
                coords = [","] * rows.size
            else:
                om, od = params(layer, rows["index"])
                coords = [f"{w!r},{d!r}" for w, d in zip(om.tolist(), od.tolist())]
            fh.writelines(f"{layer},{i},{c},{v!r},{a}\n" for i, c, v, a in
                          zip(rows["index"].tolist(), coords, rows["statistic"].tolist(),
                              rows["action"].tolist()))
