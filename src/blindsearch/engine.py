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
import time
from dataclasses import dataclass

import numpy as np

from .stats import TWO_PI, PhotonSeries, block_edges
from .tree import NodeId, TreeConfig, descendant_count, nodes_in_layer

_MAX_ENGINE_NODES = 1 << 62  # numpy int64 indexing; tree.py itself has no such limit


_TILE_ELEMENTS = 1 << 15  # bounds every (rows x photons) temporary of the statistic


def _checked_indices(tree: TreeConfig, layer: int, indices) -> np.ndarray:
    """Node indices as an int64 array, each valid for the layer."""
    if not 1 <= layer <= tree.num_layers:
        raise ValueError(f"layer {layer} outside 1..{tree.num_layers}")
    v = np.asarray(indices, dtype=np.int64)
    if v.size and (v.min() < 0 or v.max() >= nodes_in_layer(tree, layer)):
        raise ValueError("node index out of range")
    return v


def _tile_rows(width: int) -> int:
    """Rows per tile when each row holds ``width`` elements; at least one."""
    return max(1, _TILE_ELEMENTS // width)


def _block_power(z: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per row, the sum over time blocks of |sum of z over the block|^2.

    ``z`` is (rows, m) complex phasors with each row's photons in time
    order, so every block is a contiguous run. ``ends`` holds each
    block's exclusive end index, the last one m: shape (nblocks,) when
    the rows share their photons, (rows, nblocks) when each row has its
    own. Empty blocks contribute nothing. A single block takes numpy's
    pairwise sum, as ``rayleigh_power`` does; more blocks are
    differenced from one running sum; each row's block terms are summed
    in one C-ordered row, so a row's value does not depend on the rows
    beside it.
    """
    if ends.shape[-1] == 1:
        re = z.real.sum(axis=1)
        im = z.imag.sum(axis=1)
        return re * re + im * im
    c = np.empty((z.shape[0], z.shape[1] + 1), dtype=complex)
    c[:, 0] = 0.0
    np.cumsum(z, axis=1, out=c[:, 1:])
    at = np.take(c, ends, axis=1) if ends.ndim == 1 else np.take_along_axis(c, ends, axis=1)
    s = np.diff(at, axis=1, prepend=0.0)
    return (s.real * s.real + s.imag * s.imag).sum(axis=1)


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
        if (nodes_in_layer(self.tree, G) >= _MAX_ENGINE_NODES
                or self.n1_omega * 2 ** G >= _MAX_ENGINE_NODES
                or self.n1_omegadot * 4 ** G >= _MAX_ENGINE_NODES):  # node_coords in int64
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
        return self._digits(layer, indices)[:2]

    def node_coords(self, layer: int, indices):
        """Integer lattice coordinates (kw, kd) of node indices in a layer.

        Up to rounding, ``node_params`` is omega_start + kw * 0.5 *
        d_omega[layer-1] and omegadot_start + kd * 0.5 *
        d_omegadot[layer-1]. Along each dimension a layer holds either
        one position or odd coordinates 2 apart.
        """
        return self._digits(layer, indices)[2:]

    def _digits(self, layer: int, indices):
        """(omega, omegadot, kw, kd) from one pass over the index digits."""
        v = _checked_indices(self.tree, layer, indices)
        omega = np.zeros(v.shape)
        omegadot = np.zeros(v.shape)
        kw = np.zeros(v.shape, dtype=np.int64)  # first the sum of digit * weight
        kd = np.zeros(v.shape, dtype=np.int64)
        sw = sd = 1  # a digit's weight in half-spacings of this layer
        cw = cd = 0  # the digits' fixed shift, sum of (factor - 1) * weight
        for j in range(layer - 1, 0, -1):
            v, c = np.divmod(v, self.tree.branching[j - 1])
            fd = self.drift_factor[j - 1]
            fw = self.freq_factor[j - 1]
            # an unsplit dimension's digit is 0 and adds exactly 0.0 to its parameter
            if fw > 1 and fd > 1:
                iw, idot = np.divmod(c, fd)
            else:
                iw = idot = c
            if fw > 1:
                omega += (iw - 0.5 * (fw - 1)) * self.d_omega[j]
                kw += iw * sw
                cw += (fw - 1) * sw
            if fd > 1:
                omegadot += (idot - 0.5 * (fd - 1)) * self.d_omegadot[j]
                kd += idot * sd
                cd += (fd - 1) * sd
            sw *= 2
            sd *= 4
        rw, rd = np.divmod(v, self.n1_omegadot)
        omega += self.omega_start + (rw + 0.5) * self.d_omega[0]
        omegadot += self.omegadot_start + (rd + 0.5) * self.d_omegadot[0]
        kw = 2 * (kw + rw * sw) + (sw - cw)
        kd = 2 * (kd + rd * sd) + (sd - cd)
        return omega, omegadot, kw, kd

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


def _step_table(step_ph: np.ndarray, step_z: np.ndarray, count: int):
    """Phases j * step and phasors step^j, one row for each j < count.

    ``step_ph`` has at most 48 significant bits, so every phase j *
    step_ph is exact for j < 32, and ``step_z`` is exp(i * step_ph).
    Row j of the phasors is the product of rows j // 2 and j - j // 2,
    so it depends on j alone; it is within about j ulps of
    exp(i * j * step_ph).
    """
    ph = np.arange(count)[:, None] * step_ph
    z = np.empty(ph.shape, dtype=complex)
    z[0] = 1.0
    z[1:2] = step_z
    for j in range(2, count):
        np.multiply(z[j // 2], z[j - j // 2], out=z[j])
    return ph, z


class PulsarEvaluator:
    """Blocked-statistic evaluator for one photon series on a PulsarGrid.

    A node's phase at photon j is phi_k = 2 pi (omega t_j + omegadot
    t_j^2 / 2) at its ``node_params``, and F^kappa sums its phasors
    exp(i phi_k) over each time block. ``evaluate`` takes one complex
    exponential per photon for each anchor, not for each node. Along a
    dimension that holds more than one position in a layer, the odd
    lattice coordinates of ``PulsarGrid.node_coords`` fall into blocks
    of ``stride`` positions. A node's anchor is the first position of
    its block in each such dimension (its own position in the others),
    and its offsets cw, cd count the lattice steps past the anchor,
    0 <= c < stride. The node's phasor is the identity

        exp(i phi_k) = exp(i phi_a) * W[cw] * D[cd] * exp(i eta),
        eta = ((phi_k - phi_a) - phi_w[cw]) - phi_d[cd],

    where phi_a is the anchor's phase by the same formula, phi_w[c] is c
    times the phase of one frequency step, phi_d likewise for drift, and
    W, D are the matching phasors (``_step_table``). eta is the residual
    that the rounded phases leave, about 1e-10 rad at desk scale, so
    exp(i eta) is taken as 1 + i eta. Every subtraction in eta is exact
    while phi_a lies within a factor 2 of phi_k, since the step phases
    are cut to 48 significant bits. Where phi_a < phi_k / 2 (omega near
    0, or a drift that turns the phase back) phi_k - phi_a rounds, by no
    more than phi_k's own rounding. A value stays within about 1e-13 of
    max(1, value) of ``stats.blocked_power``.

    Anchors and offsets depend on a node's coordinates alone, so a
    node's value is the same in every call and tile. The stride is the
    largest power of two up to 16 whose step table (stride rows of m
    photons) fits ``_TILE_ELEMENTS``, fixed when the evaluator is built.
    A tile builds one anchor row per distinct anchor, at most one per
    node row; the one-step rows are kept per layer, two rows of m each.
    """

    def __init__(self, photons: PhotonSeries, grid: PulsarGrid):
        if abs(photons.span - grid.span) > 1e-9 * grid.span:
            raise ValueError("photon span does not match the grid span")
        self.photons = photons
        self.grid = grid
        self.tree = grid.tree
        self._t = photons.times
        self._ht2 = 0.5 * photons.times ** 2
        self._ends = {}  # kappa -> end index of every block, the last one the photon count
        for layer in range(1, grid.spec.num_layers + 1):
            k = grid.kappa(layer)
            if k not in self._ends:
                inner = block_edges(photons.span, k)[1:-1]
                self._ends[k] = np.append(np.searchsorted(self._t, inner, side="left"),
                                          photons.count)
        fit = _TILE_ELEMENTS // photons.count
        self.stride = 1 << min(4, max(0, fit.bit_length() - 1))
        self._spaced = {}  # layer -> whether (frequency, drift) hold more than one position
        nw, nd = grid.n1_omega, grid.n1_omegadot
        for layer in range(1, grid.spec.num_layers + 1):
            self._spaced[layer] = (nw > 1, nd > 1)
            if layer < grid.spec.num_layers:
                nw *= grid.freq_factor[layer - 1]
                nd *= grid.drift_factor[layer - 1]
        self._steps = {}  # (layer, dimension) -> one lattice step's (phase, phasor) rows

    def node_params(self, layer: int, indices):
        return self.grid.node_params(layer, indices)

    def _step(self, layer: int, dim: int):
        if (layer, dim) not in self._steps:
            g = self.grid
            if dim == 0:
                ph = TWO_PI * g.d_omega[layer - 1] * self._t
            else:
                ph = TWO_PI * g.d_omegadot[layer - 1] * self._ht2
            ph = (ph.view(np.int64) & ~np.int64(0x1F)).view(np.float64)  # 48 bits
            self._steps[layer, dim] = ph, np.exp(1j * ph)
        return self._steps[layer, dim]

    def _anchors(self, layer: int, dim: int, k: np.ndarray, param: np.ndarray):
        """(anchor parameter, offset, block) of every node along one dimension."""
        if not self._spaced[layer][dim]:
            zero = np.zeros_like(k)
            return param, zero, zero
        g = self.grid
        start, half = ((g.omega_start, 0.5 * g.d_omega[layer - 1]) if dim == 0
                       else (g.omegadot_start, 0.5 * g.d_omegadot[layer - 1]))
        block, c = np.divmod(k >> 1, self.stride)  # k is odd: positions counted from 1
        return start + (2 * self.stride * block + 1) * half, c, block

    def evaluate(self, layer: int, indices) -> np.ndarray:
        """Statistic F^kappa at each node, kappa matched to the layer."""
        omega, omegadot, kw, kd = self.grid._digits(layer, indices)
        wa, cw, bw = self._anchors(layer, 0, kw, omega)
        da, cd, bd = self._anchors(layer, 1, kd, omegadot)
        key = bw * (int(bd.max(initial=0)) + 1) + bd  # one per anchor
        tables = [(_step_table(*self._step(layer, dim), int(c.max()) + 1), c)
                  for dim, c in enumerate((cw, cd)) if c.any()]
        t, ht2 = self._t, self._ht2
        ends = self._ends[self.grid.kappa(layer)]
        m = self.photons.count
        out = np.empty(omega.shape)
        rows = _tile_rows(max(m, ends.size))
        for lo in range(0, out.size, rows):
            tile = slice(lo, min(lo + rows, out.size))
            _, first, at = np.unique(key[tile], return_index=True, return_inverse=True)
            pa = wa[tile][first, None] * t + da[tile][first, None] * ht2
            pa *= TWO_PI
            ph = omega[tile, None] * t + omegadot[tile, None] * ht2
            ph *= TWO_PI
            ph -= pa[at]
            z = np.exp(1j * pa)[at]
            for (tab_ph, tab_z), c in tables:
                ph -= tab_ph[c[tile]]
                z *= tab_z[c[tile]]
            z *= 1.0 + 1j * ph  # ph is now eta
            out[tile] = _block_power(z, ends)
        return 2.0 * out / m


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
        return self.values[layer - 1][_checked_indices(self.tree, layer, indices)]


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
        v = _checked_indices(self.tree, layer, indices)
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

    ``evaluate_calls`` and ``seconds`` hold, per layer, the ``evaluate``
    calls made and the wall seconds spent on the layer's nodes
    (evaluating, deciding and queueing their descendants). They are
    timings for reports, never for the data files.
    """

    detections: list
    per_layer_observed: np.ndarray
    total_cost: float
    peak_tracked: int
    evaluate_calls: np.ndarray
    seconds: np.ndarray
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
    calls = np.zeros(G, dtype=np.int64)
    seconds = np.zeros(G)
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
            began = time.perf_counter()
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
                calls[layer - 1] += 1
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
            seconds[layer - 1] += time.perf_counter() - began
    if log is not None:
        cols = [np.concatenate(col) for col in zip(*log)]
        order = np.lexsort((cols[1], cols[0]))
        log = np.empty(order.size, dtype=_LOG_DTYPE)
        for name, col in zip(_LOG_DTYPE.names, cols):
            log[name] = col[order]
    total_cost = sum(int(observed[layer - 1]) * tree.cost(layer) for layer in tree.layers())
    return SearchOutcome(detections=detections, per_layer_observed=observed,
                         total_cost=total_cost, peak_tracked=peak, evaluate_calls=calls,
                         seconds=seconds, observed_log=log)


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
