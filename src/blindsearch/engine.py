"""Search execution over layered hypothesis trees.

An evaluator computes the layer statistic for batches of node indices;
``run_search`` drives a fitted strategy over it from layer 1 with a
batched walker, which holds pending work as index ranges, never as the
tree itself. ``naive_search`` sweeps the leaf layer exhaustively. The
concrete evaluator for pulsar-style data maps node indices to
(frequency, drift) hypotheses on a dyadic grid and scores them with the
blocked statistic matched to the layer. Its phases stay in cycles and
become phasors through ``_unit_phasors``, the one phase-to-phasor step
that the null model's sampler shares. ``PulsarGrid`` alone places a
node: ``node_coords`` gives its integer lattice coordinates, and
``node_params`` the lattice start plus those coordinates times the
layer's half spacings. The sampler asks the grid for both, so it and
the evaluator put every node at the same floats.

The leaves of every pulsar grid form a uniform lattice, and one row of
leaf statistics along a lattice dimension is one type-1 nonuniform FFT
of the photons. So ``naive_search`` screens a pulsar grid's leaves by
FFT, in segments whose transforms run in batches across rows, and
re-evaluates with the exact kernel only the
leaves whose screened value comes within a margin of 1e-6 *
max(1, q_reject) below the threshold, and reports only exact values, so
its detections equal those of evaluating every leaf. Every other
evaluator is swept by the walker.

Evaluator protocol (duck-typed): a ``tree`` attribute carrying the
TreeConfig, and ``evaluate(layer, indices) -> values`` accepting an int64
index array. The CSV writers also need ``node_params(layer, indices) ->
(omega, omegadot)``. Evaluation must be deterministic given the data.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .stats import TWO_PI, PhotonSeries, chi2_2_isf
from .tree import TreeConfig, descendant_count, nodes_in_layer

_MAX_ENGINE_NODES = 1 << 62  # numpy int64 indexing; tree.py itself has no such limit


_TILE_ELEMENTS = 1 << 15  # bounds every (rows x photons) temporary of the statistic
_SCREEN_MODES = _TILE_ELEMENTS // 4  # leaf positions per screen segment
_SCREEN_BATCH = 1 << 17  # complex grid points per batched screen transform: 8 grids at 8192 modes
_SPREAD = 12  # Gaussian gridding half-width in grid points; 8 is off by up to about 2e-7


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


# The screen's fixed-size buffers outlive one sweep, so repeated sweeps in a process
# reuse their pages: one spare per role, taken by a _GriddingPlan and given back when
# its screen ends. Their sizes follow the constants above, about 3.3 MiB in all.
_SPARES: dict = {}


def _take(role: str, size: int, dtype=np.float64) -> np.ndarray:
    """The spare 1-D buffer of ``role`` if it holds ``size`` elements of ``dtype``, else a new one.

    ``dict.pop`` is atomic, so a second screen running at the same time,
    in another generator or thread, finds no spare and allocates its own.
    """
    spare = _SPARES.pop(role, None)
    if spare is not None and spare.size == size and spare.dtype == dtype:
        return spare
    return np.empty(size, dtype)


_PHASOR_BITS = 10
_PHASOR_TABLE = np.exp(1j * (8 * np.arctan(np.longdouble(1)))  # 2 pi in extended precision
                       * np.arange(1 << _PHASOR_BITS, dtype=np.longdouble)
                       / (1 << _PHASOR_BITS)).astype(complex)
_ROUNDING = 1.5 * 2.0 ** (52 - _PHASOR_BITS)  # doubles near it lie 2^-_PHASOR_BITS apart
_MAX_CYCLES = 2.0 ** 40  # PulsarGrid's phase bound; _unit_phasors is exact below 2^41


def _unit_phasors(cycles: np.ndarray, out: np.ndarray, index: np.ndarray,
                  work: np.ndarray) -> np.ndarray:
    """exp(2 pi i cycles) into ``out``, without ``np.exp``.

    The phase splits exactly as cycles = k / 1024 + r, with k =
    rint(1024 cycles) and |r| <= 1/2048, so even a phase of millions of
    cycles keeps every bit of its fraction. Adding _ROUNDING = 1.5 * 2^42
    rounds the phase to a multiple of 1/1024, the spacing of doubles in
    [2^42, 2^43), with the ties to even of ``np.rint``; the low 10 bits of
    the sum are k mod 1024, and subtracting the constant again leaves k /
    1024 exactly. That holds for |cycles| < 2^41, which ``PulsarGrid``
    keeps with a factor of two to spare. A 1024-entry table gives
    exp(2 pi i k / 1024); a Taylor series in x = 2 pi r, |x| <= pi/1024,
    gives the rest: cos to x^4 and sin to x^5, since the next terms,
    x^6/720 and x^7/5040, stay below 1.2e-18, under half an ulp of 1.
    The result is within a few ulps of the exact phasor; ``np.exp(2j *
    pi * cycles)`` rounds the radian phase first and is off by up to
    about 1.8e-10 near 2e5 cycles.

    ``cycles`` is overwritten. ``index`` (int64) and ``work`` (complex,
    C-contiguous) are scratch of the same shape as ``out``; the memory of
    ``work`` holds the two real series, then the table entries.
    """
    half = work.reshape(-1).view(np.float64)
    sq = half[:cycles.size].reshape(cycles.shape)
    acc = half[cycles.size:].reshape(cycles.shape)
    np.add(cycles, _ROUNDING, out=sq)
    np.bitwise_and(sq.view(np.int64), (1 << _PHASOR_BITS) - 1, out=index)
    sq -= _ROUNDING  # exact: k / 1024
    cycles -= sq  # exact: r
    cycles *= TWO_PI
    np.multiply(cycles, cycles, out=sq)
    np.multiply(sq, 1.0 / 24.0, out=acc)
    acc -= 0.5
    acc *= sq
    np.add(acc, 1.0, out=out.real)
    np.multiply(sq, 1.0 / 120.0, out=acc)
    acc -= 1.0 / 6.0
    acc *= sq
    acc *= cycles
    np.add(acc, cycles, out=out.imag)
    np.take(_PHASOR_TABLE, index, out=work, mode="clip")  # clip: unbuffered; index is in range
    out *= work
    return out


def _block_ends(t: np.ndarray, blocks: int, span: float, c: np.ndarray,
                index: np.ndarray) -> np.ndarray:
    """(rows, blocks) exclusive end indices of the time blocks of each row of sorted ``t``.

    Time t lies in block min(floor(t * (blocks / span)), blocks - 1), the one
    block rule. ``c`` (float) and ``index`` (int64) are scratch shaped like ``t``.
    """
    rows = t.shape[0]
    np.multiply(t, blocks / span, out=c)
    np.copyto(index, c, casting="unsafe")
    np.minimum(index, blocks - 1, out=index)
    index += blocks * np.arange(rows)[:, None]
    return np.bincount(index.ravel(), minlength=rows * blocks).reshape(rows, blocks).cumsum(axis=1)


def _block_power(z: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """Per row, the sum over time blocks of |sum of z over the block|^2.

    ``z`` is (rows, m) complex phasors with each row's photons in time
    order, so every block is a contiguous run. ``ends`` holds each
    block's exclusive end index, the last one m: shape (nblocks,) when
    the rows share their photons, (rows, nblocks) when each row has its
    own. A single block takes numpy's pairwise sum, as
    ``rayleigh_power`` does. More blocks take ``np.add.reduceat``,
    started at the non-empty blocks only: empty blocks add nothing, and
    each row's first non-empty block starts at its first photon, so the
    segments tile the row. Shared blocks are summed by one ``reduceat``
    along the photon axis; each row's own blocks by one over the
    flattened rows, which sums every segment in the same order. A second
    ``reduceat`` sums each row's block powers. Every sum covers one row
    only, so a row's value does not depend on the rows beside it, nor on
    whether its blocks were given shared or per row.
    """
    if ends.shape[-1] == 1:
        re = z.real.sum(axis=1)
        im = z.imag.sum(axis=1)
        return re * re + im * im
    rows, m = z.shape
    if ends.ndim == 1:
        begins = np.concatenate(([0], ends[:-1]))
        s = np.add.reduceat(z, begins[begins < ends], axis=1)
        first = s.shape[1] * np.arange(rows)
    else:
        begins = np.zeros((rows, ends.shape[-1]), dtype=np.int64)
        begins[:, 1:] = ends[:, :-1]
        keep = begins < ends
        begins += m * np.arange(rows)[:, None]
        s = np.add.reduceat(z.reshape(-1), begins[keep])
        first = np.zeros(rows, dtype=np.int64)
        np.cumsum(keep.sum(axis=1)[:-1], out=first[1:])
    power = s.real * s.real
    power += s.imag * s.imag
    return np.add.reduceat(power.reshape(-1), first)


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
    the box edge may probe slightly outside it. A grid whose phase bound,
    max|omega| * span + max|omegadot| * span^2 / 2 over its lattice,
    reaches 2^40 cycles is refused: ``_unit_phasors`` is exact below 2^41.
    """

    def __init__(self, spec: GridSpec, span: float, costs=None):
        if not 0 < span < math.inf:
            raise ValueError("span must be positive and finite")
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
        with np.errstate(divide="ignore", over="ignore"):  # a spacing may underflow to 0
            roots = [width / d[0] if width > 0 else 1.0
                     for width, d in ((w_span, self.d_omega), (d_span, self.d_omegadot))]
        if not all(map(math.isfinite, roots)):
            raise ValueError(f"span {span!r} gives a root count that is not finite")
        self.n1_omega, self.n1_omegadot = (max(1, math.ceil(r)) for r in roots)
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
        # every node lies within n1 * d[0] above the lattice start of each dimension
        end_w = self.omega_start + self.n1_omega * self.d_omega[0]
        end_d = self.omegadot_start + self.n1_omegadot * self.d_omegadot[0]
        top_w = max(abs(self.omega_start), abs(end_w))
        top_d = max(abs(self.omegadot_start), abs(end_d))
        bound = top_w * self.span + top_d * self.span * self.span / 2
        if not bound < _MAX_CYCLES:  # NaN too
            raise ValueError(f"phase bound max|omega| * span + max|omegadot| * span^2 / 2 = "
                             f"{bound:.4g} cycles reaches 2^40")

    def kappa(self, layer: int) -> int:
        """Blocking exponent at a layer: leaves are fully coherent."""
        return self.spec.num_layers - layer

    def node_params(self, layer: int, indices):
        """(omega, omegadot) arrays for node indices in a layer.

        Each is the lattice start plus the ``node_coords`` coordinate
        times the layer's half spacing, so its rounding does not grow with
        the layer's depth.
        """
        kw, kd = self.node_coords(layer, indices)
        return (self.omega_start + kw * (0.5 * self.d_omega[layer - 1]),
                self.omegadot_start + kd * (0.5 * self.d_omegadot[layer - 1]))

    def node_coords(self, layer: int, indices):
        """Integer lattice coordinates (kw, kd) of node indices in a layer.

        The coordinates count half spacings of the layer from
        omega_start and omegadot_start; ``node_params`` is omega_start +
        kw * (0.5 * d_omega[layer-1]) and its drift twin. Along each
        dimension a layer holds either one position or odd coordinates 2
        apart, and a child's coordinate is twice its parent's (four times
        in drift) plus its offset: +-1 in a split frequency, +-1 or +-3
        in a split drift, 0 where a dimension does not split.
        """
        v = _checked_indices(self.tree, layer, indices)
        kw = np.zeros(v.shape, dtype=np.int64)  # first the sum of digit * weight
        kd = np.zeros(v.shape, dtype=np.int64)
        sw = sd = 1  # a digit's weight in half-spacings of this layer
        cw = cd = 0  # the digits' fixed shift, sum of (factor - 1) * weight
        for j in range(layer - 1, 0, -1):
            v, c = np.divmod(v, self.tree.branching[j - 1])
            fd = self.drift_factor[j - 1]
            fw = self.freq_factor[j - 1]
            # an unsplit dimension's digit is 0 and adds nothing to its coordinate
            if fw > 1 and fd > 1:
                iw, idot = np.divmod(c, fd)
            else:
                iw = idot = c
            if fw > 1:
                kw += iw * sw
                cw += (fw - 1) * sw
            if fd > 1:
                kd += idot * sd
                cd += (fd - 1) * sd
            sw *= 2
            sd *= 4
        rw, rd = np.divmod(v, self.n1_omegadot)
        kw = 2 * (kw + rw * sw) + (sw - cw)
        kd = 2 * (kd + rd * sd) + (sd - cd)
        return kw, kd

    def leaf_lattice(self, dim: int):
        """(count, first, spacing) of the leaf positions along one dimension.

        Dimension 0 is omega, 1 is omegadot. Once a dimension splits it
        splits at every later transition, so its leaves form one uniform
        lattice: n1 * prod(factors) positions at the leaf spacing d[-1]
        (at d[0] if it never splits), d the dimension's spacing array, n1
        its root count. A dimension that starts splitting late has one
        root, and its leaves are centred on it. Position p, 0 <= p <
        count, has ``node_coords`` coordinate ((2p + 1) * spacing + n1 *
        d[0] - count * spacing) / d[-1]; in exact arithmetic that is first
        + p * spacing. The spacing is taken from that array, never as a
        difference of node parameters, which would carry their rounding.
        """
        factors, d, n1, start = ((self.freq_factor, self.d_omega, self.n1_omega, self.omega_start)
                                 if dim == 0 else (self.drift_factor, self.d_omegadot,
                                                   self.n1_omegadot, self.omegadot_start))
        spacing = d[-1] if factors[-1] > 1 else d[0]
        count = n1 * math.prod(factors)
        # the last term is exactly 0.0 unless the dimension starts splitting late
        return count, start + 0.5 * spacing + 0.5 * (n1 * d[0] - count * spacing), spacing

    def leaf_index(self, pw, pd) -> np.ndarray:
        """Leaf indices at leaf-lattice positions (pw, pd), the inverse of ``node_coords``.

        Positions count from 0 along each dimension, as in ``leaf_lattice``.
        """
        g = self.spec.num_layers
        kw = np.asarray(pw, dtype=np.int64)
        kd = np.asarray(pd, dtype=np.int64)
        digits = []
        for j in range(g - 1, 0, -1):
            kw, dw = np.divmod(kw, self.freq_factor[j - 1])
            kd, dd = np.divmod(kd, self.drift_factor[j - 1])
            digits.append(dw * self.drift_factor[j - 1] + dd)
        idx = kw * self.n1_omegadot + kd
        for j in range(1, g):
            idx = idx * self.tree.branching[j - 1] + digits[g - 1 - j]
        return idx

    def to_dict(self) -> dict:
        s = self.spec
        return {"omega_min": s.omega_min, "omega_max": s.omega_max,
                "omegadot_min": s.omegadot_min, "omegadot_max": s.omegadot_max,
                "num_layers": s.num_layers, "oversampling": s.oversampling,
                "span": self.span}

    @classmethod
    def from_dict(cls, doc: dict, costs=None) -> "PulsarGrid":
        if not isinstance(doc, dict):
            raise ValueError(f"grid must be a JSON object, not {type(doc).__name__}")
        try:
            spec = GridSpec(omega_min=doc["omega_min"], omega_max=doc["omega_max"],
                            omegadot_min=doc["omegadot_min"], omegadot_max=doc["omegadot_max"],
                            num_layers=int(doc["num_layers"]),
                            oversampling=int(doc["oversampling"]))
            return cls(spec, doc["span"], costs=costs)
        except KeyError as exc:
            raise ValueError(f"grid lacks {exc}") from exc
        except TypeError as exc:  # a field of the wrong JSON type, such as a list for "span"
            raise ValueError(f"grid has a malformed field: {exc}") from exc


class _GriddingPlan:
    """Gaussian gridding of one set of points u_j in [0, 1) for a window of modes.

    Built once per screen sweep and reused by every ``_gridded_sums``
    call on it. The grid has n points, the least power of two >= 2 *
    modes, so a point's slots wrap by ``& (n - 1)``; R = n / modes and tau
    = pi * _SPREAD / (modes^2 R (R - 1/2)). The plan keeps, for the first
    ``rows`` = ``_tile_rows(2 * _SPREAD)`` points, the 2 * _SPREAD
    weights exp(-(2 pi (u_j - i / n))^2 / (4 tau)) of each and their
    slots in the grid's (real, imaginary) float pairs: 24 bytes per
    weight, at most 768 KiB whatever the point count. It also keeps the
    Gaussian's inverse transform at the modes, ``terms``: room for one
    tile's weighted real and imaginary parts (512 KiB), and ``grids``:
    the float view of ``batch`` = ``_SCREEN_BATCH // n`` grids (at least
    one), 2 MiB in all, which every call fills and transforms in place.
    Later tiles are spread again by ``spread`` on every call, so memory
    stays bounded.

    The grids, the terms and the first tile's weights and slots come from
    the module's spares (``_take``); ``give_back`` leaves them there for
    the next plan once the screen is done. Every call overwrites them
    before it reads them, so a plan computes the same bits from reused
    buffers as from new ones. After a process's first screen it keeps
    these four buffers, about 3.3 MiB at the default constants, and no
    more: each role holds one spare.
    """

    def __init__(self, u: np.ndarray, modes: int):
        self.u = u
        self.n = 2 << (modes - 1).bit_length()
        ratio = self.n / modes
        tau = math.pi * _SPREAD / (modes * modes * ratio * (ratio - 0.5))
        self.offsets = np.arange(1 - _SPREAD, _SPREAD + 1)
        self.scale = -((TWO_PI / self.n) ** 2) / (4.0 * tau)  # the exponent per squared grid step
        self.rows = _tile_rows(self.offsets.size)
        self.batch = max(1, _SCREEN_BATCH // self.n)
        tile = self.rows * self.offsets.size
        self.buffers = {"grids": _take("grids", self.batch * 2 * self.n),
                        "terms": _take("terms", 2 * tile),
                        "weights": _take("weights", tile),
                        "slots": _take("slots", 2 * tile, np.int64)}
        self.grids = self.buffers["grids"].reshape(self.batch, 2 * self.n)
        self.terms = self.buffers["terms"]
        self.weights, self.slots = self.spread(0, self.buffers["weights"], self.buffers["slots"])
        k = np.arange(-(modes // 2), modes - modes // 2)
        self.deconvolve = math.sqrt(math.pi / tau) * np.exp(tau * k * k)

    def give_back(self) -> None:
        """Leave the plan's buffers as the spares of the next plan; the plan is done."""
        _SPARES.update(self.buffers)

    def tile(self, lo: int):
        """(weights, slots) of the tile at ``lo``: the kept first tile, or one spread anew."""
        if lo == 0:
            return self.weights, self.slots
        return self.spread(lo, np.empty_like(self.buffers["weights"]),
                           np.empty_like(self.buffers["slots"]))

    def spread(self, lo: int, w: np.ndarray, slots: np.ndarray):
        """(weights, slots) of the tile of points at ``lo``, written into ``w`` and ``slots``.

        ``w`` (float) and ``slots`` (int64) are 1-D with room for a full
        tile: ``rows`` * 2 * _SPREAD and twice as many elements. Returns
        views of them: weights of shape (points, 2 * _SPREAD), and slots
        that index the grid's float view, real part then imaginary part of
        each weight's grid point, in the order of the weights. The
        weights are exp((scale * dist) * dist), dist = frac - offset, in
        that order of operations.
        """
        pos = self.u[lo:lo + self.rows] * self.n
        near = np.floor(pos)
        shape = (pos.size, self.offsets.size)
        w = w[:pos.size * self.offsets.size].reshape(shape)
        pairs = slots[:2 * w.size].reshape(shape + (2,))
        # the distances borrow the slots' memory until the weights are done
        dist = slots.view(np.float64)[:w.size].reshape(shape)
        np.subtract((pos - near)[:, None], self.offsets, out=dist)
        np.multiply(self.scale, dist, out=w)
        w *= dist
        np.exp(w, out=w)
        at = pairs[:, :, 0]
        np.add(near.astype(np.int64)[:, None], self.offsets, out=at)
        at &= self.n - 1
        at *= 2
        np.add(at, 1, out=pairs[:, :, 1])
        return w, pairs.reshape(-1)


def _gridded_sums(plan: _GriddingPlan, cs):
    """sum_j c_j exp(2 pi i k u_j) for each c of ``cs`` and the plan's modes k.

    The modes are k in [-(modes // 2), modes - modes // 2). A type-1
    nonuniform FFT by Gaussian gridding (Greengard & Lee 2004, SIAM Rev.
    46(3):443). ``cs`` yields at most ``plan.batch`` weight vectors c,
    and each is spread onto its own grid of ``plan.grids`` before the
    next is drawn, so they may share one buffer: every c_j goes with the
    plan's weights onto the 2 * _SPREAD points of the periodic grid
    nearest to u_j, real and imaginary parts by one ``np.bincount`` into
    the grid's float view. One inverse FFT along the grids transforms
    them all in place, the same bytes as one transform per grid; divided
    by the Gaussian's transform, each gives its sums: the modes -h, ..., -1,
    h = modes // 2, lie at the end of the spectrum and 0, 1, ... at its
    start, and their two products go straight into one array. Yields one
    array of sums per c, in order, each a new array. The plan's first tile
    of weights is reused; later tiles of at most ``plan.rows`` points are
    spread again here, so memory stays within the plan and one tile's
    temporaries whatever the point count.
    """
    filled = 0
    for grid, c in zip(plan.grids, cs):  # zip draws no c once the grids run out
        for lo in range(0, c.size, plan.rows):
            w, at = plan.tile(lo)
            tile = c[lo:lo + plan.rows, None]
            terms = plan.terms[:2 * w.size].reshape(w.shape + (2,))
            np.multiply(w, tile.real, out=terms[:, :, 0])
            np.multiply(w, tile.imag, out=terms[:, :, 1])
            sums = np.bincount(at, terms.ravel(), grid.size)
            if lo:
                grid += sums
            else:  # the grid's first fill: bincount sums from +0.0, as 0.0 + sums would
                grid[:] = sums
            del w, at, sums  # the next tile's spread need not hold this one's
        filled += 1
    spectra = plan.grids[:filled].view(complex)
    np.fft.ifft(spectra, axis=1, out=spectra)  # in place; out= is numpy >= 2.0
    modes = plan.deconvolve.size
    h = modes // 2
    for spectrum in spectra:
        sums = np.empty(modes, dtype=complex)
        np.multiply(spectrum[plan.n - h:], plan.deconvolve[:h], out=sums[:h])
        np.multiply(spectrum[:modes - h], plan.deconvolve[h:], out=sums[h:])
        yield sums


class PulsarEvaluator:
    """Blocked-statistic evaluator for one photon series on a PulsarGrid.

    A node's phase at photon j is c_j = omega t_j + omegadot t_j^2 / 2
    cycles at its ``node_params``, computed with the operations of
    ``stats.phase`` in the same order, and F^kappa sums the phasors
    exp(2 pi i c_j) of ``_unit_phasors`` over each time block. A node's
    value depends on its parameters alone, so it is the same in every
    call and tile, and lies within about 1e-13 of max(1, value) of
    ``stats.blocked_power``. One exception: on a one-photon series,
    numpy's one-element complex product rounds differently, so a node
    alone in a call may differ in its last bit from the same node in a
    larger call; there every node reads 2 up to that bit.

    ``evaluate`` keeps its tile workspace, four (rows, m) arrays, from one
    call to the next, grown to the largest tile a call has needed (at
    most ``_TILE_ELEMENTS`` elements each, or one row of m), and
    overwrites every tile before reading it. So one evaluator's
    ``evaluate`` must not run in two threads at once; use an evaluator per
    thread.
    """

    def __init__(self, photons: PhotonSeries, grid: PulsarGrid):
        if abs(photons.span - grid.span) > 1e-9 * grid.span:
            raise ValueError("photon span does not match the grid span")
        self.photons = photons
        self.grid = grid
        self.tree = grid.tree
        self._t = photons.times
        # block ends at the finest blocking (layer 1); layer l keeps every 2^(l-1)-th
        t = self._t[None, :]
        self._ends = _block_ends(t, 1 << grid.kappa(1), photons.span, np.empty(t.shape),
                                 np.empty(t.shape, dtype=np.int64))[0]
        self._workspace = None  # evaluate's (c, z, index, work) tiles, kept from call to call

    def node_params(self, layer: int, indices):
        return self.grid.node_params(layer, indices)

    def evaluate(self, layer: int, indices) -> np.ndarray:
        """Statistic F^kappa at each node, kappa matched to the layer."""
        omega, omegadot = self.grid.node_params(layer, indices)
        half = 0.5 * omegadot
        t = self._t
        step = 1 << (layer - 1)
        ends = self._ends[step - 1::step]
        m = self.photons.count
        out = np.empty(omega.shape)
        if not out.size:
            return out
        rows = min(out.size, _tile_rows(max(m, ends.size)))
        if self._workspace is None or self._workspace[0].shape[0] < rows:  # the largest tile yet
            self._workspace = tuple(np.empty((rows, m), dtype)
                                    for dtype in (float, complex, np.int64, complex))
        c, z, index, work = self._workspace  # every tile fills its rows before reading them
        # nodes of one drift, as on a grid whose drift range fits in one cell,
        # share one drift row: the same bits as each row's own
        bits = half.view(np.int64)
        drift_row = half[0] * t * t if np.all(bits == bits[0]) else None
        for lo in range(0, out.size, rows):
            hi = min(lo + rows, out.size)
            ct, zt, it, wt = c[:hi - lo], z[:hi - lo], index[:hi - lo], work[:hi - lo]
            np.multiply(omega[lo:hi, None], t, out=ct)
            if drift_row is not None:
                ct += drift_row
            else:
                # the drift term borrows work's memory until _unit_phasors takes it over
                drift = wt.reshape(-1).view(np.float64)[:ct.size].reshape(ct.shape)
                np.multiply(half[lo:hi, None], t, out=drift)
                drift *= t
                ct += drift
            _unit_phasors(ct, zt, it, wt)
            out[lo:hi] = _block_power(zt, ends)
        return 2.0 * out / m

    def screen_leaves(self):
        """Leaf statistics by nonuniform FFT, segment by segment in batches.

        The lattice is the grid's ``PulsarGrid.leaf_lattice``. Rows run
        along the dimension with more leaf positions: frequency, one row
        per drift position, unless the grid holds more drift positions
        than frequencies. Along a row, position p adds 2 pi p
        spacing s_j to photon j's phase, s_j being t_j for frequency and
        t_j^2 / 2 for drift, so the row's statistics are (2/m) |sum_j c_j
        exp(2 pi i p u_j)|^2 with u_j = frac(spacing s_j): one type-1
        nonuniform FFT. A row is cut into segments of modes =
        min(``_SCREEN_MODES``, positions in the row) positions, each one
        window of ``_gridded_sums`` with its modes centred on the segment;
        the weights c_j are the phasors that ``_unit_phasors`` makes of
        the cycle phase at the centre. Every segment of every row
        transforms the same u_j over the same window, so one
        ``_GriddingPlan`` serves the whole call: its spreading weights and
        grid slots are computed once, not once per segment. The segments
        are numbered row by row and taken ``plan.batch`` at a time, across
        rows, so one ``_gridded_sums`` call spreads and transforms a whole
        batch. A row's last segment, when shorter, transforms a full
        window starting at its first position and keeps the values the
        row holds. The plan keeps the weights of one tile of
        ``_tile_rows(2 * _SPREAD)`` photons (at most 768 KiB), room for
        one tile's spread terms (512 KiB) and one batch of grids (2 MiB),
        so the call's memory grows with the photon count by its m-length
        arrays only, about 64 bytes a photon, and not with the number of
        segments. Those plan buffers are the module's spares: the plan
        takes them, and the screen gives them back when it ends, is
        closed or is dropped, so a process keeps about 3.3 MiB after its
        first screen and the next screen reuses those pages. A screen
        that finds no spare, as when two run at once, allocates its own.
        The values are within about 1e-9 of max(1, value) of
        ``evaluate``: a screen, not a result.

        Yields (axis, row, lo, values): ``values`` at positions lo, lo + 1,
        ... along dimension ``axis``, at position ``row`` of the other, in
        (row, lo) order.
        """
        g = self.grid
        lattice = (g.leaf_lattice(0), g.leaf_lattice(1))
        axis = 0 if lattice[0][0] >= lattice[1][0] else 1
        count, first, spacing = lattice[axis]
        rows, row_first, row_spacing = lattice[1 - axis]
        s = (self._t, 0.5 * self._t ** 2)
        u = np.mod(spacing * s[axis], 1.0)
        m = self.photons.count
        cycles = np.empty(m)
        z = np.empty(m, dtype=complex)
        index = np.empty(m, dtype=np.int64)
        work = np.empty(m, dtype=complex)
        modes = min(_SCREEN_MODES, count)
        per_row = -(-count // modes)
        # the other dimension's term borrows work's memory until _unit_phasors takes it over
        fixed = work.view(np.float64)[:m]

        def phasors(segment):
            row, part = divmod(segment, per_row)
            np.multiply(row_first + row * row_spacing, s[1 - axis], out=fixed)
            np.multiply(first + (part * modes + modes // 2) * spacing, s[axis], out=cycles)
            np.add(cycles, fixed, out=cycles)
            return _unit_phasors(cycles, z, index, work)

        segments = rows * per_row
        plan = _GriddingPlan(u, modes)
        try:
            for start in range(0, segments, plan.batch):
                batch = range(start, min(start + plan.batch, segments))
                for segment, f in zip(batch, _gridded_sums(plan, map(phasors, batch))):
                    row, part = divmod(segment, per_row)
                    lo = part * modes
                    f = f[:count - lo]
                    yield axis, row, lo, (f.real * f.real + f.imag * f.imag) * (2.0 / m)
        finally:  # also when the caller stops early, or drops the generator
            plan.give_back()


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
_DETECTION_DTYPE = np.dtype([("index", np.int64), ("statistic", np.float64)])


def _sorted_records(dtype: np.dtype, parts: list, keys: int) -> np.ndarray:
    """Column tuples ``parts``, in field order, as one array sorted by the first ``keys`` fields."""
    if not parts:
        return np.empty(0, dtype=dtype)
    cols = [np.concatenate(col) for col in zip(*parts)]
    order = np.lexsort(cols[keys - 1::-1])
    records = np.empty(order.size, dtype=dtype)
    for name, col in zip(dtype.names, cols):
        records[name] = col[order]
    return records


@dataclass
class SearchOutcome:
    """Result of one search run.

    ``peak_tracked`` is the instrumented high-water mark of records held
    at once: the evaluate batch in flight, the pending ``[lo, hi)``
    ranges (one record each, however many nodes a range spans), the
    detections and the observed-log rows. Pending work never exists as
    one record per node, so the mark stays far below the leaf count on
    a pruned tree. In a screened leaf sweep the segment's screened values
    and its confirm candidates take the place of the batch and ranges.

    ``detections`` is a numpy structured array with one row per leaf whose
    statistic reaches q_reject and the fields ``index`` and ``statistic``,
    sorted by leaf index. ``observed_log``, when requested, is one with
    one row per observed node and the fields ``layer``, ``index``,
    ``statistic`` and ``action``, sorted by (layer, index).

    ``evaluate_calls`` and ``seconds`` hold, per layer, the ``evaluate``
    calls made and the wall seconds spent on the layer's nodes
    (evaluating, deciding and queueing their descendants). In a screened
    leaf sweep the leaf layer's calls count the screen segments plus the
    confirming ``evaluate`` calls. They are timings for reports, never
    for the data files.

    ``sweep`` is set by ``naive_search`` only: {"method": "screen" or
    "walk", "segments": screen segments, "confirmed": leaves the exact
    kernel re-evaluated after the screen}. The walk screens and confirms
    nothing; it evaluates every leaf.
    """

    detections: np.ndarray
    per_layer_observed: np.ndarray
    total_cost: float
    peak_tracked: int
    evaluate_calls: np.ndarray
    seconds: np.ndarray
    observed_log: np.ndarray | None = None
    sweep: dict | None = None


_SEARCH_CHUNK = 4096  # start-layer nodes walked together, and nodes per evaluate call


def _check_search_args(q_reject: float) -> None:
    if math.isnan(q_reject):
        raise ValueError("q_reject must not be NaN")


def _total_cost(tree: TreeConfig, observed: np.ndarray) -> float:
    return sum(int(observed[layer - 1]) * tree.cost(layer) for layer in tree.layers())


def _walk(evaluator, decide, start: int, q_reject: float,
          emit_observed: bool = False) -> SearchOutcome:
    """Observe every ``start``-layer node and follow ``decide`` down the tree.

    ``decide(layer, values)`` maps each statistic to 0 (stop) or the
    deeper layer whose descendants become pending in turn; with ``start``
    at the leaf layer it is never called, and may be None. Start-layer
    nodes are taken in consecutive groups of ``_SEARCH_CHUNK``. Inside a
    group the layers run in order: a layer's pending ``[lo, hi)`` ranges
    are sorted and cut into ``evaluate`` calls of at most
    ``_SEARCH_CHUNK`` nodes. Leaves reaching ``q_reject`` are detections.
    """
    _check_search_args(q_reject)
    tree = evaluator.tree
    G = tree.num_layers
    n = nodes_in_layer(tree, start)
    if n >= _MAX_ENGINE_NODES:
        raise ValueError(f"layer {start} too large for engine indexing")
    chunk = _SEARCH_CHUNK
    observed = np.zeros(G, dtype=np.int64)
    calls = np.zeros(G, dtype=np.int64)
    seconds = np.zeros(G)
    detections = []  # (indices, values) array pairs
    log = [] if emit_observed else None
    detected = logged = peak = 0
    for first in range(0, n, chunk):
        # layer -> (lo, hi) array pairs; the ranges are disjoint, since every
        # observed node has exactly one observed ancestor that jumped to it
        pending = {start: [(np.array([first]), np.array([min(first + chunk, n)]))]}
        queued = 1  # pending ranges
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
            for pos_lo in range(0, int(ends[-1]), chunk):
                pos = np.arange(pos_lo, min(pos_lo + chunk, int(ends[-1])))
                idx = pos + shift[np.searchsorted(ends, pos, side="right")]
                vals = np.asarray(evaluator.evaluate(layer, idx), dtype=float)
                if not np.all(np.isfinite(vals)):
                    raise ValueError("evaluator produced non-finite statistics")
                observed[layer - 1] += idx.size
                calls[layer - 1] += 1
                if layer == G:
                    acts = np.zeros(idx.size, dtype=np.int64)
                    hit = np.flatnonzero(vals >= q_reject)
                    if hit.size:
                        detections.append((idx[hit], vals[hit]))
                        detected += hit.size
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
                peak = max(peak, idx.size + queued + detected + logged)
            queued -= lo.size
            seconds[layer - 1] += time.perf_counter() - began
    return SearchOutcome(detections=_sorted_records(_DETECTION_DTYPE, detections, 1),
                         per_layer_observed=observed,
                         total_cost=_total_cost(tree, observed), peak_tracked=peak,
                         evaluate_calls=calls, seconds=seconds,
                         observed_log=None if log is None
                         else _sorted_records(_LOG_DTYPE, log, 2))


def run_search(strategy, evaluator, q_reject: float,
               emit_observed: bool = False) -> SearchOutcome:
    """Execute a fitted strategy over an evaluator's tree.

    Layer 1 is observed completely; every node given a nonzero action has
    its jump-target descendants observed in turn. Observed leaves whose
    statistic reaches ``q_reject`` become detections, in leaf-index
    order. At most 4096 layer-1 nodes are walked together, and at most
    4096 nodes go to one ``evaluate`` call.

    Returns a SearchOutcome; with ``emit_observed`` it also carries the
    log of every observed node.
    """
    if evaluator.tree != strategy.tree:
        raise ValueError("strategy and evaluator disagree on the tree shape")
    return _walk(evaluator, strategy.decide_batch, 1, q_reject, emit_observed)


def naive_search(evaluator, q_reject: float) -> SearchOutcome:
    """Sweep every leaf; the benchmark the hierarchy is measured against.

    A ``PulsarEvaluator`` is swept in two steps. The screen
    (``PulsarEvaluator.screen_leaves``) scores each row of the grid's
    leaf lattice with nonuniform FFTs in segments, from one gridding plan
    built for the sweep, and transforms the segments in batches of a
    fixed element budget that run across rows; a row's last, shorter
    segment is cut from a full window. The plan keeps the spreading
    weights of one tile of photons and one batch of grids, so the
    screen's memory grows with the photon count by its m-length arrays
    only, and not with the number of segments. Those buffers outlive
    the sweep as the module's spares, about 3.3 MiB whatever the grid or
    photon count, and the process's next sweep takes them instead of
    new pages. Every leaf
    whose screened value reaches q_reject - 1e-6 * max(1, q_reject), a
    margin far above the screen's rounding, is then confirmed by one
    ``evaluate`` call per segment that has any. Only confirmed values are
    reported, and a leaf's value does not depend on the call, so the
    detections are those of evaluating every leaf. Every other evaluator
    takes the walker, which evaluates every leaf in calls of 4096. Either
    way the leaf layer counts as fully observed, and detections come in
    leaf-index order.
    """
    _check_search_args(q_reject)
    if isinstance(evaluator, PulsarEvaluator):
        return _screened_sweep(evaluator, q_reject)
    out = _walk(evaluator, None, evaluator.tree.num_layers, q_reject)
    out.sweep = {"method": "walk", "segments": 0, "confirmed": 0}
    return out


def _screened_sweep(evaluator: PulsarEvaluator, q_reject: float) -> SearchOutcome:
    """``naive_search`` by screen and confirm, confirming segment by segment."""
    began = time.perf_counter()
    grid = evaluator.grid
    tree = evaluator.tree
    G = tree.num_layers
    cut = q_reject - 1e-6 * max(1.0, q_reject) if math.isfinite(q_reject) else q_reject
    found = []  # (indices, values) array pairs
    segments = calls = confirmed = detected = peak = 0
    for axis, row, lo, screened in evaluator.screen_leaves():
        along = np.flatnonzero(screened >= cut)
        if along.size:  # most segments of a sweep have nothing to confirm
            along += lo
            across = np.full(along.size, row)
            idx = grid.leaf_index(*((along, across) if axis == 0 else (across, along)))
            vals = evaluator.evaluate(G, idx)
            hit = np.flatnonzero(vals >= q_reject)
            if hit.size:
                found.append((idx[hit], vals[hit]))
                detected += hit.size
            calls += 1
        segments += 1
        confirmed += along.size
        peak = max(peak, screened.size + along.size + detected)
    observed = np.zeros(G, dtype=np.int64)
    observed[-1] = nodes_in_layer(tree, G)
    evaluate_calls = np.zeros(G, dtype=np.int64)
    evaluate_calls[-1] = segments + calls
    seconds = np.zeros(G)
    seconds[-1] = time.perf_counter() - began
    return SearchOutcome(detections=_sorted_records(_DETECTION_DTYPE, found, 1),
                         per_layer_observed=observed,
                         total_cost=_total_cost(tree, observed), peak_tracked=peak,
                         evaluate_calls=evaluate_calls, seconds=seconds,
                         sweep={"method": "screen", "segments": segments,
                                "confirmed": confirmed})


def default_q_reject(tree: TreeConfig, alpha: float = 0.05, n_effective=None) -> float:
    """Bonferroni-style rejection threshold for the leaf sweep.

    The effective test count defaults to leaf_count/9, crediting the 3x
    oversampling per grid dimension for correlated neighbors. That count
    is assumed, not measured: on the desk grid the maximum leaf statistic
    of a null sweep reaches the alpha = 0.05 threshold in 0.283 +- 0.026
    of sweeps, not 0.05.
    """
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    if n_effective is None:
        n_effective = nodes_in_layer(tree, tree.num_layers) / 9
    if not n_effective > 0:
        raise ValueError("n_effective must be positive")
    return chi2_2_isf(min(alpha / n_effective, 1.0))


def _reprs(values: np.ndarray) -> list:
    """``repr`` of each float64 of ``values``, formatted once per distinct value.

    Values are told apart by their bits, so -0.0 keeps its own text.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def write_detections_csv(path, outcome: SearchOutcome, evaluator) -> None:
    """Detections as CSV: omega_hz, omegadot_s2, statistic, leaf_index.

    The parameters are the evaluator's ``node_params`` of each leaf.
    """
    det = outcome.detections
    om, od = evaluator.node_params(evaluator.tree.num_layers, det["index"])
    with open(path, "w") as fh:
        fh.write("omega_hz,omegadot_s2,statistic,leaf_index\n")
        fh.writelines(f"{w},{d},{v!r},{i}\n" for w, d, v, i in
                      zip(_reprs(om), _reprs(od), det["statistic"].tolist(),
                          det["index"].tolist()))


def write_layer_summary_csv(path, outcome: SearchOutcome, tree: TreeConfig) -> None:
    """Per-layer observation counts and costs as CSV: layer, observed_count, cost."""
    with open(path, "w") as fh:
        fh.write("layer,observed_count,cost\n")
        for layer in tree.layers():
            count = int(outcome.per_layer_observed[layer - 1])
            fh.write(f"{layer},{count},{count * tree.cost(layer)!r}\n")


def write_observed_csv(path, outcome: SearchOutcome, evaluator) -> None:
    """Observed-node log as CSV: layer, node_index, omega_hz, omegadot_s2, statistic, action.

    Rows follow the log's (layer, node_index) order. The evaluator's
    ``node_params`` is called once per layer, and each distinct omega and
    omegadot of the layer is formatted once.
    """
    log = outcome.observed_log
    if log is None:
        raise ValueError("run_search was not asked to record the observed log")
    with open(path, "w") as fh:
        fh.write("layer,node_index,omega_hz,omegadot_s2,statistic,action\n")
        for layer in np.unique(log["layer"]).tolist():
            rows = log[log["layer"] == layer]
            om, od = evaluator.node_params(layer, rows["index"])
            fh.writelines(f"{layer},{i},{w},{d},{v!r},{a}\n" for i, w, d, v, a in
                          zip(rows["index"].tolist(), _reprs(om), _reprs(od),
                              rows["statistic"].tolist(), rows["action"].tolist()))
