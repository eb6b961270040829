"""Generative models producing root-to-leaf path statistics for fitting.

A model exposes ``tree`` plus ``sample_path_values_batch(n, rng)``, which
returns an (n, G) array of paths. Paths pick a uniform
root, then a uniform child at every step, and report the statistic a
search would observe at each layer along the way.
"""

from __future__ import annotations

import numpy as np

from .engine import PulsarGrid, _block_ends, _block_power, _tile_rows, _unit_phasors
from .tree import TreeConfig, nodes_in_layer


class GaussianChainModel:
    """Layer statistics follow an AR(1) chain along every path.

    The root statistic is standard normal and each child repeats its
    parent with correlation rho plus fresh noise, so every layer is
    marginally N(0, 1) and the conditional law between any two layers is
    known in closed form. The reference model for exact-optimum checks.
    """

    def __init__(self, tree: TreeConfig, rho: float):
        if not 0.0 <= rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        self.tree = tree
        self.rho = float(rho)

    def transition(self, layer: int, target: int):
        """(mean factor, sd) of X_target given X_layer along a path."""
        if not 1 <= layer <= target <= self.tree.num_layers:
            raise ValueError("need 1 <= layer <= target <= G")
        a = self.rho ** (target - layer)
        return a, float(np.sqrt(1.0 - a * a))

    def sample_path_values_batch(self, n: int, rng) -> np.ndarray:
        G = self.tree.num_layers
        x = np.empty((n, G))
        x[:, 0] = rng.standard_normal(n)
        sd = np.sqrt(1.0 - self.rho ** 2)
        for layer in range(1, G):
            x[:, layer] = self.rho * x[:, layer - 1] + sd * rng.standard_normal(n)
        return x

    def sample_tree_batch(self, n_sims: int, rng) -> list:
        """Full-tree realizations: one (n_sims, nodes_in_layer) array per layer."""
        vals = [rng.standard_normal((n_sims, nodes_in_layer(self.tree, 1)))]
        sd = np.sqrt(1.0 - self.rho ** 2)
        for layer in range(2, self.tree.num_layers + 1):
            b = self.tree.branching[layer - 2]
            parent = np.repeat(vals[-1], b, axis=1)
            vals.append(self.rho * parent + sd * rng.standard_normal(parent.shape))
        return vals


class PulsarNullModel:
    """Blocked-statistic paths on a pulsar grid under the uniform null.

    Every path gets its own freshly simulated uniform photon series of
    fixed size; the path's statistics are the blocked powers the layers
    of a search would compute at the visited (omega, omegadot) nodes.
    The grid places those nodes: a path's leaf parameters are its
    ``node_params`` bit for bit, as the evaluator's are, and each step's
    offsets are differences of its ``node_coords``.

    Only the leaf phasors come from the phase itself. A child sits half
    a child spacing times an odd integer from its parent in each split
    dimension, so the parent's phasors are the child's times integer
    powers of two per-photon factors, one per dimension; going up a
    layer squares the frequency factor and raises the drift factor to
    the fourth power. Photon times are sorted per path, so every time
    block is a contiguous run, and each layer's blocked power is one
    ``engine._block_power`` call over the tile.

    Phases are kept in cycles and turned into phasors by
    ``engine._unit_phasors`` (an exact reduction, a table and a short
    series), not by ``np.exp``. Paths are computed in tiles of whole rows
    within the engine's element budget; one call allocates its tile
    arrays once and every tile fills them in place, so a path's values
    do not depend on the tile size.
    """

    _chunk = 512  # paths whose nodes are drawn together; fixes the order of the RNG stream

    def __init__(self, grid: PulsarGrid, num_photons: int):
        if num_photons < 1:
            raise ValueError("num_photons must be >= 1")
        self.grid = grid
        self.tree = grid.tree
        self.num_photons = int(num_photons)

    def _path_params(self, n: int, rng):
        """The nodes of n uniform random paths.

        Returns (omega, omegadot, e_omega, e_omegadot): the leaf
        parameters, shape (n,), as ``PulsarGrid.node_params`` gives them,
        and the exponents of each child's offset from its parent, shape
        (n, G - 1), in units of half the child layer's spacing: the
        child's ``node_coords`` less twice the parent's in frequency and
        four times in drift (0 where a dimension does not split).
        """
        g = self.grid
        idx = [rng.integers(0, g.tree.root_count, n)]
        for b in g.tree.branching:
            idx.append(idx[-1] * b + rng.integers(0, b, n))
        layers = range(1, len(idx) + 1)
        omega, omegadot = g.node_params(layers[-1], idx[-1])
        kw, kd = (np.stack(k, axis=1) for k in zip(*map(g.node_coords, layers, idx)))
        return omega, omegadot, kw[:, 1:] - 2 * kw[:, :-1], kd[:, 1:] - 4 * kd[:, :-1]

    def _times(self, n: int, rng, out=None) -> np.ndarray:
        """Uniform photon times for n paths, shape (n, m), sorted per path.

        With ``out`` (an (n, m) float array) the draw fills it in place; the
        values and the stream position are those of a fresh draw.
        """
        t = rng.random((n, self.num_photons)) if out is None else rng.random(out=out)
        t *= self.grid.span
        t.sort(axis=1)
        return t

    def _powers(self, omega, omegadot, e_omega, e_omegadot, t, work) -> np.ndarray:
        """Blocked powers (rows, G) of one tile of drawn paths, leaf first.

        ``work`` maps names to the call's scratch arrays, each with at
        least as many rows as the tile, shaped like ``t`` per row; every
        (rows, m) step writes into them.
        """
        g = self.grid
        G = g.spec.num_layers
        rows = t.shape[0]
        c, z, u, v, w, index = (work[k][:rows] for k in ("c", "z", "u", "v", "w", "index"))
        # block ends at the finest blocking (layer 1); layer j keeps every 2^(j-1)-th
        ends = _block_ends(t, 1 << g.kappa(1), g.span, c, index)
        # leaf phase in cycles: (omega + omegadot t / 2) t
        np.multiply(t, 0.5 * omegadot[:, None], out=c)
        c += omega[:, None]
        c *= t
        _unit_phasors(c, z, index, w)
        split_w, split_d = 2 in g.freq_factor, 4 in g.drift_factor
        if split_w:
            np.multiply(t, 0.5 * g.d_omega[G - 1], out=c)
            _unit_phasors(c, u, index, w)
        if split_d:
            np.multiply(t, t, out=c)
            c *= 0.25 * g.d_omegadot[G - 1]
            _unit_phasors(c, v, index, w)
        out = np.empty((rows, G))
        out[:, G - 1] = _block_power(z, ends[:, -1:])
        # conj marks the rows of z that hold the conjugate of their phasors.
        # A conjugated row has the same block powers, and conj(conj(z) * u)
        # is z * conj(u) bit for bit, so no step builds a conjugated copy of
        # u or v.
        conj = np.zeros((rows, 1), dtype=bool)
        for layer in range(G - 1, 0, -1):
            # child (layer + 1) -> parent: times u^-e_omega * v^-e_omegadot.
            # A negative power is the conjugate, a unit phasor's inverse, so a
            # row whose exponent is positive is held conjugated through the step.
            if g.freq_factor[layer - 1] > 1:
                want = e_omega[:, layer - 1, None] > 0
                np.conjugate(z, out=z, where=want != conj)
                conj = want
                z *= u
            if g.drift_factor[layer - 1] > 1:
                e = e_omegadot[:, layer - 1, None]
                want = e > 0
                np.conjugate(z, out=z, where=want != conj)
                conj = want
                cube = np.abs(e) == 3
                np.multiply(v, v, out=w, where=cube)
                np.multiply(w, v, out=w, where=cube)
                np.multiply(z, w, out=z, where=cube)
                np.multiply(z, v, out=z, where=~cube)
            step = 1 << (layer - 1)
            out[:, layer - 1] = _block_power(z, ends[:, step - 1::step])
            if layer == 1:
                break
            if split_w:
                u *= u
            if split_d:
                v *= v
                v *= v
        return out

    def sample_path_values_batch(self, n: int, rng) -> np.ndarray:
        m = self.num_photons
        rows = min(n, _tile_rows(max(m, 1 << self.grid.kappa(1))))
        # one workspace for the call: fresh tile-sized temporaries would be
        # returned to the system and faulted in again tile after tile
        work = {k: np.empty((rows, m)) for k in ("t", "c")}
        work.update((k, np.empty((rows, m), dtype=complex)) for k in ("z", "u", "v", "w"))
        work["index"] = np.empty((rows, m), dtype=np.int64)
        out = np.empty((n, self.grid.spec.num_layers))
        for lo in range(0, n, self._chunk):
            k = min(self._chunk, n - lo)
            params = self._path_params(k, rng)
            # times drawn tile by tile continue the stream of one (k, m) draw
            for r in range(lo, lo + k, rows):
                hi = min(r + rows, lo + k)
                t = self._times(hi - r, rng, out=work["t"][:hi - r])
                out[r:hi] = self._powers(*(a[r - lo:hi - lo] for a in params), t, work)
        return 2.0 * out / m
