"""Generative models producing root-to-leaf path statistics for fitting.

A model exposes ``tree`` plus ``sample_path_values_batch(n, rng)``, which
returns an (n, G) array of paths. Paths pick a uniform
root, then a uniform child at every step, and report the statistic a
search would observe at each layer along the way.
"""

from __future__ import annotations

import numpy as np

from .engine import PulsarGrid
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
    """

    _chunk = 512  # paths simulated per trig batch; fixed so draws are reproducible

    def __init__(self, grid: PulsarGrid, num_photons: int):
        if num_photons < 1:
            raise ValueError("num_photons must be >= 1")
        self.grid = grid
        self.tree = grid.tree
        self.num_photons = int(num_photons)

    def _path_params(self, n: int, rng):
        """(omega, omegadot) arrays of shape (n, G) for uniform random paths."""
        g = self.grid
        G = g.spec.num_layers
        omega = np.empty((n, G))
        omegadot = np.empty((n, G))
        roots = rng.integers(0, g.tree.root_count, n)
        rw, rd = np.divmod(roots, g.n1_omegadot)
        omega[:, 0] = g.omega_start + (rw + 0.5) * g.d_omega[0]
        omegadot[:, 0] = g.omegadot_start + (rd + 0.5) * g.d_omegadot[0]
        for j in range(1, G):
            c = rng.integers(0, g.tree.branching[j - 1], n)
            fd = g.drift_factor[j - 1]
            fw = g.freq_factor[j - 1]
            iw, idot = np.divmod(c, fd)
            omega[:, j] = omega[:, j - 1] + (iw - 0.5 * (fw - 1)) * g.d_omega[j]
            omegadot[:, j] = omegadot[:, j - 1] + (idot - 0.5 * (fd - 1)) * g.d_omegadot[j]
        return omega, omegadot

    def sample_path_values_batch(self, n: int, rng) -> np.ndarray:
        from .stats import TWO_PI
        g = self.grid
        G = g.spec.num_layers
        span = g.span
        m = self.num_photons
        out = np.empty((n, G))
        for lo in range(0, n, self._chunk):
            hi = min(lo + self._chunk, n)
            k = hi - lo
            omega, omegadot = self._path_params(k, rng)
            t = rng.random((k, m)) * span
            ht2 = 0.5 * t * t
            rows = np.arange(k)
            for layer in range(1, G + 1):
                ph = TWO_PI * (omega[:, layer - 1, None] * t
                               + omegadot[:, layer - 1, None] * ht2)
                re = np.cos(ph)
                im = np.sin(ph)
                nblocks = 1 << g.kappa(layer)
                if nblocks == 1:
                    power = re.sum(axis=1) ** 2 + im.sum(axis=1) ** 2
                else:
                    block = np.minimum((t * (nblocks / span)).astype(np.int64), nblocks - 1)
                    bins = (rows[:, None] * nblocks + block).ravel()
                    sre = np.bincount(bins, weights=re.ravel(), minlength=k * nblocks)
                    sim = np.bincount(bins, weights=im.ravel(), minlength=k * nblocks)
                    power = (sre * sre + sim * sim).reshape(k, nblocks).sum(axis=1)
                out[lo:hi, layer - 1] = 2.0 * power / m
        return out
