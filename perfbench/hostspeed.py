"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark's host is shared: its speed drifts by a fifth and more
over tens of seconds, with the same work. A run times this kernel
between its ops and scales its timings by the run's mean kernel time
over REFERENCE_S, so that a run on a slow stretch of the host and one
on a fast stretch read alike. The kernel uses numpy and plain Python
only, never blindsearch, so a change to the program does not move it.
It mixes the kinds of work the workloads do: complex exponential sums
over small batches of nodes (the engine's kernel as the executor calls
it), fresh large arrays (null-path sampling, the dense sweep) and an
interpreter-bound loop that allocates as it goes (pool-adjacent-
violators, as in isotonic fitting). Kernels without the fresh arrays
and the loop tracked the workloads' drift worse.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.2       # about the kernel's mean on the 2-vCPU VM the bench was defined on


def _small_batches(phases: np.ndarray) -> float:
    total = 0.0
    offsets = np.arange(27)[:, None] * 1e-3
    for k in range(400):
        z = np.exp(2j * np.pi * (1.0 + k * 1e-4 + offsets) * phases[None, :]).sum(axis=1)
        total += float((z.real ** 2 + z.imag ** 2).max())
    return total


def _large_arrays(values: np.ndarray) -> float:
    total = 0.0
    for _ in range(32):
        total += float(np.cumsum(np.cos(values * 3.0), axis=1)[:, -1].sum())
    return total


def _pava(values: list) -> float:
    """Increasing isotonic regression of ``values``, pooled in plain Python."""
    means, weights = [], []
    for v in values:
        means.append(v)
        weights.append(1)
        while len(means) > 1 and means[-2] > means[-1]:
            w = weights[-2] + weights[-1]
            m = (means[-2] * weights[-2] + means[-1] * weights[-1]) / w
            means[-2:] = [m]
            weights[-2:] = [w]
    return sum(means)


def reference() -> float:
    """Wall seconds of one pass of the reference kernel."""
    rng = np.random.default_rng(0)
    phases = rng.random(150) * 80.0
    values = rng.random((500, 150))
    noisy = (np.linspace(0.0, 1.0, 30000) + rng.normal(0.0, 0.3, 30000)).tolist()
    start = time.perf_counter()
    _small_batches(phases)
    _large_arrays(values)
    for _ in range(3):
        _pava(noisy)
    return time.perf_counter() - start
