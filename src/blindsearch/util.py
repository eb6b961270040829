"""Small shared helpers: worker-count resolution and seed derivation."""

from __future__ import annotations

import os

import numpy as np


def resolve_workers(workers=None) -> int:
    """Worker count for parallel sections: None or 0 means one per CPU."""
    if workers is None:
        workers = 0
    if workers < 0:
        raise ValueError("worker count must be >= 0")
    return workers or os.cpu_count() or 1


def subseed(seed, *key) -> np.random.SeedSequence:
    """Deterministic child seed for a namespaced stream."""
    return np.random.SeedSequence(entropy=seed, spawn_key=tuple(int(k) for k in key))
