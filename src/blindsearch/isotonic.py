"""Weighted least-squares monotone regression.

Fits a nondecreasing step function to scattered (x, y, w) data by pool
adjacent violators. The fitted object is a right-continuous step function
represented by its jump locations; to the left of the first jump it
extrapolates as a constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MonotoneFn:
    """Nondecreasing step function.

    ``breakpoints`` are strictly increasing; ``levels`` are nondecreasing
    and the same length. The value at x is the level of the largest
    breakpoint <= x, or ``levels[0]`` when x is below all breakpoints.
    """

    breakpoints: np.ndarray
    levels: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=float)
        lv = np.asarray(self.levels, dtype=float)
        if bp.ndim != 1 or lv.ndim != 1 or bp.size != lv.size or bp.size == 0:
            raise ValueError("breakpoints and levels must be equal-length 1-D, nonempty")
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(lv)):
            raise ValueError("breakpoints and levels must be finite")
        if bp.size > 1 and not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if lv.size > 1 and np.any(np.diff(lv) < 0):
            raise ValueError("levels must be nondecreasing")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "levels", lv)

    def __call__(self, x):
        idx = np.searchsorted(self.breakpoints, x, side="right") - 1
        idx = np.clip(idx, 0, None)
        out = self.levels[idx]
        if np.ndim(x) == 0:
            return float(out)
        return out


def _run_starts(a: np.ndarray) -> np.ndarray:
    """Indices at which a run of equal values begins in ``a``."""
    return np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1])))


def _pava_sorted(xs, ys, ws) -> MonotoneFn:
    """Pool adjacent violators over strictly increasing ``xs``.

    A run of equal targets never violates itself, so each run enters the
    stack as one point carrying the run's total weight. Regression
    targets often take few distinct values, which makes the runs much
    fewer than the points. Python floats run the scalar loop several
    times faster than numpy scalar indexing, with the same double
    arithmetic.
    """
    starts = _run_starts(ys)
    mean = []    # weighted mean of each pool on the stack
    weight = []  # its total weight
    first = []   # the index of its first point
    for i, y, w in zip(starts.tolist(), ys[starts].tolist(),
                       np.add.reduceat(ws, starts).tolist()):
        while mean and y < mean[-1]:
            pw = weight.pop()
            tw = pw + w
            y = (pw * mean.pop() + w * y) / tw
            w = tw
            i = first.pop()
        mean.append(y)
        weight.append(w)
        first.append(i)
    bps = xs[first]
    lvs = np.array(mean)
    # Coincidentally equal neighbor pools evaluate identically; drop them.
    keep = np.concatenate(([True], lvs[1:] != lvs[:-1]))
    return MonotoneFn(bps[keep], lvs[keep])


def pava(xs, ys, weights=None) -> MonotoneFn:
    """Fit a nondecreasing function by weighted least squares.

    Parameters
    ----------
    xs, ys : array_like
        Abscissae and targets, equal length, at least one point.
    weights : array_like, optional
        Positive weights, default all ones.

    Returns
    -------
    MonotoneFn
        The unique minimizer of sum w*(y - f(x))**2 over nondecreasing f,
        restricted to step functions jumping at the data.

    Notes
    -----
    Points with exactly equal abscissae are merged (weighted) before
    pooling, so the result is a well-defined function of x. Runs of equal
    fitted levels are compressed to a single breakpoint. Sorting is
    skipped when ``xs`` is already strictly increasing, so callers that
    fit many targets against one abscissa can sort it once.
    """
    xs = np.asarray(xs, dtype=float).ravel()
    ys = np.asarray(ys, dtype=float).ravel()
    if xs.size == 0:
        raise ValueError("empty input")
    if ys.size != xs.size:
        raise ValueError("xs and ys must have equal length")
    if weights is None:
        ws = np.ones_like(xs)
    else:
        ws = np.asarray(weights, dtype=float).ravel()
        if ws.size != xs.size:
            raise ValueError("weights must match data length")
        if np.any(ws <= 0) or not np.all(np.isfinite(ws)):
            raise ValueError("weights must be positive and finite")
    if not np.all(np.isfinite(xs)) or not np.all(np.isfinite(ys)):
        raise ValueError("xs and ys must be finite")

    if not np.all(xs[1:] > xs[:-1]):
        order = np.argsort(xs, kind="stable")
        xs, ys, ws = xs[order], ys[order], ws[order]
        ties = _run_starts(xs)
        if ties.size < xs.size:
            # points sharing an abscissa must share a fitted value: pool them first
            w = np.add.reduceat(ws, ties)
            xs, ys, ws = xs[ties], np.add.reduceat(ws * ys, ties) / w, w
    return _pava_sorted(xs, ys, ws)
