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


def _merge_ties(xs, ys, ws):
    # Points sharing an abscissa must share a fitted value; replace each
    # tie group by its weighted mean before pooling.
    ux, inverse = np.unique(xs, return_inverse=True)
    if ux.size == xs.size:
        order = np.argsort(xs, kind="stable")
        return xs[order], ys[order], ws[order]
    w = np.bincount(inverse, weights=ws, minlength=ux.size)
    wy = np.bincount(inverse, weights=ws * ys, minlength=ux.size)
    return ux, wy / w, w


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
    fitted levels are compressed to a single breakpoint.
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

    xs, ys, ws = _merge_ties(xs, ys, ws)
    k = xs.size

    # Pool adjacent violators: maintain a stack of pools, each carrying its
    # weighted mean, total weight, and point count.
    mean = np.empty(k)
    weight = np.empty(k)
    count = np.empty(k, dtype=np.intp)
    top = -1
    for i in range(k):
        top += 1
        mean[top] = ys[i]
        weight[top] = ws[i]
        count[top] = 1
        while top > 0 and mean[top] < mean[top - 1]:
            w = weight[top - 1] + weight[top]
            mean[top - 1] = (weight[top - 1] * mean[top - 1] + weight[top] * mean[top]) / w
            weight[top - 1] = w
            count[top - 1] += count[top]
            top -= 1

    npools = top + 1
    starts = np.concatenate(([0], np.cumsum(count[:npools])))[:-1]
    bps = xs[starts]
    lvs = mean[:npools].copy()

    # Coincidentally equal neighbor pools evaluate identically; drop them.
    if npools > 1:
        keep = np.concatenate(([True], lvs[1:] != lvs[:-1]))
        bps, lvs = bps[keep], lvs[keep]
    return MonotoneFn(bps, lvs)
