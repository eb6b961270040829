import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindsearch.isotonic import MonotoneFn, pava


def sse(fn, xs, ys, ws):
    return float(np.sum(ws * (fn(xs) - ys) ** 2))


def best_partition_sse(xs, ys, ws):
    """Exhaustive minimum of the monotone least-squares problem.

    Enumerates every way to cut the sorted distinct abscissas into
    contiguous blocks, fits each block its weighted mean, and keeps the
    assignments whose block means are nondecreasing.
    """
    order = np.argsort(xs, kind="stable")
    xs, ys, ws = xs[order], ys[order], ws[order]
    ux = np.unique(xs)
    n = ux.size
    groups = [np.flatnonzero(xs == u) for u in ux]
    best = np.inf
    for cuts in itertools.product([0, 1], repeat=n - 1):
        blocks = []
        cur = [0]
        for i, c in enumerate(cuts):
            if c:
                blocks.append(cur)
                cur = []
            cur.append(i + 1)
        blocks.append(cur)
        means = []
        total = 0.0
        for blk in blocks:
            idx = np.concatenate([groups[i] for i in blk])
            mu = np.average(ys[idx], weights=ws[idx])
            means.append(mu)
            total += float(np.sum(ws[idx] * (ys[idx] - mu) ** 2))
        if all(a <= b + 1e-12 for a, b in zip(means, means[1:])):
            best = min(best, total)
    return best


def test_three_point_frozen():
    fn = pava(np.array([0.0, 1.0, 2.0]), np.array([3.0, 1.0, 2.0]))
    assert np.allclose(fn(np.array([-1.0, 0.5, 5.0])), 2.0)
    assert sse(fn, np.array([0.0, 1.0, 2.0]), np.array([3.0, 1.0, 2.0]),
               np.ones(3)) == pytest.approx(2.0)


def test_monotone_input_unchanged():
    xs = np.array([0.0, 1.0, 2.0, 3.0])
    ys = np.array([0.0, 1.0, 1.5, 4.0])
    fn = pava(xs, ys)
    assert np.allclose(fn(xs), ys)


def test_ties_merge_to_weighted_mean():
    xs = np.array([0.0, 0.0, 1.0])
    ys = np.array([0.0, 4.0, 5.0])
    ws = np.array([1.0, 3.0, 1.0])
    fn = pava(xs, ys, ws)
    assert fn(0.0) == pytest.approx(3.0)
    assert fn(1.0) == pytest.approx(5.0)


def test_step_evaluation_is_right_open():
    # levels[i] applies from breakpoints[i] up to the next breakpoint;
    # queries left of the first breakpoint take the first level
    fn = MonotoneFn(breakpoints=np.array([1.0, 2.0]), levels=np.array([3.0, 7.0]))
    assert fn(0.0) == 3.0
    assert fn(1.0) == 3.0
    assert fn(1.999) == 3.0
    assert fn(2.0) == 7.0
    assert fn(100.0) == 7.0
    out = fn(np.array([0.0, 1.5, 2.5]))
    assert out.tolist() == [3.0, 3.0, 7.0]


def test_validation():
    with pytest.raises(ValueError):
        pava(np.array([]), np.array([]))
    with pytest.raises(ValueError):
        pava(np.array([0.0, 1.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        pava(np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        pava(np.array([0.0, np.nan]), np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        MonotoneFn(np.array([2.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        MonotoneFn(np.array([1.0, 2.0]), np.array([2.0, 1.0]))


small_floats = st.floats(-5, 5, allow_nan=False, allow_infinity=False)


@given(st.lists(st.tuples(small_floats, small_floats,
                          st.floats(0.1, 4)), min_size=1, max_size=30))
def test_output_is_nondecreasing_and_fits_block_means(rows):
    xs = np.array([r[0] for r in rows])
    ys = np.array([r[1] for r in rows])
    ws = np.array([r[2] for r in rows])
    fn = pava(xs, ys, ws)
    assert np.all(np.diff(fn.levels) > 0)
    assert np.all(np.diff(fn.breakpoints) > 0)
    # total weighted residual must be orthogonal to the fit blockwise:
    # predicted values at the data equal weighted means over level sets
    pred = fn(xs)
    for level in np.unique(pred):
        mask = pred == level
        assert np.average(ys[mask], weights=ws[mask]) == pytest.approx(level, abs=1e-9)


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_matches_exhaustive_partition_minimum(seed, n):
    rng = np.random.default_rng(seed)
    xs = np.round(rng.uniform(-2, 2, n), 1)
    ys = rng.normal(size=n)
    ws = rng.uniform(0.5, 2.0, n)
    fn = pava(xs, ys, ws)
    got = sse(fn, xs, ys, ws)
    want = best_partition_sse(xs, ys, ws)
    assert got <= want * (1 + 1e-9) + 1e-12
    assert got >= want * (1 - 1e-9) - 1e-12
