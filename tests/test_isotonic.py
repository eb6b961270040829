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


def reference_pava(xs, ys, ws=None) -> MonotoneFn:
    """Pool adjacent violators one point at a time, after merging x-ties.

    The straightforward form of the algorithm, kept as the reference that
    ``pava``, which pools whole runs of equal targets, must agree with.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    ws = np.ones_like(xs) if ws is None else np.asarray(ws, dtype=float)
    ux, inverse = np.unique(xs, return_inverse=True)
    w = np.bincount(inverse, weights=ws, minlength=ux.size)
    ys, ws = np.bincount(inverse, weights=ws * ys, minlength=ux.size) / w, w
    mean, weight, count = [], [], []
    for y, w in zip(ys.tolist(), ws.tolist()):
        c = 1
        while mean and y < mean[-1]:
            pw = weight.pop()
            tw = pw + w
            y = (pw * mean.pop() + w * y) / tw
            w = tw
            c += count.pop()
        mean.append(y)
        weight.append(w)
        count.append(c)
    starts = np.concatenate(([0], np.cumsum(count)))[:-1]
    lvs = np.array(mean)
    keep = np.concatenate(([True], lvs[1:] != lvs[:-1]))
    return MonotoneFn(ux[starts][keep], lvs[keep])


def discrete_sample(rng, n):
    """Targets from a few values in long runs, tied abscissae, uneven weights."""
    values = rng.choice([-1.5, 0.0, 0.25, 1.0, 4.0], size=rng.integers(1, 6), replace=False)
    runs = rng.integers(1, 40, size=n)
    ys = np.repeat(rng.choice(values, size=n), runs)[:n]
    xs = np.sort(np.round(rng.uniform(-3, 3, n), 2)) + np.where(rng.random(n) < 0.1, 0.5, 0.0)
    ws = rng.uniform(0.5, 3.0, n) if rng.random() < 0.5 else np.ones(n)
    return xs, ys, ws


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


@pytest.mark.parametrize("seed", range(40))
def test_runs_of_equal_targets_match_point_by_point(seed):
    rng = np.random.default_rng(seed)
    xs, ys, ws = discrete_sample(rng, int(rng.integers(1, 3000)))
    fn, ref = pava(xs, ys, ws), reference_pava(xs, ys, ws)
    at = np.concatenate((xs, fn.breakpoints, ref.breakpoints))
    got, want = fn(at), ref(at)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 10_000), st.integers(1, 8))
def test_discrete_targets_reach_exhaustive_partition_minimum(seed, n):
    rng = np.random.default_rng(seed)
    xs, ys, ws = discrete_sample(rng, n)
    got = sse(pava(xs, ys, ws), xs, ys, ws)
    want = best_partition_sse(xs, ys, ws)
    assert got <= want * (1 + 1e-9) + 1e-12
    assert got >= want * (1 - 1e-9) - 1e-12
