import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindsearch import engine
from blindsearch.engine import (ArrayEvaluator, GridSpec, PulsarEvaluator, PulsarGrid,
                                SparsePeakEvaluator, default_q_reject, naive_search,
                                run_search, write_detections_csv,
                                write_layer_summary_csv, write_observed_csv)
from blindsearch.fit import FitConfig, fit_strategy
from blindsearch.evaluation import REFERENCE_SPAN
from blindsearch.stats import TWO_PI, FreqDrift, SignalSpec, blocked_power, simulate_photons
from blindsearch.tree import NodeId, TreeConfig, descendant_count, nodes_in_layer


def fitted_strategy(tree, lam, q_train=4.0, seed=0, n=80):
    rng = np.random.default_rng(seed)
    paths = rng.chisquare(2, size=(n, tree.num_layers))
    return fit_strategy(paths, FitConfig(tree, lam, q_train, n))


def reference_search(strategy, tree, values, q):
    """Spec semantics by direct set bookkeeping over materialized layers."""
    G = tree.num_layers
    observed = {1: set(range(nodes_in_layer(tree, 1)))}
    for l in range(2, G + 1):
        observed[l] = set()
    for l in range(1, G):
        for i in sorted(observed[l]):
            s = strategy.decide(l, float(values[l - 1][i]))
            if s:
                b = descendant_count(tree, l, s)
                observed[s].update(range(i * b, (i + 1) * b))
    detections = {i for i in observed[G] if values[G - 1][i] >= q}
    cost = sum(len(observed[l]) * tree.cost(l) for l in range(1, G + 1))
    counts = [len(observed[l]) for l in range(1, G + 1)]
    return detections, counts, cost


class TestGridGeometry:
    def test_spacings(self):
        g = PulsarGrid(GridSpec(1.0, 1.1, 0.0, 0.0, num_layers=3, oversampling=3), 10.0)
        assert np.allclose(g.d_omega, [4 / 30, 2 / 30, 1 / 30])
        assert np.allclose(g.d_omegadot, [16 / 900, 4 / 900, 1 / 900])

    def test_adaptive_splitting_frequency_only(self):
        g = PulsarGrid(GridSpec(1.0, 1.1, 0.0, 0.0, num_layers=3, oversampling=3), 10.0)
        assert g.freq_factor == (2, 2)
        assert g.drift_factor == (1, 1)
        assert g.tree.branching == (2, 2)
        assert g.tree.root_count == 1

    def test_adaptive_splitting_full_eight_ary(self):
        g = PulsarGrid(GridSpec(1.0, 2.0, -0.5, 0.5, num_layers=2, oversampling=3), 100.0)
        assert g.freq_factor == (2,)
        assert g.drift_factor == (4,)
        assert g.tree.branching == (8,)
        assert g.n1_omega == 150
        assert g.n1_omegadot == 22500

    def test_leaf_lattice_from_node_params(self):
        g = PulsarGrid(GridSpec(1.0, 1.1, 0.0, 0.0, num_layers=3, oversampling=3), 10.0)
        om, od = g.node_params(3, np.arange(4))
        # evenly spaced at the leaf resolution 1/(3*span), centered on the box
        assert np.allclose(om, [1.0, 1.0 + 1 / 30, 1.0 + 2 / 30, 1.1], rtol=0, atol=1e-12)
        assert np.allclose(od, 0.0)

    def test_child_offsets_eight_ary(self):
        g = PulsarGrid(GridSpec(1.0, 2.0, -0.5, 0.5, num_layers=2, oversampling=3), 100.0)
        # children of root 0: frequency-major digit order, offsets +-dw/2, drift in 4 steps
        om, od = g.node_params(2, np.arange(8))
        r_om, r_od = g.node_params(1, np.array([0]))
        dw, dd = g.d_omega[1], g.d_omegadot[1]
        assert np.allclose(om[:4], r_om[0] - 0.5 * dw)
        assert np.allclose(om[4:], r_om[0] + 0.5 * dw)
        assert np.allclose(od[:4], r_od[0] + np.array([-1.5, -0.5, 0.5, 1.5]) * dd)
        assert np.allclose(od[4:], od[:4])

    def test_roots_cover_the_box(self):
        spec = GridSpec(2.0, 2.5, 0.0, 0.0, num_layers=4, oversampling=3)
        g = PulsarGrid(spec, 200.0)
        om, _ = g.node_params(1, np.arange(g.n1_omega))
        half = 0.5 * g.d_omega[0]
        assert om[0] - half <= 2.0 + 1e-12
        assert om[-1] + half >= 2.5 - 1e-12
        mid = 0.5 * (om[0] + om[-1])
        assert mid == pytest.approx(2.25, abs=1e-12)

    def test_dict_roundtrip(self):
        spec = GridSpec(1.0, 5.0, -5e-11, 0.0, num_layers=9, oversampling=3)
        g = PulsarGrid(spec, 37662.40625)
        h = PulsarGrid.from_dict(g.to_dict())
        assert h.spec == g.spec
        assert h.span == g.span
        assert h.tree == g.tree

    def test_desk_scale_shape(self):
        spec = GridSpec(1.0, 5.0, -5e-11, 0.0, num_layers=9, oversampling=3)
        g = PulsarGrid(spec, 37662.40625)
        assert g.freq_factor == (2,) * 8
        assert g.drift_factor == (1,) * 8  # drift range inside one leaf cell
        assert g.n1_omegadot == 1
        leaves = nodes_in_layer(g.tree, 9)
        assert leaves == g.n1_omega * 256
        assert 4e5 < leaves < 5e5

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            GridSpec(2.0, 1.0)
        with pytest.raises(ValueError):
            GridSpec(1.0, 2.0, 0.5, -0.5)
        with pytest.raises(ValueError):
            GridSpec(1.0, 2.0, num_layers=1)
        with pytest.raises(ValueError):
            PulsarGrid(GridSpec(1.0, 2.0), 0.0)


class TestPulsarEvaluator:
    def test_matches_blocked_power_per_node(self):
        spec = GridSpec(1.0, 1.4, -1e-4, 0.0, num_layers=3, oversampling=3)
        photons = simulate_photons(SignalSpec(FreqDrift(1.2, -5e-5), 0.7, 60, 50.0), 8)
        ev = PulsarEvaluator(photons, PulsarGrid(spec, photons.span))
        g = ev.grid
        rng = np.random.default_rng(0)
        for layer in g.tree.layers():
            n = nodes_in_layer(g.tree, layer)
            idx = np.unique(rng.integers(0, n, size=min(n, 12)))
            got = ev.evaluate(layer, idx)
            om, od = g.node_params(layer, idx)
            want = np.array([blocked_power(photons, FreqDrift(float(w), float(d)),
                                           g.kappa(layer)) for w, d in zip(om, od)])
            assert np.all(np.abs(got - want) <= 1e-10 * np.maximum(1.0, np.abs(want)))

    def test_chunking_invariance(self, monkeypatch):
        spec = GridSpec(1.0, 1.4, 0.0, 0.0, num_layers=2, oversampling=3)
        photons = simulate_photons(SignalSpec(FreqDrift(1.2), 0.0, 40, 30.0), 1)
        ev = PulsarEvaluator(photons, PulsarGrid(spec, photons.span))
        idx = np.arange(nodes_in_layer(ev.tree, 2))
        big = ev.evaluate(2, idx)
        monkeypatch.setattr(engine, "_TILE_ELEMENTS", 3 * photons.count)  # 3-row tiles
        assert np.array_equal(ev.evaluate(2, idx), big)

    def test_span_mismatch_rejected(self):
        spec = GridSpec(1.0, 1.4, 0.0, 0.0, num_layers=2, oversampling=3)
        photons = simulate_photons(SignalSpec(FreqDrift(1.2), 0.0, 40, 30.0), 1)
        grid = PulsarGrid(spec, 31.0)
        with pytest.raises(ValueError, match="span"):
            PulsarEvaluator(photons, grid)


# (spec, span): frequency-only, 8-ary (2 frequency x 4 drift), and mixed: drift
# splits at every layer, frequency from layer 2 on. The leaf lattices span
# several anchor blocks of 16 in each dimension, the mixed one in drift only.
KERNEL_GRIDS = {
    "frequency": (GridSpec(1.0, 2.0, 0.0, 0.0, num_layers=4, oversampling=3), 50.0),
    "eight_ary": (GridSpec(1.0, 1.3, -2e-3, 0.0, num_layers=3, oversampling=3), 40.0),
    "mixed": (GridSpec(1.0, 1.02, -1e-3, 0.0, num_layers=5, oversampling=3), 100.0),
}


def kernel_case(name, count=70, seed=4):
    spec, span = KERNEL_GRIDS[name]
    fd = FreqDrift(0.5 * (spec.omega_min + spec.omega_max), spec.omegadot_min / 3)
    photons = simulate_photons(SignalSpec(fd, 0.6, count, span), seed)
    return PulsarEvaluator(photons, PulsarGrid(spec, photons.span))


def reference_values(ev, layer, idx):
    om, od = ev.grid.node_params(layer, idx)
    return np.array([blocked_power(ev.photons, FreqDrift(float(w), float(d)),
                                   ev.grid.kappa(layer)) for w, d in zip(om, od)])


class TestAnchoredKernel:
    @pytest.mark.parametrize("name", sorted(KERNEL_GRIDS))
    def test_grid_splits_as_described(self, name):
        g = kernel_case(name).grid
        want = {"frequency": ((2, 2, 2), (1, 1, 1)), "eight_ary": ((2, 2), (4, 4)),
                "mixed": ((1, 2, 2, 2), (4, 4, 4, 4))}[name]
        assert (g.freq_factor, g.drift_factor) == want

    @pytest.mark.parametrize("name", sorted(KERNEL_GRIDS))
    def test_value_does_not_depend_on_the_call(self, name, monkeypatch):
        ev = kernel_case(name)
        assert ev.stride == 16
        rng = np.random.default_rng(1)
        for layer in ev.tree.layers():
            n = nodes_in_layer(ev.tree, layer)
            whole = ev.evaluate(layer, np.arange(n))
            alone = rng.choice(n, size=min(n, 12), replace=False)
            for i in alone.tolist():
                assert ev.evaluate(layer, [i])[0] == whole[i]
            subset = rng.permutation(n)[: max(1, n // 3)]
            assert np.array_equal(ev.evaluate(layer, subset), whole[subset])
            with monkeypatch.context() as patch:
                patch.setattr(engine, "_TILE_ELEMENTS", 3 * ev.photons.count)  # 3-row tiles
                assert np.array_equal(ev.evaluate(layer, np.arange(n)), whole)
                assert np.array_equal(ev.evaluate(layer, subset), whole[subset])

    @pytest.mark.parametrize("name", sorted(KERNEL_GRIDS))
    def test_matches_blocked_power(self, name):
        ev = kernel_case(name)
        rng = np.random.default_rng(2)
        for layer in ev.tree.layers():
            n = nodes_in_layer(ev.tree, layer)
            idx = np.unique(rng.integers(0, n, size=min(n, 40)))
            got = ev.evaluate(layer, idx)
            want = reference_values(ev, layer, idx)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_matches_blocked_power_at_reference_span(self):
        # phases near 1e8 rad: omega of 13 Hz over the full reference span
        spec = GridSpec(13.0, 13.00002, -1e-12, 0.0, num_layers=4, oversampling=3)
        fd = FreqDrift(13.00001, -3e-13)
        photons = simulate_photons(SignalSpec(fd, 0.5, 200, REFERENCE_SPAN), 6)
        ev = PulsarEvaluator(photons, PulsarGrid(spec, photons.span))
        assert TWO_PI * 13.0 * photons.times[-1] > 9e7
        for layer in ev.tree.layers():
            idx = np.arange(nodes_in_layer(ev.tree, layer))
            want = reference_values(ev, layer, idx)
            got = ev.evaluate(layer, idx)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_matches_blocked_power_near_zero_frequency(self):
        # anchors far below half the node's phase: phi_k - phi_a is not exact there
        spec = GridSpec(1e-4, 0.05, -1e-5, 0.0, num_layers=5, oversampling=3)
        photons = simulate_photons(SignalSpec(FreqDrift(0.02, -1e-6), 0.5, 120, 400.0), 3)
        ev = PulsarEvaluator(photons, PulsarGrid(spec, photons.span))
        for layer in ev.tree.layers():
            idx = np.arange(nodes_in_layer(ev.tree, layer))
            om, _ = ev.grid.node_params(layer, idx)
            idx = idx[om > 0]  # edge children may probe omega <= 0, which FreqDrift rejects
            want = reference_values(ev, layer, idx)
            got = ev.evaluate(layer, idx)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("name", sorted(KERNEL_GRIDS))
    def test_node_coords_twin_node_params(self, name):
        g = kernel_case(name).grid
        for layer in g.tree.layers():
            idx = np.arange(nodes_in_layer(g.tree, layer))
            om, od = g.node_params(layer, idx)
            kw, kd = g.node_coords(layer, idx)
            assert np.allclose(g.omega_start + kw * 0.5 * g.d_omega[layer - 1], om,
                               rtol=1e-14, atol=0)
            assert np.allclose(g.omegadot_start + kd * 0.5 * g.d_omegadot[layer - 1], od,
                               rtol=0, atol=1e-9 * g.d_omegadot[layer - 1])
            for k in (kw, kd):
                pos = np.unique(k)
                if pos.size > 1:
                    assert np.all(pos % 2 == 1) and np.all(np.diff(pos) == 2)

    def test_large_photon_count_shrinks_the_stride(self):
        spec, span = KERNEL_GRIDS["frequency"]
        photons = simulate_photons(SignalSpec(FreqDrift(1.5), 0.5, 5000, span), 2)
        ev = PulsarEvaluator(photons, PulsarGrid(spec, photons.span))
        assert ev.stride == 4  # 2^15 elements hold 6 rows of 5000 photons
        idx = np.arange(nodes_in_layer(ev.tree, 4))[::7]
        want = reference_values(ev, 4, idx)
        got = ev.evaluate(4, idx)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_too_many_layers_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            PulsarGrid(GridSpec(1.0, 1.0, 0.0, 0.0, num_layers=40, oversampling=3), 10.0)


class TestIndexRange:
    def test_array_evaluator_rejects_out_of_range(self):
        tree = TreeConfig(num_layers=2, root_count=1, branching=(2,), costs=(1.0, 1.0))
        ev = ArrayEvaluator(tree, [np.zeros(1), np.arange(2.0)])
        assert ev.evaluate(2, [1]).tolist() == [1.0]
        for bad in ([-1], [2], [0, 5]):
            with pytest.raises(ValueError, match="node index out of range"):
                ev.evaluate(2, bad)
        with pytest.raises(ValueError, match="layer"):
            ev.evaluate(0, [0])

    def test_sparse_peak_evaluator_rejects_out_of_range(self):
        tree = TreeConfig(num_layers=3, root_count=2, branching=(3, 3), costs=(1.0,) * 3)
        ev = SparsePeakEvaluator(tree, peak_leaf=5, height=10.0, seed=1)
        assert ev.evaluate(3, [0, 17]).shape == (2,)
        for bad in ([-1], [18], [99]):
            with pytest.raises(ValueError, match="node index out of range"):
                ev.evaluate(3, bad)


class TestSparsePeakEvaluator:
    def test_deterministic_and_planted(self):
        tree = TreeConfig(num_layers=5, root_count=4, branching=(8,) * 4,
                          costs=(1.0,) * 5)
        leaf = 9000
        ev = SparsePeakEvaluator(tree, peak_leaf=leaf, height=60.0, seed=2)
        idx = np.arange(0, 200)
        assert np.array_equal(ev.evaluate(3, idx), ev.evaluate(3, idx))
        assert np.all(ev.evaluate(3, idx) >= 0)
        for layer in tree.layers():
            anc = leaf // descendant_count(tree, layer, 5)
            vals = ev.evaluate(layer, np.array([anc, anc + 1]))
            assert vals[0] > 60.0
            assert vals[1] < 60.0

    def test_noise_is_roughly_exponential(self):
        tree = TreeConfig(num_layers=2, root_count=1, branching=(10_000,),
                          costs=(1.0, 1.0))
        ev = SparsePeakEvaluator(tree, peak_leaf=0, height=1e9, seed=7)
        vals = ev.evaluate(2, np.arange(1, 10_000))
        # chi-square(2) noise: mean 2, var 4
        assert np.mean(vals) == pytest.approx(2.0, rel=0.1)
        assert np.var(vals) == pytest.approx(4.0, rel=0.2)


@st.composite
def search_instance(draw):
    layers = draw(st.integers(2, 4))
    branching = tuple(draw(st.integers(2, 3)) for _ in range(layers - 1))
    roots = draw(st.integers(1, 3))
    costs = tuple(draw(st.floats(0.2, 2.0)) for _ in range(layers))
    tree = TreeConfig(num_layers=layers, root_count=roots, branching=branching,
                      costs=costs)
    lam = draw(st.sampled_from([0.0, 0.02, 0.2, 1.0]))
    seed = draw(st.integers(0, 10_000))
    return tree, lam, seed


@settings(deadline=None, max_examples=80)
@given(search_instance(), st.integers(1, 7))
def test_run_search_matches_reference(inst, chunk):
    tree, lam, seed = inst
    rng = np.random.default_rng(seed)
    strat = fitted_strategy(tree, lam, seed=seed)
    values = [rng.chisquare(2, size=nodes_in_layer(tree, l)) + 0.3 * l
              for l in tree.layers()]
    ev = ArrayEvaluator(tree, values)
    q = 6.0
    out = run_search(strat, ev, q, emit_observed=True, chunk_size=chunk)
    want_dets, want_counts, want_cost = reference_search(strat, tree, values, q)
    assert {n.index for n, _ in out.detections} == want_dets
    assert out.per_layer_observed.tolist() == want_counts
    assert out.total_cost == pytest.approx(want_cost, rel=1e-12)
    # the log holds exactly the observed nodes, each once
    seen = {}
    for layer, index, val, act in out.observed_log.tolist():
        node = NodeId(layer, index)
        assert node not in seen
        seen[node] = (val, act)
    for l, cnt in enumerate(want_counts, start=1):
        assert sum(1 for n in seen if n.layer == l) == cnt


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_lambda_zero_detections_equal_naive(seed):
    tree = TreeConfig(num_layers=3, root_count=2, branching=(3, 3),
                      costs=(1.0, 1.0, 1.0))
    rng = np.random.default_rng(seed)
    strat = fitted_strategy(tree, 0.0, seed=seed)
    values = [rng.chisquare(2, size=nodes_in_layer(tree, l)) for l in tree.layers()]
    ev = ArrayEvaluator(tree, values)
    q = float(rng.uniform(2, 10))
    hier = run_search(strat, ev, q)
    flat = naive_search(ev, q)
    assert {n for n, _ in hier.detections} == {n for n, _ in flat.detections}
    assert hier.per_layer_observed[-1] == nodes_in_layer(tree, 3)


def test_run_search_rejects_mismatched_tree():
    t1 = TreeConfig(num_layers=2, root_count=1, branching=(2,), costs=(1.0, 1.0))
    t2 = TreeConfig(num_layers=2, root_count=2, branching=(2,), costs=(1.0, 1.0))
    strat = fitted_strategy(t1, 0.0)
    ev = ArrayEvaluator(t2, [np.zeros(2), np.zeros(4)])
    with pytest.raises(ValueError, match="tree"):
        run_search(strat, ev, 1.0)


def test_run_search_rejects_nan_threshold_and_bad_values():
    tree = TreeConfig(num_layers=2, root_count=1, branching=(2,), costs=(1.0, 1.0))
    strat = fitted_strategy(tree, 0.0)
    ev = ArrayEvaluator(tree, [np.zeros(1), np.array([1.0, np.nan])])
    with pytest.raises(ValueError):
        run_search(strat, ev, float("nan"))
    with pytest.raises(ValueError, match="finite"):
        run_search(strat, ev, 1.0)


def threshold_strategy(tree, cut, lam=0.1):
    """Descend one layer at a time wherever the statistic reaches ``cut``."""
    from blindsearch.fit import Strategy
    from blindsearch.isotonic import MonotoneFn

    def step(lo, hi):
        return MonotoneFn(np.array([0.0, float(cut)]), np.array([lo, hi]))

    continuation = {}
    for layer in range(1, tree.num_layers):
        fns = {}
        for s in range(layer + 1, tree.num_layers + 1):
            fns[s] = step(-1.0, 1.0) if s == layer + 1 else step(-2.0, 0.5)
        continuation[layer] = fns
    return Strategy(tree=tree, lam=lam, q_train=float(cut), continuation=continuation)


def test_peak_tracked_stays_small_on_pruned_tree():
    tree = TreeConfig(num_layers=5, root_count=16, branching=(8,) * 4,
                      costs=(1.0,) * 5)
    leaves = nodes_in_layer(tree, 5)
    ev = SparsePeakEvaluator(tree, peak_leaf=leaves // 2, height=80.0, seed=3)
    strat = threshold_strategy(tree, cut=8.0)
    out = run_search(strat, ev, q_reject=25.0)
    assert out.peak_tracked < leaves / 10
    planted = [n for n, _ in out.detections if n.index == leaves // 2]
    assert planted


def test_bad_chunk_size_rejected():
    tree = TreeConfig(num_layers=5, root_count=16, branching=(8,) * 4,
                      costs=(1.0,) * 5)
    ev = SparsePeakEvaluator(tree, peak_leaf=nodes_in_layer(tree, 5) // 2, height=80.0, seed=3)
    strat = threshold_strategy(tree, cut=8.0)
    for size in (0, -1):
        with pytest.raises(ValueError, match="chunk_size"):
            naive_search(ev, 25.0, chunk_size=size)
        with pytest.raises(ValueError, match="chunk_size"):
            run_search(strat, ev, 25.0, chunk_size=size)


def test_observed_csv_rows_follow_layer_and_index(tmp_path):
    spec = GridSpec(1.0, 1.4, -1e-4, 0.0, num_layers=3, oversampling=3)
    photons = simulate_photons(SignalSpec(FreqDrift(1.2, -5e-5), 0.7, 60, 50.0), 8)
    ev = PulsarEvaluator(photons, PulsarGrid(spec, photons.span))
    strat = threshold_strategy(ev.tree, cut=2.0)
    texts = []
    for size in (1, 7, 4096):
        path = tmp_path / f"o{size}.csv"
        write_observed_csv(path, run_search(strat, ev, 8.0, emit_observed=True,
                                            chunk_size=size), ev)
        texts.append(path.read_bytes())
    assert texts[0] == texts[1] == texts[2]
    rows = [line.split(",") for line in texts[0].decode().splitlines()[1:]]
    keys = [(int(r[0]), int(r[1])) for r in rows]
    assert keys == sorted(set(keys))
    assert {layer for layer, _ in keys} == {1, 2, 3}
    for r, (layer, index) in zip(rows, keys):
        om, od = ev.node_params(layer, np.array([index]))
        assert (float(r[2]), float(r[3])) == (om[0], od[0])


def test_default_q_reject_frozen():
    # one billion effective tests at alpha = 0.05: the classic 47.44
    tree = TreeConfig(num_layers=2, root_count=1, branching=(2,), costs=(1.0, 1.0))
    q = default_q_reject(tree, alpha=0.05, n_effective=1e9)
    assert q == pytest.approx(47.437996221000804, rel=1e-14)
    # default effective count credits the 3x3 oversampling
    tree9 = TreeConfig(num_layers=2, root_count=9, branching=(9,), costs=(1.0, 1.0))
    assert default_q_reject(tree9) == pytest.approx(
        default_q_reject(tree9, n_effective=9.0))


def test_csv_writers(tmp_path):
    spec = GridSpec(1.0, 1.2, 0.0, 0.0, num_layers=2, oversampling=3)
    photons = simulate_photons(SignalSpec(FreqDrift(1.1), 0.9, 500, 40.0), 5)
    ev = PulsarEvaluator(photons, PulsarGrid(spec, photons.span))
    strat = fitted_strategy(ev.tree, 0.0, q_train=1.0)
    out = run_search(strat, ev, q_reject=12.0, emit_observed=True)
    assert out.detections
    det = tmp_path / "d.csv"
    write_detections_csv(det, out, ev)
    lines = det.read_text().splitlines()
    assert lines[0] == "omega_hz,omegadot_s2,statistic,leaf_index"
    cells = lines[1].split(",")
    assert len(cells) == 4
    assert float(cells[2]) >= 12.0
    lay = tmp_path / "l.csv"
    write_layer_summary_csv(lay, out, ev.tree)
    rows = lay.read_text().splitlines()
    assert rows[0] == "layer,observed_count,cost"
    assert len(rows) == 3
    obs = tmp_path / "o.csv"
    write_observed_csv(obs, out, ev)
    assert len(obs.read_text().splitlines()) == 1 + int(out.per_layer_observed.sum())
    bare = run_search(strat, ev, q_reject=12.0)
    with pytest.raises(ValueError):
        write_observed_csv(tmp_path / "x.csv", bare, ev)
    # without a parameter mapping the coordinate columns stay empty
    det2 = tmp_path / "d2.csv"
    write_detections_csv(det2, bare, None)
    assert det2.read_text().splitlines()[1].startswith(",,")
