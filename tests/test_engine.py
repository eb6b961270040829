import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blindsearch import engine
from blindsearch.engine import (ArrayEvaluator, GridSpec, PulsarEvaluator, PulsarGrid,
                                SparsePeakEvaluator, default_q_reject, naive_search,
                                run_search, write_detections_csv,
                                write_layer_summary_csv, write_observed_csv)
from blindsearch.evaluation import DESK_SPAN, REFERENCE_SPAN
from blindsearch.stats import TWO_PI, FreqDrift, SignalSpec, blocked_power, simulate_photons
from blindsearch.tree import TreeConfig, descendant_count, nodes_in_layer
from reference import fitted_strategy, search_instance, set_walk, threshold_strategy


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

    @pytest.mark.parametrize("span, reason", [
        (math.inf, "span must be positive and finite"),
        (math.nan, "span must be positive and finite"),
        # the drift spacing underflows to 0; the phase bound, checked later, is passed too
        (1e300, "root count that is not finite"),
    ])
    def test_span_without_finite_spacings_rejected(self, span, reason):
        with pytest.raises(ValueError, match=reason):
            PulsarGrid(GridSpec(1.0, 5.0, -5e-11, 0.0, num_layers=9, oversampling=3), span)

    @pytest.mark.parametrize("spec, span", [
        (GridSpec(1.0, 1.0, 0.0, 0.0, num_layers=3), 2.0 ** 40),  # omega * span
        (GridSpec(1e-6, 1e-6, -1.0, -1.0, num_layers=3), 2.0 ** 20.5),  # omegadot * span^2 / 2
    ])
    def test_phase_bound_rejected(self, spec, span):
        with pytest.raises(ValueError, match=r"phase bound .* reaches 2\^40"):
            PulsarGrid(spec, span)
        PulsarGrid(spec, span * (1 - 1e-6))  # a little shorter passes


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

    def test_kept_workspace_gives_a_fresh_evaluators_bits(self):
        # the workspace grows from 1 row to 64, serves 3, then grows to whole
        # 218-row tiles, 5 of them over layer 2's 960 nodes
        ev = sweep_case(TRADEOFF_SPEC, 80.0, 150, 0.7, 12)
        rng = np.random.default_rng(3)
        calls = [(4, [rng.integers(nodes_in_layer(ev.tree, 4))]),
                 (3, np.sort(rng.choice(nodes_in_layer(ev.tree, 3), 64, replace=False))),
                 (1, [0, 57, 119]),
                 (2, np.arange(nodes_in_layer(ev.tree, 2))),
                 (3, [5])]
        for layer, idx in calls:
            fresh = PulsarEvaluator(ev.photons, ev.grid)
            assert ev.evaluate(layer, idx).tobytes() == fresh.evaluate(layer, idx).tobytes()
        assert ev._workspace[0].shape == (engine._tile_rows(150), 150)

    def test_span_mismatch_rejected(self):
        spec = GridSpec(1.0, 1.4, 0.0, 0.0, num_layers=2, oversampling=3)
        photons = simulate_photons(SignalSpec(FreqDrift(1.2), 0.0, 40, 30.0), 1)
        grid = PulsarGrid(spec, 31.0)
        with pytest.raises(ValueError, match="span"):
            PulsarEvaluator(photons, grid)


# (spec, span): frequency-only, 8-ary (2 frequency x 4 drift), and mixed: drift
# splits at every layer, frequency from layer 2 on.
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
        # one photon is the documented exception: numpy's one-element complex
        # product rounds differently
        for count in (70, 2, 3):
            ev = kernel_case(name, count=count)
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
                    patch.setattr(engine, "_TILE_ELEMENTS", 3 * count)  # 3-row tiles
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
        # phases of a few cycles, where the drift term can turn the phase back
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
    def test_empty_indices_give_empty_values(self, name):
        ev = kernel_case(name)
        for layer in ev.tree.layers():
            assert ev.evaluate(layer, np.empty(0, dtype=np.int64)).shape == (0,)

    @pytest.mark.parametrize("name", sorted(KERNEL_GRIDS) + ["desk"])
    def test_node_coords_twin_node_params(self, name):
        g = PulsarGrid(DESK_SPEC, DESK_SPAN) if name == "desk" else PulsarGrid(*KERNEL_GRIDS[name])
        for layer in g.tree.layers():
            idx = np.arange(nodes_in_layer(g.tree, layer))
            om, od = g.node_params(layer, idx)
            kw, kd = g.node_coords(layer, idx)
            # bit for bit at every depth: no per-digit sum to round
            assert np.array_equal(g.omega_start + kw * (0.5 * g.d_omega[layer - 1]), om)
            assert np.array_equal(g.omegadot_start + kd * (0.5 * g.d_omegadot[layer - 1]), od)
            for k in (kw, kd):
                pos = np.unique(k)
                if pos.size > 1:
                    assert np.all(pos % 2 == 1) and np.all(np.diff(pos) == 2)

    def test_large_photon_count_shrinks_the_stride(self):
        spec, span = KERNEL_GRIDS["frequency"]
        photons = simulate_photons(SignalSpec(FreqDrift(1.5), 0.5, 5000, span), 2)
        ev = PulsarEvaluator(photons, PulsarGrid(spec, photons.span))
        idx = np.arange(nodes_in_layer(ev.tree, 4))[::7]
        want = reference_values(ev, 4, idx)
        got = ev.evaluate(4, idx)
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_too_many_layers_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            PulsarGrid(GridSpec(1.0, 1.0, 0.0, 0.0, num_layers=40, oversampling=3), 10.0)
        with pytest.raises(ValueError, match="too large"):  # checked before the phase bound
            PulsarGrid(GridSpec(1.0, 1.0, 0.0, 0.0, num_layers=40, oversampling=3), 1e13)


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


class TestUnitPhasors:
    def test_matches_extended_precision_reference(self):
        rng = np.random.default_rng(0)
        cycles = np.concatenate([
            rng.random(4000) * 1e7, -rng.random(2000) * 1e7, rng.random(1000),
            np.arange(-40, 41) * 0.5,                      # half-integers
            np.arange(-2048, 2049) / 1024.0,               # exact table points
            1e7 - np.arange(64) / 1024.0, [0.0, 1e7, -1e7],
        ])
        cycles = np.resize(cycles, (len(cycles) // 8 + 1, 8))  # the kernel's 2-D layout
        got = engine._unit_phasors(cycles.copy(), np.empty(cycles.shape, dtype=complex),
                                   np.empty(cycles.shape, dtype=np.int64),
                                   np.empty(cycles.shape, dtype=complex))
        turn = 8 * np.arctan(np.longdouble(1))
        c = cycles.astype(np.longdouble)
        frac = c - np.rint(c)  # exact: the fraction of a double is a double
        err_re = np.abs(got.real.astype(np.longdouble) - np.cos(turn * frac))
        err_im = np.abs(got.imag.astype(np.longdouble) - np.sin(turn * frac))
        assert max(err_re.max(), err_im.max()) <= 2e-15

    def test_table_points_take_the_table_entry(self):
        k = np.arange(-3 * 1024, 3 * 1024, 7)
        cycles = (k / 1024.0)[None, :]
        got = engine._unit_phasors(cycles.copy(), np.empty(cycles.shape, dtype=complex),
                                   np.empty(cycles.shape, dtype=np.int64),
                                   np.empty(cycles.shape, dtype=complex))
        assert np.array_equal(got[0], engine._PHASOR_TABLE[k % 1024])

    @staticmethod
    def by_rint(cycles):
        """The phasors with k = rint(1024 cycles), then the kernel's table and series."""
        sq = np.rint(cycles * 1024.0)
        index = sq.astype(np.int64) & 1023
        x = (cycles - sq * (1.0 / 1024.0)) * TWO_PI
        x2 = x * x
        z = np.empty(cycles.shape, dtype=complex)
        z.real = (x2 * (1.0 / 24.0) - 0.5) * x2 + 1.0
        z.imag = (x2 * (1.0 / 120.0) - 1.0 / 6.0) * x2 * x + x
        # named, so that numpy cannot write the product into a temporary second
        # operand: a complex product computed that way can differ in its last bit
        table = engine._PHASOR_TABLE[index]
        return z * table

    def test_equals_the_rint_formula(self):
        rng = np.random.default_rng(9)
        ties = (np.concatenate([np.arange(-3000, 3000), [2 ** 49, 2 ** 49 + 7, 2 ** 50 - 1]])
                + 0.5) / 1024.0  # halfway between table points, up to 2^40 cycles
        cycles = np.concatenate([
            rng.uniform(-2.0 ** 40, 2.0 ** 40, 4000),
            rng.uniform(-1.0, 1.0, 4000) * 2.0 ** rng.integers(-30, 40, 4000),
            ties, -ties, [0.0, -0.0],
            np.arange(-4096, 4097) / 1024.0,  # table points
        ])
        cycles = np.resize(cycles, (len(cycles) // 8 + 1, 8))  # the kernel's 2-D layout
        got = engine._unit_phasors(cycles.copy(), np.empty(cycles.shape, dtype=complex),
                                   np.empty(cycles.shape, dtype=np.int64),
                                   np.empty(cycles.shape, dtype=complex))
        assert got.tobytes() == self.by_rint(cycles).tobytes()


class TestBlockPower:
    M = 10
    # empty blocks first, in the middle and last; rows 2 and 5 end in empty blocks,
    # one inside the tile and one at its end
    PER_ROW = np.array([[0, 3, 5, 7, 9, 10],
                        [2, 4, 4, 4, 8, 10],
                        [3, 6, 10, 10, 10, 10],
                        [1, 2, 3, 5, 8, 10],
                        [0, 0, 10, 10, 10, 10],
                        [0, 4, 4, 9, 10, 10]])
    SHARED = np.array([0, 2, 2, 6, 10, 10])

    def phasors(self, rows):
        rng = np.random.default_rng(5)
        return np.exp(2j * np.pi * rng.random((rows, self.M))) * rng.random((rows, self.M))

    @staticmethod
    def by_loop(z, ends):
        out = []
        for row, e in zip(z, np.broadcast_to(ends, (len(z), ends.shape[-1]))):
            begins = np.concatenate(([0], e[:-1]))
            out.append(sum(abs(row[b:f].sum()) ** 2 for b, f in zip(begins, e)))
        return np.array(out)

    @pytest.mark.parametrize("shared", [False, True], ids=["per-row", "shared"])
    def test_empty_blocks(self, shared):
        z = self.phasors(len(self.PER_ROW))
        ends = self.SHARED if shared else self.PER_ROW
        got = engine._block_power(z, ends)
        want = self.by_loop(z, ends)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, want))
        for i in range(len(z)):
            alone = engine._block_power(z[i:i + 1], ends if shared else ends[i:i + 1])
            assert alone[0] == got[i], i

    def test_shared_ends_give_the_per_row_bits(self):
        rng = np.random.default_rng(6)
        cases = [(self.phasors(len(self.PER_ROW)), self.SHARED)]
        for rows, m, blocks in ((9, 300, 256), (40, 1072, 128), (3, 17, 64)):
            ends = np.sort(rng.integers(0, m + 1, blocks))  # some blocks empty
            ends[-1] = m
            cases.append((np.exp(2j * np.pi * rng.random((rows, m))), ends))
        for z, ends in cases:
            tiled = np.tile(ends, (len(z), 1))
            assert engine._block_power(z, ends).tobytes() == engine._block_power(
                z, tiled).tobytes()


def reference_chain(ev, layer, idx):
    """Node by node: the phase formula, ``_unit_phasors`` and a per-row ``_block_power``."""
    t = ev.photons.times
    step = 1 << (layer - 1)
    ends = ev._ends[None, step - 1::step]
    out = []
    for w, d in zip(*ev.grid.node_params(layer, idx)):
        c = (w * t + 0.5 * d * t * t)[None, :]
        z = engine._unit_phasors(c, np.empty(c.shape, dtype=complex),
                                 np.empty(c.shape, dtype=np.int64),
                                 np.empty(c.shape, dtype=complex))
        out.append(engine._block_power(z, ends)[0])
    return 2.0 * np.array(out) / t.size


class TestEvaluateBits:
    # one drift per layer, as on the desk grid, and drift split 4 ways per layer
    GRIDS = {"single_drift": (GridSpec(1.0, 2.0, -1e-5, 0.0, num_layers=4, oversampling=3), 50.0),
             "eight_ary": KERNEL_GRIDS["eight_ary"]}

    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_equals_the_reference_chain(self, name):
        spec, span = self.GRIDS[name]
        fd = FreqDrift(0.5 * (spec.omega_min + spec.omega_max), spec.omegadot_min / 3)
        photons = simulate_photons(SignalSpec(fd, 0.6, 70, span), 4)
        ev = PulsarEvaluator(photons, PulsarGrid(spec, photons.span))
        for layer in ev.tree.layers():
            idx = np.arange(nodes_in_layer(ev.tree, layer))
            _, od = ev.grid.node_params(layer, idx)
            assert (np.unique(od).size == 1) == (name == "single_drift")
            want = reference_chain(ev, layer, idx).tobytes()
            assert ev.evaluate(layer, idx).tobytes() == want
            alone = np.concatenate([ev.evaluate(layer, [i]) for i in idx.tolist()])
            assert alone.tobytes() == want


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_SEARCH_CHUNK", chunk)
        out = run_search(strat, ev, q, emit_observed=True)
    observed = set_walk(strat, values)
    want_counts = [len(observed[l]) for l in tree.layers()]
    want_cost = sum(len(observed[l]) * tree.cost(l) for l in tree.layers())
    G = tree.num_layers
    assert set(out.detections["index"].tolist()) == {i for i in observed[G]
                                                     if values[G - 1][i] >= q}
    assert_detections_are_the_log_hits(out.detections, out.observed_log, G, q)
    assert out.per_layer_observed.tolist() == want_counts
    assert out.total_cost == pytest.approx(want_cost, rel=1e-12)
    # the log holds exactly the observed nodes, each once
    seen = {}
    for layer, index, val, act in out.observed_log.tolist():
        assert (layer, index) not in seen
        seen[layer, index] = (val, act)
    for l, cnt in enumerate(want_counts, start=1):
        assert sum(1 for layer, _ in seen if layer == l) == cnt


def assert_detections_are_the_log_hits(detections, log, leaf_layer, q):
    """Detections are the log's leaf rows at or above q, in strictly increasing index order."""
    hits = log[(log["layer"] == leaf_layer) & (log["statistic"] >= q)]
    assert detections["index"].tolist() == hits["index"].tolist()
    assert detections["statistic"].tolist() == hits["statistic"].tolist()
    assert np.all(np.diff(detections["index"]) > 0)


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
    assert hier.detections["index"].tolist() == flat.detections["index"].tolist()
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


def test_peak_tracked_stays_small_on_pruned_tree():
    tree = TreeConfig(num_layers=5, root_count=16, branching=(8,) * 4,
                      costs=(1.0,) * 5)
    leaves = nodes_in_layer(tree, 5)
    ev = SparsePeakEvaluator(tree, peak_leaf=leaves // 2, height=80.0, seed=3)
    strat = threshold_strategy(tree, cut=8.0)
    out = run_search(strat, ev, q_reject=25.0)
    assert out.peak_tracked < leaves / 10
    assert leaves // 2 in out.detections["index"].tolist()


def test_observed_csv_rows_follow_layer_and_index(tmp_path, monkeypatch):
    spec = GridSpec(1.0, 1.4, -1e-4, 0.0, num_layers=3, oversampling=3)
    photons = simulate_photons(SignalSpec(FreqDrift(1.2, -5e-5), 0.7, 60, 50.0), 8)
    ev = PulsarEvaluator(photons, PulsarGrid(spec, photons.span))
    strat = threshold_strategy(ev.tree, cut=2.0)
    texts = []
    for size in (1, 7, 4096):
        path = tmp_path / f"o{size}.csv"
        monkeypatch.setattr(engine, "_SEARCH_CHUNK", size)
        write_observed_csv(path, run_search(strat, ev, 8.0, emit_observed=True), ev)
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
    assert out.detections.size
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


def per_row_csv(outcome, ev):
    """detections.csv and observed.csv bytes with one ``repr`` per cell (a reference)."""
    def params(layer, index):
        om, od = ev.node_params(layer, np.array([index]))
        return repr(float(om[0])), repr(float(od[0]))

    G = ev.tree.num_layers
    det = "omega_hz,omegadot_s2,statistic,leaf_index\n" + "".join(
        "{},{},{!r},{}\n".format(*params(G, i), v, i) for i, v in outcome.detections.tolist())
    obs = "layer,node_index,omega_hz,omegadot_s2,statistic,action\n" + "".join(
        "{},{},{},{},{!r},{}\n".format(layer, i, *params(layer, i), v, a)
        for layer, i, v, a in outcome.observed_log.tolist())
    return det.encode(), obs.encode()


def test_csv_writers_equal_the_per_row_repr(tmp_path):
    ev = kernel_case("eight_ary")
    out = run_search(threshold_strategy(ev.tree, cut=2.0), ev, 6.0, emit_observed=True)
    leaves = out.observed_log[out.observed_log["layer"] == ev.tree.num_layers]
    om, od = ev.node_params(ev.tree.num_layers, leaves["index"])
    assert out.detections.size > 1
    assert np.unique(om).size < om.size and np.unique(od).size < od.size  # values repeat
    write_detections_csv(tmp_path / "d.csv", out, ev)
    write_observed_csv(tmp_path / "o.csv", out, ev)
    det, obs = per_row_csv(out, ev)
    assert (tmp_path / "d.csv").read_bytes() == det
    assert (tmp_path / "o.csv").read_bytes() == obs
    assert engine._reprs(np.array([0.0, -0.0, 1.5, 0.0])) == ["0.0", "-0.0", "1.5", "0.0"]


# (spec, span) of grids: frequency only, 8-ary, one frequency position with drift
# split 4 ways, and the kernel tests' mixed grid, whose frequency splits late
LATTICE_GRIDS = {
    "frequency": (GridSpec(1.0, 2.0, -1e-5, 0.0, num_layers=4, oversampling=3), 50.0),
    "eight_ary": (GridSpec(1.0, 1.3, -2e-3, 0.0, num_layers=3, oversampling=3), 40.0),
    "single": (GridSpec(1.5, 1.5, -2e-3, 0.0, num_layers=3, oversampling=3), 40.0),
    "mixed": KERNEL_GRIDS["mixed"],
}


class TestLeafLattice:
    @pytest.mark.parametrize("name", sorted(LATTICE_GRIDS))
    def test_leaf_index_inverts_node_coords(self, name):
        g = PulsarGrid(*LATTICE_GRIDS[name])
        G = g.spec.num_layers
        idx = np.arange(nodes_in_layer(g.tree, G))
        om, od = g.node_params(G, idx)
        kw, kd = g.node_coords(G, idx)
        positions = []
        for dim, k, param, d, n1 in ((0, kw, om, g.d_omega, g.n1_omega),
                                     (1, kd, od, g.d_omegadot, g.n1_omegadot)):
            count, first, spacing = g.leaf_lattice(dim)
            # node_coords counts half leaf spacings d[-1] / 2 and gives position p
            # ((2p + 1) * spacing + n1 * d[0] - count * spacing) / d[-1]
            unit = round(spacing / d[-1])
            shift = round((n1 * d[0] - count * spacing) / d[-1])
            assert np.all((k - shift) % unit == 0)
            p = ((k - shift) // unit - 1) // 2
            assert p.min() == 0 and p.max() == count - 1
            assert np.allclose(first + p * spacing, param, rtol=1e-14, atol=1e-9 * d[-1])
            positions.append(p)
        assert np.array_equal(g.leaf_index(*positions), idx)

    def test_grids_split_as_described(self):
        grids = {name: PulsarGrid(*case) for name, case in LATTICE_GRIDS.items()}
        shapes = {name: (g.freq_factor, g.drift_factor) for name, g in grids.items()}
        assert shapes == {"frequency": ((2, 2, 2), (1, 1, 1)), "eight_ary": ((2, 2), (4, 4)),
                          "single": ((1, 1), (4, 4)), "mixed": ((1, 2, 2, 2), (4, 4, 4, 4))}

    def test_mixed_split_grid_centres_its_late_dimension(self):
        g = PulsarGrid(*KERNEL_GRIDS["mixed"])
        assert g.n1_omega == 1
        count, first, spacing = g.leaf_lattice(0)
        assert (count, spacing) == (8, g.d_omega[-1])
        # eight leaf positions centred on the one frequency root, at coordinates 2p + 9
        [root], _ = g.node_params(1, [0])
        assert first + 3.5 * spacing == pytest.approx(root, rel=1e-15)
        G = g.spec.num_layers
        kw, _ = g.node_coords(G, np.arange(nodes_in_layer(g.tree, G)))
        assert np.unique(kw).tolist() == (2 * np.arange(count) + 9).tolist()


# the benchmark's sweep box (1/8 of the desk frequency range) and its 8-ary tradeoff grid
SWEEP_SPEC = GridSpec(1.0, 1.5, -5e-11, 0.0, num_layers=9, oversampling=3)
TRADEOFF_SPEC = GridSpec(1.0, 3.0, -2e-3, 0.0, num_layers=4, oversampling=3)
DESK_SPEC = GridSpec(1.0, 5.0, -5e-11, 0.0, num_layers=9, oversampling=3)
# a narrow desk-style box at 4x the desk span: drift splits only at the last two transitions
MIXED_SPEC = GridSpec(1.0, 1.01, -5e-11, 0.0, num_layers=9, oversampling=3)
MIXED_SPAN = 4 * DESK_SPAN
SCREEN_RTOL = 1e-8


def sweep_case(spec, span, count, theta, seed):
    fd = FreqDrift(spec.omega_min + 0.37 * (spec.omega_max - spec.omega_min),
                   0.6 * spec.omegadot_min)
    photons = simulate_photons(SignalSpec(fd, theta, count, span), seed)
    return PulsarEvaluator(photons, PulsarGrid(spec, photons.span))


def screened_and_exact(ev):
    """Every leaf's screened value and its exact value, segment by segment."""
    G = ev.tree.num_layers
    screened, exact = [], []
    for axis, row, lo, vals in ev.screen_leaves():
        along = lo + np.arange(vals.size)
        across = np.full(vals.size, row)
        idx = ev.grid.leaf_index(*((along, across) if axis == 0 else (across, along)))
        screened.append(vals)
        exact.append(ev.evaluate(G, idx))
    return np.concatenate(screened), np.concatenate(exact)


def screen_error(screened, exact):
    return float(np.max(np.abs(screened - exact) / np.maximum(1.0, np.abs(exact))))


@pytest.fixture(scope="module")
def sweep_box():
    return sweep_case(SWEEP_SPEC, DESK_SPAN, 1072, 0.5, 11)


@pytest.fixture(scope="module")
def mixed_box():
    return sweep_case(MIXED_SPEC, MIXED_SPAN, 1072, 0.5, 21)


class TestScreen:
    def test_sweep_box_every_leaf(self, sweep_box, monkeypatch):
        screened, exact = screened_and_exact(sweep_box)
        assert screened.size == nodes_in_layer(sweep_box.tree, 9) == 56576
        assert screen_error(screened, exact) <= SCREEN_RTOL
        # a spreading half-width of 8 is off by about 1e-7: the gate tells them apart
        monkeypatch.setattr(engine, "_SPREAD", 8)
        coarse = np.concatenate([v for *_, v in sweep_box.screen_leaves()])
        assert screen_error(coarse, exact) > SCREEN_RTOL

    def test_mixed_grid_every_leaf(self, mixed_box):
        assert mixed_box.grid.drift_factor == (1,) * 6 + (4, 4)
        screened, exact = screened_and_exact(mixed_box)
        assert screened.size == nodes_in_layer(mixed_box.tree, 9) == 18 * 256 * 16
        assert screen_error(screened, exact) <= SCREEN_RTOL

    @pytest.mark.parametrize("theta", [0.0, 0.7])
    def test_tradeoff_grid_every_leaf(self, theta):
        ev = sweep_case(TRADEOFF_SPEC, 80.0, 150, theta, 12)
        screened, exact = screened_and_exact(ev)
        assert screened.size == nodes_in_layer(ev.tree, 4) == 61440
        assert screen_error(screened, exact) <= SCREEN_RTOL

    def test_rows_follow_the_longer_dimension(self):
        # one frequency position: the rows run along drift
        ev = sweep_case(*LATTICE_GRIDS["single"], 90, 0.6, 13)
        segments = list(ev.screen_leaves())
        assert [(axis, row, lo) for axis, row, lo, _ in segments] == [(1, 0, 0)]
        screened, exact = screened_and_exact(ev)
        assert screened.size == nodes_in_layer(ev.tree, 3)
        assert screen_error(screened, exact) <= SCREEN_RTOL

    @pytest.mark.slow
    def test_desk_grid_every_leaf(self):
        ev = sweep_case(DESK_SPEC, DESK_SPAN, 1072, 0.0, 14)
        screened, exact = screened_and_exact(ev)
        assert screened.size == nodes_in_layer(ev.tree, 9) == 452096
        assert screen_error(screened, exact) <= SCREEN_RTOL

    @pytest.mark.slow
    def test_five_thousand_photons(self):
        ev = sweep_case(SWEEP_SPEC, DESK_SPAN, 5000, 0.2, 15)
        screened, exact = screened_and_exact(ev)
        assert screen_error(screened, exact) <= SCREEN_RTOL


def reference_gridded_sums(u, c, modes):
    """The gridding that each screen segment once rebuilt for itself: spread, transform, deconvolve."""
    n = 2 << (modes - 1).bit_length()
    ratio = n / modes
    tau = np.pi * engine._SPREAD / (modes * modes * ratio * (ratio - 0.5))
    offsets = np.arange(1 - engine._SPREAD, engine._SPREAD + 1)
    scale = -((TWO_PI / n) ** 2) / (4.0 * tau)
    re = np.zeros(n)
    im = np.zeros(n)
    rows = engine._tile_rows(offsets.size)
    for lo in range(0, u.size, rows):
        pos = u[lo:lo + rows] * n
        near = np.floor(pos)
        dist = (pos - near)[:, None] - offsets
        w = np.exp(scale * dist * dist)
        at = ((near.astype(np.int64)[:, None] + offsets) % n).ravel()
        cs = c[lo:lo + rows, None]
        re += np.bincount(at, (w * cs.real).ravel(), n)
        im += np.bincount(at, (w * cs.imag).ravel(), n)
    k = np.arange(-(modes // 2), modes - modes // 2)
    return np.fft.ifft(re + 1j * im)[k] * (np.sqrt(np.pi / tau) * np.exp(tau * k * k))


def reference_screen(ev, full_window):
    """``screen_leaves`` with its gridding rebuilt segment by segment.

    With ``full_window`` a row's last, shorter segment keeps the first
    values of a full window; without it, it transforms a window of its
    own length.
    """
    g = ev.grid
    lattice = (g.leaf_lattice(0), g.leaf_lattice(1))
    axis = 0 if lattice[0][0] >= lattice[1][0] else 1
    count, first, spacing = lattice[axis]
    rows, row_first, row_spacing = lattice[1 - axis]
    t = ev.photons.times
    s = (t, 0.5 * t ** 2)
    u = np.mod(spacing * s[axis], 1.0)
    m = t.size
    for row in range(rows):
        fixed = (row_first + row * row_spacing) * s[1 - axis]
        for lo in range(0, count, engine._SCREEN_MODES):
            modes = min(engine._SCREEN_MODES, count if full_window else count - lo)
            cycles = (first + (lo + modes // 2) * spacing) * s[axis]
            cycles += fixed
            c = engine._unit_phasors(cycles, np.empty(m, complex), np.empty(m, np.int64),
                                     np.empty(m, complex))
            f = reference_gridded_sums(u, c, modes)[:count - lo]
            yield axis, row, lo, (f.real * f.real + f.imag * f.imag) * (2.0 / m)


class TestGriddingPlan:
    @pytest.mark.parametrize("box", ["sweep", "mixed"])
    def test_one_plan_per_call(self, box, sweep_box, mixed_box, monkeypatch):
        ev = sweep_box if box == "sweep" else mixed_box
        built = []

        class Counted(engine._GriddingPlan):
            def __init__(self, u, modes):
                built.append(modes)
                super().__init__(u, modes)

        monkeypatch.setattr(engine, "_GriddingPlan", Counted)
        segments = list(ev.screen_leaves())
        assert built == [min(engine._SCREEN_MODES, ev.grid.leaf_lattice(segments[0][0])[0])]
        assert len(segments) > 1
        list(ev.screen_leaves())
        assert len(built) == 2

    @pytest.mark.parametrize("box", ["sweep", "mixed"])
    def test_segments_equal_the_per_segment_loop(self, box, sweep_box, mixed_box):
        ev = sweep_box if box == "sweep" else mixed_box
        segments = list(ev.screen_leaves())
        own = list(reference_screen(ev, full_window=False))
        cut = list(reference_screen(ev, full_window=True))
        assert [s[:3] for s in segments] == [s[:3] for s in own] == [s[:3] for s in cut]
        short = 0
        for (*_, vals), (*_, own_vals), (*_, cut_vals) in zip(segments, own, cut):
            # every segment, a short last one too, is the full-window transform bit for bit
            assert vals.tobytes() == cut_vals.tobytes()
            if vals.size == min(engine._SCREEN_MODES, ev.grid.leaf_lattice(segments[0][0])[0]):
                assert vals.tobytes() == own_vals.tobytes()
            else:
                short += 1
                assert screen_error(vals, own_vals) <= SCREEN_RTOL
        # the sweep box's one row ends in a short segment; the mixed box's rows are one segment
        assert short == (1 if box == "sweep" else 0)


class TestScreenBatches:
    # small segments, so a batch of five grids holds segments of several rows and a
    # row falls in two batches: 32 rows of 3 segments (8-ary), 8 rows of 6 (mixed);
    # None keeps the default budget, one batch for every segment
    @pytest.mark.parametrize("name, modes", [("eight_ary", 16), ("mixed", 48)])
    @pytest.mark.parametrize("batch", [5, None])
    def test_segments_equal_the_full_window_loop(self, name, modes, batch, monkeypatch):
        ev = kernel_case(name)
        monkeypatch.setattr(engine, "_SCREEN_MODES", modes)
        if batch:
            monkeypatch.setattr(engine, "_SCREEN_BATCH", batch * (2 << (modes - 1).bit_length()))
        segments = list(ev.screen_leaves())
        cut = list(reference_screen(ev, full_window=True))
        assert [s[:3] for s in segments] == [s[:3] for s in cut]
        for (*_, vals), (*_, cut_vals) in zip(segments, cut):
            assert vals.tobytes() == cut_vals.tobytes()
        rows = [row for _, row, _, _ in segments]
        per_row = rows.count(0)
        assert per_row > 1 and len(rows) > 2 * per_row
        if batch:
            rows_of_batch = [set(rows[i:i + batch]) for i in range(0, len(rows), batch)]
            batches_of_row = [{i // batch for i, r in enumerate(rows) if r == row}
                              for row in set(rows)]
            assert any(len(b) > 1 for b in rows_of_batch)
            assert any(len(b) > 1 for b in batches_of_row)
            assert len(segments) % batch  # the last batch is a partial one

    def test_memory_does_not_grow_with_the_segments(self, monkeypatch):
        photons = kernel_case("eight_ary").photons
        monkeypatch.setattr(engine, "_SCREEN_MODES", 16)

        def screen_peak(omegadot_min):
            spec = GridSpec(1.0, 1.3, omegadot_min, 0.0, num_layers=3, oversampling=3)
            ev = PulsarEvaluator(photons, PulsarGrid(spec, photons.span))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                segments = sum(1 for _ in ev.screen_leaves())
                return segments, tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        screen_peak(-2e-3)  # one-time allocations of a process's first screen come before
        (few, few_peak), (many, many_peak) = screen_peak(-2e-3), screen_peak(-3.2e-2)
        assert (few, many) == (96, 1160)
        # the same photons, plan and batch of grids, 12 times the segments
        assert many_peak <= few_peak + 4096


class TestScreenSpares:
    @pytest.fixture
    def plans(self, monkeypatch):
        """Every _GriddingPlan built while the test runs, in order."""
        built = []

        class Kept(engine._GriddingPlan):
            def __init__(self, u, modes):
                super().__init__(u, modes)
                built.append(self)

        monkeypatch.setattr(engine, "_GriddingPlan", Kept)
        return built

    def test_interleaved_screens_yield_their_own_values(self, plans):
        desk = sweep_case(GridSpec(1.0, 1.0625, -5e-11, 0.0, num_layers=9, oversampling=3),
                          DESK_SPAN, 1072, 0.5, 31)  # 1/64 of the desk box
        tradeoff = sweep_case(TRADEOFF_SPEC, 80.0, 150, 0.7, 32)
        alone = [[(a, r, lo, v.tobytes()) for a, r, lo, v in ev.screen_leaves()]
                 for ev in (desk, tradeoff)]
        both = [[], []]
        screens = [(0, desk.screen_leaves()), (1, tradeoff.screen_leaves())]
        while screens:  # one segment from each screen in turn, until both end
            for k, screen in list(screens):
                segment = next(screen, None)
                if segment is None:
                    screens.remove((k, screen))
                else:
                    a, r, lo, v = segment
                    both[k].append((a, r, lo, v.tobytes()))
        assert both == alone
        # the desk box is one segment, so the 8-ary screen runs on after the desk one
        # has given its buffers back
        assert len(alone[0]) == 1 < len(alone[1])
        # the second screen found the spares taken and allocated its own
        first, second = plans[2:]
        for role in first.buffers:
            assert not np.shares_memory(first.buffers[role], second.buffers[role])

    def test_a_second_sweep_takes_the_first_ones_grids(self, sweep_box, plans):
        q = default_q_reject(sweep_box.tree) - 8.0
        first = naive_search(sweep_box, q)
        assert engine._SPARES["grids"] is plans[0].buffers["grids"]
        second = naive_search(sweep_box, q)
        assert len(plans) == 2
        for role, buffer in plans[0].buffers.items():
            assert plans[1].buffers[role] is buffer
            assert engine._SPARES[role] is buffer
        assert first.detections.size
        assert second.detections.tobytes() == first.detections.tobytes()
        assert second.per_layer_observed.tolist() == first.per_layer_observed.tolist()
        assert second.sweep == first.sweep

    def test_a_screen_stopped_early_gives_its_buffers_back(self, sweep_box, plans):
        screen = sweep_box.screen_leaves()
        next(screen)
        assert "grids" not in engine._SPARES
        screen.close()
        assert engine._SPARES["grids"] is plans[0].buffers["grids"]


TILE_PHOTONS = engine._tile_rows(2 * engine._SPREAD)  # photons whose weights a plan keeps


class TestScreenOverSeveralTiles:
    @pytest.mark.parametrize("name", ["eight_ary", "mixed"])
    def test_screen_and_sweep(self, name, monkeypatch):
        ev = kernel_case(name, count=3000, seed=23)
        assert ev.photons.count > 2 * TILE_PHOTONS
        screened, exact = screened_and_exact(ev)
        assert screened.size == nodes_in_layer(ev.tree, ev.tree.num_layers)
        assert screen_error(screened, exact) <= SCREEN_RTOL
        q = float(np.sort(exact)[-6])  # the six largest leaves are detections
        monkeypatch.setattr(engine, "_SCREEN_MODES", 500)
        out = naive_search(ev, q)
        ref = walked(ev, q, 500)
        assert len(out.detections) == 6
        assert out.detections.tobytes() == ref.detections.tobytes()
        assert out.sweep["method"] == "screen"

    @pytest.mark.parametrize("name", ["eight_ary", "mixed"])
    def test_memory_grows_by_the_photon_arrays_only(self, name):
        def screen_peak(count):
            ev = kernel_case(name, count=count, seed=24)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                for _ in ev.screen_leaves():
                    pass
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        # whole tiles on both sides, so the last tile spread is a full one in each
        few, many = 2 * TILE_PHOTONS, 6 * TILE_PHOTONS
        screen_peak(few)  # one-time allocations of a process's first screen come before
        # u, cycles, z, index, work and t^2 / 2: 64 bytes a photon, and a few
        # KiB of Python objects; a plan keeping every tile would add 384 a photon
        assert screen_peak(many) - screen_peak(few) <= 64 * (many - few) + 4096


def walked(ev, q, chunk_size=8192, emit_observed=False):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_SEARCH_CHUNK", chunk_size)
        return engine._walk(ev, None, ev.tree.num_layers, q, emit_observed)


class TestScreenedSweep:
    @pytest.mark.parametrize("grid", ["sweep", "tradeoff", "mixed"])
    @pytest.mark.parametrize("pulsed", [False, True])
    def test_detections_equal_the_walk(self, grid, pulsed, sweep_box, mixed_box):
        if grid == "sweep":
            ev = sweep_box if pulsed else sweep_case(SWEEP_SPEC, DESK_SPAN, 1072, 0.0, 16)
        elif grid == "mixed":
            ev = mixed_box if pulsed else sweep_case(MIXED_SPEC, MIXED_SPAN, 1072, 0.0, 22)
        else:
            ev = sweep_case(TRADEOFF_SPEC, 80.0, 150, 0.7 if pulsed else 0.0, 17)
        q = default_q_reject(ev.tree) - 8.0  # a few detections on a null dataset too
        out = naive_search(ev, q)
        ref = walked(ev, q, emit_observed=True)
        assert out.detections.size
        assert out.detections.tobytes() == ref.detections.tobytes()
        assert_detections_are_the_log_hits(out.detections, ref.observed_log,
                                           ev.tree.num_layers, q)
        assert out.sweep["method"] == "screen"
        assert out.per_layer_observed.tolist() == ref.per_layer_observed.tolist()
        assert out.total_cost == ref.total_cost

    def test_threshold_at_a_leaf_value_detects_it(self):
        ev = sweep_case(TRADEOFF_SPEC, 80.0, 150, 0.7, 18)
        leaves = np.arange(nodes_in_layer(ev.tree, 4))
        vals = ev.evaluate(4, leaves)
        leaf = int(np.argsort(vals)[-5])  # the fifth largest
        out = naive_search(ev, float(vals[leaf]))
        assert out.detections.tolist() == [
            (int(i), float(vals[i])) for i in np.sort(np.argsort(vals)[-5:])]
        assert (leaf, float(vals[leaf])) in out.detections.tolist()

    def test_minus_infinity_confirms_every_leaf_in_chunks(self, monkeypatch):
        ev = sweep_case(*LATTICE_GRIDS["eight_ary"], 60, 0.5, 19)
        n = nodes_in_layer(ev.tree, 3)
        sizes = []
        evaluate = ev.evaluate
        monkeypatch.setattr(ev, "evaluate", lambda layer, idx: (
            sizes.append(len(idx)), evaluate(layer, idx))[1])
        monkeypatch.setattr(engine, "_SCREEN_MODES", 7)
        out = naive_search(ev, -np.inf)
        assert max(sizes) <= 7 and sum(sizes) == n
        assert out.sweep == {"method": "screen", "segments": out.sweep["segments"],
                             "confirmed": n}
        assert out.evaluate_calls[-1] == out.sweep["segments"] + len(sizes)
        monkeypatch.undo()
        assert out.detections.tobytes() == walked(ev, -np.inf, 7).detections.tobytes()
        assert out.detections["index"].tolist() == list(range(n))

    def test_bad_arguments_rejected_before_screening(self, monkeypatch):
        ev = sweep_case(*LATTICE_GRIDS["frequency"], 60, 0.5, 20)

        def no_screen(self):
            raise AssertionError("screened before checking the arguments")

        monkeypatch.setattr(PulsarEvaluator, "screen_leaves", no_screen)
        with pytest.raises(ValueError, match="NaN"):
            naive_search(ev, float("nan"))

    def test_mixed_grid_is_screened(self, monkeypatch):
        ev = kernel_case("mixed")
        q = 6.0
        monkeypatch.setattr(engine, "_SCREEN_MODES", 100)
        out = naive_search(ev, q)
        assert out.sweep["method"] == "screen"
        ref = walked(ev, q, 100)
        assert out.detections.size
        assert out.detections.tobytes() == ref.detections.tobytes()
        assert out.per_layer_observed.tolist() == ref.per_layer_observed.tolist()

    @pytest.mark.parametrize("make", [
        lambda tree: ArrayEvaluator(tree, [np.random.default_rng(layer).chisquare(
            2, nodes_in_layer(tree, layer)) for layer in tree.layers()]),
        lambda tree: SparsePeakEvaluator(tree, peak_leaf=40, height=30.0, seed=5),
    ])
    def test_other_evaluators_take_the_walk(self, make, monkeypatch):
        tree = TreeConfig(num_layers=3, root_count=4, branching=(3, 8), costs=(1.0, 2.0, 0.5))
        ev = make(tree)
        monkeypatch.setattr(engine, "_SEARCH_CHUNK", 10)
        out = naive_search(ev, 7.0)
        ref = walked(ev, 7.0, 10)
        assert out.sweep["method"] == "walk"
        assert out.detections.size
        assert out.detections.tobytes() == ref.detections.tobytes()
        assert out.total_cost == ref.total_cost == 96 * 0.5
