import numpy as np
import pytest
from scipy import stats as sps

from blindsearch import engine
from blindsearch.engine import GridSpec, PulsarEvaluator, PulsarGrid
from blindsearch.evaluation import DESK_SPAN
from blindsearch.models import GaussianChainModel, PulsarNullModel
from blindsearch.stats import (FreqDrift, PhotonSeries, SignalSpec, blocked_power,
                               simulate_photons)
from blindsearch.tree import descendant_count, nodes_in_layer
from blindsearch.util import subseed
from reference import chain_tree


class TestGaussianChain:
    def test_transition_coefficients(self):
        m = GaussianChainModel(chain_tree(4), rho=0.8)
        a, sd = m.transition(1, 2)
        assert a == pytest.approx(0.8)
        assert sd == pytest.approx(np.sqrt(1 - 0.64))
        a2, sd2 = m.transition(1, 3)
        assert a2 == pytest.approx(0.64)
        assert sd2 == pytest.approx(np.sqrt(1 - 0.64 ** 2))

    def test_path_batch_law(self):
        m = GaussianChainModel(chain_tree(3), rho=0.7)
        rng = np.random.default_rng(0)
        x = m.sample_path_values_batch(40_000, rng)
        assert x.shape == (40_000, 3)
        assert np.mean(x, axis=0) == pytest.approx([0, 0, 0], abs=0.02)
        assert np.var(x, axis=0) == pytest.approx([1, 1, 1], rel=0.03)
        for l in (0, 1):
            corr = np.corrcoef(x[:, l], x[:, l + 1])[0, 1]
            assert corr == pytest.approx(0.7, abs=0.02)
        # two-layer jump decorrelates geometrically
        assert np.corrcoef(x[:, 0], x[:, 2])[0, 1] == pytest.approx(0.49, abs=0.02)

    def test_tree_batch_structure(self):
        tree = chain_tree(3, branch=3)
        m = GaussianChainModel(tree, rho=0.9)
        rng = np.random.default_rng(2)
        vals = m.sample_tree_batch(5000, rng)
        assert [v.shape for v in vals] == [(5000, 1), (5000, 3), (5000, 9)]
        # each child regresses on its parent with slope rho
        parent = vals[0][:, 0]
        child = vals[1][:, 1]
        assert np.corrcoef(parent, child)[0, 1] == pytest.approx(0.9, abs=0.02)
        # siblings correlate only through the parent: rho^2
        assert np.corrcoef(vals[1][:, 0], vals[1][:, 2])[0, 1] == pytest.approx(
            0.81, abs=0.02)
        # leaves under different roots of the same family stay standard normal
        assert np.var(vals[2].ravel()) == pytest.approx(1.0, rel=0.05)

    def test_rho_validation(self):
        with pytest.raises(ValueError):
            GaussianChainModel(chain_tree(2), rho=1.0)
        with pytest.raises(ValueError):
            GaussianChainModel(chain_tree(2), rho=-0.1)


class TestPulsarNullModel:
    def grid(self, layers=4):
        spec = GridSpec(1.0, 2.0, -1e-6, 0.0, num_layers=layers, oversampling=3)
        return PulsarGrid(spec, 500.0)

    def test_reproducible(self):
        m = PulsarNullModel(self.grid(), num_photons=100)
        a = m.sample_path_values_batch(600, np.random.default_rng(3))
        b = m.sample_path_values_batch(600, np.random.default_rng(3))
        assert np.array_equal(a, b)
        assert a.shape == (600, 4)

    def test_times_into_buffer_equal_a_fresh_draw(self):
        g = self.grid()
        m = PulsarNullModel(g, num_photons=37)
        buf = np.full((5, 37), np.nan)
        a, b = np.random.default_rng(9), np.random.default_rng(9)
        got = m._times(5, a, out=buf)
        assert got is buf
        assert np.array_equal(got, np.sort(b.random((5, 37)) * g.span, axis=1))
        assert a.random() == b.random()  # the stream continues at the same place

    def test_null_moments_per_layer(self):
        g = self.grid()
        m = PulsarNullModel(g, num_photons=400)
        x = m.sample_path_values_batch(4000, np.random.default_rng(4))
        for layer in range(1, 5):
            kappa = g.kappa(layer)
            col = x[:, layer - 1]
            assert np.mean(col) == pytest.approx(2.0, rel=0.05)
            assert np.var(col) == pytest.approx(4.0 / 2 ** kappa, rel=0.2)

    def test_leaf_layer_is_chi2_2(self):
        m = PulsarNullModel(self.grid(), num_photons=300)
        x = m.sample_path_values_batch(3000, np.random.default_rng(5))
        ks = sps.kstest(x[:, -1], sps.chi2(df=2).cdf).statistic
        assert ks < 0.03

    def test_path_law_matches_real_lineages(self):
        """Dual route: training paths vs statistics of actual null datasets.

        Draw a uniform leaf, evaluate its ancestor chain on fresh uniform
        photons with the real evaluator, and compare against the path
        sampler layer by layer.
        """
        g = self.grid()
        m_photons = 200
        n = 250
        model = PulsarNullModel(g, num_photons=m_photons)
        fitted = model.sample_path_values_batch(4000, np.random.default_rng(6))

        rng = np.random.default_rng(7)
        real = np.empty((n, 4))
        leaves = nodes_in_layer(g.tree, 4)
        for i in range(n):
            photons = simulate_photons(
                SignalSpec(FreqDrift(1.5), 0.0, m_photons, 500.0), subseed(8, i))
            ev = PulsarEvaluator(photons, g)
            leaf = int(rng.integers(0, leaves))
            for layer in range(1, 5):
                anc = leaf // descendant_count(g.tree, layer, 4)
                real[i, layer - 1] = ev.evaluate(layer, np.array([anc]))[0]
        for layer in range(4):
            ks = sps.ks_2samp(fitted[:, layer], real[:, layer]).statistic
            assert ks < 0.12, f"layer {layer + 1} mismatch: ks={ks:.3f}"
        # adjacent layers must correlate similarly
        for layer in range(3):
            cf = np.corrcoef(fitted[:, layer], fitted[:, layer + 1])[0, 1]
            cr = np.corrcoef(real[:, layer], real[:, layer + 1])[0, 1]
            assert abs(cf - cr) < 0.25


@pytest.mark.parametrize("spec, span, m, branching", [
    (GridSpec(1.0, 2.0, -1e-6, 0.0, num_layers=4, oversampling=3), 500.0, 100, (2, 2, 8)),
    (GridSpec(1.0, 3.0, -2e-3, 0.0, num_layers=4, oversampling=3), 80.0, 150, (8, 8, 8)),
    (GridSpec(1.0, 3.0, -2e-3, 0.0, num_layers=5, oversampling=3), 80.0, 7, (8, 8, 8, 8)),
], ids=["drift-box", "eight-ary", "empty-blocks"])
def test_path_values_match_blocked_power_on_own_photons(spec, span, m, branching, monkeypatch):
    """Replay one draw: each path value is the reference statistic at its node.

    The sampler derives coarser layers from the leaf by phase rotation;
    the reference computes every layer's phases from scratch. The first
    grid splits in drift only at its last step; with 7 photons in 16
    layer-1 blocks, some blocks of the third are empty.
    """
    grid = PulsarGrid(spec, span)
    assert grid.tree.branching == branching
    model = PulsarNullModel(grid, m)
    n = 40  # within one draw batch: nodes first, then every path's photons
    got = model.sample_path_values_batch(n, np.random.default_rng(11))
    rng = np.random.default_rng(11)
    idx = [rng.integers(0, grid.tree.root_count, n)]
    for b in grid.tree.branching:
        idx.append(idx[-1] * b + rng.integers(0, b, n))
    params = [grid.node_params(layer, i) for layer, i in zip(grid.tree.layers(), idx)]
    t = model._times(n, rng)
    for i in range(n):
        photons = PhotonSeries(t[i], span)
        for layer in grid.tree.layers():
            omega, omegadot = params[layer - 1]
            fd = FreqDrift(float(omega[i]), float(omegadot[i]))
            ref = blocked_power(photons, fd, grid.kappa(layer))
            assert abs(got[i, layer - 1] - ref) <= 1e-9 * max(1.0, abs(ref)), (i, layer)
    # tiles group whole rows, so tiles of one to three rows give the same bits
    monkeypatch.setattr(engine, "_TILE_ELEMENTS", 3 * m)
    assert np.array_equal(model.sample_path_values_batch(n, np.random.default_rng(11)), got)


@pytest.mark.parametrize("layers", [4, 9])
def test_block_rule_shared_at_block_edges(layers):
    """Photons at and one ulp either side of every inner block edge, at span 80.

    There ``t * (2^kappa / span)`` and the edges ``k * span / 2^kappa``
    round differently for some times, so a sampler, an evaluator and a
    reference that placed photons in blocks by different rules would
    disagree at the layers below the leaves.
    """
    span = 80.0
    grid = PulsarGrid(GridSpec(1.0, 3.0, -2e-3, 0.0, num_layers=layers, oversampling=3), span)
    nb = 1 << grid.kappa(1)
    edges = np.linspace(0.0, span, nb + 1)[1:-1]
    times = np.sort(np.concatenate([edges, np.nextafter(edges, 0.0),
                                    np.nextafter(edges, span)]))
    photons = PhotonSeries(times, span)
    n, m = 6, times.size
    model = PulsarNullModel(grid, m)
    params = model._path_params(n, np.random.default_rng(5))
    rng = np.random.default_rng(5)
    idx = [rng.integers(0, grid.tree.root_count, n)]
    for b in grid.tree.branching:
        idx.append(idx[-1] * b + rng.integers(0, b, n))
    work = {k: np.empty((n, m)) for k in ("c",)}
    work.update((k, np.empty((n, m), dtype=complex)) for k in ("z", "u", "v", "w"))
    work["index"] = np.empty((n, m), dtype=np.int64)
    got = 2.0 * model._powers(*params, np.tile(times, (n, 1)), work) / m
    ev = PulsarEvaluator(photons, grid)
    for layer in grid.tree.layers():
        value = ev.evaluate(layer, idx[layer - 1])
        omega, omegadot = grid.node_params(layer, idx[layer - 1])
        ref = [blocked_power(photons, FreqDrift(float(w), float(d)), grid.kappa(layer))
               for w, d in zip(omega, omegadot)]
        np.testing.assert_allclose(got[:, layer - 1], value, rtol=1e-9, atol=1e-9)
        np.testing.assert_allclose(value, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("spec, span", [
    (GridSpec(1.0, 2.0, -1e-6, 0.0, num_layers=4, oversampling=3), 500.0),
    (GridSpec(1.0, 3.0, -2e-3, 0.0, num_layers=4, oversampling=3), 80.0),
    (GridSpec(1.0, 1.02, -1e-3, 0.0, num_layers=5, oversampling=3), 100.0),
    (GridSpec(1.0, 5.0, -5e-11, 0.0, num_layers=9, oversampling=3), DESK_SPAN),
], ids=["drift-box", "eight-ary", "mixed", "desk"])
def test_path_nodes_are_the_grid_nodes(spec, span):
    """Replay one draw's nodes: the sampler places them where the grid does.

    Roots and child digits come off the stream in that order; a path's
    leaf parameters are ``node_params`` bit for bit, and its offset
    exponents are differences of ``node_coords``.
    """
    grid = PulsarGrid(spec, span)
    n = 300
    omega, omegadot, e_omega, e_omegadot = PulsarNullModel(grid, 10)._path_params(
        n, np.random.default_rng(12))
    rng = np.random.default_rng(12)
    idx = rng.integers(0, grid.tree.root_count, n)
    parent = None
    for layer in grid.tree.layers():
        if layer > 1:
            b = grid.tree.branching[layer - 2]
            idx = idx * b + rng.integers(0, b, n)
        kw, kd = grid.node_coords(layer, idx)
        if parent is not None:
            ew, ed = e_omega[:, layer - 2], e_omegadot[:, layer - 2]
            assert np.array_equal(ew, kw - 2 * parent[0])
            assert np.array_equal(ed, kd - 4 * parent[1])
            split_w = grid.freq_factor[layer - 2] > 1
            split_d = grid.drift_factor[layer - 2] > 1
            assert set(np.unique(ew)) <= ({-1, 1} if split_w else {0})
            assert set(np.unique(ed)) <= ({-3, -1, 1, 3} if split_d else {0})
        parent = kw, kd
    om, od = grid.node_params(grid.tree.num_layers, idx)
    assert np.array_equal(omega, om)
    assert np.array_equal(omegadot, od)


class CopyRotationModel(PulsarNullModel):
    """The sampler with each layer's rotation built as a fresh factor.

    Every step copies u (or v, cubed where the offset is 3), flips the
    sign of its imaginary part where the exponent is positive, and
    multiplies it in: the plain form of the conjugated-row rotation.
    """

    def _powers(self, omega, omegadot, e_omega, e_omegadot, t, work):
        g = self.grid
        G = g.spec.num_layers
        rows = t.shape[0]
        c, z, u, v, w, index = (work[k][:rows] for k in ("c", "z", "u", "v", "w", "index"))
        ends = engine._block_ends(t, 1 << g.kappa(1), g.span, c, index)
        np.multiply(t, 0.5 * omegadot[:, None], out=c)
        c += omega[:, None]
        c *= t
        engine._unit_phasors(c, z, index, w)
        np.multiply(t, 0.5 * g.d_omega[G - 1], out=c)
        engine._unit_phasors(c, u, index, w)
        np.multiply(t, t, out=c)
        c *= 0.25 * g.d_omegadot[G - 1]
        engine._unit_phasors(c, v, index, w)
        out = np.empty((rows, G))
        out[:, G - 1] = engine._block_power(z, ends[:, -1:])
        for layer in range(G - 1, 0, -1):
            if g.freq_factor[layer - 1] > 1:
                w = u.copy()
                w.imag *= -e_omega[:, layer - 1, None]
                z *= w
            if g.drift_factor[layer - 1] > 1:
                e = e_omegadot[:, layer - 1, None]
                w = np.where(np.abs(e) == 3, (v * v) * v, v)
                w.imag *= -np.sign(e)
                z *= w
            step = 1 << (layer - 1)
            out[:, layer - 1] = engine._block_power(z, ends[:, step - 1::step])
            u *= u
            v *= v
            v *= v
        return out


@pytest.mark.parametrize("spec, span, m", [
    (GridSpec(1.0, 3.0, -2e-3, 0.0, num_layers=4, oversampling=3), 80.0, 150),
    (GridSpec(1.0, 1.02, -1e-3, 0.0, num_layers=5, oversampling=3), 100.0, 60),
], ids=["eight-ary", "mixed"])
def test_rotation_equals_copy_and_sign_flip_bit_for_bit(spec, span, m):
    grid = PulsarGrid(spec, span)
    model = PulsarNullModel(grid, m)
    e_omegadot = model._path_params(700, np.random.default_rng(13))[3]
    assert set(np.unique(e_omegadot)) >= {-3, -1, 1, 3}
    got = model.sample_path_values_batch(700, np.random.default_rng(13))
    want = CopyRotationModel(grid, m).sample_path_values_batch(700, np.random.default_rng(13))
    assert np.array_equal(got, want)


def test_models_expose_num_layers():
    tree = chain_tree(3)
    assert GaussianChainModel(tree, 0.5).tree.num_layers == 3
    spec = GridSpec(1.0, 2.0, 0.0, 0.0, num_layers=3, oversampling=3)
    m = PulsarNullModel(PulsarGrid(spec, 100.0), 50)
    assert m.grid.tree.num_layers == 3
