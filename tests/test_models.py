import numpy as np
import pytest
from scipy import stats as sps

from blindsearch.engine import GridSpec, PulsarEvaluator, PulsarGrid
from blindsearch.models import GaussianChainModel, PulsarNullModel
from blindsearch.stats import FreqDrift, SignalSpec, simulate_photons
from blindsearch.tree import NodeId, TreeConfig, ancestor_index, nodes_in_layer
from blindsearch.util import subseed


def chain_tree(layers, branch=2):
    return TreeConfig(num_layers=layers, root_count=1,
                      branching=(branch,) * (layers - 1), costs=(1.0,) * layers)


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
                anc = leaf if layer == 4 else ancestor_index(g.tree, NodeId(4, leaf), layer)
                real[i, layer - 1] = ev.evaluate(layer, np.array([anc]))[0]
        for layer in range(4):
            ks = sps.ks_2samp(fitted[:, layer], real[:, layer]).statistic
            assert ks < 0.12, f"layer {layer + 1} mismatch: ks={ks:.3f}"
        # adjacent layers must correlate similarly
        for layer in range(3):
            cf = np.corrcoef(fitted[:, layer], fitted[:, layer + 1])[0, 1]
            cr = np.corrcoef(real[:, layer], real[:, layer + 1])[0, 1]
            assert abs(cf - cr) < 0.25


def test_models_expose_num_layers():
    tree = chain_tree(3)
    assert GaussianChainModel(tree, 0.5).tree.num_layers == 3
    spec = GridSpec(1.0, 2.0, 0.0, 0.0, num_layers=3, oversampling=3)
    m = PulsarNullModel(PulsarGrid(spec, 100.0), 50)
    assert m.grid.tree.num_layers == 3
