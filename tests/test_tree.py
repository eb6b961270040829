import pytest
from hypothesis import given, strategies as st

from blindsearch.tree import TreeConfig, descendant_count, nodes_in_layer


def tree_8ary(layers=4):
    return TreeConfig(num_layers=layers, root_count=6, branching=(8,) * (layers - 1),
                      costs=(1.0,) * layers)


def test_nodes_in_layer_counts():
    t = tree_8ary()
    assert [nodes_in_layer(t, l) for l in t.layers()] == [6, 48, 384, 3072]


def test_descendant_count_unit_at_same_layer():
    t = tree_8ary()
    assert descendant_count(t, 2, 2) == 1
    assert descendant_count(t, 1, 4) == 8 ** 3


def test_mixed_branching_counts():
    t = TreeConfig(num_layers=3, root_count=2, branching=(3, 5), costs=(1.0, 1.0, 1.0))
    assert nodes_in_layer(t, 3) == 30
    assert descendant_count(t, 1, 3) == 15
    assert descendant_count(t, 2, 3) == 5


def test_validation_errors():
    with pytest.raises(ValueError):
        TreeConfig(num_layers=0, root_count=1, branching=(), costs=())
    with pytest.raises(ValueError):
        TreeConfig(num_layers=2, root_count=1, branching=(0,), costs=(1.0, 1.0))
    with pytest.raises(ValueError):
        TreeConfig(num_layers=2, root_count=0, branching=(2,), costs=(1.0, 1.0))
    with pytest.raises(ValueError):
        TreeConfig(num_layers=2, root_count=1, branching=(2,), costs=(1.0,))
    t = tree_8ary()
    with pytest.raises(ValueError):
        descendant_count(t, 3, 2)
    with pytest.raises(ValueError):
        nodes_in_layer(t, 5)


def test_huge_tree_pure_python_ints():
    # 30 layers of 8-ary branching: counts far beyond 2**63 must stay exact
    t = TreeConfig(num_layers=30, root_count=10, branching=(8,) * 29,
                   costs=(1.0,) * 30)
    n = nodes_in_layer(t, 30)
    assert n == 10 * 8 ** 29
    assert n > 2 ** 63
    assert descendant_count(t, 1, 30) == 8 ** 29
    assert (n - 1) // descendant_count(t, 1, 30) == 9  # the last leaf's root


@st.composite
def random_tree(draw):
    layers = draw(st.integers(2, 5))
    branching = tuple(draw(st.integers(2, 4)) for _ in range(layers - 1))
    roots = draw(st.integers(1, 4))
    return TreeConfig(num_layers=layers, root_count=roots, branching=branching,
                      costs=(1.0,) * layers)


@given(random_tree(), st.data())
def test_ranges_partition_each_layer(t, data):
    # node i of layer src owns the layer-dst indices [i * b, (i + 1) * b)
    src = data.draw(st.integers(1, t.num_layers - 1))
    dst = data.draw(st.integers(src + 1, t.num_layers))
    assert nodes_in_layer(t, src) * descendant_count(t, src, dst) == nodes_in_layer(t, dst)
