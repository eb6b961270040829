"""Index arithmetic for layered hypothesis trees.

A tree has layers 1..G. Layer 1 holds ``root_count`` nodes; every node in
layer l has ``branching[l-1]`` children in layer l+1. Nodes never store
links: a node is a (layer, index) pair and all ancestry is positional:
with b = descendant_count(cfg, l, s), node i of layer l has the layer-s
descendants [i * b, (i + 1) * b), and node j of layer s has the layer-l
ancestor j // b.
Indices are zero-based within a layer and are plain Python integers, so
trees far beyond 2**63 leaves are representable without overflow.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TreeConfig:
    """Shape and per-layer observation costs of a layered tree.

    Parameters
    ----------
    num_layers : int
        Number of layers G, at least 2. Layer G is the leaf layer.
    root_count : int
        Nodes in layer 1, at least 1.
    branching : tuple of int
        Children per node for each transition, length G-1, entries >= 1.
    costs : tuple of float
        Cost of observing one node in each layer, length G, entries > 0.
    """

    num_layers: int
    root_count: int
    branching: tuple
    costs: tuple

    def __post_init__(self):
        if self.num_layers < 2:
            raise ValueError("need at least 2 layers")
        if self.root_count < 1:
            raise ValueError("root_count must be >= 1")
        object.__setattr__(self, "branching", tuple(int(b) for b in self.branching))
        object.__setattr__(self, "costs", tuple(float(c) for c in self.costs))
        if len(self.branching) != self.num_layers - 1:
            raise ValueError("branching must have num_layers-1 entries")
        if len(self.costs) != self.num_layers:
            raise ValueError("costs must have num_layers entries")
        if any(b < 1 for b in self.branching):
            raise ValueError("branching factors must be >= 1")
        if any(not c > 0 for c in self.costs):
            raise ValueError("costs must be positive")

    def cost(self, layer: int) -> float:
        return self.costs[layer - 1]

    def layers(self):
        return range(1, self.num_layers + 1)


def nodes_in_layer(cfg: TreeConfig, layer: int) -> int:
    """Number of nodes in a layer.

    Equals root_count times the product of branching factors above the
    layer. Exact integer arithmetic, no overflow.
    """
    if not 1 <= layer <= cfg.num_layers:
        raise ValueError(f"layer {layer} outside 1..{cfg.num_layers}")
    n = cfg.root_count
    for b in cfg.branching[: layer - 1]:
        n *= b
    return n


def descendant_count(cfg: TreeConfig, layer: int, target: int) -> int:
    """Number of descendants one layer-``layer`` node has in layer ``target``.

    ``target == layer`` counts the node itself (1).
    """
    if not 1 <= layer <= target <= cfg.num_layers:
        raise ValueError(f"need 1 <= {layer} <= {target} <= {cfg.num_layers}")
    n = 1
    for b in cfg.branching[layer - 1 : target - 1]:
        n *= b
    return n
