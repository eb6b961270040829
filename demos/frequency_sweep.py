"""End-to-end hierarchical search on a one-dimensional frequency grid.

Plants a modulated pulsar signal, fits a search strategy from null
training paths, runs the multi-resolution search, and compares its
observation cost against the exhaustive leaf sweep that finds the same
signal.
"""

from blindsearch import (FitConfig, FreqDrift, GridSpec, PulsarEvaluator,
                         PulsarGrid, PulsarNullModel, SignalSpec, fit_strategy,
                         naive_search, run_search, sample_paths, simulate_photons)
from blindsearch.tree import nodes_in_layer

SPAN = 120.0
M = 400
TRUE = FreqDrift(omega=3.31707, omegadot=0.0)

spec = GridSpec(omega_min=1.0, omega_max=5.0, omegadot_min=0.0, omegadot_max=0.0,
                num_layers=5, oversampling=3)
grid = PulsarGrid(spec, SPAN)
leaves = nodes_in_layer(grid.tree, 5)
print(f"grid: {grid.tree.root_count} roots -> {leaves} leaves, "
      f"spacing {grid.d_omega[-1]:.2e} Hz")

model = PulsarNullModel(grid, num_photons=M)
paths = sample_paths(model, 20_000, seed=7)
strategy = fit_strategy(paths, FitConfig(grid.tree, lam=1e-2, q_train=13.8))

photons = simulate_photons(SignalSpec(TRUE, theta=0.5, num_photons=M, span=SPAN), seed=8)
ev = PulsarEvaluator(photons, grid)
Q = 25.0

hier = run_search(strategy, ev, q_reject=Q)
naive = naive_search(ev, q_reject=Q)

print(f"hierarchical: cost {hier.total_cost:.0f} "
      f"({hier.total_cost / leaves:.1%} of sweep), "
      f"{len(hier.detections)} detections")
print(f"exhaustive:   cost {leaves} (100.0%), {len(naive.detections)} detections")
om, _ = grid.node_params(5, hier.detections["index"])
for leaf, omega, value in zip(hier.detections["index"].tolist(), om.tolist(),
                              hier.detections["statistic"].tolist()):
    print(f"  leaf {leaf}: omega {omega:.5f} Hz, statistic {value:.1f} "
          f"(truth {TRUE.omega} Hz)")
