"""Miniature power/cost tradeoff curve.

Sweeps the cost weight on a small two-dimensional grid and prints, for
each value, the observation cost under the null and the detection power
on random injections, both relative to the exhaustive sweep. The full
desk-scale version of this experiment lives behind
``blindsearch evaluate`` and takes considerably longer.
"""

import time

from blindsearch import GridSpec, TradeoffConfig, estimate_tradeoff

grid = GridSpec(omega_min=1.0, omega_max=3.0, omegadot_min=-1e-6, omegadot_max=0.0,
                num_layers=4, oversampling=3)
cfg = TradeoffConfig(grid=grid, span=80.0, num_photons=150, num_paths=20_000,
                     qtrain_quantile=0.99, q_reject=18.0)

t0 = time.time()
points = estimate_tradeoff([0.0, 1e-3, 5e-3, 2e-2, 1e-1], [0.55], cfg, n_sims=40, seed=21)[0]
print(f"{'lambda':>8} {'cost/naive':>11} {'power/naive':>12}")
for p in points:
    print(f"{p.lam:8.3g} {p.cost_fraction:11.3f} {p.power_fraction:12.3f}")
print(f"({len(points)} strategies, {points[0].n_sims} sims each, "
      f"{time.time() - t0:.0f}s)")
