"""Fitted strategies versus the exact optimum on a reference tree.

On small trees with Gaussian chain statistics the optimal stopping
problem is solvable by backward induction on a discretized state, which
gives a ground-truth payoff. This script fits strategies from sampled
paths at several cost weights and reports the fraction of the optimum
each one achieves on fresh simulations.
"""

from blindsearch import (FitConfig, GaussianChainModel, exact_dp_oracle,
                         fit_strategy, fitted_payoff_estimate, sample_paths)
from blindsearch.tree import TreeConfig

tree = TreeConfig(num_layers=3, root_count=1, branching=(2, 2), costs=(1.0, 1.0, 1.0))
model = GaussianChainModel(tree, rho=0.9)
Q = 1.5
N_PATHS = 50_000
N_SIMS = 20_000

print(f"tree: {tree.num_layers} layers, branching {tree.branching}, rho=0.9, q={Q}")
print(f"{'lambda':>8} {'exact':>9} {'fitted':>9} {'se':>7} {'ratio':>7}")
paths = sample_paths(model, N_PATHS, seed=100)
for lam in (0.0, 0.02, 0.05, 0.1, 0.2):
    oracle = exact_dp_oracle(model, lam, Q)
    strat = fit_strategy(paths, FitConfig(tree, lam, Q))
    mean, se = fitted_payoff_estimate(strat, model, Q, N_SIMS, seed=200)
    ratio = mean / oracle.total_payoff if oracle.total_payoff > 0 else float("nan")
    print(f"{lam:8.3f} {oracle.total_payoff:9.4f} {mean:9.4f} {se:7.4f} {ratio:7.3f}")

# where the exact rule switches from stopping to jumping, per layer
oracle = exact_dp_oracle(model, 0.05, Q)
for layer, acts in enumerate(oracle.layer_actions, start=1):
    switches = [f"{oracle.centers[i]:.2f}->{acts[i]}"
                for i in range(1, acts.size) if acts[i] != acts[i - 1]]
    print(f"layer {layer} action switches: " + ", ".join(switches))
