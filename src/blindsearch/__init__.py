"""Hierarchical blind search under computational cost constraints.

Fit near-optimal multi-resolution search strategies from Monte-Carlo
path samples, execute them over huge hypothesis trees without
materializing the tree, and measure the resulting power/cost tradeoff
against the exhaustive sweep.
"""

__version__ = "0.1.0"

from .tree import TreeConfig, descendant_count, nodes_in_layer
from .isotonic import MonotoneFn, pava
from .stats import (FreqDrift, PhotonSeries, SignalSpec, blocked_power, chi2_2_quantile,
                    chi2_2_sf, phase, rayleigh_power, read_photons, simulate_photons,
                    write_photons)
from .fit import (FORMAT_VERSION, FitConfig, Strategy, fit_strategy, load_strategy,
                  path_payoff, sample_paths, save_strategy)
from .engine import (ArrayEvaluator, GridSpec, PulsarEvaluator, PulsarGrid,
                     SearchOutcome, SparsePeakEvaluator, default_q_reject,
                     naive_search, run_search, write_detections_csv,
                     write_layer_summary_csv, write_observed_csv)
from .models import GaussianChainModel, PulsarNullModel
from .evaluation import (OracleResult, TradeoffConfig, TradeoffPoint,
                         desk_scale_config, estimate_tradeoff, exact_dp_oracle,
                         fitted_payoff_estimate, leaf_window, naive_power_check,
                         write_tradeoff_csv)

__all__ = [
    "__version__",
    "TreeConfig", "descendant_count", "nodes_in_layer",
    "MonotoneFn", "pava",
    "FreqDrift", "PhotonSeries", "SignalSpec", "blocked_power",
    "chi2_2_quantile", "chi2_2_sf", "phase", "rayleigh_power",
    "read_photons", "simulate_photons", "write_photons",
    "FORMAT_VERSION", "FitConfig", "Strategy", "fit_strategy", "load_strategy",
    "path_payoff", "sample_paths", "save_strategy",
    "ArrayEvaluator", "GridSpec", "PulsarEvaluator", "PulsarGrid", "SearchOutcome",
    "SparsePeakEvaluator", "default_q_reject", "naive_search", "run_search",
    "write_detections_csv", "write_layer_summary_csv", "write_observed_csv",
    "GaussianChainModel", "PulsarNullModel",
    "OracleResult", "TradeoffConfig", "TradeoffPoint", "desk_scale_config",
    "estimate_tradeoff", "exact_dp_oracle", "fitted_payoff_estimate", "leaf_window",
    "naive_power_check", "write_tradeoff_csv",
]
