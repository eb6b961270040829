import blindsearch


def test_public_names_are_pinned():
    # a name joins or leaves the public API only with this list
    assert blindsearch.__all__ == [
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
    assert len(blindsearch.__all__) == 49
    assert all(hasattr(blindsearch, name) for name in blindsearch.__all__)
