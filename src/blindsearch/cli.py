"""Command line front end.

Subcommands cover the full workflow: simulate photon series, fit a
strategy for a cost weight, run it (or the exhaustive sweep) over a
dataset, estimate a power/cost tradeoff curve, and compare the fitter
against the exact optimum on a small reference tree.

Every file-producing command writes a sidecar manifest recording the
resolved configuration, seeds and inputs; the data files themselves
carry no timestamps, so a rerun with identical inputs is byte-identical.

Exit codes: 0 success, 2 usage, 3 malformed input data, 4 degenerate fit.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (PulsarEvaluator, PulsarGrid, GridSpec, default_q_reject,
                     naive_search, run_search, write_detections_csv,
                     write_layer_summary_csv, write_observed_csv)
from .evaluation import (DESK_LAMBDAS, DESK_THETAS, REFERENCE_FD, REFERENCE_SPAN,
                         TradeoffConfig, estimate_tradeoff, exact_dp_oracle,
                         fitted_payoff_estimate, write_tradeoff_csv)
from .fit import (FORMAT_VERSION, FitConfig, fit_strategy, load_strategy,
                  sample_paths, save_strategy)
from .models import GaussianChainModel, PulsarNullModel
from .stats import (FreqDrift, SignalSpec, chi2_2_quantile, read_photons,
                    simulate_photons, write_photons)
from .tree import TreeConfig, nodes_in_layer
from .util import subseed

USAGE_ERROR = 2
DATA_ERROR = 3
DEGENERATE_FIT = 4

_GRID_DEFAULTS = {
    "omega_min": 1.0,
    "omega_max": 5.0,
    "omegadot_min": -5e-11,
    "omegadot_max": 0.0,
    "layers": 9,
    "oversampling": 3,
    "span": REFERENCE_SPAN / 32.0,
}

DEFAULTS = {
    "simulate": {
        "theta": 0.34,
        "photons": 1072,
        "span": REFERENCE_SPAN,
        "omega": REFERENCE_FD.omega,
        "omegadot": REFERENCE_FD.omegadot,
        "seed": 0,
    },
    "fit": {
        **_GRID_DEFAULTS,
        "lam": None,
        "paths": 100_000,
        "qtrain_quantile": 0.999,
        "photons": 1072,
        "seed": 0,
    },
    "search": {
        "span": None,
        "qreject": None,
        "alpha": 0.05,
        "n_effective": None,
        "emit_observed": False,
    },
    "naive": {
        **_GRID_DEFAULTS,
        "span": None,
        "qreject": None,
        "alpha": 0.05,
        "n_effective": None,
    },
    "evaluate": {
        **_GRID_DEFAULTS,
        "lambdas": ",".join(repr(l) for l in DESK_LAMBDAS),
        "thetas": ",".join(repr(t) for t in DESK_THETAS),
        "sims": 200,
        "paths": 100_000,
        "qtrain_quantile": 0.99,
        "photons": 1072,
        "alpha": 0.05,
        "n_effective": None,
        "qreject": None,
        "workers": None,
        "seed": 0,
    },
    "oracle": {
        "rho": 0.9,
        "layers": 3,
        "branching": 2,
        "roots": 1,
        "lam": 0.05,
        "q": 2.0,
        "paths": 50_000,
        "sims": 50_000,
        "grid_cells": 200,
        "seed": 0,
    },
}


def _parse_scalar(text: str):
    low = text.strip()
    if low.lower() in ("true", "false"):
        return low.lower() == "true"
    for conv in (int, float):
        try:
            return conv(low)
        except ValueError:
            continue
    return low


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            values[key.strip().replace("-", "_")] = _parse_scalar(val)
    return values


def _resolve(args, command: str) -> dict:
    """Merge defaults, config file and flags; flags win over the file."""
    cfg = dict(DEFAULTS[command])
    if getattr(args, "config", None):
        for key, val in _read_config_file(args.config).items():
            if key not in cfg:
                raise ValueError(f"unknown config key for {command}: {key}")
            cfg[key] = val
    for key in cfg:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _write_manifest(manifest_path, command: str, cfg: dict, inputs, outputs,
                    layers=None) -> None:
    doc = {
        "tool": "blindsearch",
        "version": __version__,
        "strategy_format_version": FORMAT_VERSION,
        "command": command,
        "config": {k: v for k, v in sorted(cfg.items())},
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "created": datetime.now(timezone.utc).isoformat(),
    }
    if layers is not None:
        doc["layers"] = layers
    with open(manifest_path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _grid_from_cfg(cfg: dict) -> GridSpec:
    return GridSpec(omega_min=cfg["omega_min"], omega_max=cfg["omega_max"],
                    omegadot_min=cfg["omegadot_min"], omegadot_max=cfg["omegadot_max"],
                    num_layers=int(cfg["layers"]), oversampling=int(cfg["oversampling"]))


def _float_list(text: str):
    vals = [float(tok) for tok in str(text).split(",") if tok.strip()]
    if not vals:
        raise ValueError("expected a comma separated list of numbers")
    return vals


def _add_config_flag(p):
    p.add_argument("--config", help="key=value file; flags override it")


def _add_grid_flags(p, span_default_none=False):
    p.add_argument("--omega-min", type=float, dest="omega_min")
    p.add_argument("--omega-max", type=float, dest="omega_max")
    p.add_argument("--omegadot-min", type=float, dest="omegadot_min")
    p.add_argument("--omegadot-max", type=float, dest="omegadot_max")
    p.add_argument("--layers", type=int)
    p.add_argument("--oversampling", type=int)
    help_span = "observation span in seconds"
    if span_default_none:
        help_span += " (default: the photon file header)"
    p.add_argument("--span", type=float, help=help_span)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that takes exponent-form negatives such as -1e-11 as values.

    argparse's own negative-number pattern misses the exponent form, so
    ``--omegadot -1e-11`` would read the value as an unknown option.
    Subparsers inherit the class.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blindsearch",
        description="Hierarchical blind search under computational cost constraints.")
    parser.add_argument("--version", action="version",
                        version=f"blindsearch {__version__} (strategy format {FORMAT_VERSION})")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="simulate a modulated photon arrival series")
    _add_config_flag(p)
    p.add_argument("--theta", type=float, help="modulation amplitude in [0, 1]")
    p.add_argument("--photons", type=int)
    p.add_argument("--span", type=float)
    p.add_argument("--omega", type=float)
    p.add_argument("--omegadot", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit a search strategy for one cost weight")
    _add_config_flag(p)
    p.add_argument("--lambda", type=float, dest="lam", help="cost weight, >= 0")
    p.add_argument("--paths", type=int, help="training sample paths")
    p.add_argument("--qtrain-quantile", type=float, dest="qtrain_quantile",
                   help="null quantile defining the training threshold")
    _add_grid_flags(p)
    p.add_argument("--photons", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="strategy JSON path")

    p = sub.add_parser("search", help="run a fitted strategy over a photon series")
    _add_config_flag(p)
    p.add_argument("--strategy", required=True, help="strategy JSON from fit")
    p.add_argument("--photons-file", required=True, dest="photons_file")
    p.add_argument("--span", type=float)
    p.add_argument("--qreject", type=float, help="rejection threshold; overrides --alpha")
    p.add_argument("--alpha", type=float)
    p.add_argument("--n-effective", type=float, dest="n_effective")
    p.add_argument("--emit-observed", action="store_true", dest="emit_observed",
                   default=None, help="also write every observed node")
    p.add_argument("--out-dir", required=True, dest="out_dir")

    p = sub.add_parser("naive", help="exhaustive leaf sweep over a photon series")
    _add_config_flag(p)
    p.add_argument("--photons-file", required=True, dest="photons_file")
    _add_grid_flags(p, span_default_none=True)
    p.add_argument("--qreject", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n-effective", type=float, dest="n_effective")
    p.add_argument("--out-dir", required=True, dest="out_dir")

    p = sub.add_parser("evaluate", help="estimate the power/cost tradeoff curve")
    _add_config_flag(p)
    p.add_argument("--lambdas", help="comma separated cost weights")
    p.add_argument("--thetas", help="comma separated signal amplitudes")
    p.add_argument("--sims", type=int,
                   help="simulated datasets per theta, shared by every lambda")
    p.add_argument("--paths", type=int)
    p.add_argument("--qtrain-quantile", type=float, dest="qtrain_quantile")
    _add_grid_flags(p)
    p.add_argument("--photons", type=int)
    p.add_argument("--qreject", type=float)
    p.add_argument("--alpha", type=float)
    p.add_argument("--n-effective", type=float, dest="n_effective")
    p.add_argument("--workers", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="tradeoff CSV path")

    p = sub.add_parser("oracle",
                       help="compare the fitter against the exact small-tree optimum")
    _add_config_flag(p)
    p.add_argument("--rho", type=float, help="layer-to-layer correlation in [0, 1)")
    p.add_argument("--layers", type=int)
    p.add_argument("--branching", type=int)
    p.add_argument("--roots", type=int)
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--q", type=float, help="detection threshold")
    p.add_argument("--paths", type=int)
    p.add_argument("--sims", type=int)
    p.add_argument("--grid-cells", type=int, dest="grid_cells")
    p.add_argument("--seed", type=int)

    return parser


def cmd_simulate(args) -> int:
    cfg = _resolve(args, "simulate")
    spec = SignalSpec(FreqDrift(cfg["omega"], cfg["omegadot"]), cfg["theta"],
                      int(cfg["photons"]), cfg["span"])
    photons = simulate_photons(spec, subseed(int(cfg["seed"]), 0))
    out = Path(args.out)
    write_photons(out, photons)
    _write_manifest(out.with_name(out.name + ".manifest.json"), "simulate", cfg, [], [out])
    print(f"wrote {photons.count} arrivals over {photons.span!r} s to {out}")
    return 0


def cmd_fit(args) -> int:
    cfg = _resolve(args, "fit")
    if cfg["lam"] is None:
        print("fit: --lambda is required", file=sys.stderr)
        return USAGE_ERROR
    grid = PulsarGrid(_grid_from_cfg(cfg), cfg["span"])
    model = PulsarNullModel(grid, int(cfg["photons"]))
    seed = int(cfg["seed"])
    paths = sample_paths(model, int(cfg["paths"]), subseed(seed, 0))
    q_train = chi2_2_quantile(cfg["qtrain_quantile"])
    exceed = int((paths[:, -1] >= q_train).sum())
    if exceed == 0:
        print(f"fit: no training path reaches the leaf threshold "
              f"{q_train:.4f} (quantile {cfg['qtrain_quantile']}); every strategy "
              f"would stop immediately. Lower --qtrain-quantile or raise --paths.",
              file=sys.stderr)
        return DEGENERATE_FIT
    strategy = fit_strategy(
        paths, FitConfig(grid.tree, float(cfg["lam"]), q_train, int(cfg["paths"])),
        seed=seed)
    strategy.grid = grid.to_dict()
    out = Path(args.out)
    save_strategy(out, strategy)
    _write_manifest(out.with_name(out.name + ".manifest.json"), "fit", cfg, [], [out])
    leaves = nodes_in_layer(grid.tree, grid.tree.num_layers)
    print(f"fitted lambda={cfg['lam']!r} over {leaves} leaves "
          f"({exceed}/{cfg['paths']} training paths exceed q_train); wrote {out}")
    return 0


def _load_search_inputs(cfg, strategy_path, photons_path):
    strategy = load_strategy(strategy_path)
    if strategy.grid is None:
        raise ValueError(f"{strategy_path}: strategy has no embedded grid; "
                         "refit it with the fit subcommand")
    grid = PulsarGrid.from_dict(strategy.grid, costs=strategy.tree.costs)
    if grid.tree != strategy.tree:
        raise ValueError(f"{strategy_path}: embedded grid does not match the "
                         "strategy tree")
    photons = read_photons(photons_path, span=cfg.get("span"))
    return strategy, grid, photons


def _resolve_q_reject(cfg, tree: TreeConfig) -> float:
    if cfg.get("qreject") is not None:
        return float(cfg["qreject"])
    return default_q_reject(tree, alpha=cfg["alpha"], n_effective=cfg["n_effective"])


def _write_search_outputs(out_dir: Path, command, cfg, inputs, outcome, evaluator,
                          tree, emit_observed=False):
    out_dir.mkdir(parents=True, exist_ok=True)
    det = out_dir / "detections.csv"
    lay = out_dir / "layers.csv"
    outputs = [det, lay]
    write_detections_csv(det, outcome, evaluator)
    write_layer_summary_csv(lay, outcome, tree)
    if emit_observed:
        obs = out_dir / "observed.csv"
        write_observed_csv(obs, outcome, evaluator)
        outputs.append(obs)
    _write_manifest(out_dir / "manifest.json", command, cfg, inputs, outputs,
                    layers=_layer_report(outcome))


def _layer_report(outcome) -> list:
    """Per-layer observed nodes, evaluate calls and seconds of a search."""
    return [{"layer": layer, "observed": int(n), "evaluate_calls": int(c), "seconds": float(sec)}
            for layer, (n, c, sec) in enumerate(zip(outcome.per_layer_observed,
                                                    outcome.evaluate_calls, outcome.seconds),
                                                start=1)]


def _print_layers(outcome) -> None:
    for row in _layer_report(outcome):
        if row["evaluate_calls"]:
            print(f"  layer {row['layer']}: {row['observed']} nodes in "
                  f"{row['evaluate_calls']} evaluate calls, {row['seconds']:.3f} s")


def cmd_search(args) -> int:
    cfg = _resolve(args, "search")
    strategy, grid, photons = _load_search_inputs(cfg, args.strategy, args.photons_file)
    q_reject = _resolve_q_reject(cfg, strategy.tree)
    evaluator = PulsarEvaluator(photons, grid)
    emit = bool(cfg["emit_observed"])
    outcome = run_search(strategy, evaluator, q_reject, emit_observed=emit)
    out_dir = Path(args.out_dir)
    cfg["resolved_qreject"] = q_reject
    _write_search_outputs(out_dir, "search", cfg, [args.strategy, args.photons_file],
                          outcome, evaluator, strategy.tree, emit_observed=emit)
    leaves = nodes_in_layer(strategy.tree, strategy.tree.num_layers)
    frac = outcome.total_cost / (leaves * strategy.tree.cost(strategy.tree.num_layers))
    print(f"{len(outcome.detections)} detections at q={q_reject:.4f}; "
          f"cost {outcome.total_cost!r} ({frac:.2e} of exhaustive); "
          f"peak {outcome.peak_tracked} tracked records; wrote {out_dir}/")
    _print_layers(outcome)
    return 0


def cmd_naive(args) -> int:
    cfg = _resolve(args, "naive")
    photons = read_photons(args.photons_file, span=cfg.get("span"))
    grid = PulsarGrid(_grid_from_cfg(cfg), photons.span)
    q_reject = _resolve_q_reject(cfg, grid.tree)
    evaluator = PulsarEvaluator(photons, grid)
    outcome = naive_search(evaluator, q_reject)
    out_dir = Path(args.out_dir)
    cfg["resolved_qreject"] = q_reject
    _write_search_outputs(out_dir, "naive", cfg, [args.photons_file],
                          outcome, evaluator, grid.tree)
    print(f"{len(outcome.detections)} detections at q={q_reject:.4f} over "
          f"{int(outcome.per_layer_observed[-1])} leaves; wrote {out_dir}/")
    _print_layers(outcome)
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve(args, "evaluate")
    lambdas = _float_list(cfg["lambdas"])
    thetas = _float_list(cfg["thetas"])
    out = Path(args.out)
    outputs = []
    tc = TradeoffConfig(grid=_grid_from_cfg(cfg), span=cfg["span"],
                        num_photons=int(cfg["photons"]), num_paths=int(cfg["paths"]),
                        qtrain_quantile=cfg["qtrain_quantile"],
                        alpha=cfg["alpha"], n_effective=cfg["n_effective"],
                        q_reject=cfg["qreject"])
    curves = estimate_tradeoff(lambdas, thetas, tc, int(cfg["sims"]), int(cfg["seed"]),
                               workers=cfg["workers"])
    for theta, points in zip(thetas, curves):
        if len(thetas) == 1:
            path = out
        else:
            path = out.with_name(f"{out.stem}_theta{theta:g}{out.suffix or '.csv'}")
        write_tradeoff_csv(path, points)
        outputs.append(path)
        good = [p for p in points if p.power_fraction >= 0.9]
        if good:
            best = min(good, key=lambda p: p.cost_fraction)
            print(f"theta={theta:g}: wrote {len(points)} lambdas to {path}; "
                  f"cheapest point with >=90% power: cost fraction "
                  f"{best.cost_fraction:.3e} at lambda={best.lam!r}")
        else:
            print(f"theta={theta:g}: wrote {len(points)} lambdas to {path}; "
                  f"no lambda reached 90% relative power")
    _write_manifest(out.with_name(out.name + ".manifest.json"), "evaluate", cfg,
                    [], outputs)
    return 0


def cmd_oracle(args) -> int:
    cfg = _resolve(args, "oracle")
    tree = TreeConfig(num_layers=int(cfg["layers"]), root_count=int(cfg["roots"]),
                      branching=(int(cfg["branching"]),) * (int(cfg["layers"]) - 1),
                      costs=(1.0,) * int(cfg["layers"]))
    model = GaussianChainModel(tree, cfg["rho"])
    lam, q = float(cfg["lam"]), float(cfg["q"])
    oracle = exact_dp_oracle(model, lam, q, n_grid=int(cfg["grid_cells"]))
    seed = int(cfg["seed"])
    paths = sample_paths(model, int(cfg["paths"]), subseed(seed, 0))
    strategy = fit_strategy(paths, FitConfig(tree, lam, q, int(cfg["paths"])), seed=seed)
    payoff, se = fitted_payoff_estimate(strategy, model, q, int(cfg["sims"]), seed)

    print(f"tree: {tree.num_layers} layers, branching {cfg['branching']}, "
          f"{tree.root_count} roots; rho={cfg['rho']!r} lambda={lam!r} q={q!r}")
    print(f"exact optimal expected payoff : {oracle.total_payoff:.6f}")
    print(f"fitted strategy payoff        : {payoff:.6f} +- {se:.6f} "
          f"({int(cfg['sims'])} fresh simulations)")
    if oracle.total_payoff > 0:
        print(f"ratio fitted/exact            : {payoff / oracle.total_payoff:.4f}")
    for layer in range(1, tree.num_layers):
        bounds, actions = strategy.decision_regions(layer)
        acts = oracle.layer_actions[layer - 1]
        switches = np.flatnonzero(np.diff(acts))
        exact = " | ".join(
            f"{acts[i]}->{acts[i + 1]} near {oracle.centers[i]:.3f}" for i in switches)
        print(f"layer {layer}: fitted actions {[int(a) for a in actions]} at bounds "
              f"{[round(float(b), 3) for b in bounds]}")
        print(f"         exact switches {exact or 'none'}")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "search": cmd_search,
    "naive": cmd_naive,
    "evaluate": cmd_evaluate,
    "oracle": cmd_oracle,
}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return DATA_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
