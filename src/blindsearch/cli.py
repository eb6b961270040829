"""Command line front end.

Subcommands cover the full workflow: simulate photon series, fit a
strategy for a cost weight, run it (or the exhaustive sweep) over a
dataset, estimate a power/cost tradeoff curve, and compare the fitter
against the exact optimum on a small reference tree.

Every file-producing command writes a sidecar manifest recording the
resolved configuration, seeds and inputs; the data files themselves
carry no timestamps, so a rerun with identical inputs is byte-identical.

Exit codes: 0 success, 2 usage, 3 malformed input data, 4 a training
sample that no fit can use (fit, evaluate).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .engine import (PulsarEvaluator, PulsarGrid, GridSpec, default_q_reject,
                     naive_search, run_search, write_detections_csv,
                     write_layer_summary_csv, write_observed_csv)
from .evaluation import (DESK_LAMBDAS, DESK_THETAS, REFERENCE_FD, REFERENCE_PHOTONS,
                         REFERENCE_SPAN, TradeoffConfig, _fit_strategies, desk_scale_config,
                         estimate_tradeoff, exact_dp_oracle, fitted_payoff_estimate,
                         write_tradeoff_csv)
from .fit import (FORMAT_VERSION, DegenerateTraining, FitConfig, fit_strategy,
                  load_strategy, sample_paths, save_strategy)
from .models import GaussianChainModel
from .stats import FreqDrift, SignalSpec, read_photons, simulate_photons, write_photons
from .tree import TreeConfig, nodes_in_layer
from .util import subseed

USAGE_ERROR = 2
DATA_ERROR = 3
DEGENERATE_FIT = 4

_DESK = desk_scale_config()
# flags a config file cannot set: the file itself and each run's own paths
_RUN_FLAGS = {"help", "config", "out", "out_dir", "strategy", "photons_file"}


def _configurable(parser) -> dict:
    """The flags of one command that a config file may set, by key."""
    return {a.dest: a for a in parser._actions
            if a.option_strings and a.dest not in _RUN_FLAGS}


def _config_value(action, text: str):
    """``text`` read as the flag of ``action`` reads its value."""
    if action.nargs == 0:  # a switch such as --emit-observed
        if text.lower() not in ("true", "false"):
            raise ValueError("expected true or false")
        return text.lower() == "true"
    return text if action.type is None else action.type(text)


def _read_config_file(path, actions: dict) -> dict:
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, text = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in actions:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                values[key] = _config_value(actions[key], text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def _write_manifest(manifest_path, command: str, cfg: dict, inputs, outputs,
                    **reports) -> None:
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
    doc.update(reports)
    with open(manifest_path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def _grid_from_cfg(cfg: dict) -> GridSpec:
    return GridSpec(omega_min=cfg["omega_min"], omega_max=cfg["omega_max"],
                    omegadot_min=cfg["omegadot_min"], omegadot_max=cfg["omegadot_max"],
                    num_layers=cfg["layers"], oversampling=cfg["oversampling"])


def _float_list(text: str):
    vals = [float(tok) for tok in str(text).split(",") if tok.strip()]
    if not vals:
        raise ValueError("expected a comma separated list of numbers")
    return vals


def _float_list_text(text: str) -> str:
    """``text`` unchanged once it reads as a list of numbers: the manifest records the text."""
    _float_list(text)
    return text


def _add_config_flag(p):
    p.add_argument("--config", help="key=value file; flags override it")


def _add_training_flags(p):
    """The flags of the training step that fit and evaluate share, at the desk defaults."""
    p.add_argument("--paths", type=int, default=_DESK.num_paths, help="training sample paths")
    p.add_argument("--qtrain-quantile", type=float, dest="qtrain_quantile",
                   default=_DESK.qtrain_quantile,
                   help="null quantile defining the training threshold")
    _add_grid_flags(p)
    p.add_argument("--photons", type=int, default=_DESK.num_photons)
    p.add_argument("--seed", type=int, default=0)


def _add_grid_flags(p, span=_DESK.span):
    grid = _DESK.grid
    p.add_argument("--omega-min", type=float, dest="omega_min", default=grid.omega_min)
    p.add_argument("--omega-max", type=float, dest="omega_max", default=grid.omega_max)
    p.add_argument("--omegadot-min", type=float, dest="omegadot_min",
                   default=grid.omegadot_min)
    p.add_argument("--omegadot-max", type=float, dest="omegadot_max",
                   default=grid.omegadot_max)
    p.add_argument("--layers", type=int, default=grid.num_layers)
    p.add_argument("--oversampling", type=int, default=grid.oversampling)
    help_span = "observation span in seconds"
    if span is None:
        help_span += " (default: the photon file header)"
    p.add_argument("--span", type=float, default=span, help=help_span)


def _add_threshold_flags(p):
    p.add_argument("--qreject", type=float, help="rejection threshold; overrides --alpha")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--n-effective", type=float, dest="n_effective")


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
    p.add_argument("--theta", type=float, default=0.34,
                   help="modulation amplitude in [0, 1]")
    p.add_argument("--photons", type=int, default=REFERENCE_PHOTONS)
    p.add_argument("--span", type=float, default=REFERENCE_SPAN)
    p.add_argument("--omega", type=float, default=REFERENCE_FD.omega)
    p.add_argument("--omegadot", type=float, default=REFERENCE_FD.omegadot)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("fit", help="fit a search strategy for one cost weight")
    _add_config_flag(p)
    p.add_argument("--lambda", type=float, dest="lam", help="cost weight, >= 0")
    _add_training_flags(p)
    p.add_argument("--out", required=True, help="strategy JSON path")

    p = sub.add_parser("search", help="run a fitted strategy over a photon series")
    _add_config_flag(p)
    p.add_argument("--strategy", required=True, help="strategy JSON from fit")
    p.add_argument("--photons-file", required=True, dest="photons_file")
    p.add_argument("--span", type=float)
    _add_threshold_flags(p)
    p.add_argument("--emit-observed", action="store_true", dest="emit_observed",
                   help="also write every observed node")
    p.add_argument("--out-dir", required=True, dest="out_dir")

    p = sub.add_parser("naive", help="exhaustive leaf sweep over a photon series")
    _add_config_flag(p)
    p.add_argument("--photons-file", required=True, dest="photons_file")
    _add_grid_flags(p, span=None)
    _add_threshold_flags(p)
    p.add_argument("--out-dir", required=True, dest="out_dir")

    p = sub.add_parser("evaluate", help="estimate the power/cost tradeoff curve")
    _add_config_flag(p)
    p.add_argument("--lambdas", type=_float_list_text,
                   default=",".join(repr(l) for l in DESK_LAMBDAS),
                   help="comma separated cost weights")
    p.add_argument("--thetas", type=_float_list_text,
                   default=",".join(repr(t) for t in DESK_THETAS),
                   help="comma separated signal amplitudes")
    p.add_argument("--sims", type=int, default=200,
                   help="simulated datasets per theta, shared by every lambda")
    _add_training_flags(p)
    _add_threshold_flags(p)
    p.add_argument("--workers", type=int)
    p.add_argument("--out", required=True, help="tradeoff CSV path")

    p = sub.add_parser("oracle",
                       help="compare the fitter against the exact small-tree optimum")
    _add_config_flag(p)
    p.add_argument("--rho", type=float, default=0.9,
                   help="layer-to-layer correlation in [0, 1)")
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--branching", type=int, default=2)
    p.add_argument("--roots", type=int, default=1)
    p.add_argument("--lambda", type=float, dest="lam", default=0.05)
    p.add_argument("--q", type=float, default=2.0, help="detection threshold")
    p.add_argument("--paths", type=int, default=50_000)
    p.add_argument("--sims", type=int, default=50_000)
    p.add_argument("--grid-cells", type=int, dest="grid_cells", default=200)
    p.add_argument("--seed", type=int, default=0)

    return parser


def cmd_simulate(args, cfg) -> int:
    spec = SignalSpec(FreqDrift(cfg["omega"], cfg["omegadot"]), cfg["theta"],
                      cfg["photons"], cfg["span"])
    photons = simulate_photons(spec, subseed(cfg["seed"], 0))
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_photons(out, photons)
    _write_manifest(out.with_name(out.name + ".manifest.json"), "simulate", cfg, [], [out])
    print(f"wrote {photons.count} arrivals over {photons.span!r} s to {out}")
    return 0


def _training_config(cfg):
    """(TradeoffConfig, PulsarGrid) of the training flags, checked before any path is drawn."""
    for message, ok in (("--paths must be >= 2", cfg["paths"] >= 2),
                        ("--photons must be >= 1", cfg["photons"] >= 1),
                        ("--qtrain-quantile must lie in (0, 1)",
                         0.0 < cfg["qtrain_quantile"] < 1.0)):
        if not ok:
            raise ValueError(message)
    grid = PulsarGrid(_grid_from_cfg(cfg), cfg["span"])
    return TradeoffConfig(grid=grid.spec, span=cfg["span"], num_photons=cfg["photons"],
                          num_paths=cfg["paths"], qtrain_quantile=cfg["qtrain_quantile"]), grid


def cmd_fit(args, cfg) -> int:
    if cfg["lam"] is None:
        print("fit: --lambda is required", file=sys.stderr)
        return USAGE_ERROR
    if not 0.0 <= cfg["lam"] < math.inf:
        raise ValueError("--lambda must be finite and >= 0")
    tc, grid = _training_config(cfg)
    _, [strategy], exceed, sample_s, regression_s = _fit_strategies(tc, grid, [cfg["lam"]],
                                                                    cfg["seed"])
    timing = {"sample_s": sample_s, "regression_s": regression_s,
              "paths_per_s": tc.num_paths / sample_s}
    strategy.grid = grid.to_dict()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_strategy(out, strategy)
    _write_manifest(out.with_name(out.name + ".manifest.json"), "fit", cfg, [], [out],
                    timing=timing)
    leaves = nodes_in_layer(grid.tree, grid.tree.num_layers)
    print(f"fitted lambda={cfg['lam']!r} over {leaves} leaves "
          f"({exceed}/{cfg['paths']} training paths exceed q_train); wrote {out}")
    print(f"  sampling {timing['sample_s']:.3f} s ({timing['paths_per_s']:.0f} paths/s), "
          f"regression {timing['regression_s']:.3f} s")
    return 0


def _load_search_inputs(cfg, strategy_path, photons_path):
    try:
        strategy = load_strategy(strategy_path)
        if strategy.grid is None:
            raise ValueError("strategy has no embedded grid; refit it with the fit subcommand")
        grid = PulsarGrid.from_dict(strategy.grid, costs=strategy.tree.costs)
        if grid.tree != strategy.tree:
            raise ValueError("embedded grid does not match the strategy tree")
    except ValueError as exc:
        raise ValueError(f"{strategy_path}: {exc}") from exc
    photons = read_photons(photons_path, span=cfg["span"])
    return strategy, grid, photons


def _resolve_q_reject(cfg, tree: TreeConfig) -> float:
    if cfg["qreject"] is not None:
        return cfg["qreject"]
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
    reports = {"layers": _layer_report(outcome)}
    if outcome.sweep is not None:
        reports["sweep"] = outcome.sweep
    _write_manifest(out_dir / "manifest.json", command, cfg, inputs, outputs, **reports)


def _layer_report(outcome) -> list:
    """Per-layer observed nodes, evaluate calls and seconds of a search."""
    return [{"layer": layer, "observed": int(n), "evaluate_calls": int(c), "seconds": float(sec)}
            for layer, (n, c, sec) in enumerate(zip(outcome.per_layer_observed,
                                                    outcome.evaluate_calls, outcome.seconds),
                                                start=1)]


def _print_layers(outcome) -> None:
    """One line per evaluated layer; a leaf sweep adds how it swept to the leaf line."""
    rows = _layer_report(outcome)
    for row in rows:
        if row["evaluate_calls"]:
            line = (f"  layer {row['layer']}: {row['observed']} nodes in "
                    f"{row['evaluate_calls']} evaluate calls, {row['seconds']:.3f} s")
            if outcome.sweep is not None and row is rows[-1]:
                sweep = outcome.sweep
                line += (f"; sweep by {sweep['method']}, {sweep['segments']} segments, "
                         f"{sweep['confirmed']} confirmed")
            print(line)


def cmd_search(args, cfg) -> int:
    strategy, grid, photons = _load_search_inputs(cfg, args.strategy, args.photons_file)
    q_reject = _resolve_q_reject(cfg, strategy.tree)
    evaluator = PulsarEvaluator(photons, grid)
    emit = cfg["emit_observed"]
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


def cmd_naive(args, cfg) -> int:
    photons = read_photons(args.photons_file, span=cfg["span"])
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


def cmd_evaluate(args, cfg) -> int:
    lambdas = _float_list(cfg["lambdas"])
    thetas = _float_list(cfg["thetas"])
    out = Path(args.out)
    outputs = [out] if len(thetas) == 1 else [
        out.with_name(f"{out.stem}_theta{theta:g}{out.suffix or '.csv'}") for theta in thetas]
    for i, path in enumerate(outputs):
        if path in outputs[:i]:
            raise ValueError(f"thetas {thetas[outputs.index(path)]!r} and {thetas[i]!r} "
                             f"would both write {path}")
    tc, grid = _training_config(cfg)
    tc = dataclasses.replace(tc, q_reject=_resolve_q_reject(cfg, grid.tree))
    curves = estimate_tradeoff(lambdas, thetas, tc, cfg["sims"], cfg["seed"],
                               workers=cfg["workers"])
    out.parent.mkdir(parents=True, exist_ok=True)
    for theta, points, path in zip(thetas, curves, outputs):
        write_tradeoff_csv(path, points)
        good = [p for p in points if p.power_fraction >= 0.9]
        if good:
            best = min(good, key=lambda p: p.cost_fraction)
            print(f"theta={theta:g}: wrote {len(points)} lambdas to {path}; "
                  f"cheapest point with >=90% power: cost fraction "
                  f"{best.cost_fraction:.3e} at lambda={best.lam!r}")
        else:
            print(f"theta={theta:g}: wrote {len(points)} lambdas to {path}; "
                  f"no lambda reached 90% relative power")
    cfg["resolved_qreject"] = tc.q_reject
    _write_manifest(out.with_name(out.name + ".manifest.json"), "evaluate", cfg,
                    [], outputs)
    return 0


def cmd_oracle(args, cfg) -> int:
    layers = cfg["layers"]
    tree = TreeConfig(num_layers=layers, root_count=cfg["roots"],
                      branching=(cfg["branching"],) * (layers - 1), costs=(1.0,) * layers)
    model = GaussianChainModel(tree, cfg["rho"])
    lam, q = cfg["lam"], cfg["q"]
    oracle = exact_dp_oracle(model, lam, q, n_grid=cfg["grid_cells"])
    seed = cfg["seed"]
    paths = sample_paths(model, cfg["paths"], subseed(seed, 0))
    strategy = fit_strategy(paths, FitConfig(tree, lam, q), seed=seed)
    payoff, se = fitted_payoff_estimate(strategy, model, q, cfg["sims"], seed)

    print(f"tree: {tree.num_layers} layers, branching {cfg['branching']}, "
          f"{tree.root_count} roots; rho={cfg['rho']!r} lambda={lam!r} q={q!r}")
    print(f"exact optimal expected payoff : {oracle.total_payoff:.6f}")
    print(f"fitted strategy payoff        : {payoff:.6f} +- {se:.6f} "
          f"({cfg['sims']} fresh simulations)")
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


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser of this process, built once; nothing may change it."""
    return build_parser()


def _subcommand(parser, name: str) -> argparse.ArgumentParser:
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices[name]


def run(argv=None) -> int:
    """Run one command; its progress log lines go to stderr at INFO.

    Every call parses with one parser built per process. A ``--config``
    run sets the file's values as defaults on a parser of its own, so
    they never outlive the call.
    """
    parser = _shared_parser()
    args = parser.parse_args(argv)
    keys = _configurable(_subcommand(parser, args.command))
    logger = logging.getLogger("blindsearch")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(f"{args.command}: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        if args.config:
            parser = build_parser()  # set_defaults changes its parser: never the shared one
            _subcommand(parser, args.command).set_defaults(
                **_read_config_file(args.config, keys))
            args = parser.parse_args(argv)  # flags win over the file
        return _COMMANDS[args.command](args, {key: getattr(args, key) for key in keys})
    except (ValueError, OSError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return DEGENERATE_FIT if isinstance(exc, DegenerateTraining) else DATA_ERROR
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
