"""In-memory span tracing of blindsearch, installed from outside the package.

The package has no spans of its own, so the benchmark wraps the public
functions of each module at the place where the caller binds the name:
``blindsearch.cli.run_search`` and ``blindsearch.evaluation.run_search``
are two bindings of one function and are wrapped separately, and methods
are wrapped on the class. Wrappers exist only while a traced op runs;
untraced ops call the program unchanged.

A span is (name, layer, site, start, end, parent, op, attrs): ``layer``
is the module that defines the function, ``site`` the module whose
binding was called, ``parent`` the index of the enclosing span (-1 at
the top) and ``attrs`` the work counts taken from the arguments.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager

TREE_LAYERS = range(1, 10)  # the desk grid has 9 layers; smaller trees report 0


def _points(args, kwargs, result):
    return {"points": len(args[0])}


def _paths(args, kwargs, result):
    model, n = args[0], args[1]
    return {"paths": n, "node_photons": n * model.tree.num_layers * model.num_photons}


def _evaluate(args, kwargs, result):
    ev, layer, indices = args[0], args[1], args[2]
    return {"layer": layer, "nodes": len(indices),
            "kappa": ev.grid.kappa(layer), "photons": ev.photons.count}


def _observed_rows(args, kwargs, result):
    return {"rows": len(args[1].observed_log)}


# (module, attribute path, layer that defines it, work counter or None)
TARGETS = (
    ("blindsearch.cli", "run", "cli", None),
    ("blindsearch.cli", "sample_paths", "fit", None),
    ("blindsearch.cli", "fit_strategy", "fit", None),
    ("blindsearch.cli", "save_strategy", "fit", None),
    ("blindsearch.cli", "load_strategy", "fit", None),
    ("blindsearch.cli", "simulate_photons", "stats", None),
    ("blindsearch.cli", "read_photons", "stats", None),
    ("blindsearch.cli", "write_photons", "stats", None),
    ("blindsearch.cli", "run_search", "engine", None),
    ("blindsearch.cli", "naive_search", "engine", None),
    ("blindsearch.cli", "write_detections_csv", "engine", None),
    ("blindsearch.cli", "write_layer_summary_csv", "engine", None),
    ("blindsearch.cli", "write_observed_csv", "engine", _observed_rows),
    ("blindsearch.cli", "estimate_tradeoff", "evaluation", None),
    ("blindsearch.cli", "write_tradeoff_csv", "evaluation", None),
    ("blindsearch.evaluation", "sample_paths", "fit", None),
    ("blindsearch.evaluation", "fit_strategy", "fit", None),
    ("blindsearch.evaluation", "simulate_photons", "stats", None),
    ("blindsearch.evaluation", "run_search", "engine", None),
    ("blindsearch.evaluation", "leaf_window", "evaluation", None),
    ("blindsearch.evaluation", "_cost_sim", "evaluation", None),
    ("blindsearch.evaluation", "_power_sim", "evaluation", None),
    ("blindsearch.fit", "pava", "isotonic", _points),
    ("blindsearch.fit", "Strategy.decide_batch", "fit", None),
    ("blindsearch.engine", "PulsarEvaluator.__init__", "engine", None),
    ("blindsearch.engine", "PulsarEvaluator.evaluate", "engine", _evaluate),
    ("blindsearch.models", "PulsarNullModel.sample_path_values_batch", "models", _paths),
)


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Collects spans for the ops run inside ``recording``."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = None
        self._targets = []
        for module, path, layer, counter in TARGETS:
            # a renamed target raises here: it stops the run, not zero its metrics
            owner, attr = _resolve(module, path)
            fn = owner.__dict__[attr]
            name = path.rsplit(".", 1)[-1]
            site = module.rsplit(".", 1)[-1]
            self._targets.append((owner, attr, fn, self._wrap(fn, name, layer, site, counter)))

    def _wrap(self, fn, name, layer, site, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            self.spans.append(None)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, layer, site, start, end, parent, self._op, None)
            if counter is not None:
                attrs = counter(args, kwargs, result)
                self.spans[index] = (name, layer, site, start, end, parent, self._op, attrs)
            return result
        return wrapper

    @contextmanager
    def recording(self, op: int):
        """Install the wrappers, run one op under them, then remove them."""
        self._op = op
        for owner, attr, _, wrapper in self._targets:
            setattr(owner, attr, wrapper)
        try:
            yield
        finally:
            for owner, attr, fn, _ in self._targets:
                setattr(owner, attr, fn)
            self._op = None

    def write(self, path) -> None:
        cols = ["name", "layer", "site", "start", "end", "parent", "op", "attrs"]
        with open(path, "w") as fh:
            json.dump({"columns": cols, "spans": self.spans}, fh, separators=(",", ":"))


def layer_metrics(spans, num_ops: int) -> dict:
    """Per-layer metrics from spans; counts and seconds are per traced op."""
    child = defaultdict(float)
    for name, layer, site, start, end, parent, op, attrs in spans:
        if parent >= 0:
            child[parent] += end - start
    calls = defaultdict(int)     # (name, site) -> calls
    secs = defaultdict(float)    # name -> seconds
    own = defaultdict(float)     # name -> self seconds
    work = defaultdict(float)    # counter -> total
    layer_self = defaultdict(float)
    for i, (name, layer, site, start, end, parent, op, attrs) in enumerate(spans):
        dur = end - start
        calls[name, site] += 1
        secs[name] += dur
        own[name] += dur - child[i]
        layer_self[layer] += dur - child[i]
        if attrs is None:
            continue
        for key in ("points", "paths", "node_photons", "rows"):
            if key in attrs:
                work[name, key] += attrs[key]
        if name == "evaluate":
            L, nodes = attrs["layer"], attrs["nodes"]
            kind = "k0" if attrs["kappa"] == 0 else "kpos"
            work["nodes"] += nodes
            work["layer", L, "nodes"] += nodes
            work["layer", L, "s"] += dur
            work[kind, "node_photons"] += nodes * attrs["photons"]
            work[kind, "s"] += dur

    n = max(num_ops, 1)

    def count(name, site=None):
        return sum(c for (nm, st), c in calls.items()
                   if nm == name and site in (None, st)) / n

    def rate(num, den):
        return num / den if den > 0 else 0.0

    m = {
        "models.sample_calls": count("sample_path_values_batch"),
        "models.paths": work["sample_path_values_batch", "paths"] / n,
        "models.busy_s": secs["sample_path_values_batch"] / n,
        "models.paths_per_s": rate(work["sample_path_values_batch", "paths"],
                                   secs["sample_path_values_batch"]),
        "models.node_photons_per_s": rate(work["sample_path_values_batch", "node_photons"],
                                          secs["sample_path_values_batch"]),
        "isotonic.calls": count("pava"),
        "isotonic.points": work["pava", "points"] / n,
        "isotonic.busy_s": secs["pava"] / n,
        "isotonic.points_per_s": rate(work["pava", "points"], secs["pava"]),
        "fit.fit_calls": count("fit_strategy"),
        "fit.self_s": own["fit_strategy"] / n,
        "fit.io_s": (secs["save_strategy"] + secs["load_strategy"]) / n,
        "fit.decide_calls": count("decide_batch"),
        "fit.decide_s": secs["decide_batch"] / n,
        "stats.simulate_calls": count("simulate_photons"),
        "stats.simulate_s": secs["simulate_photons"] / n,
        "stats.photon_io_s": (secs["read_photons"] + secs["write_photons"]) / n,
        "engine.evaluate_calls": count("evaluate"),
        "engine.evaluate_nodes": work["nodes"] / n,
        "engine.mean_batch": rate(work["nodes"], count("evaluate") * n),
        "engine.evaluate_s": secs["evaluate"] / n,
        "engine.kernel_k0.node_photons_per_s": rate(work["k0", "node_photons"],
                                                    work["k0", "s"]),
        "engine.kernel_kpos.node_photons_per_s": rate(work["kpos", "node_photons"],
                                                      work["kpos", "s"]),
        "engine.executor_self_s": (own["run_search"] + own["naive_search"]) / n,
    }
    for L in TREE_LAYERS:
        m[f"engine.layer{L}.nodes"] = work["layer", L, "nodes"] / n
        m[f"engine.layer{L}.evaluate_s"] = work["layer", L, "s"] / n
    m["engine.write_s"] = sum(secs[w] for w in ("write_detections_csv",
                                                "write_layer_summary_csv",
                                                "write_observed_csv")) / n
    m["engine.observed_rows"] = work["write_observed_csv", "rows"] / n
    m.update({
        "evaluation.sample_calls": count("sample_paths", "evaluation"),
        "evaluation.fit_calls": count("fit_strategy", "evaluation"),
        "evaluation.cost_sims": count("_cost_sim"),
        "evaluation.power_sims": count("_power_sim"),
        "evaluation.leaf_window_s": secs["leaf_window"] / n,
        "evaluation.self_s": layer_self["evaluation"] / n,
        "cli.self_s": own["run"] / n,
    })
    # self time of the layers the metrics above do not already give in full
    for layer in ("fit", "engine", "stats"):
        m[f"{layer}.layer_self_s"] = layer_self[layer] / n
    return m


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "trace.overhead_frac":
        return "ratio"
    return "nodes" if name == "engine.mean_batch" else "count"
