"""The four benchmark workloads: fit, search, sweep and tradeoff.

Each workload is a closed loop of one op at a time, and an op is one
``blindsearch`` command run in-process through ``blindsearch.cli.run``
with ``--workers 1``. A workload builds its inputs from the benchmark
seed in ``setup``, names the command of op ``i`` in ``argv``, and checks
the files the op wrote in ``check``, which returns the errors found and
the digests of the byte-stable outputs. README.md says why each
workload exists and which layers it stresses.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
from pathlib import Path

import numpy as np

from blindsearch import cli
from blindsearch.engine import GridSpec, PulsarEvaluator, PulsarGrid
from blindsearch.evaluation import DESK_SPAN
from blindsearch.stats import FreqDrift, rayleigh_power, read_photons
from blindsearch.tree import nodes_in_layer

WARMUP_SEED = 0          # warm-ups do the same work whatever the benchmark seed
DESK_PHOTONS = 1072
DESK_LAMBDA = 5.5e-2     # the desk lambda where null search cost falls to about 1%
QTRAIN_QUANTILE = 0.99   # 0.999 leaves a 4k-path fit a few exceedances, or none
FIT_PATHS = 4096
PULSED_THETA = 0.5       # a desk amplitude the exhaustive sweep always detects
RECOMPUTE_RTOL = 1e-9


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def resolved_qreject(out_dir: Path) -> float:
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return float(manifest["config"]["resolved_qreject"])


def recompute_errors(rows, grid: PulsarGrid, photons, q_reject: float) -> list:
    """Detections recomputed with the reference statistic at node_params."""
    errors = []
    G = grid.spec.num_layers
    for row in rows:
        leaf = int(row["leaf_index"])
        om, od = grid.node_params(G, np.array([leaf], dtype=np.int64))
        om, od = float(om[0]), float(od[0])
        if (om, od) != (float(row["omega_hz"]), float(row["omegadot_s2"])):
            errors.append(f"leaf {leaf}: parameters differ from node_params")
        ref = rayleigh_power(photons, FreqDrift(om, od))
        got = float(row["statistic"])
        if abs(got - ref) > RECOMPUTE_RTOL * abs(ref):
            errors.append(f"leaf {leaf}: statistic {got!r}, reference {ref!r}")
        if got < q_reject:
            errors.append(f"leaf {leaf}: statistic {got!r} below q_reject {q_reject!r}")
    return errors


def layer_errors(out_dir: Path, tree, total_cost=None) -> tuple:
    """layers.csv checked against the tree costs; returns (errors, observed)."""
    errors = []
    rows = read_rows(out_dir / "layers.csv")
    if [int(r["layer"]) for r in rows] != list(tree.layers()):
        return [f"layers.csv lists layers {[r['layer'] for r in rows]}"], 0
    observed = 0
    cost = 0.0
    for r in rows:
        count = int(r["observed_count"])
        observed += count
        cost += count * tree.cost(int(r["layer"]))
        if float(r["cost"]) != count * tree.cost(int(r["layer"])):
            errors.append(f"layers.csv layer {r['layer']}: cost is not count x layer cost")
    if total_cost is not None and not math.isclose(cost, total_cost, rel_tol=1e-12):
        errors.append(f"layers.csv costs sum to {cost!r}, the run reported {total_cost!r}")
    return errors, observed


def simulate(path: Path, theta: float, fd: FreqDrift, seed: int) -> None:
    # negative values go as --flag=value: argparse reads "-1e-11" as an option
    rc = cli.run(["simulate", "--theta", repr(theta), "--photons", str(DESK_PHOTONS),
                  "--span", repr(DESK_SPAN), f"--omega={fd.omega!r}",
                  f"--omegadot={fd.omegadot!r}", "--seed", str(seed), "--out", str(path)])
    if rc != 0:
        raise RuntimeError(f"simulate exited {rc}")


def random_fd(rng, omega_lo: float, omega_hi: float) -> FreqDrift:
    """An injection uniform over the desk drift range and a frequency range."""
    return FreqDrift(omega=float(rng.uniform(omega_lo, omega_hi)),
                     omegadot=float(rng.uniform(-5e-11, 0.0)))


class Workload:
    """Shared shape: ``units`` of work per op, inputs keyed for digests."""

    name = ""
    unit = ""
    units = 0.0         # of ``unit`` per op
    throughput = ""     # the name work_per_s has on this workload in the report

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.work.mkdir(parents=True, exist_ok=True)

    def input_key(self, i: int) -> int:
        """Ops with the same key read the same inputs and must write the same bytes."""
        return 0

    def latency(self, seconds: list) -> float:
        """The latency_p50_s of a run's op wall times."""
        return statistics.median(seconds)

    def quality(self) -> dict:
        """Non-timing figures of the outputs, by their report names."""
        return {}


class Fit(Workload):
    """``blindsearch fit`` at one lambda on the desk grid defaults."""

    name = "fit"
    unit = "paths"
    units = FIT_PATHS
    throughput = "fit_paths_per_s"

    def setup(self) -> dict:
        warm = self.work / "warmup.json"
        rc = cli.run(self._args(512, WARMUP_SEED, warm))
        if rc != 0:
            raise RuntimeError(f"warm-up fit exited {rc}")
        return {"warmup.json": digest(warm)}

    def _args(self, paths: int, seed: int, out: Path) -> list:
        return ["fit", "--lambda", repr(DESK_LAMBDA), "--paths", str(paths),
                "--qtrain-quantile", repr(QTRAIN_QUANTILE), "--seed", str(seed),
                "--out", str(out)]

    def argv(self, i: int) -> list:
        return self._args(FIT_PATHS, self.seed, self.work / "strategy.json")

    def check(self, i: int, stdout: str) -> tuple:
        path = self.work / "strategy.json"
        doc = json.loads(path.read_text())
        G = doc["tree"]["G"]
        errors = []
        if [entry["layer"] for entry in doc["layers"]] != list(range(1, G)):
            errors.append("strategy file does not define layers 1..G-1")
        exceed = _field(stdout, "(", "/")
        n, p = FIT_PATHS, 1.0 - QTRAIN_QUANTILE
        if abs(exceed - n * p) > 5.0 * math.sqrt(n * p * (1.0 - p)):
            errors.append(f"{exceed} training exceedances; expected {n * p:.1f} within 5 sigma")
        return errors, {"strategy.json": digest(path)}


def _field(text: str, before: str, after: str) -> float:
    """The number between two markers of a CLI summary line."""
    start = text.index(before) + len(before)
    return float(text[start:text.index(after, start)])


class Search(Workload):
    """``blindsearch search --emit-observed`` over a seeded dataset stream."""

    name = "search"
    unit = "datasets"
    units = 1
    throughput = "search_datasets_per_s"
    pool = 16           # datasets in the stream; ops cycle through them
    train_seed = 2      # fixed, so every seed searches with the same strategy

    def setup(self) -> dict:
        strategy = self.work / "strategy.json"
        rc = cli.run(["fit", "--lambda", repr(DESK_LAMBDA), "--paths", str(FIT_PATHS),
                      "--qtrain-quantile", repr(QTRAIN_QUANTILE),
                      "--seed", str(self.train_seed), "--out", str(strategy)])
        if rc != 0:
            raise RuntimeError(f"strategy fit exited {rc}")
        doc = json.loads(strategy.read_text())
        self.grid = PulsarGrid.from_dict(doc["grid"], costs=tuple(doc["tree"]["costs"]))
        self.leaves = nodes_in_layer(self.grid.tree, self.grid.tree.num_layers)
        self.strategy = strategy
        self.datasets = []
        digests = {"strategy.json": digest(strategy)}
        rng = np.random.default_rng([self.seed, 1])
        for j in range(self.pool):
            # alternate null and pulsed so every stretch of ops has the same mix
            theta = PULSED_THETA if j % 2 else 0.0
            fd = random_fd(rng, 1.0, 5.0)
            path = self.work / f"photons{j:02d}.txt"
            simulate(path, theta, fd, int(rng.integers(2**31)))
            self.datasets.append((path, theta, fd, read_photons(path)))
            digests[path.name] = digest(path)
        self.null_costs = []
        self.hits = []
        return digests

    def input_key(self, i: int) -> int:
        return i % self.pool

    def latency(self, seconds: list) -> float:
        # the datasets differ in cost and a run covers each two or three
        # times, so each dataset counts once: the median of their mean times
        times = {}
        for i, t in enumerate(seconds):
            times.setdefault(self.input_key(i), []).append(t)
        return statistics.median(statistics.fmean(ts) for ts in times.values())

    def argv(self, i: int) -> list:
        path = self.datasets[self.input_key(i)][0]
        return ["search", "--strategy", str(self.strategy), "--photons-file", str(path),
                "--emit-observed", "--out-dir", str(self.work / "out")]

    def check(self, i: int, stdout: str) -> tuple:
        _, theta, fd, photons = self.datasets[self.input_key(i)]
        out = self.work / "out"
        total_cost = _field(stdout, "; cost ", " (")
        errors, observed = layer_errors(out, self.grid.tree, total_cost)
        with open(out / "observed.csv") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != observed:
            errors.append(f"observed.csv has {rows} rows for {observed} observed nodes")
        dets = read_rows(out / "detections.csv")
        errors += recompute_errors(dets, self.grid, photons, resolved_qreject(out))
        if theta == 0.0:
            self.null_costs.append(total_cost)
        else:
            span = self.grid.span
            self.hits.append(any(abs(float(r["omega_hz"]) - fd.omega) <= 1.0 / span
                                 and abs(float(r["omegadot_s2"]) - fd.omegadot) <= span ** -2
                                 for r in dets))
        names = ("detections.csv", "layers.csv", "observed.csv")
        return errors, {n: digest(out / n) for n in names}

    def quality(self) -> dict:
        q = {"leaves": self.leaves}
        if self.null_costs:
            q["search_cost_fraction"] = float(np.mean(self.null_costs)) / self.leaves
        if self.hits:
            q["search_hit_rate"] = float(np.mean(self.hits))
        return q


class Sweep(Workload):
    """``blindsearch naive`` over one eighth of the desk frequency box."""

    name = "sweep"
    unit = "leaves"
    throughput = "sweep_leaves_per_s"
    # 1/8 of the desk box: the same photons, kernel and 8192-leaf batches,
    # at 4 s an op instead of 32 s for the whole box
    box = (1.0, 1.5)
    warm_box = (1.0, 1.0625)
    samples = 64

    def setup(self) -> dict:
        rng = np.random.default_rng([self.seed, 2])
        self.fd = random_fd(rng, *self.box)
        self.data = self.work / "photons.txt"
        simulate(self.data, PULSED_THETA, self.fd, int(rng.integers(2**31)))
        self.photons = read_photons(self.data)
        # the desk grid that blindsearch naive defaults to, cut to the box
        spec = GridSpec(omega_min=self.box[0], omega_max=self.box[1], omegadot_min=-5e-11,
                        omegadot_max=0.0, num_layers=9, oversampling=3)
        self.grid = PulsarGrid(spec, self.photons.span)
        self.leaves = self.units = nodes_in_layer(self.grid.tree, self.grid.tree.num_layers)
        self.sample = np.sort(rng.choice(self.leaves, self.samples, replace=False))
        rc = cli.run(self._args(self.warm_box, self.work / "warmup"))
        if rc != 0:
            raise RuntimeError(f"warm-up sweep exited {rc}")
        return {"photons.txt": digest(self.data)}

    def _args(self, box, out: Path) -> list:
        return ["naive", "--photons-file", str(self.data), f"--omega-min={box[0]!r}",
                f"--omega-max={box[1]!r}", "--out-dir", str(out)]

    def argv(self, i: int) -> list:
        return self._args(self.box, self.work / "out")

    def check(self, i: int, stdout: str) -> tuple:
        out = self.work / "out"
        q_reject = resolved_qreject(out)
        G = self.grid.spec.num_layers
        errors, observed = layer_errors(out, self.grid.tree)
        if observed != self.leaves:
            errors.append(f"swept {observed} of {self.leaves} leaves")
        dets = read_rows(out / "detections.csv")
        errors += recompute_errors(dets, self.grid, self.photons, q_reject)
        # a seeded sample of leaves: kernel against reference, and detected iff >= q
        found = {int(r["leaf_index"]) for r in dets}
        got = PulsarEvaluator(self.photons, self.grid).evaluate(G, self.sample)
        om, od = self.grid.node_params(G, self.sample)
        for leaf, value, w, wd in zip(self.sample, got, om, od):
            ref = rayleigh_power(self.photons, FreqDrift(float(w), float(wd)))
            if abs(value - ref) > RECOMPUTE_RTOL * abs(ref):
                errors.append(f"leaf {leaf}: kernel {value!r}, reference {ref!r}")
            if (ref >= q_reject) != (int(leaf) in found):
                errors.append(f"leaf {leaf}: statistic {ref!r} vs q_reject {q_reject!r} "
                              "disagrees with detections.csv")
        return errors, {n: digest(out / n) for n in ("detections.csv", "layers.csv")}

    def quality(self) -> dict:
        return {"leaves": self.leaves}


class Tradeoff(Workload):
    """``blindsearch evaluate`` on a small 8-ary grid, two thetas by two lambdas."""

    name = "tradeoff"
    unit = "points"
    throughput = "tradeoff_points_per_s"
    thetas = (0.7, 0.9)      # 150 photons: the sweep detects these in most sims
    lambdas = (1e-2, 1e-1)
    units = len(thetas) * len(lambdas)
    grid_flags = ["--omega-min", "1", "--omega-max", "3", "--omegadot-min=-2e-3",
                  "--omegadot-max=0", "--layers", "4", "--span", "80", "--photons", "150"]
    # evaluate seeds drawn from the benchmark seed; ops cycle through them
    pool = 4

    def setup(self) -> dict:
        self.cost_fractions = []
        self.power_fractions = []
        rng = np.random.default_rng([self.seed, 3])
        self.seeds = [int(s) for s in rng.integers(2**31, size=self.pool)]
        warm = self.work / "warmup.csv"
        rc = cli.run(self._args((0.9,), (1e-1,), sims=2, paths=2000, seed=WARMUP_SEED,
                                out=warm))
        if rc != 0:
            raise RuntimeError(f"warm-up evaluate exited {rc}")
        return {"warmup.csv": digest(warm), "seeds": self.seeds}

    def input_key(self, i: int) -> int:
        return i % self.pool

    def _args(self, thetas, lambdas, sims: int, paths: int, seed: int, out: Path) -> list:
        return ["evaluate", "--workers", "1", *self.grid_flags,
                "--thetas", ",".join(map(repr, thetas)),
                "--lambdas", ",".join(map(repr, lambdas)),
                "--sims", str(sims), "--paths", str(paths), "--seed", str(seed),
                "--out", str(out)]

    def argv(self, i: int) -> list:
        # the fitted strategies and the simulated datasets, and with them the
        # nodes an op evaluates, move with the evaluate seed (IQR about a tenth
        # over 16 seeds); cycling through several seeds averages that within a
        # run. Fewer than 16000 paths makes each op's strategy noisier still.
        seed = self.seeds[self.input_key(i)]
        return self._args(self.thetas, self.lambdas, sims=6, paths=16000, seed=seed,
                          out=self.work / "curve.csv")

    def check(self, i: int, stdout: str) -> tuple:
        errors = []
        digests = {}
        for theta in self.thetas:
            path = self.work / f"curve_theta{theta:g}.csv"
            rows = read_rows(path)
            digests[path.name] = digest(path)
            if [float(r["lambda"]) for r in rows] != list(self.lambdas):
                errors.append(f"{path.name}: want one row per lambda {self.lambdas}")
            for r in rows:
                cost, power = float(r["cost_fraction"]), float(r["power_fraction"])
                if not math.isfinite(cost):
                    errors.append(f"{path.name}: cost fraction {cost!r}")
                if not 0.0 <= power <= 1.0:
                    errors.append(f"{path.name}: power fraction {power!r}")
                self.cost_fractions.append(cost)
                self.power_fractions.append(power)
        return errors, digests

    def quality(self) -> dict:
        if not self.cost_fractions:
            return {}
        return {"tradeoff_cost_fraction": float(np.mean(self.cost_fractions)),
                "tradeoff_power_fraction": float(np.mean(self.power_fractions))}


WORKLOADS = {w.name: w for w in (Fit, Search, Sweep, Tradeoff)}
