"""Benchmark for blindsearch: one workload, one seed, one timed run.

    python3 perfbench/run.py --workload search --seed 1 --seconds 15 --trace 0

Run from the repository root. The program is imported from ``src/`` of
the same checkout, never from an installed copy. Inputs are built from
``--seed`` (setup, repeated SETUP_REPEATS times), then ops run one at a
time for ``--seconds`` and each op's outputs are checked. Between ops,
passes of a fixed reference kernel (hostspeed.py) measure how fast the
shared host runs, and the timings are reported at the reference host
speed. The last line of standard output is the JSON result; the lines
above it are the human-readable report. With ``--trace 1`` every op
runs twice, plain and traced in alternating order, and the result holds
the per-layer metrics and the tracing overhead instead of the
end-to-end metrics. Work files
and per-run results go to ``.bench_out/`` at the root. README.md lists
the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
REFERENCE_EVERY_S = 1.0     # op seconds per pass of the host-speed kernel
THREAD_VARS = ("BLINDSEARCH_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def import_program() -> None:
    """Import blindsearch from this checkout's src/, or SystemExit(2) without it."""
    sys.path.insert(0, str(SRC))
    try:
        import blindsearch
    except ImportError as exc:
        print(f"perfbench: cannot import blindsearch from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if not Path(blindsearch.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: blindsearch resolved to {blindsearch.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "loadavg": os.getloadavg(),
    }


def code_hash() -> str:
    """Digest of the program and the benchmark, which together fix the outputs."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "blindsearch").rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_cli(cli, argv) -> tuple:
    """(exit code, captured stdout) of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.run(argv)
        except SystemExit as exc:   # argparse usage errors
            rc = exc.code
    return rc, out.getvalue() + err.getvalue()


def tail_latency(samples) -> tuple:
    """(value, percentile): the highest percentile with at least 10 samples beyond."""
    n = len(samples)
    if n < 11:
        return None, None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


class Runner:
    def __init__(self, cli, workload, tracer):
        self.cli = cli
        self.wl = workload
        self.tracer = tracer
        self.errors = []
        self.failed = 0
        self.attempted = 0
        self.digests = {}     # input key -> digests of the first op on it

    def op(self, i: int, traced: bool) -> float:
        """Run, time and check op i; returns its wall time."""
        argv = self.wl.argv(i)
        self.attempted += 1
        start = time.perf_counter()
        try:
            if traced:
                with self.tracer.recording(i):
                    rc, text = run_cli(self.cli, argv)
            else:
                rc, text = run_cli(self.cli, argv)
            seconds = time.perf_counter() - start
            if rc != 0:
                raise RuntimeError(f"exit code {rc}: {text.strip()[-300:]}")
            problems, digests = self.wl.check(i, text)
        except Exception:
            seconds = time.perf_counter() - start
            problems, digests = [traceback.format_exc(limit=3).strip()], None
        key = self.wl.input_key(i)
        if digests is not None:
            first = self.digests.setdefault(key, digests)
            if first != digests:
                problems.append(f"outputs of input {key} differ from an earlier op: "
                                f"{first} vs {digests}")
        if problems:
            self.failed += 1
            self.errors += [f"op {i}: {p}" for p in problems]
        return seconds


def check_ledger(workload: str, seed: int, digests: dict, code: str) -> tuple:
    """Compare this run's digests with earlier runs of this checkout.

    A digest that differs from an earlier run of the same code is an
    error; one that differs from a run of other code is a note.
    """
    path = OUT / "digests.json"
    ledger = json.loads(path.read_text()) if path.exists() else {}
    errors, notes = [], []
    for key, files in digests.items():
        name = f"{workload}/seed{seed}/input{key}"
        for other, runs in ledger.items():
            if name in runs and runs[name] != files:
                if other == code:
                    errors.append(f"{name}: outputs differ from an earlier run: "
                                  f"{runs[name]} vs {files}")
                else:
                    notes.append(f"{name}: digests changed since code {other}")
        ledger.setdefault(code, {}).setdefault(name, files)
    path.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    return errors, notes


def latest_sweep_rate(code: str):
    """work_per_s of the newest untraced sweep result of this code, if any."""
    runs = sorted((OUT / "results").glob("sweep-seed*-trace0.json"),
                  key=lambda p: p.stat().st_mtime)
    records = [json.loads(p.read_text()) for p in runs]
    rates = [r["metrics"]["work_per_s"]["value"] for r in records if r["code"] == code]
    return rates[-1] if rates else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import hostspeed
    import tracing
    import workloads
    from blindsearch import cli

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    env = environment()
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT / "work" / args.workload)
    quiet = io.StringIO()

    setup_times = []
    setup_errors = []
    first_inputs = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with contextlib.redirect_stdout(quiet):
            inputs = wl.setup()
        setup_times.append(time.perf_counter() - start)
        first_inputs = first_inputs or inputs
        if inputs != first_inputs:
            setup_errors.append(f"setup inputs differ between repeats: "
                                f"{first_inputs} vs {inputs}")

    tracer = tracing.Tracer() if args.trace else None
    runner = Runner(cli, wl, tracer)
    plain, traced = [], []
    references = [hostspeed.reference()]
    since_reference = 0.0
    work = 0.0
    i = 0
    deadline = time.perf_counter() + args.seconds
    while i == 0 or time.perf_counter() < deadline:
        work += wl.units
        if tracer is None:
            plain.append(runner.op(i, traced=False))
            since_reference += plain[-1]
        else:
            # alternate the order so drift in machine load hits both sides alike
            for side in ((False, True) if i % 2 == 0 else (True, False)):
                (traced if side else plain).append(runner.op(i, traced=side))
        i += 1
        # passes in proportion to op time, so their mean weighs the host's
        # speed over the run as the op times do
        while since_reference >= REFERENCE_EVERY_S:
            references.append(hostspeed.reference())
            since_reference -= REFERENCE_EVERY_S
    # > 1 when the host ran slower than the speed the bench was defined at
    host_factor = statistics.fmean(references) / hostspeed.REFERENCE_S

    code = code_hash()
    ledger_errors, ledger_notes = check_ledger(args.workload, args.seed, runner.digests, code)
    errors = setup_errors + runner.errors + ledger_errors
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    quality = wl.quality()

    report = [
        f"workload {args.workload}: seed {args.seed}, {i} ops over {args.seconds:g} s, "
        f"trace {args.trace}, code {code}",
        f"env: nproc {env['nproc']} (affinity {env['affinity']}), python {env['python']}, "
        f"numpy {env['numpy']}, scipy {env['scipy']}, "
        f"loadavg {' '.join(f'{x:.2f}' for x in env['loadavg'])}",
        "env threads: " + ", ".join(f"{k}={v if v is not None else 'unset'}"
                                    for k, v in env["threads"].items()),
        "setup_s repeats: " + ", ".join(f"{t:.4f}" for t in setup_times),
        f"host factor {host_factor:.4f}: mean of {len(references)} reference passes "
        f"{statistics.fmean(references):.4f} s over {hostspeed.REFERENCE_S} s",
    ]
    if tracer is None:
        op_seconds = sum(plain)
        work_per_s = work / op_seconds
        latency = wl.latency(plain)
        # timings in seconds at the reference host speed; the wall values go
        # to the report
        metrics = {
            "setup_s": (statistics.median(setup_times) / host_factor, "s"),
            "latency_p50_s": (latency / host_factor, "s"),
            "work_per_s": (work_per_s * host_factor, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        report.append(f"wall: setup_s {statistics.median(setup_times):.6g}, latency_p50_s "
                      f"{latency:.6g}, work_per_s {work_per_s:.6g}")
        report.append(f"{wl.throughput} = {work_per_s * host_factor:.6g} "
                      f"({wl.unit} per second of op time, at the reference host speed)")
        report.append(f"error_rate = {runner.failed / runner.attempted:.6g} "
                      f"({runner.failed} of {runner.attempted} ops)")
        if args.workload == "search":
            report.append(f"search_latency_p50_s = {latency / host_factor:.6g} "
                          f"over {len(plain)} datasets")
            tail, pct = tail_latency(plain)
            report.append(f"search_latency_tail_s = {tail / host_factor:.6g} "
                          f"(p{pct:.1f} of {len(plain)})"
                          if tail is not None else
                          f"search_latency_tail_s = n/a ({len(plain)} samples, need 11)")
            sweep = latest_sweep_rate(code)
            if sweep is None:
                report.append("wall-clock cost fraction: n/a "
                              "(no sweep result of this code in .bench_out)")
            else:
                frac = latency / host_factor * sweep / quality["leaves"]
                report.append(f"wall-clock cost fraction = {frac:.6g} "
                              f"(latency p50 x {sweep:.6g} sweep leaves/s / "
                              f"{quality['leaves']} leaves; derived, not gated)")
    else:
        overhead = sum(traced) / sum(plain) - 1.0
        values = tracing.layer_metrics(tracer.spans, len(traced))
        values["trace.overhead_frac"] = overhead
        values["trace.spans_per_op"] = len(tracer.spans) / len(traced)
        metrics = {k: (v, tracing.unit_of(k)) for k, v in values.items()}
        report.append(f"tracing overhead {overhead:+.2%}: traced ops median "
                      f"{statistics.median(traced):.4f} s, plain {statistics.median(plain):.4f} s, "
                      f"{len(traced)} pairs, {len(tracer.spans)} spans")
        tracer.write(OUT / "results" / f"{args.workload}-seed{args.seed}-spans.json")
    report += [f"{k} = {v:.6g}" for k, v in quality.items()]
    report += [f"digests input {k}: " + ", ".join(f"{n} {d}" for n, d in sorted(v.items()))
               for k, v in sorted(runner.digests.items())]
    report += [f"note: {n}" for n in ledger_notes]
    report += [f"ERROR {e}" for e in errors]

    result = {
        "correct": not errors,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    record = {"env": env, "code": code, "setup_s": setup_times, "plain_s": plain,
              "traced_s": traced, "reference_s": references, "host_factor": host_factor,
              "quality": quality, "digests": runner.digests,
              "errors": errors, **result}
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
