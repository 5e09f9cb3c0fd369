"""Benchmark for ybalg: three workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0

Everything runs in this one single-threaded process.  The program is
imported from ``src/`` of the checkout; inputs are generated from
``--seed`` and written under ``.perfbench/``.

* Set-up (``setup_s``): a fresh import of ``ybalg`` (its modules are removed
  from ``sys.modules`` first) plus generating and writing the workload's
  input files.  One untimed round warms the interpreter's own imports and
  bytecode cache, then the median of several timed rounds is reported.
* ``--trace 0``: passes over the workload's jobs are repeated while the
  next pass still fits in ``--seconds`` (at least two).  Each job's time is
  its median over the passes; ``wall_s`` is the sum of those medians (one
  typical pass) and ``slowest_job_s`` the largest of them.
* The three times are reported at a fixed reference speed of the machine:
  a reference kernel (``speed.py``) is timed after every set-up round and
  about once a second between jobs.  Each set-up round's and each job's
  time is multiplied by ``speed.REFERENCE_S`` over the median of the
  kernel samples nearest to it before medians are taken.  A shared host
  slows the program and the kernel alike for minutes at a time; the
  measured times and the factors are printed too.
* ``--trace 1``: untraced and traced passes alternate; the per-layer
  metrics are medians over the traced passes, ``trace.overhead_s`` is the
  traced minus the untraced median pass, and every span is written to
  ``.perfbench/spans-<workload>.jsonl`` at exit.

Every job has a verdict known in advance (see ``workloads.py``).  A job
fails on an exception, an unexpected exit code or report, a report that
differs between passes of one run, or, for seed 0, a report whose digest
differs from the one stored in ``digests.json``.  The last line of output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import spans
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
SETUP_ROUNDS = 11
MIN_PASSES = 2
#: stop starting passes after this long, whatever ``--seconds`` says
HARD_STOP_S = 120.0

END_TO_END = {
    "wall_s": "s",
    "slowest_job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit; every name is printed for every workload
PER_LAYER = {
    "tensoralg.compose.calls": "count",
    "tensoralg.compose.self_s": "s",
    "tensoralg.compose.terms_out": "count",
    "tensoralg.add.calls": "count",
    "tensoralg.add.self_s": "s",
    "tensoralg.embed.calls": "count",
    "tensoralg.embed.self_s": "s",
    "tensoralg.self_s": "s",
    "tensoralg.share": "ratio",
    "ybe.calls": "count",
    "ybe.self_s": "s",
    "fixtures.candidates": "count",
    "fixtures.solutions": "count",
    "fixtures.hit_ratio": "ratio",
    "fixtures.self_s": "s",
    "double.calls": "count",
    "double.self_s": "s",
    "linalg.rref.calls": "count",
    "linalg.rref.rows": "count",
    "linalg.rref.cols": "count",
    "linalg.rref.cells": "count",
    "linalg.rref.rank": "count",
    "linalg.rref.pivot_ratio": "ratio",
    "linalg.rref.max_coeff_bits": "bits",
    "linalg.rref.self_s": "s",
    "linalg.reduce.calls": "count",
    "linalg.reduce.self_s": "s",
    "linalg.self_s": "s",
    "linalg.share": "ratio",
    "algebras.nbasis": "count",
    "algebras.self_s": "s",
    "frt.commutant.calls": "count",
    "frt.commutant.unknowns": "count",
    "frt.commutant.eq_rows": "count",
    "frt.commutant.nullity": "count",
    "frt.commutant.self_s": "s",
    "frt.self_s": "s",
    "io.parse.calls": "count",
    "io.parse.bytes": "B",
    "io.parse.self_s": "s",
    "io.dump.calls": "count",
    "io.dump.bytes": "B",
    "io.dump.self_s": "s",
    "harness.report_bytes": "B",
    "harness.self_s": "s",
    "cli.self_s": "s",
    "twisted.self_s": "s",
    "operad.self_s": "s",
    "linfty.self_s": "s",
    "ybe_infty.self_s": "s",
    "quiver.reduce_share": "ratio",
    "trace.overhead_s": "s",
    "trace.count_s": "s",
    "trace.spans": "count",
}


class Outcomes:
    """Correctness bookkeeping across the passes of one run."""

    def __init__(self, workload: str, seed: int):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_text: dict[str, str] = {}
        self.digests = None
        if seed == DEFAULT_SEED:
            self.digests = json.loads(DIGESTS.read_text()).get(workload, {})

    def record(self, job, code, text: str | None, error: str | None) -> None:
        self.attempted += 1
        problem = error
        if problem is None and code != job.expect_code:
            problem = f"exit code {code}, expected {job.expect_code}"
        elif problem is None and not job.check(text):
            problem = "report does not show the expected verdict"
        elif problem is None and self.first_text.setdefault(job.name, text) != text:
            problem = "report bytes differ from the first pass"
        elif problem is None and self.digests is not None:
            digest = hashlib.sha256(text.encode()).hexdigest()
            if self.digests.get(job.name) != digest:
                problem = "report digest differs from the stored seed-0 digest"
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{job.name}: {problem}")


def set_up(workload: str, seed: int):
    """Import ybalg afresh and write the workload's inputs; return (seconds, jobs)."""
    for name in [n for n in sys.modules if n == "ybalg" or n.startswith("ybalg.")]:
        del sys.modules[name]
    start = time.perf_counter()
    ybalg = importlib.import_module("ybalg")
    importlib.import_module("ybalg.cli")
    jobs = workloads.build(workload, ybalg, ROOT, seed)
    return time.perf_counter() - start, ybalg, jobs


def run_pass(jobs, outcomes: Outcomes, tracer=None, probe=None):
    """Run every job once; return the pass's wall time and each job's (start, seconds)."""
    gc.collect()
    times = []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job.name
        began = time.perf_counter()
        try:
            code, text = job.run()
            error = None
        except Exception as err:  # a crash is a failed job, not a crashed benchmark
            code, text, error = None, None, f"{type(err).__name__}: {err}"
        times.append((began, time.perf_counter() - began))
        outcomes.record(job, code, text, error)
        if probe is not None:
            probe.maybe_sample()
    return time.perf_counter() - start, times


def measure(jobs, outcomes: Outcomes, seconds: float, probe) -> tuple[dict, dict]:
    """Repeat passes; each job's time is its median over the passes.

    Returns the metrics at the reference speed, and the measured ones with
    the per-job medians as information.
    """
    walls, per_job = [], {job.name: [] for job in jobs}
    start = time.perf_counter()
    probe.sample()
    while True:
        wall, times = run_pass(jobs, outcomes, probe=probe)
        walls.append(wall)
        for job, (began, t) in zip(jobs, times):
            per_job[job.name].append((began + t / 2, t))
        elapsed = time.perf_counter() - start
        if len(walls) >= MIN_PASSES and (elapsed + wall > seconds or elapsed > HARD_STOP_S):
            break
    measured = {name: statistics.median(t for _, t in ts) for name, ts in per_job.items()}
    scaled = {name: statistics.median(t * probe.scale(at) for at, t in ts)
              for name, ts in per_job.items()}
    metrics = {"wall_s": sum(scaled.values()), "slowest_job_s": max(scaled.values())}
    info = dict(measured)
    info["pass walls"] = " ".join(f"{w:.3f}" for w in walls)
    info["measured wall_s"] = sum(measured.values())
    info["measured slowest_job_s"] = max(measured.values())
    return metrics, info


def measure_traced(jobs, outcomes: Outcomes, seconds: float, workload: str):
    untraced, traced, layer_runs, records = [], [], [], []
    start = time.perf_counter()
    while True:
        wall, _ = run_pass(jobs, outcomes)
        untraced.append(wall)
        tracer = spans.Tracer()
        with tracer:
            wall, _ = run_pass(jobs, outcomes, tracer)
        traced.append(wall)
        layers = spans.layer_metrics(tracer)
        layers["quiver.reduce_share"] = spans.job_share(tracer, "quiver-build", "linalg.reduce")
        layer_runs.append(layers)
        records.append(tracer.spans)
        elapsed = time.perf_counter() - start
        if elapsed + untraced[-1] + traced[-1] > seconds or elapsed > HARD_STOP_S:
            break
    # median_low picks one traced pass's value, so counts stay whole numbers
    names = set(PER_LAYER).union(*layer_runs)
    metrics = {name: statistics.median_low([run.get(name, 0) for run in layer_runs])
               for name in names}
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    out = ROOT / ".perfbench" / f"spans-{workload}.jsonl"
    with out.open("w") as fh:
        for number, pass_spans in enumerate(records):
            for index, record in enumerate(pass_spans):
                fh.write(json.dumps([number, index, *record]) + "\n")
    total = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS) or 1.0
    ranking = sorted(spans.LAYERS, key=lambda layer: -metrics[f"{layer}.self_s"])
    return metrics, {
        "untraced walls": " ".join(f"{w:.3f}" for w in untraced),
        "traced walls": " ".join(f"{w:.3f}" for w in traced),
        "layers by self time": ", ".join(
            f"{layer} {metrics[f'{layer}.self_s'] / total:.1%}" for layer in ranking),
        "missing targets": tracer.missing,
        "spans file": str(out.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "ybalg" / "__init__.py").is_file():
        print(f"error: no ybalg sources under {src}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(src))

    set_up(args.workload, args.seed)  # warm-up round, untimed
    setup_probe = speed.SpeedProbe()
    rounds = []
    for _ in range(SETUP_ROUNDS):
        began = time.perf_counter()
        seconds, ybalg, jobs = set_up(args.workload, args.seed)
        rounds.append((began + seconds / 2, seconds))
        setup_probe.sample()
    if Path(ybalg.__file__).resolve().parent != (src / "ybalg").resolve():
        print(f"error: imported ybalg from {ybalg.__file__}, not {src}", file=sys.stderr)
        return 2

    outcomes = Outcomes(args.workload, args.seed)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "platform": platform.platform(),
        "nproc": os.cpu_count(), "jobs": len(jobs),
    }))
    if args.trace:
        metrics, info = measure_traced(jobs, outcomes, args.seconds, args.workload)
        units = PER_LAYER
    else:
        probe = speed.SpeedProbe()
        metrics, info = measure(jobs, outcomes, args.seconds, probe)
        info["measured setup_s"] = statistics.median(s for _, s in rounds)
        metrics["setup_s"] = statistics.median(s * setup_probe.scale(at) for at, s in rounds)
        info["speed scale"] = (f"set-up {setup_probe.scale():.4f}, passes {probe.scale():.4f}"
                               f" ({len(setup_probe.samples)}+{len(probe.samples)} kernel samples)")
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        units = END_TO_END
    failed_frac = outcomes.failed / outcomes.attempted
    for key, value in info.items():
        print(f"{key}: {value:.4f} s" if isinstance(value, float) else f"{key}: {value}")
    for name, unit in units.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    print(f"failed_frac: {failed_frac:.6g} ratio ({outcomes.failed}/{outcomes.attempted})")
    for problem in outcomes.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
