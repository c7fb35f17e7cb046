"""Child process of the benchmark: generates a data directory, or measures
one workload on it.

    python3 bench/worker.py gen --workload W --out-dir D --trace T --result R
    python3 bench/worker.py measure --workload W --data-dir D --work-dir K \\
        --seed N --seconds S --trace T --spans P --result R

``run.py`` starts one of these per step so that each workload's peak memory
and threads are its own.  It imports ratpo from the ``src`` directory next to
this one and refuses to run on any other copy.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ratpo  # noqa: E402
from ratpo import cli  # noqa: E402
from ratpo.problem import BatchEvaluator  # noqa: E402

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import THREADS, WORKLOADS, Outcome, ReducedSweep, Workload  # noqa: E402

#: Repetitions an untraced run makes even when ``--seconds`` runs out first.
MIN_REPS = 3
#: A traced run alternates untraced and traced repetitions and makes at least
#: this many of each.  Five traced repetitions give at least 250 swarm steps on
#: table1_swarm, so the step p95 has ten samples beyond it.
MIN_TRACED_REPS = 5
MIN_PLAIN_REPS_IN_TRACE = 2
MAX_REPS = 200
#: Traced sweeps of the sweep probe: 5 x 48 = 240 cells, so the cell p95 has
#: twelve samples beyond it.
SWEEP_PROBE_REPS = 5


def rep_seed(seed: int, rep: int) -> int:
    """Seed of one repetition: the swarm seed, or the sweep's master seed."""
    return seed * 1000 + rep


def evaluate_probe_ms(problem, seed: int, rows: int = 1000, repeats: int = 11) -> float:
    """Median single-thread time of one fixed ``rows``-position batch."""
    rng = np.random.default_rng(seed)
    lo, hi = problem.structure.position_bounds()
    batch = rng.integers(lo, hi + 1, size=(rows, lo.size))
    evaluator = BatchEvaluator(problem)
    evaluator.evaluate(batch)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        evaluator.evaluate(batch)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def repetition(w: Workload, seed: int, tracer: Tracer | None) -> dict:
    """One timed set-up plus one timed operation, then the output checks."""
    rec = {"workload": w.name, "seed": seed, "traced": tracer is not None, "setup_s": None, "run_s": None}
    span = tracer.span if tracer is not None else (lambda name: contextlib.nullcontext())
    state = result = None
    outcome = Outcome(attempted=w.operations)
    if tracer is not None:
        tracer.install()
    try:
        with span("bench.setup"):
            t0 = time.perf_counter()
            state = w.setup(seed)
            rec["setup_s"] = time.perf_counter() - t0
        with span("bench.run"):
            t0 = time.perf_counter()
            result = w.run(state, seed)
            rec["run_s"] = time.perf_counter() - t0
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        traceback.print_exc()
        outcome.fail(f"seed {seed}: {type(exc).__name__}: {exc}", failed=w.operations)
    finally:
        if tracer is not None:
            tracer.uninstall()
    if rec["run_s"] is not None:
        try:
            outcome = w.check(state, result, seed)
        except Exception as exc:  # noqa: BLE001 - a check that raises fails the operation
            traceback.print_exc()
            outcome.fail(f"seed {seed}: check raised {type(exc).__name__}: {exc}", failed=w.operations)
    rec.update(attempted=outcome.attempted, failed=outcome.failed, hits=outcome.hits,
               evaluations=outcome.evaluations, problems=outcome.problems,
               cell_walls=outcome.cell_walls)
    return rec


def _enough(reps: list[dict], trace: bool) -> bool:
    if not trace:
        return len(reps) >= MIN_REPS
    traced = sum(r["traced"] for r in reps)
    return traced >= MIN_TRACED_REPS and len(reps) - traced >= MIN_PLAIN_REPS_IN_TRACE


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(reps: list[dict]) -> dict[str, float]:
    timed = [r for r in reps if not r["traced"] and r["run_s"] is not None]
    attempted = sum(r["attempted"] for r in reps)
    return {
        "setup_s": _median([r["setup_s"] for r in reps if not r["traced"] and r["setup_s"] is not None]),
        "run_s": _median([r["run_s"] for r in timed]),
        "evals_per_s": _median([r["evaluations"] / r["run_s"] for r in timed]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "hit_rate": sum(r["hits"] for r in reps) / attempted if attempted else 0.0,
    }


def sweep_probe(w: Workload, work_dir: Path, seed: int) -> tuple[list[dict], list]:
    """Traced ``ratpo sweep`` repetitions on the data of workload ``w``, and
    their spans, recorded apart from the workload's own."""
    (work_dir / "sweep").mkdir()
    sweep = ReducedSweep(Path(w.data_dir), work_dir / "sweep")
    tracer = Tracer()
    layers.register(tracer)
    reps = [repetition(sweep, rep_seed(seed, i), tracer) for i in range(SWEEP_PROBE_REPS)]
    return reps, tracer.spans


def sweep_metrics(reps: list[dict], spans: list) -> dict[str, float]:
    """The ``cli.*`` metrics, per probe sweep; all 0 without the probe."""
    n = max(len(reps), 1)
    walls = [w for r in reps for w in r["cell_walls"]]
    cells = sum(r["attempted"] for r in reps)
    return {
        **layers.cli_metrics(spans, n),
        "cli.sweep_cells": cells / n,
        "cli.sweep_cell_s_p50": float(np.percentile(walls, 50)) if walls else 0.0,
        "cli.sweep_cell_s_p95": float(np.percentile(walls, 95)) if walls else 0.0,
        "cli.sweep_cell_samples": float(len(walls)),
        "cli.sweep_hit_rate": sum(r["hits"] for r in reps) / cells if cells else 0.0,
    }


def per_layer(reps: list[dict], tracer: Tracer, probe_ms: float,
              sweep_reps: list[dict], sweep_spans: list) -> dict[str, float]:
    traced = [r for r in reps if r["traced"]]
    m = layers.layer_metrics(tracer.spans, len(traced))
    m["problem.evaluate_1000_ms"] = probe_ms
    m.update(sweep_metrics(sweep_reps, sweep_spans))

    def overhead(key: str) -> tuple[float, float]:
        plain = _median([r[key] for r in reps if not r["traced"] and r[key] is not None])
        return _median([r[key] for r in traced if r[key] is not None]) - plain, plain

    m["trace.overhead_s"], plain_run = overhead("run_s")
    m["trace.overhead_share"] = m["trace.overhead_s"] / plain_run
    m["trace.setup_overhead_s"], _ = overhead("setup_s")
    return m


def cmd_gen(args: argparse.Namespace) -> dict:
    w = WORKLOADS[args.workload]
    tracer = Tracer()
    if args.trace:
        layers.register(tracer)
        tracer.install()
    rc = cli.main(["gen", "--seed", str(w.instance_seed), "--out-dir", args.out_dir,
                   "--profile", w.profile])
    tracer.uninstall()
    gen_s = sum(s.duration for s in tracer.spans if s.name == "datagen.gen_dataset")
    return {"exit_code": rc, "datagen.gen_dataset_s": gen_s}


def cmd_measure(args: argparse.Namespace) -> dict:
    w = WORKLOADS[args.workload](Path(args.data_dir), Path(args.work_dir))
    tracer = Tracer()
    layers.register(tracer)

    # Warm-up: an untimed build and evaluator pass fill lazy imports and caches.
    probe_ms = evaluate_probe_ms(w.build(), args.seed, repeats=11 if args.trace else 1)

    reps: list[dict] = []
    deadline = time.perf_counter() + args.seconds
    sweep_reps, sweep_spans = [], []
    if args.trace and w.sweep_probe:
        sweep_reps, sweep_spans = sweep_probe(w, Path(args.work_dir), args.seed)
    while len(reps) < MAX_REPS and not (_enough(reps, args.trace) and time.perf_counter() >= deadline):
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(repetition(w, rep_seed(args.seed, len(reps)), tracer if traced else None))

    if args.trace:
        metrics = per_layer(reps, tracer, probe_ms, sweep_reps, sweep_spans)
        tracer.write(args.spans)
    else:
        metrics = end_to_end(reps)
    reps += sweep_reps
    for r in reps:
        del r["cell_walls"]
    return {
        "metrics": metrics,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "problems": [p for r in reps for p in r["problems"]],
        "reps": reps,
        "instance_seed": w.instance_seed,
        "threads": THREADS,
        "versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                     "scipy": scipy.__version__, "ratpo": str(Path(ratpo.__file__).parent)},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("gen")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_gen)
    p = sub.add_parser("measure")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--spans", required=True)
    p.set_defaults(func=cmd_measure)
    for p in sub.choices.values():
        p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
        p.add_argument("--trace", type=int, choices=(0, 1), required=True)
        p.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    expected = (ROOT / "src" / "ratpo").resolve()
    if Path(ratpo.__file__).resolve().parent != expected:
        print(f"bench: imported ratpo from {ratpo.__file__}, not from {expected}", file=sys.stderr)
        return 2
    payload = args.func(args)
    Path(args.result).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
