"""Which ratpo callables a traced run wraps, and the per-layer metrics derived
from their spans.

Every metric is per traced repetition (one set-up plus one user-facing
operation) unless its name says it is a percentile or a share.  The
``cli.*`` metrics come from the sweep probe's spans instead, per sweep, and
only count spans inside the sweep, so the set-up build that every repetition
times is not counted there.  README.md maps each metric to the end-to-end
metric it should move.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Iterable, Optional

import numpy as np

from ratpo import cli, datagen, features, fileio, oracle, pricing, problem, risk, swarm

from tracer import Span, Tracer, union_length

FILE_LOADERS = ("load_universe", "load_market", "load_scenarios", "load_portfolio")


def _file_size(args, kwargs, result, state) -> int:
    return os.path.getsize(args[0])


def _evaluate_value(args, kwargs, result, state) -> tuple[int, int, int, int]:
    evaluator, positions = args[0], args[1]
    rows = int(positions.shape[0])
    m, scenarios = evaluator.m, evaluator.problem.var_cfg.count
    # The last two are computed from array sizes, not measured: one multiply-add
    # per (row, slot, scenario), and the bytes of the m gathered float64
    # instrument P&L rows plus the result row.
    return (rows, rows * m * scenarios, int(result["feasible"].sum()),
            rows * (m + 1) * scenarios * 8)


def _pbest_before(args, kwargs):
    return args[0].best_fitness.copy()


def _pbest_after(args, kwargs, result, before) -> tuple[int, int, int]:
    sw = args[0]
    return int(np.count_nonzero(sw.best_fitness < before)), sw.cfg.particles, sw.cfg.threads


def _block_value(args, kwargs, result, state) -> tuple[int, int]:
    enumerator = args[0]
    rows, cols = result.shape
    scenarios = enumerator.problem.var_cfg.count
    # Computed from array sizes, not measured: the int64 position block plus
    # the evaluator's two float64 rows x scenarios P&L buffers.
    return rows, rows * cols * 8 + 2 * rows * scenarios * 8


def register(tracer: Tracer) -> None:
    for name in FILE_LOADERS:
        tracer.function(getattr(fileio, name), f"fileio.{name}", post=_file_size)
    tracer.function(datagen.gen_dataset, "datagen.gen_dataset")
    tracer.function(pricing.barone_adesi_whaley, "pricing.baw")
    tracer.function(pricing.black_scholes, "pricing.black_scholes")
    tracer.function(pricing.bump_greeks, "pricing.bump_greeks")
    tracer.function(pricing.strike_from_delta, "pricing.strike_from_delta")
    tracer.method(features.FeatureLab, "build_run_table", "features.build_run_table",
                  post=lambda a, k, r, s: len(r))
    tracer.function(features.aggregate, "features.aggregate")
    tracer.function(problem.build_structure, "problem.build_structure")
    tracer.method(problem.BatchEvaluator, "__init__", "problem.evaluator_init")
    tracer.method(problem.BatchEvaluator, "evaluate", "problem.evaluate", post=_evaluate_value)
    tracer.method(problem.ProblemInstance, "evaluate", "problem.scalar_evaluate")
    tracer.function(risk.var_index, "risk.var_index")
    tracer.method(swarm.Swarm, "initialize", "swarm.initialize")
    tracer.method(swarm.Swarm, "step", "swarm.step", pre=_pbest_before, post=_pbest_after)
    tracer.method(swarm.Swarm, "run", "swarm.run",
                  post=lambda a, k, r, s: (r.iterations, r.evaluations))
    tracer.method(oracle.Enumerator, "positions_for", "oracle.positions_for", post=_block_value)
    tracer.method(oracle.Enumerator, "enumerate", "oracle.enumerate",
                  post=lambda a, k, r, s: len(r.optimal_positions))
    tracer.function(cli.build_problem, "cli.build_problem")
    tracer.function(cli.main, "cli.main", post=lambda a, k, r, s: r)


class _Index:
    def __init__(self, spans: Iterable[Span]):
        self.spans = list(spans)
        self.by_name: dict[str, list[Span]] = defaultdict(list)
        self.children: dict[int, list[Span]] = defaultdict(list)
        self.parent_of: dict[int, int] = {}
        self.name_of: dict[int, str] = {}
        for s in self.spans:
            self.by_name[s.name].append(s)
            self.children[s.parent].append(s)
            self.parent_of[s.sid] = s.parent
            self.name_of[s.sid] = s.name

    def named(self, name: str, under: Optional[str] = None) -> list[Span]:
        spans = self.by_name.get(name, [])
        if under is None:
            return spans
        return [s for s in spans if self.has_ancestor(s, under)]

    def has_ancestor(self, span: Span, name: str) -> bool:
        sid = span.parent
        while sid:
            if self.name_of.get(sid) == name:
                return True
            sid = self.parent_of.get(sid, 0)
        return False

    def self_time(self, span: Span) -> float:
        kids = self.children.get(span.sid, [])
        return span.duration - union_length(((c.start, c.end) for c in kids), span.start, span.end)

    def total(self, name: str, under: Optional[str] = None) -> float:
        return sum(s.duration for s in self.named(name, under))


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _share(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean_value(spans: list[Span]) -> float:
    values = [s.value for s in spans if isinstance(s.value, int)]
    return float(np.mean(values)) if values else 0.0


def layer_metrics(spans: Iterable[Span], reps: int) -> dict[str, float]:
    """Per-layer metrics from the spans of ``reps`` traced repetitions."""
    ix = _Index(spans)
    per = 1.0 / reps
    m: dict[str, float] = {}

    loads = [s for name in FILE_LOADERS for s in ix.named(f"fileio.{name}")]
    m["fileio.load_s"] = sum(s.duration for s in loads) * per
    m["fileio.bytes_read"] = sum(s.value for s in loads if isinstance(s.value, int)) * per

    m["pricing.baw_calls"] = len(ix.named("pricing.baw")) * per
    m["pricing.baw_s"] = ix.total("pricing.baw") * per
    m["pricing.black_scholes_calls"] = len(ix.named("pricing.black_scholes")) * per
    m["pricing.black_scholes_s"] = ix.total("pricing.black_scholes") * per
    m["pricing.bump_greeks_s"] = ix.total("pricing.bump_greeks") * per
    m["pricing.strike_from_delta_s"] = ix.total("pricing.strike_from_delta") * per

    tables = ix.named("features.build_run_table")
    m["features.build_run_table_s"] = sum(s.duration for s in tables) * per
    m["features.build_run_table_self_s"] = sum(ix.self_time(s) for s in tables) * per
    m["features.instruments"] = _mean_value(tables)
    m["features.aggregate_s"] = ix.total("features.aggregate") * per

    m["problem.build_structure_s"] = ix.total("problem.build_structure") * per
    m["problem.evaluator_init_s"] = ix.total("problem.evaluator_init") * per
    m["problem.evaluator_inits"] = len(ix.named("problem.evaluator_init")) * per

    evals = [s for s in ix.named("problem.evaluate") if isinstance(s.value, list | tuple)]
    rows = sum(s.value[0] for s in evals)
    eval_s = sum(s.duration for s in evals)
    m["problem.evaluate_calls"] = len(evals) * per
    m["problem.evaluate_rows"] = rows * per
    m["problem.evaluate_s"] = eval_s * per
    m["problem.evaluate_ns_per_row"] = _share(eval_s * 1e9, rows)
    m["problem.pnl_madds"] = sum(s.value[1] for s in evals) * per
    m["problem.pnl_bytes_computed"] = sum(s.value[3] for s in evals) * per
    m["problem.scalar_evaluate_calls"] = len(ix.named("problem.scalar_evaluate")) * per
    m["problem.scalar_evaluate_s"] = ix.total("problem.scalar_evaluate") * per

    m["risk.var_index_calls"] = len(ix.named("risk.var_index")) * per

    steps = [s for s in ix.named("swarm.step") if isinstance(s.value, list | tuple)]
    step_ms = [s.duration * 1e3 for s in steps]
    busy = wall = improved = particles = 0.0
    self_ms = []
    for s in steps:
        kids = [c for c in ix.children.get(s.sid, []) if c.name == "problem.evaluate"]
        busy += sum(c.duration for c in kids)
        improved_k, particles_k, threads_k = s.value
        wall += threads_k * s.duration
        improved += improved_k
        particles += particles_k
        self_ms.append(ix.self_time(s) * 1e3)
    runs = [s for s in ix.named("swarm.run") if isinstance(s.value, list | tuple)]
    m["swarm.initialize_s"] = ix.total("swarm.initialize") * per
    m["swarm.step_ms_p50"] = _pct(step_ms, 50)
    m["swarm.step_ms_p95"] = _pct(step_ms, 95)
    m["swarm.step_self_ms_p50"] = _pct(self_ms, 50)
    m["swarm.step_samples"] = float(len(step_ms))
    m["swarm.eval_busy_share"] = _share(busy, wall)
    m["swarm.pbest_update_share"] = _share(improved, particles)
    m["swarm.iterations"] = sum(s.value[0] for s in runs) * per
    m["swarm.evaluations"] = sum(s.value[1] for s in runs) * per

    blocks = [s for s in ix.named("oracle.positions_for") if isinstance(s.value, list | tuple)]
    oracle_evals = [s for s in evals if ix.has_ancestor(s, "oracle.enumerate")]
    enums = ix.named("oracle.enumerate")
    oracle_rows = sum(s.value[0] for s in oracle_evals)
    m["oracle.positions"] = sum(s.value[0] for s in blocks) * per
    m["oracle.blocks"] = len(blocks) * per
    m["oracle.positions_for_s"] = sum(s.duration for s in blocks) * per
    m["oracle.evaluate_s"] = sum(s.duration for s in oracle_evals) * per
    m["oracle.reduce_self_s"] = sum(ix.self_time(s) for s in enums) * per
    m["oracle.feasible_share"] = _share(sum(s.value[2] for s in oracle_evals), oracle_rows)
    m["oracle.optimal_set_size"] = _mean_value(enums)
    m["oracle.block_bytes_computed"] = sum(s.value[1] for s in blocks) * per

    m["trace.spans"] = len(ix.spans) * per
    return m


def cli_metrics(spans: Iterable[Span], reps: int) -> dict[str, float]:
    """``cli.build_problem`` inside ``reps`` traced operations."""
    builds = _Index(spans).named("cli.build_problem", under="bench.run")
    return {"cli.build_problem_calls": len(builds) / reps,
            "cli.build_problem_s": sum(s.duration for s in builds) / reps}

