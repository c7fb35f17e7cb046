"""The benchmark under bench/ wraps ratpo callables by name from outside the
program.  A callable renamed or removed here must fail this test, not the
benchmark run.  The test imports bench/ without writing to it."""

import sys
from pathlib import Path

import pytest

from conftest import build_problem_from_dataset, make_toy_problem

from ratpo import cli
from ratpo.oracle import enumerate_space
from ratpo.problem import BatchEvaluator
from ratpo.swarm import RatsConfig, Swarm

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import tracer
    import workloads  # noqa: F401 - its ratpo imports must resolve

    return layers, tracer


def test_layers_wrap_current_ratpo(bench):
    layers, tracer = bench
    original_build, original_evaluate = cli.build_problem, BatchEvaluator.evaluate
    t = tracer.Tracer()
    layers.register(t)
    t.install()
    try:
        assert cli.build_problem is not original_build
        assert BatchEvaluator.evaluate is not original_evaluate
        problem = make_toy_problem()
        Swarm(RatsConfig(particles=20, k_max=2, k_max_stall=10, seed=1, threads=2), problem).run()
        result = enumerate_space(problem, budget=1000, block_size=100)
    finally:
        t.uninstall()
    assert cli.build_problem is original_build
    assert BatchEvaluator.evaluate is original_evaluate

    names = {s.name for s in t.spans}
    assert {"problem.evaluator_init", "problem.evaluate", "problem.scalar_evaluate",
            "swarm.run", "swarm.initialize", "swarm.step",
            "oracle.enumerate", "oracle.positions_for"} <= names
    metrics = layers.layer_metrics(t.spans, reps=1)
    assert metrics["swarm.iterations"] == 2
    # positions_for decodes each position that passes the Greek screen (156
    # of the toy's 300) once for its fitness floor, then each position that
    # the full fitness scores, and last the optimal set.
    assert result.feasible == 156
    assert metrics["oracle.positions"] == result.feasible + result.scored + len(result.optimal_positions)


def test_layers_see_the_pricers_of_a_problem_build(bench, reduced_dataset):
    # The tracer swaps module attributes.  A pricer that the feature build
    # reached through a reference taken at import time (a dispatch table, a
    # default argument) would escape it, and the pricing.* metrics would read
    # zero without any error.
    layers, tracer = bench
    t = tracer.Tracer()
    layers.register(t)
    t.install()
    try:
        build_problem_from_dataset(reduced_dataset, tau=0.5, grid_points=9)
    finally:
        t.uninstall()
    names = {s.name for s in t.spans}
    assert {"features.build_run_table", "pricing.black_scholes", "pricing.baw"} <= names
    metrics = layers.layer_metrics(t.spans, reps=1)
    assert metrics["features.instruments"] == 76
    assert metrics["pricing.baw_calls"] >= 1
    assert metrics["pricing.black_scholes_calls"] >= 1
