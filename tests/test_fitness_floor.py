"""``BatchEvaluator.fitness_floor`` is at most ``evaluate``'s fitness on every row.

The problems are the evaluator property tests' quarter-valued ones and their
losing books, whose sums are exact: duplicate option picks, VaR ranks above
1 and degenerate denominators among them.  Each is drawn with ``epsilon``
0 or 1e-9 and with its unit costs or none, and then checked in every
variant of :func:`variants`: as drawn; with every P&L scaled by a factor no
binary fraction holds and given noise, so that sums round; with the book
moved far below zero and ``pnl_rf`` set so that a row's numerator cancels;
and with the book shifted so that a row's denominator is a hair below zero,
for each row in turn.  The cancelling rows are where a floor without its
rounding slack lands above the fitness.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from test_evaluator_properties import ROWS, random_rows
from test_oracle_differential import oracle_problems

from ratpo.features import FeatureTable
from ratpo.problem import ProblemInstance
from ratpo.risk import var_index

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True)
DRAWS = {"problem": oracle_problems, "seed": st.integers(0, 2**32 - 1),
         "epsilon": st.sampled_from([0.0, 1e-9]), "free": st.booleans()}


def with_features(problem: ProblemInstance, pnl, unit_cost) -> ProblemInstance:
    """``problem`` with every P&L vector and unit cost mapped."""
    table = problem.table
    return dataclasses.replace(
        problem,
        table=FeatureTable({
            i: dataclasses.replace(table[i], pnl=pnl(table[i].pnl), unit_cost=unit_cost(table[i].unit_cost))
            for i in table.ids()
        }, table.scenario_count),
        init=dataclasses.replace(problem.init, pnl=pnl(problem.init.pnl)),
    )


def shifted(problem: ProblemInstance, shift: float) -> ProblemInstance:
    """``problem`` with the book's P&L moved by ``shift`` in every scenario."""
    return dataclasses.replace(problem, init=dataclasses.replace(problem.init, pnl=problem.init.pnl + shift))


def variants(problem: ProblemInstance, seed: int, epsilon: float,
             free: bool) -> Iterator[tuple[str, ProblemInstance, np.ndarray]]:
    """(shape, problem, rows to bound) for every shape of a drawn problem."""
    rng = np.random.default_rng(seed)
    rows = random_rows(problem, seed)
    problem = dataclasses.replace(problem, epsilon=epsilon)
    if free:
        problem = with_features(problem, lambda v: v, lambda c: 0.0)
    yield "exact", problem, rows
    scale = (1.0 + rng.random()) / 3.0
    problem = with_features(problem, lambda v: v * scale + rng.standard_normal(v.size) * scale / 7.0,
                            lambda c: c * scale)
    yield "rounded", problem, rows
    # A book far below zero in every scenario, so that each P&L sum rounds
    # at that scale, and pnl_rf set so that row r's numerator cancels to a
    # few units in the last place.
    for offset in 10.0 ** np.array([2, 4, 6]) * scale:
        low = shifted(problem, -offset)
        res = low.evaluator.evaluate(rows)
        for r in range(ROWS):
            yield "numerator", dataclasses.replace(low, pnl_rf=float(res["mean"][r] - res["cost"][r])), rows
    # Shifting the book moves every VaR by about as much: row r's
    # denominator becomes about -1e-9 of the P&L scale.
    res = problem.evaluator.evaluate(rows)
    for r in range(ROWS):
        yield "denominator", shifted(problem, float(res["cost"][r] - res["var"][r]) - 1e-9 * scale), rows


def assert_floor_holds(problem: ProblemInstance, rows: np.ndarray) -> np.ndarray:
    floor = problem.evaluator.fitness_floor(rows)
    fit = problem.evaluator.evaluate(rows)["fitness"]
    assert not np.isnan(floor).any()
    assert np.all(floor <= fit), (floor[floor > fit], fit[floor > fit])
    return floor


@SETTINGS
@given(**DRAWS)
def test_floor_is_at_most_fitness(problem, seed, epsilon, free):
    for _, variant, rows in variants(problem, seed, epsilon, free):
        assert_floor_holds(variant, rows)


def test_strategy_covers_the_named_cases():
    """The draws reach a VaR rank above 1, ``epsilon = 0``, zero costs,
    degenerate rows, finite floors, and rows whose numerator or denominator
    is within 1e-6 of zero."""
    seen = {"rank": False, "epsilon0": False, "free": False, "degenerate": False, "finite": False,
            "numerator": False, "denominator": False}

    @SETTINGS
    @given(**DRAWS)
    def scan(problem, seed, epsilon, free):
        seen["rank"] |= var_index(problem.var_cfg) > 1
        seen["epsilon0"] |= epsilon == 0.0
        seen["free"] |= free
        for shape, variant, rows in variants(problem, seed, epsilon, free):
            res = variant.evaluator.evaluate(rows)
            numerator = res["mean"] - variant.pnl_rf - res["cost"]
            denominator = res["var"] - res["cost"]
            seen["degenerate"] |= bool(np.isinf(res["objective"]).any())
            seen["finite"] |= bool(np.isfinite(variant.evaluator.fitness_floor(rows)).any())
            seen["numerator"] |= shape == "numerator" and bool((np.abs(numerator) < 1e-6).any())
            seen["denominator"] |= shape == "denominator" and bool(
                ((denominator < 0.0) & (denominator > -1e-6)).any())

    scan()
    assert all(seen.values()), seen


def test_floor_holds_on_generated_instances(reduced_problem, table1_problem):
    for problem in (reduced_problem, table1_problem):
        rows = random_rows(problem, 5)
        rows = np.concatenate([rows, np.random.default_rng(6).integers(
            *problem.structure.position_bounds(), size=(2000, rows.shape[1]), endpoint=True)])
        floor = assert_floor_holds(problem, rows)
        assert np.isfinite(floor).any()
