"""``BatchEvaluator.subset_floor`` is at most ``evaluate``'s fitness on every row.

It draws the problems of ``test_fitness_floor.py`` and checks every variant
of :func:`test_fitness_floor.variants`, each with one of three kinds of
scenario subset K in turn: the evaluator's own (every scenario on these small
problems), a random one of at least the VaR rank, and one that misses every
scenario at which a chosen row's VaR lies.  The VaR ranks above 1 of the drawn problems are where
a floor that takes the row minimum over K, or K's order statistic one rank
too low, lands above the fitness; the cancelling numerators are where a
mean without its rounding slack does.  A NaN floor (an infinite penalty on a
row with no objective floor) bounds nothing, and the swarm scores its row.

Every floor is also compared byte for byte with
``reference.one_product_subset_floor``, the floor from one product with
every narrow column: ``subset_floor`` reads the VaR bound only on the rows
whose numerator floor is negative, and that must change no floor.
"""

from __future__ import annotations

from typing import Iterator, Optional

import numpy as np
from hypothesis import given

import reference
from test_evaluator_properties import ROWS, random_rows
from test_fitness_floor import DRAWS, SETTINGS, variants

from ratpo.problem import BatchEvaluator, ProblemInstance
from ratpo.risk import var_index
from ratpo.swarm import RatsConfig, Swarm


def checks(problem: ProblemInstance, seed: int, epsilon: float,
           free: bool) -> Iterator[tuple[str, ProblemInstance, np.ndarray, Optional[np.ndarray]]]:
    """(kind, problem, rows, K) for every variant of a drawn problem, each with
    one of the three kinds of K in turn; K None is the evaluator's own."""
    rng = np.random.default_rng(seed)
    for n, (_, problem, rows) in enumerate(variants(problem, seed, epsilon, free)):
        s, rank = problem.var_cfg.count, var_index(problem.var_cfg)
        kind = ("own", "drawn", "miss")[n % 3]
        pnl = problem.evaluator.evaluate(rows)["pnl"][rng.integers(ROWS)]
        # The scenarios other than those at which this row's VaR lies.
        rest = np.flatnonzero(pnl != np.sort(pnl)[rank - 1])
        if kind == "miss" and rest.size >= rank:
            yield kind, problem, rows, rng.choice(rest, size=rng.integers(rank, rest.size + 1), replace=False)
        elif kind == "own":
            yield kind, problem, rows, None
        else:
            yield "drawn", problem, rows, rng.choice(s, size=rng.integers(rank, s + 1), replace=False)


def evaluator_with(problem: ProblemInstance, scenarios: Optional[np.ndarray]) -> BatchEvaluator:
    """An evaluator whose scenarios K are set before it builds its narrow features."""
    evaluator = BatchEvaluator(problem)
    if scenarios is not None:
        evaluator._bound_scenarios = np.sort(scenarios)
    return evaluator


def subset_floor(problem: ProblemInstance, rows: np.ndarray, scenarios: Optional[np.ndarray]) -> np.ndarray:
    """``subset_floor`` of ``rows`` with the scenarios K."""
    return evaluator_with(problem, scenarios).subset_floor(rows)


def assert_floor_holds(problem: ProblemInstance, rows: np.ndarray, scenarios: Optional[np.ndarray]) -> np.ndarray:
    evaluator = evaluator_with(problem, scenarios)
    floor = evaluator.subset_floor(rows)
    want = reference.one_product_subset_floor(evaluator, rows)
    assert floor.tobytes() == want.tobytes(), np.flatnonzero(floor.view(np.int64) != want.view(np.int64))
    res = problem.evaluator.evaluate(rows)
    fit = res["fitness"]
    assert not np.any(floor > fit), (floor[floor > fit], fit[floor > fit])
    # NaN only where an infinite penalty meets a -inf objective floor.
    assert np.all(np.isinf(res["psi"][np.isnan(floor)]).any(axis=1))
    return floor


@SETTINGS
@given(**DRAWS)
def test_floor_is_at_most_fitness(problem, seed, epsilon, free):
    for _, variant, rows, scenarios in checks(problem, seed, epsilon, free):
        assert_floor_holds(variant, rows, scenarios)


def test_strategy_covers_the_named_cases():
    """The draws reach a VaR rank above 1 with K proper subsets that hold the
    VaR scenario or miss it, finite floors below zero (the ``A_lo < 0``
    branch), floors that are the row's fitness exactly, and NaN floors."""
    seen = {"rank": False, "miss": False, "drawn": False, "negative": False, "exact": False, "nan": False}

    @SETTINGS
    @given(**DRAWS)
    def scan(problem, seed, epsilon, free):
        rank = var_index(problem.var_cfg) > 1
        for kind, variant, rows, scenarios in checks(problem, seed, epsilon, free):
            fit = variant.evaluator.evaluate(rows)["fitness"]
            floor = subset_floor(variant, rows, scenarios)
            proper = scenarios is not None and scenarios.size < variant.var_cfg.count
            seen["rank"] |= rank
            seen["miss"] |= rank and proper and kind == "miss"
            seen["drawn"] |= rank and proper and kind == "drawn"
            seen["negative"] |= bool((np.isfinite(floor) & (floor < 0.0)).any())
            seen["exact"] |= bool((np.isfinite(fit) & (floor == fit)).any())
            seen["nan"] |= bool(np.isnan(floor).any())

    scan()
    assert all(seen.values()), seen


def test_narrow_product_columns_match_the_full_product(reduced_problem, table1_problem):
    """The bound rests on this: the Greek columns of the first narrow
    product, and every column of the second on a subset of the rows, are
    bit-identical to the same columns of ``evaluate``'s full product."""
    for problem in (reduced_problem, table1_problem):
        ev = problem.evaluator
        rng = np.random.default_rng(9)
        rows = rng.integers(*problem.structure.position_bounds(), size=(2000, 2 * ev.m), endpoint=True)
        idx, notion = ev._slots(rows)
        full = ev._weights(idx, notion) @ ev._features
        narrow = ev._weights(idx, notion) @ ev._floor_features
        assert narrow[:, 1:].tobytes() == np.ascontiguousarray(full[:, -3:]).tobytes()
        some = np.flatnonzero(rng.random(len(rows)) < 0.2)
        scenarios = ev._weights(idx[some], notion[some]) @ ev._var_features
        assert scenarios.tobytes() == np.ascontiguousarray(full[some][:, ev._bound_scenarios]).tobytes()


def test_floor_holds_on_generated_instances(reduced_problem, table1_problem):
    for problem in (reduced_problem, table1_problem):
        rows = random_rows(problem, 5)
        rows = np.concatenate([rows, np.random.default_rng(6).integers(
            *problem.structure.position_bounds(), size=(2000, rows.shape[1]), endpoint=True)])
        assert np.isfinite(assert_floor_holds(problem, rows, None)).any()


def test_floor_holds_on_swarm_positions(table1_problem):
    """Random positions are far from profitable; a swarm's positions after a
    few steps include rows of negative fitness, bounded by ``A_lo / U_lo``."""
    swarm = Swarm(RatsConfig(particles=1000, seed=10), table1_problem)
    state = swarm.initialize()
    for _ in range(10):
        swarm.step(state)
    rows = np.concatenate([swarm.positions, swarm.best_positions])
    floor = assert_floor_holds(table1_problem, rows, None)
    assert (np.isfinite(floor) & (floor < 0.0)).any()
