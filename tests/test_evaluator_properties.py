"""Differential and metamorphic checks of ``BatchEvaluator`` on random small
problems.

Every P&L, Greek, cost and ``pnl_rf`` value is a multiple of 1/4 and every
notional an integer, so the sums both sides compute are exact.  That keeps the
comparison with ``tests/reference.py`` free of cancellation noise while the
structures, VaR ranks, penalty weights and degenerate cases vary freely.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import reference

from ratpo.features import FeatureTable, InstrumentFeatures, PortfolioFeatures
from ratpo.problem import ConstraintSpec, EosStructure, ProblemInstance, SlotSpec
from ratpo.risk import VarConfig, var_index

ROWS = 24
#: (beta, decay) pairs; 0.5 and 0.999 give a VaR rank above 1 from three scenarios on.
VAR_PARAMS = [(0.01, 0.99), (0.5, 0.999), (1.0, 0.999), (0.05, 0.9)]

quarters = st.integers(-40, 40).map(lambda k: k / 4)


@st.composite
def grids(draw) -> tuple[int, ...]:
    return tuple(sorted(set(draw(st.lists(st.integers(-4, 4), max_size=4))) | {0}))


@st.composite
def problems(draw) -> ProblemInstance:
    count = draw(st.integers(1, 8))
    slots: list[SlotSpec] = []
    lower = 1
    for _ in range(draw(st.integers(1, 2))):
        options, linear = draw(st.integers(1, 3)), draw(st.integers(1, 2))
        option_slot = SlotSpec(lower, lower + options - 1, draw(grids()))
        linear_slot = SlotSpec(lower + options, lower + options + linear - 1, draw(grids()))
        slots += [option_slot, option_slot, linear_slot]
        lower += options + linear
    ids = tuple(f"u{i}" for i in range(1, lower))

    def vector():
        return np.array(draw(st.lists(quarters, min_size=count, max_size=count)))

    table = FeatureTable({
        i: InstrumentFeatures(0.0, vector(), draw(quarters), draw(quarters), draw(quarters),
                              draw(st.integers(0, 8)) / 4)
        for i in ids
    }, count)
    # A book that gains in every scenario makes beta-VaR minus cost non-negative: degenerate rows.
    shift = draw(st.sampled_from([0.0, 0.0, 20.0]))
    init = PortfolioFeatures(0.0, vector() + shift, draw(quarters), draw(quarters), draw(quarters), 0.0)
    taus = [draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])) for _ in range(3)]
    penalties = [draw(st.sampled_from([0.0, 10.0])) for _ in range(3)]
    beta, decay = draw(st.sampled_from(VAR_PARAMS))
    return ProblemInstance(
        universe_ids=ids,
        structure=EosStructure(len(slots) // 3, tuple(slots)),
        table=table,
        init=init,
        pnl_rf=draw(quarters),
        var_cfg=VarConfig(beta, decay, count),
        constraints=ConstraintSpec(*taus, init.delta, init.vega, init.gamma, *penalties),
    )


def random_rows(problem: ProblemInstance, seed: int) -> np.ndarray:
    lo, hi = problem.structure.position_bounds()
    rows = np.random.default_rng(seed).integers(lo, hi + 1, size=(ROWS, lo.size))
    # Every other row picks one instrument in both option slots of each triplet.
    for j in range(0, problem.structure.m, 3):
        rows[::2, j + 1] = rows[::2, j]
    return rows


def close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def ulps_apart(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance in units of the last place; 0 where both sides are the same infinity."""
    finite = np.isfinite(a) & np.isfinite(b)
    assert np.array_equal(a[~finite], b[~finite])
    out = np.zeros(a.shape)
    out[finite] = np.abs(a[finite] - b[finite]) / np.spacing(np.maximum(np.abs(a[finite]), np.abs(b[finite])))
    return out


def picks_coincide(problem: ProblemInstance, rows: np.ndarray) -> np.ndarray:
    """The rows whose two option slots pick one instrument in every triplet."""
    m = problem.structure.m
    return np.all(rows[:, 0:m:3] == rows[:, 1:m:3], axis=1)


def swap_option_slots(problem: ProblemInstance, rows: np.ndarray) -> np.ndarray:
    m = problem.structure.m
    out = rows.copy()
    for j in range(0, m, 3):
        out[:, [j, j + 1]] = rows[:, [j + 1, j]]
        out[:, [m + j, m + j + 1]] = rows[:, [m + j + 1, m + j]]
    return out


SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)
#: The ``evaluate`` keys that swapping the option slots leaves byte-identical
#: on rows whose option slots pick one instrument.
SWAP_KEYS = ("fitness", "objective", "mean", "var", "cost", "psi", "feasible", "pnl")


@SETTINGS
@given(problems(), st.integers(0, 2**32 - 1))
def test_batch_matches_scalar_reference(problem, seed):
    rows = random_rows(problem, seed)
    res = problem.evaluator.evaluate(rows)
    assert problem.evaluator.feasible_slice(rows).tobytes() == res["feasible"].tobytes()
    for r, x in enumerate(rows):
        ref = reference.evaluate(problem, x)
        assert res["var"][r] == ref.var
        assert bool(res["feasible"][r]) == ref.feasible
        assert close(res["cost"][r], ref.cost)
        assert close(res["fitness"][r], ref.fitness)


@SETTINGS
@given(problems(), st.lists(st.floats(0.0, 1e6), min_size=3, max_size=3))
def test_empty_position_is_feasible_for_any_limits(problem, taus):
    """Every grid holds 0 and the initial book's row carries no Greeks, so the
    empty position has zero Greek sums: the oracle always has a feasible optimum."""
    problem = dataclasses.replace(problem, constraints=dataclasses.replace(
        problem.constraints, tau_delta=taus[0], tau_vega=taus[1], tau_gamma=taus[2]))
    empty = problem.empty_position()[None, :]
    assert problem.evaluator.feasible_slice(empty).all()
    assert problem.evaluator.evaluate(empty)["feasible"].all()


def test_strategy_covers_the_named_cases():
    """The sampled parameters reach a VaR rank above 1, a single scenario and tau = 0."""
    assert var_index(VarConfig(0.5, 0.999, 3)) > 1
    assert var_index(VarConfig(0.5, 0.999, 8)) > 1
    seen = {"rank": False, "single": False, "tau0": False, "degenerate": False}

    @SETTINGS
    @given(problems(), st.integers(0, 2**32 - 1))
    def scan(problem, seed):
        seen["rank"] |= var_index(problem.var_cfg) > 1
        seen["single"] |= problem.var_cfg.count == 1
        seen["tau0"] |= 0.0 in (problem.constraints.tau_delta, problem.constraints.tau_vega,
                                problem.constraints.tau_gamma)
        seen["degenerate"] |= bool(np.isinf(problem.evaluator.evaluate(random_rows(problem, seed))["objective"]).any())

    scan()
    assert all(seen.values()), seen


@SETTINGS
@given(problems(), st.integers(0, 2**32 - 1))
def test_swapping_option_slots_keeps_fitness(problem, seed):
    rows = random_rows(problem, seed)
    a = problem.evaluator.evaluate(rows)
    b = problem.evaluator.evaluate(swap_option_slots(problem, rows))
    assert np.array_equal(a["feasible"], b["feasible"])
    assert ulps_apart(a["fitness"], b["fitness"]).max() <= 4
    # Merged picks hold n_1 + n_2 = n_2 + n_1 in the first slot: nothing moves.
    same = picks_coincide(problem, rows)
    assert same.any()
    for key in SWAP_KEYS:
        assert a[key][same].tobytes() == b[key][same].tobytes(), key


def test_swapping_option_slots_on_generated_instance(reduced_problem):
    rows = random_rows(reduced_problem, 11)
    rows = np.concatenate([rows, np.random.default_rng(12).integers(
        *reduced_problem.structure.position_bounds(), size=(500, rows.shape[1]), endpoint=True)])
    a = reduced_problem.evaluator.evaluate(rows)
    b = reduced_problem.evaluator.evaluate(swap_option_slots(reduced_problem, rows))
    assert np.array_equal(a["feasible"], b["feasible"])
    # Swapping reorders two terms of every P&L sum; these rows move by at most 5 ULPs.
    assert ulps_apart(a["fitness"], b["fitness"]).max() <= 8
    same = picks_coincide(reduced_problem, rows)
    assert same.sum() > ROWS // 2
    for key in SWAP_KEYS:
        assert a[key][same].tobytes() == b[key][same].tobytes(), key


@SETTINGS
@given(problems(), st.integers(0, 2**32 - 1), st.data())
def test_zero_notional_leg_changes_nothing(problem, seed, data):
    rows = random_rows(problem, seed)
    m = problem.structure.m
    lo, hi = problem.structure.position_bounds()
    j = data.draw(st.integers(0, m - 1))
    zero = problem.empty_position()[m + j]
    rows[:, m + j] = zero
    moved = rows.copy()
    moved[:, j] = data.draw(st.integers(int(lo[j]), int(hi[j])))
    a = problem.evaluator.evaluate(rows)
    b = problem.evaluator.evaluate(moved)
    for key in ("fitness", "objective", "mean", "var", "cost", "psi", "feasible"):
        assert np.array_equal(a[key], b[key]), key


@SETTINGS
@given(problems(), st.integers(0, 2**32 - 1), st.integers(-8, 8))
def test_scaling_pnl_cost_and_riskfree_keeps_objective(problem, seed, exponent):
    # Denominators are multiples of c/4, far from epsilon, so no row changes its degenerate status.
    c = 2.0 ** exponent
    table = problem.table
    scaled = dataclasses.replace(
        problem,
        table=FeatureTable({
            i: dataclasses.replace(table[i], pnl=table[i].pnl * c, unit_cost=table[i].unit_cost * c)
            for i in table.ids()
        }, table.scenario_count),
        init=dataclasses.replace(problem.init, pnl=problem.init.pnl * c),
        pnl_rf=problem.pnl_rf * c,
    )
    rows = random_rows(problem, seed)
    a = problem.evaluator.evaluate(rows)
    b = scaled.evaluator.evaluate(rows)
    assert ulps_apart(a["objective"], b["objective"]).max() <= 2
    assert np.array_equal(a["feasible"], b["feasible"])
