"""The oracle's Greek screen against the full evaluation.

``Enumerator.feasible_mask`` gets every position's feasibility from
``BatchEvaluator.feasible_slice``, which adds per-slot Greek tables instead of
decoding positions and building CSR weights.  Its mask must carry the bytes of
``evaluate(every position)["feasible"]`` for every block size, and
``enumerate`` must then bound exactly the feasible positions and score only
feasible ones.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from conftest import make_toy_problem
from test_evaluator_properties import problems

from ratpo.oracle import Enumerator, enumerate_space
from ratpo.problem import (BatchEvaluator, ConstraintSpec, ProblemInstance, StructureError, feasible_rows,
                           search_space_size, within_limit)

#: Search-space cap per block size: a block of one position is one screen call per position.
MAX_SPACE = {1: 200, 7: 3_000, 65_536: 3_000}
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)
REDUCED_TAUS = (0.0, 0.1, 0.5, 1.0)


def full_mask(problem: ProblemInstance, block: int = 16_384) -> np.ndarray:
    """``evaluate``'s feasible mask over every position, in enumeration order."""
    en = Enumerator(problem)
    return np.concatenate([
        problem.evaluator.evaluate(en.positions_for(a, min(a + block, en.total)))["feasible"]
        for a in range(0, en.total, block)
    ])


def with_tau(problem: ProblemInstance, tau: float) -> ProblemInstance:
    return dataclasses.replace(problem, constraints=dataclasses.replace(
        problem.constraints, tau_delta=tau, tau_vega=tau, tau_gamma=tau))


@pytest.fixture(scope="module")
def reduced_masks(reduced_problem):
    """Each reduced instance at a tau_g of ``REDUCED_TAUS``, with its full-scan mask."""
    out = {}
    for tau in REDUCED_TAUS:
        problem = with_tau(reduced_problem, tau)
        out[tau] = problem, full_mask(problem)
    return out


@pytest.mark.parametrize("block_size", sorted(MAX_SPACE))
@SETTINGS
@given(problem=problems())
def test_mask_matches_evaluate(block_size, problem):
    assume(search_space_size(problem.structure) <= MAX_SPACE[block_size])
    assert Enumerator(problem).feasible_mask(block_size).tobytes() == full_mask(problem).tobytes()


@SETTINGS
@given(problem=problems(), seed=st.integers(0, 2**32 - 1))
def test_every_prefix_length_matches_evaluate(problem, seed):
    """Whole-box prefixes in order give the full mask; prefix rows in any order
    give the mask of the positions they start."""
    assume(search_space_size(problem.structure) <= MAX_SPACE[7])
    en = Enumerator(problem)
    every = en.positions_for(0, en.total)
    want = full_mask(problem)
    rng = np.random.default_rng(seed)
    for k in range(every.shape[1] + 1):
        tail = int(np.prod(en.sizes[k:]))
        assert problem.evaluator.feasible_slice(every[::tail, :k]).tobytes() == want.tobytes()
        picked = every[rng.choice(en.total, size=3), :k]
        sliced = problem.evaluator.evaluate(reference.slice_positions(problem, picked))
        assert problem.evaluator.feasible_slice(picked).tobytes() == sliced["feasible"].tobytes()


def test_strategy_covers_tau_zero_and_mixed_masks():
    """The problems reach tau = 0 limits and masks with both feasible and
    infeasible positions."""
    seen = {"tau0": False, "mixed": False}

    @SETTINGS
    @given(problem=problems())
    def scan(problem):
        assume(search_space_size(problem.structure) <= MAX_SPACE[7])
        seen["tau0"] |= 0.0 in (problem.constraints.tau_delta, problem.constraints.tau_vega,
                                problem.constraints.tau_gamma)
        mask = full_mask(problem)
        seen["mixed"] |= bool(mask.any() and not mask.all())

    scan()
    assert all(seen.values()), seen


@pytest.mark.parametrize("tau", REDUCED_TAUS)
def test_reduced_mask_matches_evaluate(reduced_masks, tau):
    # 700 cuts the box into chunks of eight 81-position prefixes; 65,536 into
    # twelve one-digit prefixes.
    problem, want = reduced_masks[tau]
    for block_size in (700, 65_536):
        got = Enumerator(problem).feasible_mask(block_size)
        assert got.tobytes() == want.tobytes(), block_size


def test_enumerate_bounds_every_feasible_row_and_scores_few(reduced_masks):
    """Floors are taken of every feasible position once, in enumeration
    order, and of no other; the full fitness runs on feasible positions only,
    as many rows as ``scored`` reports."""
    problems_and_masks = [reduced_masks[0.5]]
    toy = make_toy_problem()
    problems_and_masks.append((toy, full_mask(toy)))
    for problem, want in problems_and_masks:
        bounded, scored = [], []
        fitness_floor, evaluate = BatchEvaluator.fitness_floor, BatchEvaluator.evaluate

        def bound(self, positions):
            bounded.append(positions)
            return fitness_floor(self, positions)

        def score(self, positions):
            scored.append(positions)
            return evaluate(self, positions)

        with mock.patch.object(BatchEvaluator, "fitness_floor", bound), \
                mock.patch.object(BatchEvaluator, "evaluate", score):
            result = enumerate_space(problem, budget=10**6)
        en = Enumerator(problem)
        assert np.concatenate(bounded).tolist() == en.positions_for(np.flatnonzero(want)).tolist()
        assert all(problem.evaluator.feasible_slice(rows).all() for rows in scored)
        assert result.scored == sum(map(len, scored))
        assert result.feasible == int(want.sum())
        assert 0 < result.feasible < result.count


def test_reduced_oracle_scores_few_of_the_feasible_rows(reduced_masks):
    """At tau_g 0.5 the optimum and the 90-position optimal set are those of
    every feasible position scored in full, while fewer than one in five of
    them is scored."""
    problem, mask = reduced_masks[0.5]
    en = Enumerator(problem)
    feasible = en.positions_for(np.flatnonzero(mask))
    fit = problem.evaluator.evaluate(feasible)["fitness"]
    best = fit.min()
    result = enumerate_space(problem, budget=10**6)
    assert result.optimal_fitness == best
    assert [p.tolist() for p in result.optimal_positions] == feasible[fit <= best + 1e-12].tolist()
    assert len(result.optimal_positions) == 90 and not result.truncated
    assert result.scored < result.feasible / 5


TINY = np.finfo(float).smallest_subnormal
NORMAL = np.finfo(float).smallest_normal
HUGE = np.finfo(float).max
#: Limits the screen's rule is checked under: ordinary, subnormal, the
#: smallest normal, the largest finite, zero, and infinite (a product
#: ``tau * |base|`` can overflow).
LIMITS = (1.0, 0.1, 3e10, TINY, 3 * TINY, np.nextafter(NORMAL, 0.0), NORMAL, HUGE, 0.0, np.inf)


def adversarial_sums(limit: float) -> np.ndarray:
    """Sums at the limit and one ulp either side of it, both signs, with
    +-0, +-inf, NaN and values at the ends of the float range."""
    with np.errstate(over="ignore"):
        near = [limit, np.nextafter(limit, -np.inf), np.nextafter(limit, np.inf)]
    values = near + [-v for v in near] + [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                                          TINY, -TINY, NORMAL, HUGE, -HUGE, 1.0, -0.5]
    return np.array(values)


@pytest.mark.parametrize("limit", LIMITS)
def test_within_limit_is_the_violation_rule(toy_problem, limit):
    """The screen's per-Greek test gives ``feasible_rows(_violations(sums))``
    column by column: the swept column holds the sums, the others zeros
    under a limit of 1."""
    sums = adversarial_sums(limit)
    for column in range(3):
        bases = [1.0, 1.0, 1.0]
        bases[column] = limit
        constraints = ConstraintSpec(1.0, 1.0, 1.0, *bases)
        evaluator = dataclasses.replace(toy_problem, constraints=constraints).evaluator
        assert evaluator._limits[column] == limit
        sens = np.zeros((sums.size, 3))
        sens[:, column] = sums
        with np.errstate(invalid="ignore", over="ignore"):
            want = feasible_rows(evaluator._violations(sens))
        assert within_limit(sums, limit).tolist() == want.tolist(), column
    # The limit passes and one ulp above fails; an infinite sum fails even an infinite limit.
    at_below_above = {0.0: [True, False, False], np.inf: [False, True, False]}.get(limit, [True, True, False])
    assert within_limit(sums[:3], limit).tolist() == at_below_above


def test_within_limit_pins_nan_and_zero_limits():
    """Under a zero limit only a zero sum passes, and a NaN sum counts as
    feasible, as the violation formula has it; under a positive limit NaN fails."""
    sums = np.array([0.0, -0.0, TINY, -TINY, np.nan, np.inf])
    assert within_limit(sums, 0.0).tolist() == [True, True, False, False, True, False]
    assert within_limit(sums, 1.0).tolist() == [True, True, True, True, False, False]


def test_feasible_slice_rejects_bad_prefixes(toy_problem):
    ev = toy_problem.evaluator
    empty = toy_problem.empty_position()
    with pytest.raises(StructureError, match="shape"):
        ev.feasible_slice(np.append(empty, 0)[None, :])
    with pytest.raises(StructureError, match="shape"):
        ev.feasible_slice(empty)
    with pytest.raises(StructureError, match="integers"):
        ev.feasible_slice(empty[None, :2].astype(float))
    with pytest.raises(StructureError, match="outside"):
        ev.feasible_slice(np.array([[1, 3]]))
    assert ev.feasible_slice(empty[None, :]).tolist() == [True]
    for k in range(empty.size + 1):
        assert ev.feasible_slice(np.zeros((0, k), dtype=np.int64)).shape == (0,)


def test_rejects_non_positive_block_size(toy_problem):
    with pytest.raises(ValueError, match="block_size"):
        enumerate_space(toy_problem, budget=1000, block_size=0)
