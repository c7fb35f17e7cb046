"""The bound-and-prune oracle against the full-scan reference
(``reference.full_scan_enumerate``) on random small problems.

The reference evaluates every position and reads the optimal set off the
feasible ones, with no Greek screen and no fitness floor.  The optimum, the
optimal positions and their order, ``truncated``, ``count`` and the feasible
count must be equal, for every block size and thread count.  The problems are
the evaluator property tests' exact quarter-valued ones (``tau = 0`` limits
and degenerate denominators included), half of them with a book that loses in
every scenario, so that finite optima are as common as infinite ones.
"""

from __future__ import annotations

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from test_evaluator_properties import problems

from ratpo import oracle
from ratpo.oracle import enumerate_space
from ratpo.problem import ProblemInstance, search_space_size

#: Search-space cap per block size: a block of one position is one evaluator call per position.
MAX_SPACE = {1: 200, 7: 3_000, 65_536: 3_000}
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


def losing_book(problem: ProblemInstance) -> ProblemInstance:
    init = problem.init
    return dataclasses.replace(problem, init=dataclasses.replace(init, pnl=init.pnl - 40.0))


oracle_problems = st.one_of(problems(), problems().map(losing_book))


def assert_same_result(got: oracle.OracleResult, want: oracle.OracleResult) -> None:
    assert got.status == want.status == "optimal"
    assert got.optimal_fitness == want.optimal_fitness
    assert [p.tolist() for p in got.optimal_positions] == [p.tolist() for p in want.optimal_positions]
    assert got.truncated == want.truncated
    assert got.count == want.count
    assert got.feasible == want.feasible


@pytest.mark.parametrize("block_size", sorted(MAX_SPACE))
@SETTINGS
@given(problem=oracle_problems)
def test_feasibility_first_equals_full_scan(block_size, problem):
    assume(search_space_size(problem.structure) <= MAX_SPACE[block_size])
    for cap in (oracle.MAX_OPTIMAL_SET, 2):
        with mock.patch.object(oracle, "MAX_OPTIMAL_SET", cap):
            want = reference.full_scan_enumerate(problem, block_size=block_size)
            for threads in (1, 2):
                got = enumerate_space(problem, budget=10**6, block_size=block_size, threads=threads)
                assert_same_result(got, want)


def test_strategy_covers_the_named_cases():
    """The problems reach finite and infinite optima, truncation at a cap of 2,
    tau = 0 limits and spaces of more than one 7-position block."""
    seen = {"finite": False, "infinite": False, "truncated": False, "tau0": False, "blocks": False}

    @SETTINGS
    @given(problem=oracle_problems)
    def scan(problem):
        assume(search_space_size(problem.structure) <= MAX_SPACE[7])
        full = reference.full_scan_enumerate(problem)
        seen["finite"] |= bool(np.isfinite(full.optimal_fitness))
        seen["infinite"] |= full.optimal_fitness == np.inf
        seen["truncated"] |= bool(np.isfinite(full.optimal_fitness)) and len(full.optimal_positions) > 2
        seen["tau0"] |= 0.0 in (problem.constraints.tau_delta, problem.constraints.tau_vega,
                                problem.constraints.tau_gamma)
        seen["blocks"] |= full.count > 7

    scan()
    assert all(seen.values()), seen
