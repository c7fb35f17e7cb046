import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import make_toy_problem

from ratpo import oracle
from ratpo.oracle import BudgetExceeded, Enumerator, enumerate_space
from ratpo.problem import BatchEvaluator, EosStructure, SlotSpec, search_space_size


def single_slot_problem():
    """Two instruments, one slot, grid {-1, 0, 1}: six candidate positions."""
    toy = make_toy_problem()
    structure = EosStructure(0, (SlotSpec(1, 2, (-1, 0, 1)),))
    return dataclasses.replace(toy, structure=structure)


class TestEnumeration:
    def test_tiny_space_fully_evaluated(self):
        problem = single_slot_problem()
        assert search_space_size(problem.structure) == 6
        result = enumerate_space(problem, budget=100)
        assert result.count == 6
        manual = []
        for idx in (1, 2):
            for g in range(3):
                manual.append(problem.evaluate([idx, g]).fitness)
        feasible_min = min(manual)
        assert result.optimal_fitness == pytest.approx(feasible_min, rel=1e-12)
        assert result.status == "optimal"

    def test_positions_for_decodes_lexicographically(self):
        problem = single_slot_problem()
        en = Enumerator(problem)
        all_positions = en.positions_for(0, 6)
        expected = [[1, 0], [1, 1], [1, 2], [2, 0], [2, 1], [2, 2]]
        assert all_positions.tolist() == expected

    def test_empty_strategy_always_enumerated(self, toy_problem):
        result = enumerate_space(toy_problem, budget=1000)
        empty = toy_problem.evaluate(toy_problem.empty_position()).fitness
        assert result.optimal_fitness <= empty + 1e-12
        for pos in result.optimal_positions:
            assert toy_problem.evaluate(pos).feasible

    def test_zero_limits_keep_the_empty_position_optimal(self, reduced_problem):
        # At tau = 0 only positions with all three Greek sums exactly zero are feasible;
        # the empty position is one of them, so the result is always "optimal".
        c = reduced_problem.constraints
        reduced = dataclasses.replace(reduced_problem, constraints=dataclasses.replace(
            c, tau_delta=0.0, tau_vega=0.0, tau_gamma=0.0))
        for problem in (make_toy_problem(tau=0.0), reduced):
            result = enumerate_space(problem, budget=10**6)
            assert result.status == "optimal" and np.isfinite(result.optimal_fitness)
            empty = problem.empty_position()
            assert empty.tolist() in [p.tolist() for p in result.optimal_positions]
            # A position that cancels out, such as one call bought and sold
            # again, scores as the empty strategy and not a few ULPs below it.
            assert result.optimal_fitness == problem.evaluate(empty).fitness

    def test_budget_exceeded(self, toy_problem):
        with pytest.raises(BudgetExceeded):
            enumerate_space(toy_problem, budget=10)

    def test_rejects_non_positive_threads(self, toy_problem):
        with pytest.raises(ValueError, match="threads"):
            enumerate_space(toy_problem, budget=1000, threads=0)

    @pytest.mark.parametrize("kwargs", [
        {"tau_eq": math.nan}, {"tau_eq": -1.0}, {"tau_eq": -math.inf}, {"budget": 0}, {"budget": -5},
    ], ids=["tau-eq-nan", "tau-eq-negative", "tau-eq-minus-inf", "budget-zero", "budget-negative"])
    def test_rejects_bad_tau_eq_and_budget(self, toy_problem, kwargs):
        name = next(iter(kwargs))
        with pytest.raises(ValueError, match=name):
            enumerate_space(toy_problem, **{"budget": 1000, **kwargs})

    def test_infinite_tau_eq_keeps_every_feasible_position(self, toy_problem):
        result = enumerate_space(toy_problem, budget=1000, tau_eq=math.inf)
        en = Enumerator(toy_problem)
        feasible = en.positions_for(np.flatnonzero(en.feasible_mask()))
        assert [p.tolist() for p in result.optimal_positions] == feasible.tolist()
        assert result.feasible == len(feasible)

    def test_optimal_set_contains_exact_ties(self, toy_problem):
        result = enumerate_space(toy_problem, budget=1000)
        fits = [toy_problem.evaluate(p).fitness for p in result.optimal_positions]
        assert max(fits) - min(fits) <= 1e-12

    def test_truncated_optimal_set_is_flagged(self, toy_problem, monkeypatch):
        full = enumerate_space(toy_problem, budget=1000)
        assert len(full.optimal_positions) > 2 and not full.truncated
        monkeypatch.setattr(oracle, "MAX_OPTIMAL_SET", 2)
        cut = enumerate_space(toy_problem, budget=1000)
        assert cut.truncated
        assert cut.optimal_fitness == full.optimal_fitness
        assert [p.tolist() for p in cut.optimal_positions] == \
            [p.tolist() for p in full.optimal_positions[:2]]

    @pytest.mark.parametrize("fits, optimal, truncated", [
        # Block 1 ties three positions at 1.0, block 2 has a better 0.5: only the 0.5 is optimal.
        ([1.0, 1.0, 1.0, 0.5, 2.0, 2.0], [3], False),
        # Block 2 improves the best by less than tau_eq: all three of block 1's
        # ties at 1.0 stay optimal, so the set holds four positions.
        ([1.0, 1.0, 1.0, 1.0 - 0.5e-12, 2.0, 2.0], [0, 1], True),
        # As above, but block 1's first position falls out of the set.
        ([1.0 + 0.9e-12, 1.0, 1.0, 1.0 - 0.5e-12, 2.0, 2.0], [1, 2], True),
    ])
    def test_optimal_set_does_not_depend_on_blocks(self, monkeypatch, fits, optimal, truncated):
        """The set is every feasible position with fitness <= best + tau_eq, in
        enumeration order and cut to MAX_OPTIMAL_SET, whatever blocks the
        positions were scored in."""
        problem = single_slot_problem()
        en = Enumerator(problem)

        def evaluate(self, positions):
            flat = (positions[:, 0] - 1) * 3 + positions[:, 1]
            return {"fitness": np.array(fits)[flat]}

        monkeypatch.setattr(oracle, "MAX_OPTIMAL_SET", 2)
        monkeypatch.setattr(Enumerator, "feasible_mask", lambda self, *args: np.ones(6, dtype=bool))
        monkeypatch.setattr(BatchEvaluator, "evaluate", evaluate)
        monkeypatch.setattr(BatchEvaluator, "fitness_floor", lambda self, positions: np.full(len(positions), -np.inf))
        result = enumerate_space(problem, budget=100, block_size=3)
        assert result.optimal_fitness == min(fits)
        assert [p.tolist() for p in result.optimal_positions] == en.positions_for(np.array(optimal)).tolist()
        assert result.truncated is truncated

    def test_block_size_does_not_change_result(self, toy_problem):
        a = enumerate_space(toy_problem, budget=1000, block_size=7)
        b = enumerate_space(toy_problem, budget=1000, block_size=300)
        assert a.optimal_fitness == b.optimal_fitness

    def test_oracle_lower_bounds_swarm(self, reduced_problem):
        from ratpo.swarm import RatsConfig, run

        oracle = enumerate_space(reduced_problem, budget=10**6)
        result = run(RatsConfig(particles=500, k_max=60, seed=3), reduced_problem)
        assert result.fitness >= oracle.optimal_fitness - 1e-9

    def test_progress_callback_invoked(self, toy_problem):
        calls = []
        enumerate_space(toy_problem, budget=1000, block_size=64,
                        progress=lambda done, total: calls.append((done, total)))
        assert calls == [(done, 300) for done in (64, 128, 192, 256, 300)]

    def test_reduced_optima_match_bench_reference(self, reduced_problem):
        # Built once; only the constraints depend on tau, as in criterion 7.
        reference = json.loads((Path(__file__).resolve().parent.parent / "bench" / "reference.json")
                               .read_text(encoding="utf-8"))
        c = reduced_problem.constraints
        for tau, ref in (("0.1", 1440), ("0.5", 90), ("1.0", 87)):
            problem = dataclasses.replace(reduced_problem, constraints=dataclasses.replace(
                c, tau_delta=float(tau), tau_vega=float(tau), tau_gamma=float(tau)))
            result = enumerate_space(problem, budget=10**6)
            assert result.count == reference["positions"]
            assert abs(result.optimal_fitness - reference["optima"][tau]["fitness"]) <= 1e-12
            assert len(result.optimal_positions) == reference["optima"][tau]["optimal_set_size"] == ref
            assert not result.truncated
