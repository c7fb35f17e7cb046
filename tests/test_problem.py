import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest

import reference
from conftest import make_toy_problem
from reference import DegenerateDenominator, objective, penalty_term, violations

from ratpo.datagen import DEFAULT_UNDERLYINGS
from ratpo.features import PortfolioFeatures, aggregate
from ratpo.instruments import Portfolio, build_universe
from ratpo.problem import (
    BatchEvaluator,
    ConstraintSpec,
    EosStructure,
    SlotSpec,
    StructureError,
    build_structure,
    decode,
    notional_grid,
    riskfree_pnl,
    round_magnitude,
    search_space_size,
)
from ratpo.risk import VarConfig


class TestRoundMagnitude:
    def test_reference_values(self):
        assert round_magnitude(75) == 80
        assert round_magnitude(740) == 700
        assert round_magnitude(149) == 100
        assert round_magnitude(100) == 100

    def test_randomized_against_direct_formula(self):
        rng = np.random.default_rng(9)
        for _ in range(1000):
            x = float(rng.uniform(1.0, 1e7))
            scale = 10 ** math.floor(math.log10(x))
            expected = math.ceil(0.5 * math.floor(2.0 * x / scale)) * scale
            assert round_magnitude(x) == expected

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            round_magnitude(0)
        with pytest.raises(ValueError):
            round_magnitude(-3.0)

    def test_rejects_sub_unit_inputs(self):
        # Below one unit the leading-digit rounding is fractional.
        with pytest.raises(ValueError):
            round_magnitude(0.7)

    def test_always_returns_int(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            value = round_magnitude(float(rng.uniform(1.0, 1e9)))
            assert isinstance(value, int) and value >= 1


class TestNotionalGrid:
    def test_default_grid_has_21_points_with_zero(self):
        grid = notional_grid(5000)
        assert len(grid) == 21
        assert grid[0] == -5000 and grid[-1] == 5000 and 0 in grid
        assert grid == tuple(range(-5000, 5500, 500))

    def test_symmetry(self):
        for half in (80, 700, 1000, 340_000):
            grid = notional_grid(half)
            assert tuple(-g for g in reversed(grid)) == grid

    def test_small_halfwidth_falls_back_to_unit_grid(self):
        assert notional_grid(3) == (-3, -2, -1, 0, 1, 2, 3)

    def test_custom_point_count(self):
        assert notional_grid(100, points=5) == (-100, -50, 0, 50, 100)

    def test_rejects_even_points(self):
        with pytest.raises(StructureError):
            notional_grid(100, points=10)


class TestBuildStructure:
    def stoxx_setup(self):
        specs = [s for s in DEFAULT_UNDERLYINGS if s.ticker == ".STOXX50E"]
        return specs, build_universe(specs)

    def test_declared_bounds_reproduce_desk_grids(self):
        specs, universe = self.stoxx_setup()
        structure = build_structure(specs, universe)
        s1, s2, s3 = structure.slots
        assert s1.grid == tuple(range(-5000, 5500, 500))
        assert s3.grid == tuple(range(-3000, 3300, 300))

    def test_slot_ranges_on_single_index_universe(self):
        specs, universe = self.stoxx_setup()
        structure = build_structure(specs, universe)
        s1, s2, s3 = structure.slots
        assert (s1.lower, s1.upper) == (1, 36)
        assert (s2.lower, s2.upper) == (1, 36)
        assert (s3.lower, s3.upper) == (37, 54)
        ids = [d.id for d in universe]
        assert all("|c|" in i or "|p|" in i for i in ids[0:36])
        assert all("|q|" in i for i in ids[36:54])

    def test_structure_on_full_universe(self):
        universe = build_universe(DEFAULT_UNDERLYINGS)
        structure = build_structure(DEFAULT_UNDERLYINGS, universe)
        assert structure.m == 39
        assert search_space_size(structure) > 10**90

    def test_grids_contain_zero_everywhere(self):
        universe = build_universe(DEFAULT_UNDERLYINGS)
        structure = build_structure(DEFAULT_UNDERLYINGS, universe)
        for slot in structure.slots:
            assert 0 in slot.grid
            assert slot.grid == tuple(sorted(slot.grid))

    def test_derived_bounds_need_features(self):
        specs, universe = self.stoxx_setup()
        with pytest.raises(StructureError, match="derive"):
            build_structure(specs, universe, derive_bounds=True)

    def test_derived_bounds_cover_book_sensitivities(self, reduced_dataset, reduced_problem):
        from ratpo.problem import derive_notional_bounds

        spec = reduced_dataset.universe_specs[0]
        table, init = reduced_problem.table, reduced_problem.init
        opt_bound, lin_bound = derive_notional_bounds(spec, 1, table, init)
        atm_call = table["01|c|0.50|049"]
        atm_put = table["01|p|0.50|049"]
        # One full slot offsets the book's Vega / Delta up to leading-digit rounding.
        assert 0.5 <= opt_bound * abs(atm_call.vega) / abs(init.vega) <= 1.5
        denom = max(abs(atm_call.delta), abs(atm_put.delta))
        assert 0.5 <= lin_bound * denom / abs(init.delta) <= 1.5

    def test_derived_bounds_floor_at_one_unit(self, reduced_dataset, reduced_problem):
        from ratpo.features import PortfolioFeatures
        from ratpo.problem import derive_notional_bounds

        spec = reduced_dataset.universe_specs[0]
        tiny = PortfolioFeatures(0.0, np.zeros(250), 1e-9, 1e-9, 0.0, 0.0)
        assert derive_notional_bounds(spec, 1, reduced_problem.table, tiny) == (1, 1)


class TestStructureValidation:
    def test_option_slots_must_share_ranges(self):
        grid = (-1, 0, 1)
        with pytest.raises(StructureError, match="share"):
            EosStructure(1, (SlotSpec(1, 2, grid), SlotSpec(1, 3, grid), SlotSpec(4, 5, grid)))

    def test_partial_overlap_rejected(self):
        grid = (-1, 0, 1)
        with pytest.raises(StructureError, match="identical or disjoint"):
            EosStructure(0, (SlotSpec(1, 3, grid), SlotSpec(2, 5, grid)))

    def test_three_slots_on_one_range_rejected(self):
        grid = (-1, 0, 1)
        with pytest.raises(StructureError, match="at most two slots"):
            EosStructure(0, (SlotSpec(1, 3, grid), SlotSpec(1, 3, grid), SlotSpec(1, 3, grid)))

    def test_grid_must_contain_zero(self):
        with pytest.raises(StructureError):
            SlotSpec(1, 2, (1, 2, 3))


class TestSearchSpaceSize:
    def test_small_case_slot_product(self):
        specs = [s for s in DEFAULT_UNDERLYINGS if s.ticker == ".STOXX50E"]
        structure = build_structure(specs, build_universe(specs))
        assert search_space_size(structure) == (36 * 21) ** 2 * (18 * 21) == 216_040_608

    def test_degenerate_single_slot(self):
        structure = EosStructure(0, (SlotSpec(1, 1, (0,)),))
        assert search_space_size(structure) == 1

    def test_full_universe_order_of_magnitude(self):
        universe = build_universe(DEFAULT_UNDERLYINGS)
        structure = build_structure(DEFAULT_UNDERLYINGS, universe)
        magnitude = math.log10(search_space_size(structure))
        assert 95 < magnitude < 105


class TestDecode:
    def test_all_zero_notionals_give_empty_strategy(self, toy_problem):
        assert toy_problem.decode(toy_problem.empty_position()).legs == ()

    def test_duplicate_index_opposite_notionals_cancel(self, toy_problem):
        # Both option slots pick instrument 1 with +2 and -2.
        x = [1, 1, 3, 4, 0, 1]
        assert toy_problem.decode(x).legs == ()

    def test_desk_scale_decode(self):
        specs = [s for s in DEFAULT_UNDERLYINGS if s.ticker == ".STOXX50E"]
        universe = build_universe(specs)
        structure = build_structure(specs, universe)
        ids = [d.id for d in universe]
        x = [
            ids.index("01|c|0.50|049") + 1,
            ids.index("01|p|0.25|021") + 1,
            ids.index("01|q|0.10|021") + 1,
            structure.slots[0].grid.index(-3500),
            structure.slots[1].grid.index(5000),
            structure.slots[2].grid.index(3000),
        ]
        decoded = decode(x, structure, ids)
        assert set(decoded.legs) == {
            ("01|c|0.50|049", -3500), ("01|p|0.25|021", 5000), ("01|q|0.10|021", 3000),
        }

    def test_out_of_range_entries_rejected(self, toy_problem):
        def batch_of_one(x):
            return toy_problem.evaluator.evaluate(np.array([x]))

        for method in (toy_problem.decode, toy_problem.evaluate, batch_of_one):
            for x in (
                [0, 1, 3, 2, 2, 1],  # universe index 0 would wrap to the last instrument
                [1, 1, 3, 5, 2, 1],
                [1, 1, 3, 2, 2, 4],  # grid index 4 on the 3-point linear slot would read grid padding
                [1, 1, 1, 2, 2, 1],  # the linear slot would read an option
                [1, 1, 3, 2, 2],
            ):
                with pytest.raises(StructureError):
                    method(x)


class TestObjective:
    def var_cfg(self, s):
        return VarConfig(0.01, 0.99, s)

    def features(self, pnl):
        pnl = np.asarray(pnl, float)
        return PortfolioFeatures(0.0, pnl, 0.0, 0.0, 0.0, 0.0)

    def test_direct_arithmetic(self):
        total = self.features([-500.0, 400.0, 250.0, 250.0])  # mean 100, worst -500
        f = objective(total, pnl_rf=10.0, cost_eos=20.0, var_cfg=self.var_cfg(4))
        assert f == pytest.approx(70.0 / -520.0, abs=1e-12)

    def test_zero_numerator(self):
        total = self.features([-10.0, 10.0, 15.0, 5.0])  # mean 5
        f = objective(total, pnl_rf=5.0, cost_eos=0.0, var_cfg=self.var_cfg(4))
        assert f == 0.0

    def test_degenerate_denominator_raises(self):
        total = self.features([5.0, 10.0, 15.0, 20.0])  # VaR positive
        with pytest.raises(DegenerateDenominator):
            objective(total, pnl_rf=0.0, cost_eos=0.0, var_cfg=self.var_cfg(4))

    def test_reference_book_level_consistency(self):
        """Book-level sanity: mean 33918.41, VaR -735749.55, zero cost and a
        410.2 risk-free leg must reproduce an objective near -0.045543."""
        s = 250
        worst = -735749.548100
        mean = 33918.410368
        filler = (s * mean - worst) / (s - 1)
        pnl = np.full(s, filler)
        pnl[0] = worst
        total = self.features(pnl)
        f = objective(total, pnl_rf=410.2, cost_eos=0.0, var_cfg=self.var_cfg(s))
        assert f == pytest.approx(-0.045543, abs=1e-5)

    def test_riskfree_pnl_consistent_with_back_solved_value(self):
        assert riskfree_pnl(13_800_849, 0.0107, 360) == pytest.approx(410.2, rel=0.01)


class TestRiskfreePnl:
    def test_zero_rate(self):
        assert riskfree_pnl(1_000_000, 0.0, 360) == 0.0

    def test_direct_arithmetic(self):
        assert riskfree_pnl(1_000_000, 0.036, 360) == pytest.approx(100.0, rel=1e-12)

    def test_invalid_daycount(self):
        with pytest.raises(ValueError):
            riskfree_pnl(1_000_000, 0.01, 300)


class TestViolations:
    def spec(self, tau, base_delta=-44655.0, base_vega=79550.0, base_gamma=14944.0):
        return ConstraintSpec(tau, tau, tau, base_delta, base_vega, base_gamma)

    def eos(self, delta=0.0, vega=0.0, gamma=0.0):
        return PortfolioFeatures(0.0, np.zeros(1), delta, vega, gamma, 0.0)

    def test_empty_strategy_feasible(self):
        assert violations(self.eos(), self.spec(0.1)) == (0.0, 0.0, 0.0)

    def test_reference_delta_violation(self):
        psi = violations(self.eos(delta=5000.0), self.spec(0.1))
        limit = 0.1 * 44655.0
        assert psi[0] * limit == pytest.approx(534.5, abs=1e-9)
        assert psi[0] == pytest.approx(0.1197, abs=1e-4)
        assert psi[1] == psi[2] == 0.0

    def test_boundary_is_feasible(self):
        limit = 0.1 * 44655.0
        for sign in (+1, -1):
            psi = violations(self.eos(delta=sign * limit), self.spec(0.1))
            assert psi[0] == 0.0

    def test_zero_limit_with_nonzero_sensitivity_is_infinite(self):
        spec = ConstraintSpec(0.1, 0.1, 0.1, base_delta=0.0, base_vega=1.0, base_gamma=1.0)
        psi = violations(self.eos(delta=1.0), spec)
        assert math.isinf(psi[0])

    def test_negation_symmetry(self):
        spec = self.spec(0.25)
        a = violations(self.eos(delta=9000.0, vega=-100.0), spec)
        b = violations(self.eos(delta=-9000.0, vega=100.0), spec)
        assert a == b


class TestFitness:
    def test_empty_position_equals_baseline_objective(self, toy_problem):
        b = toy_problem.evaluate(toy_problem.empty_position())
        # mean 0, pnl_rf 5, VaR -100: (0 - 5) / -100 = 0.05
        assert b.fitness == pytest.approx(0.05, abs=1e-12)
        assert b.feasible
        assert b.fitness == b.objective

    def test_feasible_strategy_hand_computed(self, toy_problem):
        # Buy one unit of the first call: total pnl [-90, 45, 10, 45].
        x = [1, 1, 3, 3, 2, 1]
        b = toy_problem.evaluate(x)
        assert b.feasible
        assert b.cost == 1.0
        assert b.mean_pnl == pytest.approx(2.5, abs=1e-12)
        assert b.var == -90.0
        assert b.fitness == pytest.approx((2.5 - 5.0 - 1.0) / (-90.0 - 1.0), abs=1e-12)

    def test_penalty_added_for_violations(self, toy_problem):
        # call +2 (delta 4) and futures +1 (delta 4): |8| > limit 4 -> psi = 1.
        x = [1, 1, 3, 4, 2, 2]
        b = toy_problem.evaluate(x)
        assert not b.feasible
        assert b.psi[0] == pytest.approx(1.0, abs=1e-12)
        assert b.fitness == pytest.approx(b.objective + 10.0, abs=1e-10)

    def test_penalty_term_arithmetic(self):
        assert penalty_term((0.5, 0.0, 0.0), (10.0, 10.0, 10.0)) == 5.0
        assert penalty_term((math.inf, 0.0, 0.0), (0.0, 10.0, 10.0)) == 0.0

    def test_zero_notional_leg_leaves_fitness_unchanged(self, toy_problem):
        a = toy_problem.evaluate([1, 2, 3, 2, 2, 1]).fitness
        b = toy_problem.evaluate([2, 2, 3, 2, 2, 1]).fitness  # differs only where notional is 0
        assert a == b

    def test_doubling_notionals_doubles_sensitivities_and_cost(self, toy_problem):
        single = aggregate(toy_problem.table, toy_problem.decode([1, 2, 3, 3, 3, 1]))
        double = aggregate(toy_problem.table, toy_problem.decode([1, 2, 3, 4, 4, 1]))
        assert single.vega != 0.0
        assert double.delta == 2 * single.delta
        assert double.vega == 2 * single.vega
        assert double.gamma == 2 * single.gamma
        assert double.cost == 2 * single.cost


class TestBatchEvaluator:
    def test_matches_scalar_path_on_toy(self, toy_problem):
        ev = BatchEvaluator(toy_problem)
        lo, hi = toy_problem.structure.position_bounds()
        rng = np.random.default_rng(3)
        X = rng.integers(lo, hi + 1, size=(200, 6), dtype=np.int64)
        res = ev.evaluate(X)
        for r in range(200):
            scalar = reference.evaluate(toy_problem, X[r])
            assert res["fitness"][r] == pytest.approx(scalar.fitness, rel=1e-12, abs=1e-12)
            assert res["cost"][r] == pytest.approx(scalar.cost, rel=1e-12, abs=1e-12)
            assert res["var"][r] == scalar.var
            assert bool(res["feasible"][r]) == scalar.feasible

    def test_matches_scalar_path_on_generated_instance(self, reduced_problem):
        ev = BatchEvaluator(reduced_problem)
        lo, hi = reduced_problem.structure.position_bounds()
        rng = np.random.default_rng(4)
        X = rng.integers(lo, hi + 1, size=(50, 2 * reduced_problem.structure.m), dtype=np.int64)
        res = ev.evaluate(X)
        for r in range(50):
            scalar = reference.evaluate(reduced_problem, X[r])
            if math.isinf(scalar.fitness):
                assert math.isinf(res["fitness"][r])
            else:
                assert res["fitness"][r] == pytest.approx(scalar.fitness, rel=1e-12)

    def test_duplicate_cost_merging(self, toy_problem):
        # Same instrument in both option slots with +2/-2: zero cost.
        ev = BatchEvaluator(toy_problem)
        res = ev.evaluate(np.array([[1, 1, 3, 4, 0, 1]]))
        assert res["cost"][0] == 0.0
        # +2/+1 on the same instrument: cost of net 3 units.
        res = ev.evaluate(np.array([[1, 1, 3, 4, 3, 1]]))
        assert res["cost"][0] == 3.0

    def test_one_bad_row_rejects_the_batch(self, toy_problem):
        lo, hi = toy_problem.structure.position_bounds()
        X = np.random.default_rng(6).integers(lo, hi + 1, size=(50, 6), dtype=np.int64)
        X[17, 5] = 3
        with pytest.raises(StructureError, match="row 17, entry 5"):
            toy_problem.evaluator.evaluate(X)

    def test_feasibility_closed_under_negation(self, toy_problem):
        ev = BatchEvaluator(toy_problem)
        lo, hi = toy_problem.structure.position_bounds()
        rng = np.random.default_rng(5)
        X = rng.integers(lo, hi + 1, size=(100, 6), dtype=np.int64)
        mirrored = X.copy()
        m = toy_problem.structure.m
        for j, slot in enumerate(toy_problem.structure.slots):
            mirrored[:, m + j] = len(slot.grid) - 1 - X[:, m + j]
        a = ev.evaluate(X)["feasible"]
        b = ev.evaluate(mirrored)["feasible"]
        assert np.array_equal(a, b)

    def test_a_dropped_problem_is_freed_without_the_cycle_collector(self, toy_problem):
        problem = dataclasses.replace(toy_problem, pnl_rf=4.0)
        evaluator = problem.evaluator
        assert evaluator.problem is problem
        ref = weakref.ref(problem)
        gc.disable()
        try:
            del problem
            assert ref() is None
        finally:
            gc.enable()
        # The evaluator keeps scoring: it holds what it reads of the problem.
        want = dataclasses.replace(toy_problem, pnl_rf=4.0).evaluate(toy_problem.empty_position())
        assert evaluator.problem is None
        assert evaluator.evaluate(toy_problem.empty_position()[None, :])["fitness"][0] == want.fitness
