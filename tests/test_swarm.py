import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_toy_problem
from reference import round_half_away_from_zero

from ratpo.problem import EosStructure, SlotSpec
from ratpo.swarm import (
    RandomMode,
    RatsConfig,
    StopReason,
    Swarm,
    round_to_bounds,
    run,
)


def grid_strategy():
    # Sorted symmetric-ish integer grid that always contains 0.
    return st.lists(st.integers(-50, 50), min_size=1, max_size=9).map(
        lambda xs: tuple(sorted(set(xs) | {0})))


class TestRounding:
    def test_half_away_from_zero(self):
        values = np.array([2.6, 2.5, 2.4, -2.4, -2.5, -2.6, 0.0, 0.49])
        expected = np.array([3.0, 3.0, 2.0, -2.0, -3.0, -3.0, 0.0, 0.0])
        assert np.array_equal(round_half_away_from_zero(values), expected)

    def test_move_of_point_six_rounds_up(self):
        # position 2 plus velocity 0.6 lands on 3
        assert round_half_away_from_zero(np.array([2 + 0.6]))[0] == 3.0

    @staticmethod
    def assert_step_rounding_matches(values, lower, upper):
        want = np.clip(round_half_away_from_zero(values), lower, upper).astype(np.int64)
        got = round_to_bounds(values.copy(), lower, upper)
        assert np.array_equal(got.astype(np.int64), want)
        # The step keeps got as its float positions: no -0.0 may enter them.
        assert not np.signbit(got).any()

    def test_step_rounding_matches_half_away_from_zero_above_zero_bounds(self):
        below_half = np.nextafter(0.5, 0.0)
        values = np.array([
            0.5, 1.5, 2.5, 38.5, -0.5, -1.5, -2.5, 0.0, -0.0, below_half, -below_half,
            np.nextafter(1.5, 0.0), np.nextafter(-1.5, 0.0), 1e15 + 0.5, 2.0**52 + 1.0, 1e300, -1e300,
            np.inf, -np.inf,
        ])
        for lower, upper in ((0.0, 20.0), (1.0, 40.0), (0.0, 2.0**60), (3.0, 3.0)):
            self.assert_step_rounding_matches(values, np.full(values.size, lower), np.full(values.size, upper))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(-1e6, 1e6), st.integers(0, 50), st.integers(0, 50)),
                    min_size=1, max_size=20))
    def test_step_rounding_matches_half_away_from_zero_on_draws(self, rows):
        values = np.array([v for v, _, _ in rows])
        lower = np.array([min(a, b) for _, a, b in rows], dtype=float)
        upper = np.array([max(a, b) for _, a, b in rows], dtype=float)
        self.assert_step_rounding_matches(values, lower, upper)

    def test_overflowed_moves_land_on_the_bounds(self):
        values = np.array([np.nan, np.inf, -np.inf, np.nan])
        lower, upper = np.array([1.0, 1.0, 1.0, 0.0]), np.array([12.0, 12.0, 12.0, 8.0])
        assert round_to_bounds(values, lower, upper).tolist() == [1.0, 12.0, 1.0, 0.0]


class TestConfigValidation:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            RatsConfig(v_min=1.0, v_max=-1.0)
        with pytest.raises(ValueError):
            RatsConfig(tau_p=1.5)
        with pytest.raises(ValueError):
            RatsConfig(tau_f=0.0)
        with pytest.raises(ValueError):
            RatsConfig(particles=0)

    @pytest.mark.parametrize("name", ["c_pers", "c_soc", "v_min", "v_max", "w_min", "w_max", "tau_f"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(ValueError, match=name):
            RatsConfig(**{name: value})

    def test_rejects_a_velocity_range_that_overflows(self):
        with pytest.raises(ValueError, match="v_max - v_min"):
            RatsConfig(v_min=-1e308, v_max=1e308)

    def test_overflowing_velocities_keep_positions_in_bounds(self):
        problem = make_toy_problem()
        lo, hi = problem.structure.position_bounds()
        result = run(RatsConfig(particles=20, c_soc=1e308, w_min=3.0, w_max=3.0, k_max=40,
                                k_max_stall=10**6, tau_p=0.999, seed=2), problem)
        assert result.iterations == 40
        assert np.all((lo <= result.position) & (result.position <= hi))


class TestInitialization:
    def test_positions_within_bounds_mass_draw(self):
        problem = make_toy_problem()
        swarm = Swarm(RatsConfig(particles=100_000, seed=1), problem)
        swarm.initialize()
        lo, hi = problem.structure.position_bounds()
        assert np.all(swarm.positions >= lo) and np.all(swarm.positions <= hi)
        assert np.all(swarm.velocities > -1.0) and np.all(swarm.velocities < 1.0)

    def test_fixed_seed_bit_identical_init(self):
        problem = make_toy_problem()
        a = Swarm(RatsConfig(particles=500, seed=42), problem)
        b = Swarm(RatsConfig(particles=500, seed=42), problem)
        sa, sb = a.initialize(), b.initialize()
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.velocities, b.velocities)
        assert sa.best_fitness == sb.best_fitness
        assert np.array_equal(sa.best_position, sb.best_position)

    def test_single_particle_swarm(self):
        problem = make_toy_problem()
        swarm = Swarm(RatsConfig(particles=1, seed=3), problem)
        state = swarm.initialize()
        assert np.array_equal(state.best_position, swarm.positions[0])
        assert state.concentration == 1.0

    def test_injected_zero_strategy_particle(self):
        problem = make_toy_problem()
        swarm = Swarm(RatsConfig(particles=10, seed=5), problem)
        swarm.initialize()
        assert problem.decode(swarm.positions[0]).legs == ()

    def test_argmin_tie_broken_by_lowest_index(self):
        problem = make_toy_problem()
        swarm = Swarm(RatsConfig(particles=8, seed=0), problem)
        swarm.initialize()
        swarm.best_fitness = np.array([5.0, 1.0, 3.0, 1.0, 2.0, 1.0, 9.0, 7.0])
        assert int(np.argmin(swarm.best_fitness)) == 1


class TestStep:
    def test_frozen_swarm_stalls(self):
        problem = make_toy_problem()
        cfg = RatsConfig(particles=20, c_pers=0.0, c_soc=0.0, w_min=1.0, w_max=1.0, seed=7)
        swarm = Swarm(cfg, problem)
        state = swarm.initialize()
        swarm.velocities[:] = 0.0
        before = swarm.positions.copy()
        for k in range(3):
            swarm.step(state)
            assert np.array_equal(swarm.positions, before)
            assert state.stall == k + 1

    def test_positions_stay_within_bounds_under_violent_velocities(self):
        problem = make_toy_problem()
        cfg = RatsConfig(particles=50, c_pers=1.9, c_soc=1.9, v_min=-30.0, v_max=30.0, seed=11)
        swarm = Swarm(cfg, problem)
        state = swarm.initialize()
        lo, hi = problem.structure.position_bounds()
        for _ in range(25):
            swarm.step(state)
            assert np.all(swarm.positions >= lo) and np.all(swarm.positions <= hi)

    @settings(max_examples=40, deadline=None)
    @given(
        grid1=grid_strategy(), grid2=grid_strategy(), grid3=grid_strategy(),
        c_pers=st.floats(0.0, 2.5), c_soc=st.floats(0.0, 2.5),
        v_span=st.floats(0.1, 40.0), w=st.floats(0.0, 1.2),
        seed=st.integers(0, 2**31),
    )
    def test_bound_safety_over_random_configs(self, grid1, grid2, grid3,
                                              c_pers, c_soc, v_span, w, seed):
        problem = make_toy_problem()
        structure = EosStructure(1, (
            SlotSpec(1, 2, grid1), SlotSpec(1, 2, grid2), SlotSpec(3, 3, grid3),
        ))
        problem = dataclasses.replace(problem, structure=structure)
        cfg = RatsConfig(particles=12, c_pers=c_pers, c_soc=c_soc,
                         v_min=-v_span, v_max=v_span, w_min=w, w_max=w,
                         k_max=6, seed=seed)
        swarm = Swarm(cfg, problem)
        state = swarm.initialize()
        lo, hi = structure.position_bounds()
        for _ in range(6):
            swarm.step(state)
            assert np.all(swarm.positions >= lo) and np.all(swarm.positions <= hi)

    def test_improvement_of_exactly_tau_f_does_not_move_global_best(self):
        problem = make_toy_problem()
        cfg = RatsConfig(particles=2, seed=1, tau_f=1e-4)
        swarm = Swarm(cfg, problem)
        feed = [np.array([1.0, 2.0])]
        swarm._evaluate = lambda positions, best=None: (feed.pop(0), np.ones(len(positions), dtype=bool))
        state = swarm.initialize()
        assert state.best_fitness == 1.0

        feed.append(np.array([1.0 - 1e-4, 2.0]))  # improves by exactly tau_f
        swarm.step(state)
        assert state.best_fitness == 1.0
        assert state.stall == 1

        feed.append(np.array([1.0 - 3e-4, 2.0]))  # improves by more than tau_f
        swarm.step(state)
        assert state.best_fitness == 1.0 - 3e-4
        assert state.stall == 0

    def test_global_best_updates_from_personal_bests(self):
        problem = make_toy_problem()
        cfg = RatsConfig(particles=3, seed=2, tau_f=1e-4)
        swarm = Swarm(cfg, problem)
        feed = [np.array([5.0, 4.0, 6.0])]
        swarm._evaluate = lambda positions, best=None: (feed.pop(0), np.ones(len(positions), dtype=bool))
        state = swarm.initialize()
        # Particle 2 worsens, but its personal best (6.0) is kept; champion is 0.1.
        feed.append(np.array([0.1, 9.0, 9.0]))
        swarm.step(state)
        assert state.best_fitness == 0.1
        assert swarm.best_fitness.tolist() == [0.1, 4.0, 6.0]

    def test_feasible_personal_best_leads_the_champion_pick(self):
        problem = make_toy_problem()
        swarm = Swarm(RatsConfig(particles=3, seed=2, tau_f=1e-4), problem)
        feed = [(np.array([1.0, 2.0, 3.0]), np.array([False, True, True]))]
        swarm._evaluate = lambda positions, best=None: feed.pop(0)
        state = swarm.initialize()
        assert (state.best_fitness, state.best_feasible) == (2.0, True)
        assert np.array_equal(state.best_position, swarm.best_positions[1])

        # An infeasible personal best far below the incumbent does not displace it.
        feed.append((np.array([0.5, 9.0, 9.0]), np.array([False, True, True])))
        swarm.step(state)
        assert (state.best_fitness, state.stall) == (2.0, 1)

        # A feasible one beating it by more than tau_f does.
        feed.append((np.array([9.0, 9.0, 1.5]), np.array([True, True, True])))
        swarm.step(state)
        assert (state.best_fitness, state.best_feasible, state.stall) == (1.5, True, 0)

    def test_feasible_champion_displaces_an_infeasible_incumbent(self):
        problem = make_toy_problem()
        swarm = Swarm(RatsConfig(particles=2, seed=1, tau_f=1e-4), problem)
        feed = [(np.array([1.0, 2.0]), np.array([False, False]))]
        swarm._evaluate = lambda positions, best=None: feed.pop(0)
        state = swarm.initialize()
        assert (state.best_fitness, state.best_feasible) == (1.0, False)

        # Feasibility ranks first, so the incumbent moves although its fitness rises.
        feed.append((np.array([3.0, 1.5]), np.array([False, True])))
        swarm.step(state)
        assert (state.best_fitness, state.best_feasible, state.stall) == (1.5, True, 0)
        assert swarm.best_feasible.tolist() == [False, True]


class TestConcentration:
    def test_counts_exact_vector_matches(self):
        problem = make_toy_problem()
        swarm = Swarm(RatsConfig(particles=10, seed=4), problem)
        state = swarm.initialize()
        swarm.best_positions[:] = state.best_position
        swarm.best_positions[8:] += 1
        swarm.best_positions[8:] = np.clip(
            swarm.best_positions[8:], *problem.structure.position_bounds())
        chi = swarm._concentration(state.best_position)
        assert chi == pytest.approx(0.8)

    def test_all_equal_gives_one(self):
        problem = make_toy_problem()
        swarm = Swarm(RatsConfig(particles=10, seed=4), problem)
        state = swarm.initialize()
        swarm.best_positions[:] = state.best_position
        assert swarm._concentration(state.best_position) == 1.0

    def test_fresh_swarm_has_negligible_concentration(self, reduced_problem):
        swarm = Swarm(RatsConfig(particles=1000, seed=9), reduced_problem)
        state = swarm.initialize()
        assert state.concentration <= 0.01


class TestRun:
    def test_zero_iteration_budget_returns_best_initial_particle(self):
        problem = make_toy_problem()
        result = run(RatsConfig(particles=50, k_max=0, seed=13), problem)
        assert result.stop_reason is StopReason.MAX_ITER
        assert result.iterations == 0
        assert len(result.trajectory) == 1
        swarm = Swarm(RatsConfig(particles=50, k_max=0, seed=13), problem)
        state = swarm.initialize()
        assert result.fitness == pytest.approx(state.best_fitness, rel=1e-12)

    def test_trajectory_non_increasing(self, reduced_problem):
        result = run(RatsConfig(particles=200, k_max=30, seed=21), reduced_problem)
        fits = [row[1] for row in result.trajectory]
        assert all(b <= a for a, b in zip(fits, fits[1:]))

    @pytest.mark.parametrize("seed", [6084, 104036])
    def test_table1_run_ends_feasible(self, table1_problem, seed):
        # Two repetitions of bench/'s table1_swarm: 1000 particles, 50 iterations, no early
        # stop.  A champion picked on penalty fitness alone ended both on an infeasible
        # strategy that beat every feasible personal best.
        cfg = RatsConfig(particles=1000, k_max=50, k_max_stall=10**9, tau_p=0.999999, seed=seed)
        result = run(cfg, table1_problem)
        empty = table1_problem.evaluate(table1_problem.empty_position()).fitness
        assert result.breakdown.feasible
        assert result.fitness < empty

    def test_final_fitness_not_worse_than_empty_strategy(self):
        problem = make_toy_problem()
        empty = problem.evaluate(problem.empty_position()).fitness
        result = run(RatsConfig(particles=100, k_max=50, seed=17), problem)
        assert result.fitness <= empty + 1e-12

    def test_stall_stop(self):
        problem = make_toy_problem()
        cfg = RatsConfig(particles=30, k_max=500, k_max_stall=5, tau_f=10.0, seed=19)
        result = run(cfg, problem)
        assert result.stop_reason is StopReason.STALL
        assert result.iterations <= 10

    def test_per_particle_random_mode_runs_deterministically(self):
        problem = make_toy_problem()
        cfg = RatsConfig(particles=50, k_max=20, seed=29, random_mode=RandomMode.PER_PARTICLE)
        a, b = run(cfg, problem), run(cfg, problem)
        assert a.fitness == b.fitness
        assert np.array_equal(a.position, b.position)

    def test_final_breakdown_equals_last_trajectory_value(self, reduced_problem):
        # One fitness path: the final breakdown re-evaluates the incumbent with
        # the evaluator that scored it during the run.
        for seed in range(10):
            result = run(RatsConfig(particles=30, seed=seed), reduced_problem)
            assert result.fitness == result.trajectory[-1][1]

    def test_run_twice_counts_each_runs_evaluations(self):
        swarm = Swarm(RatsConfig(particles=50, k_max=5, seed=41), make_toy_problem())
        first = swarm.run()
        second = swarm.run()
        assert first.iterations == second.iterations == 5
        # Each run counts only its own evaluations: the initial swarm plus one per step.
        for result in (first, second):
            assert result.evaluations == (result.iterations + 1) * 50

    def test_breakdown_matches_reported_identity(self, reduced_problem):
        result = run(RatsConfig(particles=200, k_max=20, seed=31), reduced_problem)
        b = result.breakdown
        recomputed = (b.mean_pnl - reduced_problem.pnl_rf - b.cost) / (b.var - b.cost)
        assert b.objective == pytest.approx(recomputed, abs=1e-12)

    def test_stall_accounting_consistent_with_trajectory(self, reduced_problem):
        result = run(RatsConfig(particles=300, k_max=40, seed=37), reduced_problem)
        prev_fit, prev_stall = result.trajectory[0][1], result.trajectory[0][3]
        for _, fit, _, stall, _ in result.trajectory[1:]:
            if fit < prev_fit:
                assert stall == 0
            else:
                assert fit == prev_fit
                assert stall == prev_stall + 1
            prev_fit, prev_stall = fit, stall
