"""The pruned swarm step against the full-scoring reference swarm
(``reference.full_scoring_swarm``).

Every step makes one ``BatchEvaluator.evaluate_pruned`` call.  On a batch
large enough to bound, it scores in full only the rows whose
``subset_floor`` is below their personal best.  Pruning is exact, so trajectory, final position, fitness and stop
reason must equal the reference's, and the evaluation count still counts
every position.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import reference

from ratpo.problem import PRUNE_MADDS, ProblemInstance
from ratpo.swarm import RandomMode, RatsConfig, RatsResult, StopReason, Swarm, run

#: bench/'s table1_swarm run: 1000 particles, 50 iterations, no early stop.
TABLE1 = dict(particles=1000, k_max=50, k_max_stall=10**9, tau_p=0.999999)


def assert_matches_reference(cfg: RatsConfig, problem: ProblemInstance) -> RatsResult:
    want = reference.full_scoring_swarm(cfg, problem)
    got = run(cfg, problem)
    assert [row[:4] for row in got.trajectory] == want["trajectory"]
    assert np.array_equal(got.position, want["position"])
    assert got.fitness == want["fitness"]
    assert got.stop_reason is want["stop_reason"]
    assert got.evaluations == want["evaluations"]
    assert cfg.particles <= got.scored <= got.evaluations
    return got


@pytest.mark.parametrize("seed", [101000, 104036, 6084])
def test_table1_matches_full_scoring(table1_problem, seed):
    cfg = RatsConfig(seed=seed, **TABLE1)
    result = assert_matches_reference(cfg, table1_problem)
    # The initial swarm is scored in full; then only rows that can improve.
    assert result.evaluations == 51 * 1000
    assert 1000 < result.scored < 0.2 * result.evaluations


@pytest.mark.parametrize("particles, seed", [(1000, 1), (1000, 2), (2000, 3), (30, 4)])
def test_reduced_matches_full_scoring(reduced_problem, particles, seed):
    assert_matches_reference(RatsConfig(particles=particles, seed=seed), reduced_problem)


def test_concentration_stop_matches_full_scoring(reduced_problem):
    # A falling inertia and no stall stop let three quarters of the personal
    # bests gather on the global best, so the swarm's concentration is
    # checked against the reference's at a high share, on every step.
    cfg = RatsConfig(particles=1000, w_min=0.3, w_max=0.9, k_max_stall=10**9, seed=3)
    result = assert_matches_reference(cfg, reduced_problem)
    assert result.stop_reason is StopReason.CONCENTRATION
    assert result.trajectory[-1][2] >= cfg.tau_p


@pytest.mark.parametrize("name", ["reduced", "table1"])
def test_evaluate_pruned_scores_the_kept_rows_as_evaluate(request, name):
    """The fused call's kept rows are those whose floor is not at least their
    bound, NaN floors included; they carry ``evaluate``'s bytes, and every
    other row reads +inf and infeasible."""
    problem = request.getfixturevalue(f"{name}_problem")
    swarm = Swarm(RatsConfig(particles=1000, seed=12), problem)
    state = swarm.initialize()
    for _ in range(5):
        swarm.step(state)
    rng = np.random.default_rng(13)
    rows = np.concatenate([swarm.positions, rng.integers(*problem.structure.position_bounds(),
                                                         size=(500, swarm.dim), endpoint=True)])
    best = np.concatenate([swarm.best_fitness, rng.choice(swarm.best_fitness, 500)])
    best[rng.random(best.size) < 0.05] = np.inf
    best[rng.random(best.size) < 0.05] = -np.inf
    ev = problem.evaluator
    fitness, feasible, scored = ev.evaluate_pruned(rows, best)
    kept = ~(ev.subset_floor(rows) >= best)
    assert 0 < scored == kept.sum() < rows.shape[0]
    want = ev.evaluate(rows[kept])
    assert fitness[kept].tobytes() == want["fitness"].tobytes()
    assert np.array_equal(feasible[kept], want["feasible"])
    assert np.all(fitness[~kept] == np.inf) and not feasible[~kept].any()


def test_per_particle_random_mode_matches_full_scoring(reduced_problem):
    assert_matches_reference(RatsConfig(particles=1000, k_max=30, seed=5, random_mode=RandomMode.PER_PARTICLE),
                             reduced_problem)


def test_every_fitness_infinite(reduced_problem):
    # An epsilon this large makes every denominator degenerate, so every
    # fitness is +inf: no floor reaches a personal best and every row is scored.
    problem = dataclasses.replace(reduced_problem, epsilon=1e12)
    cfg = RatsConfig(particles=1000, k_max=20, seed=6)
    assert_matches_reference(cfg, problem)
    result = run(cfg, problem)
    assert result.fitness == np.inf
    assert result.scored == result.evaluations


@pytest.mark.parametrize("name, threshold", [("table1", 50), ("reduced", 495)])
def test_prune_rule_depends_on_problem_and_particles(request, name, threshold):
    """``evaluate_pruned`` bounds a batch from ``threshold`` rows on.  A bound
    of -1e300 is finite and below every floor, so a bounded batch scores no
    row, and a batch one row short scores every row."""
    problem = request.getfixturevalue(f"{name}_problem")
    width = (problem.structure.m + 1) * (problem.var_cfg.count + 3)
    assert (threshold - 1) * width < PRUNE_MADDS <= threshold * width
    ev = problem.evaluator
    rows = np.random.default_rng(14).integers(*problem.structure.position_bounds(),
                                              size=(threshold, 2 * problem.structure.m), endpoint=True)
    assert np.all(ev.subset_floor(rows) > -1e300)
    fitness, feasible, scored = ev.evaluate_pruned(rows, np.full(threshold, -1e300))
    assert scored == 0 and np.all(fitness == np.inf) and not feasible.any()
    fitness, feasible, scored = ev.evaluate_pruned(rows[1:], np.full(threshold - 1, -1e300))
    want = ev.evaluate(rows[1:])
    assert scored == threshold - 1
    assert fitness.tobytes() == want["fitness"].tobytes()
    assert np.array_equal(feasible, want["feasible"])
    # A swarm below the threshold scores every position it evaluates.
    small = run(RatsConfig(particles=threshold - 1, k_max=3, seed=8), problem)
    assert small.scored == small.evaluations == 4 * (threshold - 1)


@pytest.mark.parametrize("name", ["reduced", "table1"])
def test_infinite_bounds_score_every_row_as_evaluate(request, name):
    """With every bound +inf no row is bounded, however large the batch: each
    carries ``evaluate``'s bytes, as the initial swarm's batch does."""
    problem = request.getfixturevalue(f"{name}_problem")
    ev = problem.evaluator
    rows = np.random.default_rng(15).integers(*problem.structure.position_bounds(),
                                              size=(1000, 2 * problem.structure.m), endpoint=True)
    fitness, feasible, scored = ev.evaluate_pruned(rows, np.full(1000, np.inf))
    want = ev.evaluate(rows)
    assert scored == 1000
    assert fitness.tobytes() == want["fitness"].tobytes()
    assert np.array_equal(feasible, want["feasible"])
