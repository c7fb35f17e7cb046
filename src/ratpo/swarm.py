"""Integer particle-swarm optimizer over the strategy position encoding.

Standard swarm recursion with three departures that matter here:

* positions are integers: after each velocity step the float position is
  rounded half-away-from-zero and saturated at the per-slot bounds
  (:func:`round_to_bounds`; every lower bound is >= 0, so rounding halves
  up gives the same integers);
* the champion among the personal bests is the feasible one with the lowest
  penalty fitness, and only when no personal best is feasible the one with
  the lowest penalty fitness overall.  A feasible champion always displaces
  an infeasible incumbent; otherwise the global best only moves when the
  champion has the incumbent's feasibility and beats its fitness by strictly
  more than a significance threshold.  A stall counter drives one of the
  stopping rules.  The injected zero strategy is feasible, so the incumbent
  is feasible from iteration 0 and its fitness never increases;
* the two uniform random vectors are, by default, drawn once per iteration
  and shared by all particles ("shared" mode); "per_particle" redraws them
  for every particle like textbook PSO.

Fitness evaluation is pure and vectorized.  A step reads a row's fitness
only through ``fitness < personal best``, so on large batches (:func:`prunes`)
it makes one :meth:`BatchEvaluator.evaluate_pruned` call: that decodes the
batch once, bounds every row from below with the floor of
:meth:`BatchEvaluator.subset_floor` and scores in full only the rows whose
floor is not at least their personal best: the pruning rule of branch and
bound (Land & Doig, 1960), applied per particle.  It is exact, so the
trajectory is the one full scoring gives.  Every batch is scored in the
calling thread, by one evaluator call; ``RatsConfig.threads`` is accepted
but starts no thread.

The step keeps float copies of the positions and the personal bests, so
its arithmetic never converts an int array; the int positions are written
once per step, for the evaluator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from .instruments import Portfolio
from .problem import EvalBreakdown, ProblemInstance


class StopReason(str, Enum):
    MAX_ITER = "max_iter"
    STALL = "stall"
    CONCENTRATION = "concentration"


def round_to_bounds(values: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Round ``values`` in place to the nearest integer, halves up, and clip
    them to ``[lower, upper]``.

    With every lower bound >= 0 this is the clipped rounding half away from
    zero: ``floor(y + 0.5)`` differs from it only at ``y < 0``, where both
    are <= 0 and clip to the lower bound.
    """
    np.add(values, 0.5, out=values)
    np.floor(values, out=values)
    # np.clip with per-column bounds takes about half as long again.
    np.maximum(values, lower, out=values)
    return np.minimum(values, upper, out=values)


class RandomMode(str, Enum):
    SHARED = "shared"
    PER_PARTICLE = "per_particle"


@dataclass(frozen=True)
class RatsConfig:
    """Swarm hyperparameters; defaults follow the reference configuration."""

    particles: int = 1000
    c_pers: float = 1.0
    c_soc: float = 1.0
    v_min: float = -1.0
    v_max: float = 1.0
    w_min: float = 1.0
    w_max: float = 1.0
    tau_f: float = 1e-4
    tau_p: float = 0.75
    k_max: int = 500
    k_max_stall: int = 100
    seed: int = 0
    random_mode: RandomMode = RandomMode.SHARED
    # Checked but without effect (every batch runs in the calling thread); kept
    # because existing rats.json files and the benchmark still set it.
    threads: int = 1

    def __post_init__(self) -> None:
        if self.particles < 1:
            raise ValueError("need at least one particle")
        if self.v_min >= self.v_max:
            raise ValueError("v_min must be below v_max")
        if self.w_min > self.w_max:
            raise ValueError("w_min must not exceed w_max")
        if self.tau_f <= 0:
            raise ValueError("tau_f must be positive")
        if not 0.0 < self.tau_p < 1.0:
            raise ValueError("tau_p must be in (0, 1)")
        if self.k_max < 0 or self.k_max_stall < 1:
            raise ValueError("iteration budgets must be non-negative / positive")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class RunState:
    iteration: int
    best_position: np.ndarray
    best_fitness: float
    best_feasible: bool
    stall: int
    inertia: float
    concentration: float
    stop_reason: Optional[StopReason] = None
    trajectory: list[tuple[int, float, float, int, float]] = field(default_factory=list)


@dataclass(frozen=True)
class RatsResult:
    position: np.ndarray
    strategy: Portfolio
    breakdown: EvalBreakdown
    stop_reason: StopReason
    iterations: int
    evaluations: int  # positions evaluated, the initial swarm's included
    scored: int  # rows the full fitness evaluated, the initial swarm's included
    trajectory: list[tuple[int, float, float, int, float]]
    wall_seconds: float
    init_seconds: float
    seed: int

    @property
    def fitness(self) -> float:
        return self.breakdown.fitness


#: A swarm prunes its steps when one step's full P&L product would take at
#: least this many multiply-adds (:func:`prunes`).
PRUNE_MADDS = 500_000


def prunes(problem: ProblemInstance, particles: int) -> bool:
    """Whether a swarm's steps bound their rows before scoring any in full.

    Pruning never changes a result, only the time a step takes.  The floor
    adds a fixed cost of numpy calls to every step and saves the full product
    of the rows it prunes, ``(m + 1) x (S + 3)`` multiply-adds each, so it
    pays only on large batches: on one thread of a 2-vCPU host it broke even
    at about 45 particles on table1 (m = 39) and about 250 on reduced
    (m = 3), both with S = 250.  A step prunes when ``particles x (m + 1) x
    (S + 3)`` is at least :data:`PRUNE_MADDS`, which puts the threshold at 50
    particles on table1 and 495 on reduced.
    """
    return particles * (problem.structure.m + 1) * (problem.var_cfg.count + 3) >= PRUNE_MADDS


class Swarm:
    """Owns the particle arrays and the run loop for one optimization."""

    def __init__(self, cfg: RatsConfig, problem: ProblemInstance):
        self.cfg = cfg
        self.problem = problem
        self.evaluator = problem.evaluator
        self.lower, self.upper = problem.structure.position_bounds()
        self.dim = 2 * problem.structure.m
        self.rng = np.random.default_rng(cfg.seed)
        self.evaluations = 0
        self.scored = 0
        self.prunes = prunes(problem, cfg.particles)

    # -- evaluation -----------------------------------------------------------

    def _evaluate(self, positions: np.ndarray,
                  best: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
        """Penalty fitness and feasible mask of a batch of positions.

        Given the personal bests ``best`` of a swarm that prunes, one
        :meth:`BatchEvaluator.evaluate_pruned` call scores only the rows whose
        floor is not at least their best; every other row cannot improve and
        reads fitness +inf and infeasible.  Otherwise one
        :meth:`BatchEvaluator.evaluate` call scores the whole batch.
        """
        p = positions.shape[0]
        self.evaluations += p
        if best is not None and self.prunes:
            fitness, feasible, scored = self.evaluator.evaluate_pruned(positions, best)
            self.scored += scored
            return fitness, feasible
        self.scored += p
        res = self.evaluator.evaluate(positions)
        return res["fitness"], res["feasible"]

    def _champion(self) -> int:
        """The personal best that leads: feasible before infeasible, then lowest
        penalty fitness, then lowest index."""
        feasible = np.flatnonzero(self.best_feasible)
        if not feasible.size:
            return int(np.argmin(self.best_fitness))
        return int(feasible[np.argmin(self.best_fitness[feasible])])

    # -- initialization -------------------------------------------------------

    def initialize(self) -> RunState:
        cfg, n = self.cfg, self.cfg.particles
        m = self.problem.structure.m
        self.positions = np.empty((n, self.dim), dtype=np.int64)
        for j in range(self.dim):
            self.positions[:, j] = self.rng.integers(self.lower[j], self.upper[j] + 1, size=n)
        self.velocities = self.rng.uniform(cfg.v_min, cfg.v_max, size=(n, self.dim))
        # Guarantee a feasible incumbent: one particle trades nothing.
        self.positions[0, m:] = self.problem.empty_position()[m:]

        # Float copies of the positions, the personal bests and the bounds, so
        # that no op of the step's recursion casts an int to a float.
        self._x, self._work = self.positions.astype(float), np.empty((n, self.dim))
        self._lower, self._upper = self.lower.astype(float), self.upper.astype(float)

        self.best_positions = self.positions.copy()
        self._best_x = self._x.copy()
        self.best_fitness, self.best_feasible = self._evaluate(self.positions)
        best = self._champion()
        state = RunState(
            iteration=0,
            best_position=self.best_positions[best].copy(),
            best_fitness=float(self.best_fitness[best]),
            best_feasible=bool(self.best_feasible[best]),
            stall=0,
            inertia=cfg.w_max,
            concentration=self._concentration(self.best_positions[best]),
        )
        return state

    def _concentration(self, global_best: np.ndarray) -> float:
        """Share of personal bests equal to ``global_best``.  Each row is
        compared as one block of bytes, which for int64 entries is equality
        of every entry."""
        row = np.dtype((np.void, self.dim * self.best_positions.itemsize))
        target = np.ascontiguousarray(global_best, dtype=self.best_positions.dtype).view(row)
        matches = np.count_nonzero(self.best_positions.view(row)[:, 0] == target[0])
        return float(matches / self.cfg.particles)

    # -- one iteration --------------------------------------------------------

    def step(self, state: RunState) -> None:
        cfg = self.cfg
        n = cfg.particles
        if cfg.random_mode is RandomMode.SHARED:
            r1 = self.rng.uniform(size=self.dim)[None, :]
            r2 = self.rng.uniform(size=self.dim)[None, :]
        else:
            r1 = self.rng.uniform(size=(n, self.dim))
            r2 = self.rng.uniform(size=(n, self.dim))

        # The velocity and move recursion below, in place on the float copies:
        #   v = inertia * v + c_pers * r1 * (pbest - x) + c_soc * r2 * (gbest - x)
        #   x = round_to_bounds(x + v, lower, upper)
        # with the same operations in the same order, so the same bytes.  The
        # positions are small integers, exact as floats.
        v, work, x = self.velocities, self._work, self._x
        np.multiply(v, state.inertia, out=v)
        np.subtract(self._best_x, x, out=work)
        np.multiply(cfg.c_pers * r1, work, out=work)
        np.add(v, work, out=v)
        np.subtract(state.best_position.astype(float)[None, :], x, out=work)
        np.multiply(cfg.c_soc * r2, work, out=work)
        np.add(v, work, out=v)
        np.add(x, v, out=x)
        round_to_bounds(x, self._lower, self._upper)
        self.positions[...] = x

        fitness, feasible = self._evaluate(self.positions, self.best_fitness)
        improved = fitness < self.best_fitness
        self.best_positions[improved] = self.positions[improved]
        self._best_x[improved] = x[improved]
        self.best_fitness[improved] = fitness[improved]
        self.best_feasible[improved] = feasible[improved]

        state.iteration += 1
        champion = self._champion()
        champion_feasible = bool(self.best_feasible[champion])
        if champion_feasible != state.best_feasible:
            moves = champion_feasible
        else:
            # Both +inf: inf - inf is NaN, which moves nothing.
            with np.errstate(invalid="ignore"):
                moves = state.best_fitness - self.best_fitness[champion] > cfg.tau_f
        if moves:
            state.best_position = self.best_positions[champion].copy()
            state.best_fitness = float(self.best_fitness[champion])
            state.best_feasible = champion_feasible
            state.stall = 0
        else:
            state.stall += 1
        if cfg.k_max > 0:
            state.inertia = cfg.w_max - (state.iteration / cfg.k_max) * (cfg.w_max - cfg.w_min)
        state.concentration = self._concentration(state.best_position)

    # -- full run --------------------------------------------------------------

    def run(self) -> RatsResult:
        cfg = self.cfg
        t0 = time.perf_counter()
        self.evaluations = self.scored = 0
        state = self.initialize()
        init_seconds = time.perf_counter() - t0
        state.trajectory.append((0, state.best_fitness, state.concentration, state.stall, init_seconds))
        while (
            state.iteration < cfg.k_max
            and state.stall < cfg.k_max_stall
            and state.concentration < cfg.tau_p
        ):
            self.step(state)
            state.trajectory.append((
                state.iteration, state.best_fitness, state.concentration,
                state.stall, time.perf_counter() - t0,
            ))

        if state.iteration >= cfg.k_max:
            state.stop_reason = StopReason.MAX_ITER
        elif state.stall >= cfg.k_max_stall:
            state.stop_reason = StopReason.STALL
        else:
            state.stop_reason = StopReason.CONCENTRATION

        breakdown = self.problem.evaluate(state.best_position)
        return RatsResult(
            position=state.best_position,
            strategy=self.problem.decode(state.best_position),
            breakdown=breakdown,
            stop_reason=state.stop_reason,
            iterations=state.iteration,
            evaluations=self.evaluations,
            scored=self.scored,
            trajectory=state.trajectory,
            wall_seconds=time.perf_counter() - t0,
            init_seconds=init_seconds,
            seed=cfg.seed,
        )


def run(cfg: RatsConfig, problem: ProblemInstance) -> RatsResult:
    """Convenience wrapper: build a swarm, run it, return the result."""
    return Swarm(cfg, problem).run()
