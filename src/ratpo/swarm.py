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
only through ``fitness < personal best``, so every batch goes to one
:meth:`BatchEvaluator.evaluate_pruned` call with the personal bests as
bounds (the initial batch with +inf).  The evaluator decides whether
bounding the batch pays and, if so, scores in full only the rows that can
beat their bound: the pruning rule of branch and bound (Land & Doig, 1960),
applied per particle.  It is exact, so the trajectory is the one full
scoring gives.  Every batch is scored in the calling thread;
``RatsConfig.threads`` is accepted but starts no thread.

The swarm keeps one float copy each of the positions, the personal bests,
the global best and the bounds, so its arithmetic never converts an int
array; the int positions are written once per step, for the evaluator.
The positions are small integers, exact as floats.
"""

from __future__ import annotations

import math
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
    are <= 0 and clip to the lower bound.  A NaN goes to the lower bound.
    """
    np.add(values, 0.5, out=values)
    np.floor(values, out=values)
    # fmax/fmin put a NaN on the lower bound and +-inf on a bound, so a move
    # that overflowed still lands in the box.  np.clip with per-column bounds
    # takes about half as long again.
    np.fmax(values, lower, out=values)
    return np.fmin(values, upper, out=values)


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
        for name in ("c_pers", "c_soc", "v_min", "v_max", "w_min", "w_max", "tau_f"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.v_min >= self.v_max:
            raise ValueError("v_min must be below v_max")
        if not math.isfinite(self.v_max - self.v_min):
            raise ValueError("v_max - v_min must be finite: the initial velocities are drawn from that range")
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
    best_position: np.ndarray  # float, like the swarm's other position arrays
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


class Swarm:
    """Owns the particle arrays and the run loop for one optimization."""

    def __init__(self, cfg: RatsConfig, problem: ProblemInstance):
        self.cfg = cfg
        self.problem = problem
        self.evaluator = problem.evaluator
        self.lower, self.upper = (b.astype(float) for b in problem.structure.position_bounds())
        self.dim = 2 * problem.structure.m
        self.rng = np.random.default_rng(cfg.seed)
        self.evaluations = 0
        self.scored = 0

    # -- evaluation -----------------------------------------------------------

    def _evaluate(self, positions: np.ndarray, best: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Penalty fitness and feasible mask of a batch of positions, by one
        :meth:`BatchEvaluator.evaluate_pruned` call with the per-row bounds
        ``best``: a row that cannot beat its bound reads +inf and infeasible."""
        fitness, feasible, scored = self.evaluator.evaluate_pruned(positions, best)
        self.evaluations += positions.shape[0]
        self.scored += scored
        return fitness, feasible

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
            self.positions[:, j] = self.rng.integers(int(self.lower[j]), int(self.upper[j]) + 1, size=n)
        self.velocities = self.rng.uniform(cfg.v_min, cfg.v_max, size=(n, self.dim))
        # Guarantee a feasible incumbent: one particle trades nothing.
        self.positions[0, m:] = self.problem.empty_position()[m:]

        self._x, self._work = self.positions.astype(float), np.empty((n, self.dim))
        self.best_positions = self._x.copy()
        self.best_fitness, self.best_feasible = self._evaluate(self.positions, np.full(n, np.inf))
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
        compared as one block of bytes, which for these integral floats (never
        NaN or -0.0) is equality of every entry."""
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
        # with the same operations in the same order, so the same bytes.
        # A velocity may overflow (large coefficients, or an inertia above 1
        # over many steps); round_to_bounds then puts the move on a bound.
        v, work, x = self.velocities, self._work, self._x
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(v, state.inertia, out=v)
            np.subtract(self.best_positions, x, out=work)
            np.multiply(cfg.c_pers * r1, work, out=work)
            np.add(v, work, out=v)
            np.subtract(state.best_position[None, :], x, out=work)
            np.multiply(cfg.c_soc * r2, work, out=work)
            np.add(v, work, out=v)
            np.add(x, v, out=x)
        round_to_bounds(x, self.lower, self.upper)
        self.positions[...] = x

        fitness, feasible = self._evaluate(self.positions, self.best_fitness)
        improved = fitness < self.best_fitness
        self.best_positions[improved] = x[improved]
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

        position = state.best_position.astype(np.int64)
        breakdown = self.problem.evaluate(position)
        return RatsResult(
            position=position,
            strategy=self.problem.decode(position),
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
