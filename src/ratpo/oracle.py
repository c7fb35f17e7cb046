"""Exhaustive enumeration of the strategy space on small instances.

Walks the slot-range x grid-index product in lexicographic order (last digit
fastest), evaluating fitness in vectorized blocks.  Blocks may be evaluated
in parallel; the reduction over block summaries is sequential and therefore
deterministic.  Exactness is the point here, speed is secondary.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .problem import ProblemInstance, search_space_size

#: Positions kept in the optimal set before truncation kicks in.
MAX_OPTIMAL_SET = 100_000


class BudgetExceeded(RuntimeError):
    def __init__(self, size: int, budget: int):
        super().__init__(f"search space holds {size} positions, over the budget of {budget}")
        self.size = size
        self.budget = budget


@dataclass(frozen=True)
class OracleResult:
    optimal_fitness: float
    optimal_positions: list[np.ndarray]
    count: int
    wall_seconds: float
    status: str  # "optimal" or "no_feasible"
    truncated: bool = False


@dataclass
class _BlockSummary:
    best_fit: float
    candidates: list[tuple[float, np.ndarray]]
    best_violation: float
    best_violation_pos: Optional[np.ndarray]


class Enumerator:
    def __init__(self, problem: ProblemInstance):
        self.problem = problem
        self.evaluator = problem.evaluator
        # Digit radices and offsets in position order: index ranges first, then grid indices.
        self.offsets, upper = problem.structure.position_bounds()
        self.sizes = upper - self.offsets + 1
        self.total = search_space_size(problem.structure)

    def positions_for(self, start: int, stop: int) -> np.ndarray:
        """Decode flat enumeration indices [start, stop) into position vectors."""
        flat = np.arange(start, stop, dtype=np.int64)
        out = np.empty((flat.size, self.sizes.size), dtype=np.int64)
        rem = flat
        for d in range(self.sizes.size - 1, -1, -1):
            rem, digit = np.divmod(rem, self.sizes[d])
            out[:, d] = digit + self.offsets[d]
        return out

    def _scan_block(self, start: int, stop: int, tau_eq: float) -> _BlockSummary:
        positions = self.positions_for(start, stop)
        res = self.evaluator.evaluate(positions)
        feasible = res["feasible"]
        summary = _BlockSummary(np.inf, [], np.inf, None)
        if feasible.any():
            fit = np.where(feasible, res["fitness"], np.inf)
            best = float(fit.min())
            summary.best_fit = best
            near = np.flatnonzero(fit <= best + tau_eq)
            summary.candidates = [(float(fit[i]), positions[i].copy()) for i in near]
        else:
            total_psi = res["psi"].sum(axis=1)
            i = int(np.argmin(total_psi))
            summary.best_violation = float(total_psi[i])
            summary.best_violation_pos = positions[i].copy()
        return summary

    def enumerate(
        self,
        tau_eq: float = 1e-12,
        budget: int = 10_000_000,
        block_size: int = 65_536,
        threads: int = 1,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> OracleResult:
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        if self.total > budget:
            raise BudgetExceeded(self.total, budget)
        t0 = time.perf_counter()
        ranges = [(a, min(a + block_size, self.total)) for a in range(0, self.total, block_size)]

        def scan(r: tuple[int, int]) -> _BlockSummary:
            return self._scan_block(*r, tau_eq)

        summaries: list[_BlockSummary] = []
        done = 0
        # No worker thread starts before the first submit, so one thread costs nothing here.
        # Both maps yield in block order, so the reduction below runs in enumeration order.
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = pool.map(scan, ranges) if threads > 1 else map(scan, ranges)
            for (start, stop), summary in zip(ranges, blocks):
                summaries.append(summary)
                done += stop - start
                if progress is not None:
                    progress(done, self.total)

        best_fit = np.inf
        candidates: list[tuple[float, np.ndarray]] = []
        best_violation = np.inf
        best_violation_pos: Optional[np.ndarray] = None
        truncated = False
        for s in summaries:
            if s.best_fit < best_fit - tau_eq:
                best_fit = s.best_fit
                candidates = [c for c in candidates if c[0] <= best_fit + tau_eq]
            elif s.best_fit < best_fit:
                best_fit = s.best_fit
            candidates.extend(c for c in s.candidates if c[0] <= best_fit + tau_eq)
            if len(candidates) > MAX_OPTIMAL_SET:
                candidates = candidates[:MAX_OPTIMAL_SET]
                truncated = True
            if s.best_violation < best_violation:
                best_violation = s.best_violation
                best_violation_pos = s.best_violation_pos

        wall = time.perf_counter() - t0
        if not np.isfinite(best_fit):
            positions = [best_violation_pos] if best_violation_pos is not None else []
            return OracleResult(np.inf, positions, self.total, wall, "no_feasible", truncated)
        kept = [pos for fit, pos in candidates if fit <= best_fit + tau_eq]
        return OracleResult(float(best_fit), kept, self.total, wall, "optimal", truncated)


def enumerate_space(problem: ProblemInstance, **kwargs) -> OracleResult:
    return Enumerator(problem).enumerate(**kwargs)
