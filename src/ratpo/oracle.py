"""Exhaustive enumeration of the strategy space on small instances.

Walks the slot-range x grid-index product in lexicographic order (last digit
fastest) in blocks.  Each block is scanned feasibility-first: the three
linear Greek sums, and with them every position's violations, come from
:meth:`BatchEvaluator.violations`, and the full fitness (P&L, VaR, cost) is
evaluated only on the feasible positions.  Those Greek sums are bit-identical
to the ones :meth:`BatchEvaluator.evaluate` computes, so the optimum and the
optimal set are the ones a full scan finds.  The empty position is feasible
for any limits and always enumerated, so the status is always ``"optimal"``;
when every feasible position's denominator is degenerate, they all tie at an
infinite optimum.

Blocks may be scanned in parallel; the reduction over block summaries is
sequential and therefore deterministic.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .problem import ProblemInstance, feasible_rows, search_space_size

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
    status: str  # always "optimal": the empty position is feasible
    truncated: bool = False


@dataclass
class _BlockSummary:
    best_fit: float
    candidates: list[tuple[float, np.ndarray]]


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
        feasible = positions[feasible_rows(self.evaluator.violations(positions))]
        if not feasible.size:
            return _BlockSummary(np.inf, [])
        fit = self.evaluator.evaluate(feasible)["fitness"]
        best = float(fit.min())
        near = np.flatnonzero(fit <= best + tau_eq)
        return _BlockSummary(best, [(float(fit[i]), feasible[i].copy()) for i in near])

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

        wall = time.perf_counter() - t0
        kept = [pos for fit, pos in candidates if fit <= best_fit + tau_eq]
        return OracleResult(float(best_fit), kept, self.total, wall, "optimal", truncated)


def enumerate_space(problem: ProblemInstance, **kwargs) -> OracleResult:
    return Enumerator(problem).enumerate(**kwargs)
