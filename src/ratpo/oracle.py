"""Exhaustive enumeration of the strategy space on small instances.

Walks the slot-range x grid-index product in lexicographic order (last digit
fastest).  The scan is feasibility-first.  First the whole box's feasible
mask comes from :meth:`BatchEvaluator.feasible_slice`, which adds small
per-slot Greek tables instead of decoding positions, in leading-digit chunks
of at most ``block_size`` positions.  Then each block of ``block_size`` flat
indices decodes only its feasible positions and evaluates their full
fitness (P&L, VaR, cost).  The mask is bit-identical to the one
:meth:`BatchEvaluator.evaluate` computes, so the optimum and the optimal set
are the ones a full scan finds.  The empty position is feasible for any
limits and always enumerated, so the status is always ``"optimal"``; when
every feasible position's denominator is degenerate, they all tie at an
infinite optimum.

Chunks and blocks may be scanned in parallel; the reduction over block
summaries is sequential and therefore deterministic.
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
    status: str  # always "optimal": the empty position is feasible
    truncated: bool = False
    feasible: int = 0  # positions that pass the sensitivity limits


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

    def _decode(self, flat: np.ndarray, digits: int) -> np.ndarray:
        """Flat indices over the leading ``digits`` digits -> their position entries."""
        out = np.empty((flat.size, digits), dtype=np.int64)
        rem = flat
        for d in range(digits - 1, -1, -1):
            rem, digit = np.divmod(rem, self.sizes[d])
            out[:, d] = digit + self.offsets[d]
        return out

    def positions_for(self, flat: np.ndarray | int, stop: Optional[int] = None) -> np.ndarray:
        """Decode an int array of flat enumeration indices into position
        vectors; ``positions_for(start, stop)`` decodes the range [start, stop)."""
        if stop is not None:
            flat = np.arange(flat, stop, dtype=np.int64)
        return self._decode(np.asarray(flat, dtype=np.int64), self.sizes.size)

    def feasible_mask(self, block_size: int = 65_536, threads: int = 1) -> np.ndarray:
        """One bool per position of the box, in enumeration order: True where
        the position passes the sensitivity limits.

        The box is cut into leading-digit chunks of at most ``block_size``
        positions: every chunk is a run of prefixes over the k leading digits,
        with k as small as that bound allows, and
        :meth:`BatchEvaluator.feasible_slice` screens each chunk without
        decoding it.  Chunks run on ``threads`` workers; the mask does not
        depend on either argument.
        """
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        k, tail = self.sizes.size, 1
        while k and tail * int(self.sizes[k - 1]) <= block_size:
            k -= 1
            tail *= int(self.sizes[k])
        prefixes, step = self.total // tail, block_size // tail
        mask = np.empty(self.total, dtype=bool)

        def screen(first: int) -> None:
            last = min(first + step, prefixes)
            chunk = self._decode(np.arange(first, last, dtype=np.int64), k)
            mask[first * tail: last * tail] = self.evaluator.feasible_slice(chunk)

        with ThreadPoolExecutor(max_workers=threads) as pool:
            for _ in (pool.map if threads > 1 else map)(screen, range(0, prefixes, step)):
                pass
        return mask

    def _scan_block(self, start: int, stop: int, mask: np.ndarray, tau_eq: float) -> _BlockSummary:
        rows = np.flatnonzero(mask[start:stop])
        if not rows.size:
            return _BlockSummary(np.inf, [])
        feasible = self.positions_for(start + rows)
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
        mask = self.feasible_mask(block_size, threads)
        ranges = [(a, min(a + block_size, self.total)) for a in range(0, self.total, block_size)]

        def scan(r: tuple[int, int]) -> _BlockSummary:
            return self._scan_block(*r, mask, tau_eq)

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
        return OracleResult(float(best_fit), kept, self.total, wall, "optimal", truncated,
                            int(np.count_nonzero(mask)))


def enumerate_space(problem: ProblemInstance, **kwargs) -> OracleResult:
    return Enumerator(problem).enumerate(**kwargs)
