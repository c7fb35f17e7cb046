"""Exhaustive enumeration of the strategy space on small instances.

Walks the slot-range x grid-index product in lexicographic order (last digit
fastest), in three steps, each over blocks of at most ``block_size``
positions of the box:

1. Screen.  The whole box's feasible mask comes from
   :meth:`BatchEvaluator.feasible_slice`, which adds small per-slot Greek
   tables instead of decoding positions, one Greek at a time, and tests each
   sum against its limit directly, in leading-digit chunks.  The mask is
   bit-identical to the one :meth:`BatchEvaluator.evaluate` computes.
2. Floor.  Each block decodes its feasible positions and gets a lower bound
   on their fitness from :meth:`BatchEvaluator.fitness_floor`, with no P&L
   row built.  The few positions with the lowest floors are scored in full,
   and the best of their fitnesses is the incumbent.
3. Score.  Each block runs the full fitness (P&L, VaR, cost) only on the
   feasible positions whose floor is at most ``incumbent + tau_eq``.

All three steps run in the calling thread: they are many small numpy
calls, and on the reduced instance (2 vCPUs) a second thread made them
slower.  ``Enumerator.enumerate`` accepts ``threads`` but starts no thread.

Step 3 is exact: it is the pruning rule of branch and bound (Land & Doig,
1960).  A pruned position has ``fitness >= floor > incumbent + tau_eq >=
best + tau_eq``, so it is neither the optimum nor in the optimal set, and
the result is the one a full scan finds.  When every fitness is infinite the
incumbent is too, and nothing is pruned.

The optimal set is every feasible position with ``fitness <= best +
tau_eq``, in enumeration order; the first ``MAX_OPTIMAL_SET`` of them are
kept, and ``truncated`` says that the set holds more.  The empty position is
feasible for any limits and always enumerated, so the status is always
``"optimal"``; when every feasible position's denominator is degenerate,
they all tie at an infinite optimum.  Every step's output is in enumeration
order, so the result does not depend on the block size.
"""

from __future__ import annotations

import time
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
    scored: int = 0  # rows the full fitness evaluated, the incumbent's included


#: Lowest-floor positions scored in full for the incumbent.
_INCUMBENT_ROWS = 64


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

    def feasible_mask(self, block_size: int = 65_536) -> np.ndarray:
        """One bool per position of the box, in enumeration order: True where
        the position passes the sensitivity limits.

        The box is cut into leading-digit chunks of at most ``block_size``
        positions: every chunk is a run of prefixes over the k leading digits,
        with k as small as that bound allows, and
        :meth:`BatchEvaluator.feasible_slice` screens each chunk without
        decoding it, in order, into one work array.  The mask does not
        depend on ``block_size``.
        """
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        k, tail = self.sizes.size, 1
        while k and tail * int(self.sizes[k - 1]) <= block_size:
            k -= 1
            tail *= int(self.sizes[k])
        prefixes, step = self.total // tail, block_size // tail
        mask = np.empty(self.total, dtype=bool)
        # One work array, a float per position, for every chunk (feasible_slice).
        work = np.empty(min(step, prefixes) * tail)
        for first in range(0, prefixes, step):
            last = min(first + step, prefixes)
            chunk = self._decode(np.arange(first, last, dtype=np.int64), k)
            mask[first * tail: last * tail] = self.evaluator.feasible_slice(chunk, work)
        return mask

    def enumerate(
        self,
        tau_eq: float = 1e-12,
        budget: int = 10_000_000,
        block_size: int = 65_536,
        threads: int = 1,
        progress: Optional[Callable[[int, int], None]] = None,
    ) -> OracleResult:
        """The optimum and the optimal set over the whole box (module docstring).

        ``tau_eq`` must be at least 0 (+inf included) and ``budget`` at least
        1.  ``threads`` must be at least 1 but has no effect: the enumeration
        runs in the calling thread.

        ``progress(done, total)`` is called once per block of the scoring
        step, in block order: ``done`` box positions, every block up to this
        one, have been screened, bounded and scored out of ``total``.
        """
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        if not tau_eq >= 0:
            raise ValueError(f"tau_eq must be >= 0, got {tau_eq}")
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        if self.total > budget:
            raise BudgetExceeded(self.total, budget)
        t0 = time.perf_counter()
        feasible = np.flatnonzero(self.feasible_mask(block_size))
        # Block b holds the feasible flat indices feasible[cuts[b]:cuts[b + 1]].
        stops = [min(a + block_size, self.total) for a in range(0, self.total, block_size)]
        cuts = np.searchsorted(feasible, [0] + stops)
        blocks = [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:])]

        floors = np.concatenate([self.evaluator.fitness_floor(self.positions_for(feasible[b])) for b in blocks])
        picks = np.argpartition(floors, min(_INCUMBENT_ROWS, floors.size) - 1)[:_INCUMBENT_ROWS]
        incumbent = float(self.evaluator.evaluate(self.positions_for(feasible[picks]))["fitness"].min())
        bar = incumbent + tau_eq

        near_rows, near_fits = [], []
        for b, stop in zip(blocks, stops):
            rows = feasible[b][floors[b] <= bar]
            if rows.size:
                fit = self.evaluator.evaluate(self.positions_for(rows))["fitness"]
                near_rows.append(rows[fit <= bar])
                near_fits.append(fit[fit <= bar])
            if progress is not None:
                progress(stop, self.total)
        scored = picks.size + int(np.count_nonzero(floors <= bar))

        rows, fits = np.concatenate(near_rows), np.concatenate(near_fits)
        best = float(fits.min())
        optimal = rows[fits <= best + tau_eq]
        wall = time.perf_counter() - t0
        return OracleResult(best, list(self.positions_for(optimal[:MAX_OPTIMAL_SET])), self.total, wall,
                            "optimal", optimal.size > MAX_OPTIMAL_SET, int(feasible.size), scored)


def enumerate_space(problem: ProblemInstance, **kwargs) -> OracleResult:
    return Enumerator(problem).enumerate(**kwargs)
