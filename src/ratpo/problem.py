"""Problem assembly: strategy slot structure, position decoding, sensitivity
constraints and the penalty fitness, evaluated by :class:`BatchEvaluator`.

Candidate strategies live in a 2m-dimensional integer position vector: the
first m entries pick universe indices (1-based), the second m entries pick
0-based indices into per-slot discretized notional grids.  Slots come in
per-underlying triplets (two option slots sharing the call+put index range,
one linear slot over the stock or futures indices).

The objective is a cost-adjusted P&L/VaR ratio (lower is better); constraint
violations are normalized by their thresholds so penalty weights are
scale-free.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from scipy import sparse

from .features import FeatureTable, PortfolioFeatures
from .instruments import Category, Kind, Portfolio, UeiDescriptor, UnderlyingSpec, descriptor_id
from .risk import VarConfig, var_index


class StructureError(ValueError):
    pass


@dataclass(frozen=True)
class SlotSpec:
    """Index bounds (1-based, inclusive) and the signed-integer notional grid for one slot."""

    lower: int
    upper: int
    grid: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= self.lower <= self.upper:
            raise StructureError(f"bad slot index range [{self.lower}, {self.upper}]")
        if not self.grid or 0 not in self.grid:
            raise StructureError("notional grid must be non-empty and contain 0")
        if list(self.grid) != sorted(set(self.grid)):
            raise StructureError("notional grid must be strictly increasing")


@dataclass(frozen=True)
class EosStructure:
    """Slot layout for candidate strategies, and the one codec of the position
    vector: bounds, the empty position, the notional grids and the per-slot
    legs all come from here.

    The standard layout built from underlying specs is a per-underlying
    triplet (two option slots sharing the call+put index range, one linear
    slot over the stock/futures indices); ``underlyings`` counts those
    triplets.  Structures with ``underlyings=0`` may use any slot list, as
    long as any two slot ranges are either identical or disjoint and no
    range is shared by more than two slots (this is what makes
    duplicate-instrument merging well defined and pairwise).
    """

    underlyings: int
    slots: tuple[SlotSpec, ...]

    def __post_init__(self) -> None:
        if self.underlyings:
            if len(self.slots) != 3 * self.underlyings:
                raise StructureError("expected exactly three slots per underlying")
            for ell in range(self.underlyings):
                s1, s2, s3 = self.slots[3 * ell: 3 * ell + 3]
                if (s1.lower, s1.upper) != (s2.lower, s2.upper):
                    raise StructureError(f"underlying {ell + 1}: option slots must share one index range")
                if not (s3.upper < s1.lower or s3.lower > s1.upper):
                    raise StructureError(f"underlying {ell + 1}: linear slot overlaps the option range")
        if not self.slots:
            raise StructureError("structure needs at least one slot")
        for i, a in enumerate(self.slots):
            for b in self.slots[i + 1:]:
                same = (a.lower, a.upper) == (b.lower, b.upper)
                disjoint = a.upper < b.lower or b.upper < a.lower
                if not (same or disjoint):
                    raise StructureError("slot index ranges must be identical or disjoint")
        if any(len(group) > 2 for group in self.range_groups()):
            raise StructureError("at most two slots may share one index range")

    @property
    def m(self) -> int:
        return len(self.slots)

    def range_groups(self) -> list[list[int]]:
        """Slot indices grouped by identical index range."""
        groups: dict[tuple[int, int], list[int]] = {}
        for j, slot in enumerate(self.slots):
            groups.setdefault((slot.lower, slot.upper), []).append(j)
        return list(groups.values())

    def position_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) inclusive bounds for the full 2m position vector."""
        lo = [s.lower for s in self.slots] + [0] * self.m
        hi = [s.upper for s in self.slots] + [len(s.grid) - 1 for s in self.slots]
        return np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64)

    def empty_position(self) -> np.ndarray:
        """Every slot at its lowest index with a zero notional (the empty strategy)."""
        lo = [s.lower for s in self.slots] + [s.grid.index(0) for s in self.slots]
        return np.array(lo, dtype=np.int64)

    def grid_matrix(self) -> np.ndarray:
        """(m, longest grid) notionals; row j holds slot j's grid, zero-padded."""
        grids = np.zeros((self.m, max(len(s.grid) for s in self.slots)), dtype=np.int64)
        for j, slot in enumerate(self.slots):
            grids[j, : len(slot.grid)] = slot.grid
        return grids

    def legs(self, x: Sequence[int], universe_ids: Sequence[str]) -> list[tuple[str, int]]:
        """Position vector -> one (instrument id, notional) leg per slot, zero
        notionals included; raises :class:`StructureError` on a wrong-length or
        out-of-bounds position."""
        m = self.m
        if len(x) != 2 * m:
            raise StructureError(f"position length {len(x)} != 2m = {2 * m}")
        legs = []
        for j, slot in enumerate(self.slots):
            idx, gidx = int(x[j]), int(x[m + j])
            if not slot.lower <= idx <= slot.upper:
                raise StructureError(f"slot {j}: universe index {idx} outside [{slot.lower}, {slot.upper}]")
            if not 0 <= gidx < len(slot.grid):
                raise StructureError(f"slot {j}: grid index {gidx} outside [0, {len(slot.grid) - 1}]")
            legs.append((universe_ids[idx - 1], slot.grid[gidx]))
        return legs


def round_magnitude(x: float) -> int:
    """Round a positive number to its leading digit's scale (75 -> 80, 740 -> 700).

    Values below one would round to a fraction of a notional unit, which no
    integer grid can represent, so they are rejected; callers sizing notional
    ranges clamp to one unit first.
    """
    if x <= 0:
        raise ValueError(f"round_magnitude needs a positive input, got {x}")
    if x < 1.0:
        raise ValueError(f"round_magnitude needs x >= 1 (one notional unit), got {x}")
    scale = 10 ** math.floor(math.log10(x))
    return int(math.ceil(0.5 * math.floor(2.0 * x / scale))) * scale


def notional_grid(halfwidth: int, points: int = 21) -> tuple[int, ...]:
    """Symmetric integer grid on [-halfwidth, halfwidth] with ``points`` values.

    Falls back to the unit-step integer grid when the half-width does not
    split evenly (only possible for half-widths below points//2).
    """
    if points < 3 or points % 2 == 0:
        raise StructureError(f"grid points must be odd and >= 3, got {points}")
    if halfwidth <= 0:
        raise StructureError(f"grid half-width must be positive, got {halfwidth}")
    half = (points - 1) // 2
    if halfwidth >= half and halfwidth % half == 0:
        step = halfwidth // half
        return tuple(range(-halfwidth, halfwidth + step, step))
    return tuple(range(-halfwidth, halfwidth + 1))


def derive_notional_bounds(
    spec: UnderlyingSpec,
    position: int,
    table: FeatureTable,
    base: PortfolioFeatures,
) -> tuple[int, int]:
    """Half-widths sized so the slots can offset the portfolio's Vega and Delta.

    Uses the at-the-money call/put with the longest tenor on this underlying:
    options cover |Vega(P)| / |Vega(atm call)|, the linear slot covers
    |Delta(P)| / max(|Delta(atm call)|, |Delta(atm put)|), both rounded to
    the leading-digit scale.
    """
    tenor = spec.tenor_domain[-1]
    call = table[descriptor_id(UeiDescriptor(position, Kind.CALL, 0.50, tenor))]
    put = table[descriptor_id(UeiDescriptor(position, Kind.PUT, 0.50, tenor))]
    if call.vega == 0.0:
        raise StructureError(f"{spec.ticker}: ATM call Vega is zero; cannot size option notionals")
    denom = max(abs(call.delta), abs(put.delta))
    if denom == 0.0:
        raise StructureError(f"{spec.ticker}: ATM option Deltas are zero; cannot size linear notionals")
    eta_a = abs(base.vega) / abs(call.vega)
    eta_b = abs(base.delta) / denom
    if eta_a <= 0 or eta_b <= 0:
        raise StructureError(f"{spec.ticker}: portfolio sensitivities are zero; set explicit bounds")
    # A book smaller than one unit of the reference option still gets a one-unit slot.
    return round_magnitude(max(eta_a, 1.0)), round_magnitude(max(eta_b, 1.0))


def build_structure(
    specs: Sequence[UnderlyingSpec],
    universe: Sequence[UeiDescriptor],
    grid_points: int = 21,
    table: Optional[FeatureTable] = None,
    base: Optional[PortfolioFeatures] = None,
    derive_bounds: bool = False,
) -> EosStructure:
    """Slot layout over a built universe.

    Notional half-widths come from each spec when declared there, otherwise
    they are derived from the feature table and the initial portfolio via
    :func:`derive_notional_bounds`.  ``derive_bounds=True`` ignores declared
    half-widths entirely so the grids are always sized to the actual book;
    declared bounds only make sense for the dataset they were written for.
    """
    by_underlying: dict[int, dict[str, list[int]]] = {}
    for idx, d in enumerate(universe, start=1):
        groups = by_underlying.setdefault(d.underlying_pos, {"options": [], "linear": []})
        groups["options" if d.kind.is_option else "linear"].append(idx)

    slots: list[SlotSpec] = []
    for position, spec in enumerate(specs, start=1):
        groups = by_underlying.get(position)
        if groups is None or not groups["options"] or not groups["linear"]:
            raise StructureError(f"{spec.ticker}: universe has no instruments for this underlying")
        opt_lo, opt_hi = min(groups["options"]), max(groups["options"])
        lin_lo, lin_hi = min(groups["linear"]), max(groups["linear"])
        if opt_hi - opt_lo + 1 != len(groups["options"]) or lin_hi - lin_lo + 1 != len(groups["linear"]):
            raise StructureError(f"{spec.ticker}: universe indices are not contiguous")
        if spec.category is Category.STOCK and lin_lo != lin_hi:
            raise StructureError(f"{spec.ticker}: expected a single stock index")

        opt_bound, lin_bound = spec.option_notional_bound, spec.linear_notional_bound
        if derive_bounds:
            opt_bound = lin_bound = None
        if opt_bound is None or lin_bound is None:
            if table is None or base is None:
                raise StructureError(
                    f"{spec.ticker}: no declared notional bounds and no features/base to derive them"
                )
            derived_opt, derived_lin = derive_notional_bounds(spec, position, table, base)
            opt_bound = opt_bound if opt_bound is not None else derived_opt
            lin_bound = lin_bound if lin_bound is not None else derived_lin

        option_slot = SlotSpec(opt_lo, opt_hi, notional_grid(opt_bound, grid_points))
        linear_slot = SlotSpec(lin_lo, lin_hi, notional_grid(lin_bound, grid_points))
        slots.extend((option_slot, option_slot, linear_slot))
    return EosStructure(len(specs), tuple(slots))


def search_space_size(structure: EosStructure) -> int:
    """Positions in the structure's box, as a Python int: table1 overflows int64."""
    lo, hi = structure.position_bounds()
    return math.prod(int(h) - int(l) + 1 for l, h in zip(lo, hi))


def decode(x: Sequence[int], structure: EosStructure, universe_ids: Sequence[str]) -> Portfolio:
    """Position vector -> strategy portfolio (duplicates merged, zero legs dropped)."""
    return Portfolio(tuple(structure.legs(x, universe_ids))).merged()


def merge_picks(i_a, n_a, i_b, n_b) -> tuple[np.ndarray, np.ndarray]:
    """Notionals of two slots that share an index range, duplicate picks
    merged as :func:`decode` merges them: where ``i_a == i_b`` the first slot
    carries ``n_a + n_b`` (exact: grid notionals are integers) and the second
    0.  The arguments broadcast."""
    same = np.equal(i_a, i_b)
    return np.where(same, n_a + n_b, n_a), np.where(same, 0.0, n_b)


# ---------------------------------------------------------------------------
# Constraints and fitness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConstraintSpec:
    """Sensitivity limits relative to the initial portfolio, plus penalty weights."""

    tau_delta: float
    tau_vega: float
    tau_gamma: float
    base_delta: float
    base_vega: float
    base_gamma: float
    penalty_delta: float = 10.0
    penalty_vega: float = 10.0
    penalty_gamma: float = 10.0

    def __post_init__(self) -> None:
        for name in ("tau_delta", "tau_vega", "tau_gamma", "penalty_delta", "penalty_vega", "penalty_gamma"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    @property
    def limits(self) -> tuple[float, float, float]:
        return (
            self.tau_delta * abs(self.base_delta),
            self.tau_vega * abs(self.base_vega),
            self.tau_gamma * abs(self.base_gamma),
        )

    @property
    def penalties(self) -> tuple[float, float, float]:
        return (self.penalty_delta, self.penalty_vega, self.penalty_gamma)


def riskfree_pnl(portfolio_value: float, rate: float, day_count: int) -> float:
    """One-day profit from parking the portfolio value at the risk-free rate."""
    if day_count not in (252, 360, 365):
        raise ValueError(f"day count must be one of 252/360/365, got {day_count}")
    return portfolio_value * rate / day_count


def check_epsilon(epsilon: float) -> None:
    """The degenerate-denominator margin must be finite and non-negative: a NaN
    would make every ``denominator >= -epsilon`` test false and switch the
    guard off."""
    if not math.isfinite(epsilon) or epsilon < 0:
        raise ValueError(f"epsilon must be finite and non-negative, got {epsilon}")


@dataclass(frozen=True)
class EvalBreakdown:
    fitness: float
    objective: float
    mean_pnl: float
    var: float
    cost: float
    psi: tuple[float, float, float]

    @property
    def feasible(self) -> bool:
        return all(p == 0.0 for p in self.psi)


@dataclass(frozen=True)
class ProblemInstance:
    """Everything a fitness evaluation needs, immutable for the whole run.

    ``evaluator`` is built once, at construction, and is the only fitness
    implementation; ``dataclasses.replace`` builds a fresh one.
    """

    universe_ids: tuple[str, ...]
    structure: EosStructure
    table: FeatureTable
    init: PortfolioFeatures
    pnl_rf: float
    var_cfg: VarConfig
    constraints: ConstraintSpec
    epsilon: float = 1e-9
    evaluator: BatchEvaluator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        check_epsilon(self.epsilon)
        if self.init.pnl.shape != (self.var_cfg.count,):
            raise ValueError("initial portfolio P&L length does not match the scenario count")
        if max(slot.upper for slot in self.structure.slots) > len(self.universe_ids):
            raise ValueError("structure indices exceed the universe size")
        object.__setattr__(self, "evaluator", BatchEvaluator(self))

    def decode(self, x: Sequence[int]) -> Portfolio:
        return decode(x, self.structure, self.universe_ids)

    def evaluate(self, x: Sequence[int]) -> EvalBreakdown:
        """One position's breakdown, evaluated as a batch of one.

        Raises :class:`StructureError` on a wrong-length or out-of-bounds
        position, as :meth:`BatchEvaluator.evaluate` does.
        """
        row = self.evaluator.evaluate(np.asarray(x, dtype=np.int64)[None, :])
        return EvalBreakdown(
            float(row["fitness"][0]), float(row["objective"][0]), float(row["mean"][0]),
            float(row["var"][0]), float(row["cost"][0]), tuple(float(v) for v in row["psi"][0]),
        )

    def empty_position(self) -> np.ndarray:
        """A position with every notional grid index at zero (the empty strategy)."""
        return self.structure.empty_position()


#: Scenarios in :meth:`BatchEvaluator.subset_floor`'s VaR bound: the initial
#: book's lowest, and never fewer than the VaR rank.
BOUND_SCENARIOS = 16


class BatchEvaluator:
    """Vectorized fitness evaluation over many positions at once.

    Per row: objective = (mean P&L - pnl_rf - cost) / (beta-VaR - cost),
    infinite when the denominator is not below ``-epsilon``; each violation
    is (|sensitivity| - limit)_+ / limit (infinite for a zero limit with a
    nonzero sensitivity); fitness = objective + sum of weighted violations.

    The linear features come from one sparse product.  ``features`` stacks,
    for each of the U universe instruments, its S scenario P&Ls followed by
    its Delta, Vega and Gamma, and adds row U: the initial book's P&L
    followed by three zeros.  A batch of p positions becomes a (p, U + 1)
    CSR matrix built straight from ``(data, indices, indptr)``: row r holds
    the initial book (index U, coefficient 1) and then one entry per slot,
    in slot order, with the slot's notional as coefficient.  The notionals
    are merged (:func:`merge_picks`): where the two slots of a shared range
    pick one instrument, the first entry carries both notionals and the
    second 0, so the row scores the strategy :func:`decode` returns.  The
    matrix is never canonicalized, so ``csr @ features`` accumulates every
    row as ``((0 + init) + n_1 f_1) + ... + n_m f_m``, slot by slot, exactly
    like a per-slot loop.  That makes each row's numbers independent of the
    batch it arrived in, so a caller may split or subset a batch and get the
    same bytes.  A dense product (one-hot matrix times ``features``) is not
    used: BLAS gives no row-wise summation-order guarantee.

    The public calls share private steps: :meth:`_decode` checks a batch and
    decodes it into slot rows, notionals and trading cost; :meth:`_score` is
    the fitness and :meth:`_subset_floor` the swarm's floor of a decoded
    batch.  :meth:`evaluate` and :meth:`subset_floor` each decode and run one
    step, and :meth:`evaluate_pruned` decodes once and runs both, so the
    fitness stays one implementation.
    """

    def __init__(self, problem: ProblemInstance):
        # The problem holds its evaluator, so a strong reference back would
        # make a cycle: every dropped problem would then keep its features
        # until the cyclic garbage collector ran.
        self._problem = weakref.ref(problem)
        self._scenarios, self._init_pnl = problem.var_cfg.count, problem.init.pnl
        self._epsilon, self._pnl_rf = problem.epsilon, problem.pnl_rf
        arrays = problem.table.arrays(problem.universe_ids)
        u, s = arrays["pnl"].shape[0], self._scenarios
        self._features = np.zeros((u + 1, s + 3))
        self._features[:u, :s] = arrays["pnl"]
        self._features[:u, s:] = np.stack([arrays["delta"], arrays["vega"], arrays["gamma"]], axis=1)
        self._features[u, :s] = problem.init.pnl
        # Delta, Vega and Gamma as (3, U + 1) rows, for feasible_slice's per-slot tables.
        self._greeks = np.ascontiguousarray(self._features[:, s:].T)
        self._init_row = u
        self._cost = arrays["cost"]

        structure = problem.structure
        self.m = structure.m
        self._grids = structure.grid_matrix().astype(float)
        # Slot j's grid index g is entry j * width + g of the flat grid matrix.
        self._grid_offsets = np.arange(self.m) * self._grids.shape[1]
        self._lower, self._upper = structure.position_bounds()
        self._rank = var_index(problem.var_cfg)
        self._limits = np.array(problem.constraints.limits)
        # A zero limit divides by one; _violations then maps its column to 0 or inf.
        self._divisors = np.where(self._limits > 0.0, self._limits, 1.0)
        self._zero_limits = np.flatnonzero(self._limits == 0.0)
        self._penalties = np.array(problem.constraints.penalties)
        groups = structure.range_groups()
        # The slot pairs that share a range (merge_picks), and each group's first slot (the cost sum).
        self._pair_a, self._pair_b = np.array([g for g in groups if len(g) == 2], dtype=np.intp).reshape(-1, 2).T
        self._group_heads = [g[0] for g in groups]

    @property
    def problem(self) -> Optional[ProblemInstance]:
        """The problem this evaluator scores, or None once it has been freed:
        the evaluator keeps only a weak reference to it."""
        return self._problem()

    @cached_property
    def _pnl_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The floors' tables, one entry per instrument and a last one for
        the initial book: scenario mean, min, max and largest magnitude.
        Built on first use, so that a problem that is never bounded does not
        pay for them."""
        pnl = self._features[:, :-3]
        low, high = pnl.min(axis=1), pnl.max(axis=1)
        return pnl.mean(axis=1), low, high, np.maximum(np.abs(low), np.abs(high))

    @cached_property
    def _bound_scenarios(self) -> np.ndarray:
        """subset_floor's scenarios K, in index order: the ``BOUND_SCENARIOS``
        in which the initial book's P&L is lowest, and at least the VaR rank
        of them."""
        k = min(self._scenarios, max(BOUND_SCENARIOS, self._rank))
        return np.sort(np.argsort(self._init_pnl, kind="stable")[:k])

    @cached_property
    def _floor_features(self) -> np.ndarray:
        """subset_floor's first narrow ``features``, for every row: per
        instrument and for the initial book, the scenario mean, then Delta,
        Vega and Gamma.  Built on first use, like :attr:`_pnl_tables`."""
        return np.column_stack([self._pnl_tables[0], self._features[:, self._scenarios:]])

    @cached_property
    def _var_features(self) -> np.ndarray:
        """subset_floor's second narrow ``features``, for the rows whose VaR
        bound is read: per instrument and for the initial book, the P&L in
        the scenarios K.  Built on first use, in row order: picking columns
        gives a column-ordered copy, and the CSR product reads rows."""
        return np.ascontiguousarray(self._features[:, self._bound_scenarios])

    def _check(self, positions: np.ndarray, prefix: bool = False) -> None:
        """Reject a batch that is not (p, 2m) integers within the structure's
        bounds; with ``prefix``, (p, k) leading entries for any k <= 2m.

        The sparse product and the per-slot tables read ``features`` rows by
        these indices without bounds checks, so nothing out of bounds may reach them.
        """
        width = positions.shape[-1] if prefix and positions.ndim == 2 else 2 * self.m
        if positions.ndim != 2 or positions.shape[1] != width or width > 2 * self.m:
            expected = f"(p, k <= {2 * self.m})" if prefix else f"(p, {2 * self.m})"
            raise StructureError(f"positions must have shape {expected}, got {positions.shape}")
        if not np.issubdtype(positions.dtype, np.integer):
            raise StructureError(f"positions must be integers, got dtype {positions.dtype}")
        outside = (positions < self._lower[:width]) | (positions > self._upper[:width])
        if outside.any():
            r, c = np.argwhere(outside)[0]
            raise StructureError(f"row {r}, entry {c}: {positions[r, c]} outside "
                                 f"[{self._lower[c]}, {self._upper[c]}]")

    def _violations(self, sens: np.ndarray) -> np.ndarray:
        """(|sensitivity| - limit)_+ / limit per column; a zero limit gives 0 for
        a zero sensitivity and inf otherwise."""
        psi = np.abs(sens)
        psi -= self._limits
        np.maximum(psi, 0.0, out=psi)
        psi /= self._divisors
        for k in self._zero_limits:
            psi[:, k] = np.where(psi[:, k] > 0.0, np.inf, 0.0)
        return psi

    def feasible_slice(self, prefixes: np.ndarray, work: Optional[np.ndarray] = None) -> np.ndarray:
        """Feasible mask of every position that starts with a row of ``prefixes``.

        ``prefixes`` is a (q, k) int matrix of leading position entries,
        0 <= k <= 2m; the other 2m - k entries run over their whole ranges.
        The mask comes in enumeration order: prefix rows in turn, last entry
        fastest.

        Nothing is decoded and no CSR is built.  Slot j enters a Greek sum
        only through its two entries and, through :func:`merge_picks`, those
        of the slot that shares its range, so its terms form a small table
        ``merged notional x (Delta, Vega, Gamma)`` over those entries.  The
        tables are added to zeros by broadcasting, in slot order: the same
        multiplies and adds, in the same order, as :meth:`evaluate`'s CSR row
        ``((0 + 1 * 0) + n_1 g_1) + ...`` (the initial book's row carries no
        Greeks).  The last slot's add, the only one over every position, runs
        one Greek at a time, and :func:`within_limit` tests that Greek's sums
        against its limit with the violation formula's feasible rule.  So the
        mask is bit-identical to ``evaluate``'s ``"feasible"`` over the same
        positions.  Raises :class:`StructureError` on a malformed or
        out-of-bounds prefix.

        Both operands of the last add are first expanded over the trailing
        grid entries, which then form one contiguous axis: the add's inner
        loop runs over that whole block instead of one grid's length (reduced
        instance: 729 elements, not 9).

        The sums, 1 float per position, are computed in ``work`` when it is a
        float array large enough, and in a new array otherwise.  A caller
        screening slice after slice passes one: an array that large can be
        mapped afresh from the system on every allocation, and touching its
        new pages costs more than the sums (reduced instance, 2 vCPUs: 7,000
        page faults and 10 ms of a 25 ms screen).
        """
        prefixes = np.asarray(prefixes)
        self._check(prefixes, prefix=True)
        q, k = prefixes.shape
        ndim = 1 + 2 * self.m - k

        def entry(d: int) -> np.ndarray:
            """Entry d's values, along the prefix axis or along its own trailing axis."""
            if d < k:
                values, axis = prefixes[:, d], 0
            else:
                values, axis = np.arange(self._lower[d], self._upper[d] + 1), 1 + d - k
            return values.reshape([-1 if a == axis else 1 for a in range(ndim)])

        # Greek axis first, then the prefix axis; axes from `block` on are the
        # trailing grid entries.
        block = 2 + max(k, self.m) - k
        shape = (3, q) + tuple(self._upper[k:] - self._lower[k:] + 1)
        grid = shape[block:]
        width = math.prod(grid)

        def expand(a: np.ndarray) -> np.ndarray:
            """``a`` made full over the trailing grid entries, as one axis."""
            return np.broadcast_to(a, a.shape[:block] + grid).copy().reshape(a.shape[:block] + (width,))

        # Each slot's notionals, duplicate picks merged as _slots merges them.
        notional = [self._grids[j, entry(self.m + j)] for j in range(self.m)]
        for a, b in zip(self._pair_a, self._pair_b):
            notional[a], notional[b] = merge_picks(entry(a), notional[a], entry(b), notional[b])

        def term(j: int) -> np.ndarray:
            """Slot j's terms ``n_j g_j``, Greek axis first."""
            return notional[j] * self._greeks[:, entry(j) - 1]

        # The zeros carry the prefix axis even when no entry lies on it (k = 0).
        sums = np.zeros((3, q) + (1,) * (ndim - 1))
        for j in range(self.m - 1):
            sums = sums + term(j)
        sums, last = expand(sums), expand(term(self.m - 1))
        size = math.prod(shape[1:])
        out = (work if work is not None and work.size >= size else np.empty(size))[:size]
        mask = np.ones(size, dtype=bool)
        for g in range(3):
            np.add(sums[g], last[g], out=out.reshape(shape[1:block] + (width,)))
            mask &= within_limit(out, self._limits[g])
        return mask

    def _slots(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """A checked (p, 2m) batch -> (p, m) 0-based instrument rows and
        notionals, duplicate picks merged (:func:`merge_picks`)."""
        idx = positions[:, :self.m] - 1
        notion = self._grids.take(positions[:, self.m:] + self._grid_offsets)
        a, b = self._pair_a, self._pair_b
        notion[:, a], notion[:, b] = merge_picks(idx[:, a], notion[:, a], idx[:, b], notion[:, b])
        return idx, notion

    def _weights(self, idx: np.ndarray, notion: np.ndarray) -> sparse.csr_array:
        """The batch's (p, U + 1) CSR weights: the initial book, then one entry
        per slot in slot order (class docstring)."""
        p, m = idx.shape
        indices = np.empty((p, m + 1), dtype=np.int64)
        indices[:, 0] = self._init_row
        indices[:, 1:] = idx
        data = np.empty((p, m + 1))
        data[:, 0] = 1.0
        data[:, 1:] = notion
        indptr = np.arange(0, p * (m + 1) + 1, m + 1)
        return sparse.csr_array((data.ravel(), indices.ravel(), indptr), shape=(p, self._init_row + 1))

    def _trading_cost(self, idx: np.ndarray, notion: np.ndarray) -> np.ndarray:
        """Per-row trading cost of merged notionals (:meth:`_slots`), the one
        cost rule of :meth:`evaluate` and of both floors: each slot's unit
        cost times its absolute notional, summed within each range group and
        then over the groups, in group order.

        Cost is the one non-linear feature, so it is taken only after the
        merge: a merged pair's second slot carries 0 and adds nothing.
        """
        terms = self._cost[idx] * np.abs(notion)
        terms[:, self._pair_a] += terms[:, self._pair_b]
        cost = np.zeros(idx.shape[0])
        for j in self._group_heads:
            cost += terms[:, j]
        return cost

    def _penalty(self, psi: np.ndarray) -> np.ndarray:
        """Per-row sum of the weighted violations, in constraint order."""
        penalty = np.zeros(psi.shape[0])
        for k in range(3):
            lam = self._penalties[k]
            if lam > 0.0:
                penalty += np.where(psi[:, k] > 0.0, lam * psi[:, k], 0.0)
        return penalty

    def _rank_statistic(self, pnl: np.ndarray) -> np.ndarray:
        """Each row's VaR-rank-th smallest entry: its beta-VaR when ``pnl``
        holds every scenario."""
        if self._rank == 1:
            return pnl.min(axis=1)
        return np.partition(pnl, self._rank - 1, axis=1)[:, self._rank - 1]

    def _slack(self, size: np.ndarray) -> np.ndarray:
        """The rounding slack of both floors' linear sums: ``2(m + S + 8)``
        machine epsilons of ``size = max|init| + sum_j |n_j| max|f_j|``.  The
        merged notionals ``n_j`` (:meth:`_slots`) are exact and are the row's
        coefficients, so ``size`` bounds every P&L entry and partial sum.

        A P&L entry carries at most 2(m + 1) roundings, its mean S + 1 more, a
        table mean S + 1 and a floor's linear sum 2m + 2, each at most half an
        epsilon of that magnitude: far fewer than 2(m + S + 8) epsilons.
        """
        return 2.0 * (self.m + self._scenarios + 8) * np.finfo(float).eps * size

    def _objective_floor(self, a_lo: np.ndarray, u_hi, u_lo) -> np.ndarray:
        """A lower bound on the objective from ``A >= a_lo`` and ``u_lo <= U
        <= u_hi``.

        With ``A = pnl_rf + cost - mean`` and ``U = cost - VaR``, which are
        :meth:`evaluate`'s numerator and denominator negated (exact), a
        non-degenerate row has ``U > epsilon >= 0`` and objective ``A / U``; a
        degenerate row's objective is +inf.  Both floors take ``a_lo =
        (pnl_rf - mean_hi) + cost`` (:meth:`_numerator_floor`) from an upper
        bound ``mean_hi`` on the mean.  The floor is ``a_lo / u_hi`` where
        ``a_lo >= 0`` and ``u_hi > 0``; ``a_lo / u_lo`` where ``a_lo < 0`` and
        ``u_lo > epsilon`` (the row is then not degenerate, and a larger ``A``
        or ``U`` only raises ``A / U``); and -inf elsewhere.  Rounding is
        monotone, so the floor is at most the rounded objective.  A caller
        with no bound on one side passes ``u_hi = inf`` (the first floor is
        then 0) or ``u_lo = -inf``.
        """
        floor = np.full(a_lo.shape, -np.inf)
        np.divide(a_lo, u_hi, out=floor, where=(a_lo >= 0.0) & (u_hi > 0.0))
        np.divide(a_lo, u_lo, out=floor, where=(a_lo < 0.0) & (u_lo > self._epsilon))
        return floor

    def _numerator_floor(self, mean_hi: np.ndarray, cost: np.ndarray) -> np.ndarray:
        """``a_lo = (pnl_rf - mean_hi) + cost``, at most the negated numerator
        ``A`` when ``mean_hi`` is at least the mean."""
        return (self._pnl_rf - mean_hi) + cost

    def _decode(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Check a (p, 2m) batch and decode it once for the floors and the
        fitness: (p, m) instrument rows and notionals (:meth:`_slots`), and
        each row's trading cost."""
        positions = np.asarray(positions)
        self._check(positions)
        idx, notion = self._slots(positions)
        return idx, notion, self._trading_cost(idx, notion)

    def fitness_floor(self, positions: np.ndarray) -> np.ndarray:
        """A lower bound on :meth:`evaluate`'s ``"fitness"`` for every row of
        a (p, 2m) int position matrix, with no P&L row built.

        From per-instrument tables of the scenario P&L, in a loop over the
        slots with their merged notionals ``n_j`` (:meth:`_slots`):

        - mean: the linear sum ``mean(init) + sum_j n_j mean(f_j)``, plus
          :meth:`_slack` on ``max|init| + sum_j |n_j| max|f_j|``;
        - VaR: every order statistic is at least the row minimum, which is at
          least ``min(init) + sum_j min_s(n_j f_j[s])`` less the same slack,
          so ``U_hi = cost - var_lo`` bounds ``U`` from above;
        - cost: exact, from the cost rule ``evaluate`` uses.

        The floor is :meth:`_objective_floor` with ``U_hi`` and no lower bound
        on ``U``; the penalties are >= 0, so it is at most the fitness too.
        The oracle bounds only feasible rows, which carry no penalty.  It is
        only a bound: ``evaluate`` stays the one fitness implementation.
        Raises :class:`StructureError` as ``evaluate`` does.
        """
        idx, notion, cost = self._decode(positions)
        p = idx.shape[0]
        pnl_mean, pnl_min, pnl_max, pnl_abs = self._pnl_tables
        # Slot by slot: a sum over the short slot axis costs several times more.
        mean, low, size = (np.full(p, table[-1]) for table in (pnl_mean, pnl_min, pnl_abs))
        for j in range(self.m):
            i, n = idx[:, j], notion[:, j]
            mean += n * pnl_mean[i]
            low += np.minimum(n * pnl_min[i], n * pnl_max[i])
            size += np.abs(n) * pnl_abs[i]
        slack = self._slack(size)
        return self._objective_floor(self._numerator_floor(mean + slack, cost), cost - (low - slack), -np.inf)

    def _subset_floor(self, idx: np.ndarray, notion: np.ndarray, cost: np.ndarray) -> np.ndarray:
        """:meth:`subset_floor` of a decoded batch."""
        linear = self._weights(idx, notion) @ self._floor_features
        pnl_abs = self._pnl_tables[3]
        size = pnl_abs[-1] + (np.abs(notion) * pnl_abs[idx]).sum(axis=1)
        a_lo = self._numerator_floor(linear[:, 0] + self._slack(size), cost)
        # Only the objective floor's A_lo < 0 branch reads U_lo.
        rows = np.flatnonzero(a_lo < 0.0)
        u_lo = np.full(a_lo.shape, -np.inf)
        if rows.size:
            scenarios = self._weights(idx[rows], notion[rows]) @ self._var_features
            u_lo[rows] = cost[rows] - self._rank_statistic(scenarios)
        floor = self._objective_floor(a_lo, np.inf, u_lo)
        with np.errstate(invalid="ignore"):
            return floor + self._penalty(self._violations(linear[:, 1:]))

    def subset_floor(self, positions: np.ndarray) -> np.ndarray:
        """A lower bound on :meth:`evaluate`'s ``"fitness"`` for every row of
        a (p, 2m) int position matrix, from two narrow products of the
        batch's CSR weights: every row times :attr:`_floor_features` (the
        scenario mean and the three Greeks), and only the rows whose
        numerator floor ``A_lo`` is negative times :attr:`_var_features` (the
        P&L in the scenarios K).  Every other row's objective floor is 0 or
        -inf without a VaR bound.

        Product columns are independent, so each comes out bit-identical to
        the same column of ``evaluate``'s full product.  Hence:

        - the Greeks, the violations and the penalty are exact;
        - VaR: the r-th smallest P&L over K is at least the r-th smallest over
          all S scenarios, so ``U_lo = cost - var_hi`` bounds ``U`` from
          below with no slack;
        - mean: the linear sum of the scenario means, with
          :meth:`_slack` on ``max|init| + sum_j |n_j| max|f_j|``;
        - cost: exact, from the cost rule ``evaluate`` uses.

        The floor is :meth:`_objective_floor` with ``U_lo`` and no upper bound
        on ``U``, plus the exact penalty; rounding is monotone, so it is at
        most the fitness.  A row whose penalty is infinite and whose
        objective floor is -inf gets NaN, which bounds nothing.  Raises
        :class:`StructureError` as ``evaluate`` does.
        """
        return self._subset_floor(*self._decode(positions))

    def _score(self, idx: np.ndarray, notion: np.ndarray, cost: np.ndarray) -> dict[str, np.ndarray]:
        """:meth:`evaluate` of a decoded batch."""
        linear = self._weights(idx, notion) @ self._features
        total_pnl, sens = linear[:, :-3], linear[:, -3:]

        mean = total_pnl.mean(axis=1)
        var = self._rank_statistic(total_pnl)

        denominator = var - cost
        degenerate = denominator >= -self._epsilon
        with np.errstate(divide="ignore", invalid="ignore"):
            f = np.where(degenerate, np.inf, (mean - self._pnl_rf - cost) / denominator)

        psi = self._violations(sens)
        fitness = f + self._penalty(psi)
        return {
            "fitness": fitness,
            "objective": f,
            "mean": mean,
            "var": var,
            "cost": cost,
            "psi": psi,
            "feasible": feasible_rows(psi),
            "pnl": total_pnl,
        }

    def evaluate(self, positions: np.ndarray) -> dict[str, np.ndarray]:
        """Evaluate a (p, 2m) int position matrix; returns per-row arrays and,
        under ``"pnl"``, the (p, scenarios) total P&L that mean and VaR come from.

        Raises :class:`StructureError` on a wrong shape or an out-of-bounds
        entry in any row.
        """
        return self._score(*self._decode(positions))

    def evaluate_pruned(self, positions: np.ndarray, best: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Fitness and feasible mask of the rows of a (p, 2m) int position
        matrix that may beat ``best``, a per-row bound: (fitness, feasible,
        rows scored).

        The batch is checked and decoded once.  Every row is bounded by
        :meth:`subset_floor`, and only the rows whose floor is not at least
        their ``best`` (a NaN floor included) are scored, by the steps of
        :meth:`evaluate`, so their fitness and feasibility are its bytes.
        The others cannot reach ``fitness < best``, and read fitness +inf and
        infeasible.  Raises :class:`StructureError` as ``evaluate`` does.
        """
        idx, notion, cost = self._decode(positions)
        rows = np.flatnonzero(~(self._subset_floor(idx, notion, cost) >= best))
        res = self._score(idx[rows], notion[rows], cost[rows])
        fitness, feasible = np.full(idx.shape[0], np.inf), np.zeros(idx.shape[0], dtype=bool)
        fitness[rows], feasible[rows] = res["fitness"], res["feasible"]
        return fitness, feasible, rows.size


def within_limit(sums: np.ndarray, limit: float) -> np.ndarray:
    """One Greek's feasible rule, straight from its sums: ``|s| <= limit`` for
    a positive limit and ``not |s| > 0`` for a zero one.  On every sum, NaN
    included, this is ``BatchEvaluator._violations``' column being 0.  An
    infinite limit, from an overflowing ``tau * |base|``, counts as the
    largest float: under it ``|s| - limit`` is NaN for an infinite sum."""
    size = np.abs(sums)
    if limit == 0.0:
        return ~(size > 0.0)
    return size <= np.minimum(limit, np.finfo(float).max)


def feasible_rows(psi: np.ndarray) -> np.ndarray:
    """A row is feasible when all three of its violations are zero.

    Compared column by column: a reduction over the short row axis costs
    several times more on large batches.
    """
    return (psi[:, 0] == 0.0) & (psi[:, 1] == 0.0) & (psi[:, 2] == 0.0)
