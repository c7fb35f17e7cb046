"""References for the fitness that ``BatchEvaluator`` computes.

:func:`evaluate` is an independent scalar reference: it decodes one position
into a merged strategy portfolio, aggregates its features leg by leg and
applies the objective, the normalized violations and the penalty term one
scalar at a time, so it shares no arithmetic with ``ratpo.problem``.

:func:`slot_loop_evaluate` is the batch evaluator as it was before the sparse
product: the P&L and the Greeks accumulate in a Python loop over slots.  Its
summation order is the one the sparse product must keep, so tests compare
the two byte for byte.

:func:`full_scan_enumerate` is the exhaustive oracle as it was before the
feasibility-first scan: every block runs the full fitness on every position,
and a space whose best feasible fitness is infinite reports ``"no_feasible"``
with the least-violation position of the blocks that had no feasible row.

:func:`slice_positions` lists the positions of a slice of the box the way
``BatchEvaluator.feasible_slice`` orders its mask, from a Cartesian product
rather than the oracle's digit decoding.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ratpo import oracle
from ratpo.features import PortfolioFeatures, aggregate
from ratpo.problem import ConstraintSpec, EvalBreakdown, ProblemInstance
from ratpo.risk import VarConfig, beta_var, sample_pnl, var_index


class DegenerateDenominator(ArithmeticError):
    """Raised when beta-VaR minus cost is not safely negative."""


def violations(eos: PortfolioFeatures, spec: ConstraintSpec) -> tuple[float, float, float]:
    """Normalized positive parts of the three sensitivity constraint excesses.

    Each violation is (|sensitivity| - limit)_+ / limit, dimensionless; a
    zero limit with a nonzero sensitivity yields an infinite violation.
    """
    out = []
    for sens, limit in zip((eos.delta, eos.vega, eos.gamma), spec.limits):
        if limit > 0.0:
            out.append(max(abs(sens) - limit, 0.0) / limit)
        else:
            out.append(0.0 if sens == 0.0 else math.inf)
    return tuple(out)


def objective(
    total: PortfolioFeatures,
    pnl_rf: float,
    cost_eos: float,
    var_cfg: VarConfig,
    epsilon: float = 1e-9,
) -> float:
    """Cost-adjusted mean-P&L over beta-VaR ratio of the total portfolio; lower is better."""
    mean = sample_pnl(total.pnl)
    var = beta_var(total.pnl, var_cfg)
    denominator = var - cost_eos
    if denominator >= -epsilon:
        raise DegenerateDenominator(f"beta-VaR - cost = {denominator} is not safely negative")
    return (mean - pnl_rf - cost_eos) / denominator


def penalty_term(psi: Sequence[float], penalties: Sequence[float]) -> float:
    total = 0.0
    for p, lam in zip(psi, penalties):
        if lam > 0.0 and p > 0.0:
            total += lam * p
    return total


def evaluate(problem: ProblemInstance, x: Sequence[int]) -> EvalBreakdown:
    """Scalar breakdown of one position."""
    eos = aggregate(problem.table, problem.decode(x))
    total = problem.init + eos
    psi = violations(eos, problem.constraints)
    mean = sample_pnl(total.pnl)
    var = beta_var(total.pnl, problem.var_cfg)
    try:
        f = objective(total, problem.pnl_rf, eos.cost, problem.var_cfg, problem.epsilon)
    except DegenerateDenominator:
        return EvalBreakdown(math.inf, math.inf, mean, var, eos.cost, psi)
    fitness = f + penalty_term(psi, problem.constraints.penalties)
    return EvalBreakdown(fitness, f, mean, var, eos.cost, psi)


def slot_loop_evaluate(problem: ProblemInstance, positions: np.ndarray) -> dict[str, np.ndarray]:
    """The batch fitness with the per-slot P&L and Greek loop; same keys as
    ``BatchEvaluator.evaluate``, plus the (p, 3) Greek sums under ``"sens"``.
    Positions must be in bounds."""
    arrays = problem.table.arrays(problem.universe_ids)
    pnl_table = np.ascontiguousarray(arrays["pnl"])
    delta_table, vega_table, gamma_table = arrays["delta"], arrays["vega"], arrays["gamma"]
    cost_table = arrays["cost"]
    structure = problem.structure
    m = structure.m
    grids = structure.grid_matrix().astype(float)
    rank = var_index(problem.var_cfg)
    limits = np.array(problem.constraints.limits)[None, :]
    penalties = np.array(problem.constraints.penalties)

    positions = np.asarray(positions)
    p = positions.shape[0]
    idx = positions[:, :m] - 1
    notion = grids[np.arange(m), positions[:, m:]]

    total_pnl = np.repeat(problem.init.pnl[None, :], p, axis=0)
    buf = np.empty_like(total_pnl)
    delta = np.zeros(p)
    vega = np.zeros(p)
    gamma = np.zeros(p)
    for j in range(m):
        rows = idx[:, j]
        np.take(pnl_table, rows, axis=0, out=buf)
        buf *= notion[:, j, None]
        total_pnl += buf
        delta += notion[:, j] * delta_table[rows]
        vega += notion[:, j] * vega_table[rows]
        gamma += notion[:, j] * gamma_table[rows]

    cost = np.zeros(p)
    for group in structure.range_groups():
        if len(group) == 1:
            j = group[0]
            cost += cost_table[idx[:, j]] * np.abs(notion[:, j])
        else:
            j1, j2 = group
            i1, i2 = idx[:, j1], idx[:, j2]
            n1, n2 = notion[:, j1], notion[:, j2]
            merged = cost_table[i1] * np.abs(n1 + n2)
            split = cost_table[i1] * np.abs(n1) + cost_table[i2] * np.abs(n2)
            cost += np.where(i1 == i2, merged, split)

    mean = total_pnl.mean(axis=1)
    if rank == 1:
        var = total_pnl.min(axis=1)
    else:
        var = np.partition(total_pnl, rank - 1, axis=1)[:, rank - 1]

    denominator = var - cost
    degenerate = denominator >= -problem.epsilon
    with np.errstate(divide="ignore", invalid="ignore"):
        f = np.where(degenerate, np.inf, (mean - problem.pnl_rf - cost) / denominator)

    sens = np.stack([delta, vega, gamma], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        psi = np.where(
            limits > 0.0,
            np.maximum(np.abs(sens) - limits, 0.0) / limits,
            np.where(np.abs(sens) > 0.0, np.inf, 0.0),
        )
    penalty = np.zeros(p)
    for k in range(3):
        lam = penalties[k]
        if lam > 0.0:
            penalty += np.where(psi[:, k] > 0.0, lam * psi[:, k], 0.0)
    fitness = f + penalty
    return {
        "fitness": fitness,
        "objective": f,
        "mean": mean,
        "var": var,
        "cost": cost,
        "psi": psi,
        "sens": sens,
        "feasible": np.all(psi == 0.0, axis=1),
        "pnl": total_pnl,
    }


def full_scan_enumerate(problem: ProblemInstance, tau_eq: float = 1e-12,
                        block_size: int = 65_536) -> oracle.OracleResult:
    """Sequential full-scan oracle; truncates at ``oracle.MAX_OPTIMAL_SET`` as read at call time."""
    en = oracle.Enumerator(problem)
    best_fit = np.inf
    candidates: list[tuple[float, np.ndarray]] = []
    best_violation = np.inf
    best_violation_pos = None
    truncated = False
    for start in range(0, en.total, block_size):
        positions = en.positions_for(start, min(start + block_size, en.total))
        res = problem.evaluator.evaluate(positions)
        feasible = res["feasible"]
        block_best, block_candidates = np.inf, []
        if feasible.any():
            fit = np.where(feasible, res["fitness"], np.inf)
            block_best = float(fit.min())
            near = np.flatnonzero(fit <= block_best + tau_eq)
            block_candidates = [(float(fit[i]), positions[i].copy()) for i in near]
        else:
            total_psi = res["psi"].sum(axis=1)
            i = int(np.argmin(total_psi))
            if total_psi[i] < best_violation:
                best_violation, best_violation_pos = float(total_psi[i]), positions[i].copy()

        if block_best < best_fit - tau_eq:
            best_fit = block_best
            candidates = [c for c in candidates if c[0] <= best_fit + tau_eq]
        elif block_best < best_fit:
            best_fit = block_best
        candidates.extend(c for c in block_candidates if c[0] <= best_fit + tau_eq)
        if len(candidates) > oracle.MAX_OPTIMAL_SET:
            candidates = candidates[:oracle.MAX_OPTIMAL_SET]
            truncated = True

    if not np.isfinite(best_fit):
        positions = [best_violation_pos] if best_violation_pos is not None else []
        return oracle.OracleResult(np.inf, positions, en.total, 0.0, "no_feasible", truncated)
    kept = [pos for fit, pos in candidates if fit <= best_fit + tau_eq]
    return oracle.OracleResult(float(best_fit), kept, en.total, 0.0, "optimal", truncated)


def slice_positions(problem: ProblemInstance, prefixes: np.ndarray) -> np.ndarray:
    """Every position that starts with a row of ``prefixes``: prefix rows in
    turn, the remaining entries over their whole ranges, last entry fastest."""
    lo, hi = problem.structure.position_bounds()
    k = prefixes.shape[1]
    if k == lo.size:
        return prefixes
    axes = np.meshgrid(*(np.arange(a, b + 1) for a, b in zip(lo[k:], hi[k:])), indexing="ij")
    trailing = np.stack([a.ravel() for a in axes], axis=1)
    return np.concatenate([np.repeat(prefixes, len(trailing), axis=0),
                           np.tile(trailing, (len(prefixes), 1))], axis=1)
