"""Independent scalar reference for the fitness that ``BatchEvaluator`` computes.

It decodes one position into a merged strategy portfolio, aggregates its
features leg by leg and applies the objective, the normalized violations and
the penalty term one scalar at a time.  Tests compare the production batch
path against it, so it shares no arithmetic with ``ratpo.problem``.
"""

from __future__ import annotations

import math
from typing import Sequence

from ratpo.features import PortfolioFeatures, aggregate
from ratpo.problem import ConstraintSpec, EvalBreakdown, ProblemInstance
from ratpo.risk import VarConfig, beta_var, sample_pnl


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
