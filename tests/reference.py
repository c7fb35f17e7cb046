"""References for the features that ``FeatureLab`` builds and the fitness
that ``BatchEvaluator`` computes.

:func:`instrument_features` is the feature build as it was before pricing
ran in batches: one pricer call per instrument, over its four bump states
and then its scenarios.  Tests compare ``FeatureLab.build_table`` with it
byte for byte.  It resolves an id through :func:`resolve`, which reads the
parsed id itself and shares only ``FeatureLab._vol_for`` with the build.

:func:`evaluate` is an independent scalar reference: it decodes one position
into a merged strategy portfolio, aggregates its features leg by leg and
applies the objective, the normalized violations and the penalty term one
scalar at a time, so it shares no arithmetic with ``ratpo.problem``.

:func:`slot_loop_evaluate` is the batch evaluator as it was before the sparse
product: the P&L and the Greeks accumulate in a Python loop over slots, after
a loop over the shared-range slot pairs merges duplicate picks.  Its
summation order is the one the sparse product must keep, so tests compare
the two byte for byte.

:func:`full_scan_enumerate` is the exhaustive oracle without the Greek
screen or the fitness floor: every block runs the full fitness on every
position, and the optimal set is read off the feasible ones.

:func:`full_scoring_swarm` is the swarm as it was before its steps were
bounded and pruned: every step scores every particle in full, in one batch,
with the step arithmetic written out as plain expressions.  Tests compare
``Swarm`` with it in trajectory, position, fitness and stop reason.

:func:`one_product_subset_floor` is ``BatchEvaluator.subset_floor`` as it
was before it split into two narrow products: every row times one matrix of
the P&L in the scenarios K, the scenario mean and the three Greeks, and the
objective floor written out.  Tests compare the two byte for byte.

:func:`round_half_away_from_zero` is the swarm's rounding before its step
rounded halves up (``floor(y + 0.5)``), which gives the same clipped
integers because every lower bound is >= 0.

:func:`slice_positions` lists the positions of a slice of the box the way
``BatchEvaluator.feasible_slice`` orders its mask, from a Cartesian product
rather than the oracle's digit decoding.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ratpo import oracle, pricing
from ratpo.features import (
    LINEAR_VOL,
    SPOT_FLOOR,
    VOL_FLOOR,
    FeatureError,
    FeatureLab,
    FeatureTable,
    InstrumentFeatures,
    NonFiniteFeatures,
    PortfolioFeatures,
    _naming,
    aggregate,
)
from ratpo.instruments import Exercise, Kind, QuoteError, is_uei_id, parse_descriptor_id, parse_static_id
from ratpo.problem import BatchEvaluator, ConstraintSpec, EvalBreakdown, ProblemInstance
from ratpo.risk import VarConfig, var_index
from ratpo.swarm import RandomMode, RatsConfig, StopReason


def _price_one(base: pricing.PricingInputs, spot: np.ndarray, vol: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """One instrument's values, each pricer called with scalar contract fields."""
    if base.kind is Kind.STOCK:
        return spot
    if base.kind is Kind.FUTURES:
        return pricing.forward(spot, base.tenor_years, rate, base.div_yield) - base.ref_forward
    pricer = pricing.barone_adesi_whaley if base.exercise is Exercise.AMERICAN else pricing.black_scholes
    return pricer(spot, base.strike, base.tenor_years, rate, base.div_yield, vol, base.kind is Kind.CALL)


def resolve(lab: FeatureLab, instrument_id: str) -> tuple[str, Optional[float], pricing.PricingInputs]:
    """An id's ticker, its delta-quoted strike (None off the universe) and its
    pinned base pricing state, read from the parsed id.

    Universe options price at the strike their delta quotes; static options
    quote absolute strikes and read the surface at the ATM point; stocks and
    futures carry ``LINEAR_VOL``.
    """
    if is_uei_id(instrument_id):
        d = parse_descriptor_id(instrument_id)
        if d.underlying_pos > len(lab.specs):
            raise FeatureError(f"{instrument_id!r}: underlying position outside universe spec")
        ticker, kind, tenor_days = lab.specs[d.underlying_pos - 1].ticker, d.kind, d.tenor_days
        strike_pct, strike, exercise = d.strike_delta_pct, None, Exercise.EUROPEAN
    else:
        s = parse_static_id(instrument_id)
        if s.ticker not in lab.market.underlyings:
            raise FeatureError(f"{instrument_id!r}: no market data for {s.ticker!r}")
        ticker, kind, tenor_days = s.ticker, s.kind, s.tenor_days
        strike_pct, strike, exercise = None, s.strike, Exercise.EUROPEAN if s.exercise is None else s.exercise
    u = lab.market.underlying(ticker)
    rate = lab.market.rate_for(ticker)
    tau = 0.0 if tenor_days is None else tenor_days / lab.day_count
    if not kind.is_option:
        vol = LINEAR_VOL
    elif strike_pct is None:
        vol = lab._vol_for(ticker, 0.50, tenor_days)
    else:
        vol = lab._vol_for(ticker, strike_pct, tenor_days)
        strike = pricing.strike_from_delta(u.spot, tau, rate, u.div_yield, vol, strike_pct, kind)
    base = pricing.PricingInputs(
        spot=u.spot, vol=vol, tenor_years=tau, rate=rate, div_yield=u.div_yield,
        strike=strike, kind=kind, exercise=exercise,
    ).pinned()
    return ticker, strike_pct, base


def instrument_features(lab: FeatureLab, instrument_id: str) -> InstrumentFeatures:
    """Features of one instrument from one pricer call of its own."""
    ticker, strike_pct, base = resolve(lab, instrument_id)
    u = lab.market.underlying(ticker)
    sc = lab.scenarios
    col, ccy_col = sc.column(ticker), sc.currency_column(u.currency)
    bump_spots = base.spot * np.array([1.0, 1.0 + pricing.SPOT_SHOCK, 1.0 - pricing.SPOT_SHOCK, 1.0])
    bump_vols = base.vol + np.array([0.0, 0.0, 0.0, pricing.VOL_SHOCK])
    values = _price_one(
        base,
        np.concatenate([bump_spots, base.spot * np.maximum(1.0 + sc.spot_returns[:, col], SPOT_FLOOR)]),
        np.concatenate([bump_vols, np.maximum(base.vol + sc.vol_shifts[:, col], VOL_FLOOR)]),
        np.concatenate([np.full(bump_spots.size, base.rate), base.rate + sc.rate_shifts[:, ccy_col]]),
    )
    v0, v_up, v_dn, v_vol = map(float, values[:4])
    delta, vega, gamma = v_up - v0, v_vol - v0, v_up - 2.0 * v0 + v_dn
    try:
        cost = lab._unit_cost(u, base.kind, delta, vega, strike_pct)
    except QuoteError as exc:
        raise _naming(ticker, exc) from None
    try:
        return InstrumentFeatures(v0, values[bump_spots.size:] - v0, delta, vega, gamma, cost)
    except NonFiniteFeatures as exc:
        raise NonFiniteFeatures(exc.row, instrument_id) from None


def feature_table(lab: FeatureLab, ids: Sequence[str]) -> FeatureTable:
    """The features of the distinct ``ids`` in their order, one instrument at a time."""
    entries: dict[str, InstrumentFeatures] = {}
    for instrument_id in ids:
        if instrument_id not in entries:
            entries[instrument_id] = instrument_features(lab, instrument_id)
    return FeatureTable(entries, lab.scenarios.count)


def add_features(a: PortfolioFeatures, b: PortfolioFeatures) -> PortfolioFeatures:
    """Features of the union of two portfolios."""
    return PortfolioFeatures(a.value + b.value, a.pnl + b.pnl, a.delta + b.delta, a.vega + b.vega,
                             a.gamma + b.gamma, a.cost + b.cost)


def sample_pnl(pnl: np.ndarray) -> float:
    """Arithmetic mean of the scenario P&L vector."""
    pnl = np.asarray(pnl, float)
    if pnl.size == 0:
        raise ValueError("empty P&L vector")
    return float(pnl.mean())


def beta_var(pnl: np.ndarray, cfg: VarConfig) -> float:
    """The var_index-th smallest scenario P&L (stable sort, original order breaks ties)."""
    pnl = np.asarray(pnl, float)
    if pnl.shape != (cfg.count,):
        raise ValueError(f"P&L vector has length {pnl.size}, expected {cfg.count}")
    rank = var_index(cfg)
    ordered = np.sort(pnl, kind="stable")
    return float(ordered[rank - 1])


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
    total = add_features(problem.init, eos)
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
    # Where the two slots of a shared range pick one instrument, the first
    # holds the merged notional and the second none, as ``decode`` merges them.
    for group in structure.range_groups():
        if len(group) == 2:
            j1, j2 = group
            same = idx[:, j1] == idx[:, j2]
            notion[same, j1] += notion[same, j2]
            notion[same, j2] = 0.0

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
        cost += sum(cost_table[idx[:, j]] * np.abs(notion[:, j]) for j in group)

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
    """Sequential full-scan oracle; truncates at ``oracle.MAX_OPTIMAL_SET`` as read at call time.

    The optimal set is every feasible position with ``fitness <= best +
    tau_eq``, in enumeration order, cut to its first ``MAX_OPTIMAL_SET``
    positions; ``truncated`` says that it holds more.  When every feasible
    fitness is infinite, they all tie at the infinite optimum.
    """
    en = oracle.Enumerator(problem)
    feasible, fits = [], []
    for start in range(0, en.total, block_size):
        positions = en.positions_for(start, min(start + block_size, en.total))
        res = problem.evaluator.evaluate(positions)
        feasible.append(positions[res["feasible"]])
        fits.append(res["fitness"][res["feasible"]])
    positions, fit = np.concatenate(feasible), np.concatenate(fits)
    best = float(fit.min())
    optimal = positions[fit <= best + tau_eq]
    cap = oracle.MAX_OPTIMAL_SET
    return oracle.OracleResult(best, list(optimal[:cap]), en.total, 0.0, "optimal", len(optimal) > cap,
                               len(positions))


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


def one_product_subset_floor(evaluator: BatchEvaluator, positions: np.ndarray) -> np.ndarray:
    """``evaluator.subset_floor(positions)`` from one product with every
    narrow column, over the evaluator's scenarios K."""
    ev, problem = evaluator, evaluator.problem
    s = problem.var_cfg.count
    features = np.column_stack([ev._features[:, ev._bound_scenarios], ev._pnl_tables[0], ev._features[:, s:]])
    idx, notion, cost = ev._decode(positions)
    k = ev._bound_scenarios.size
    linear = ev._weights(idx, notion) @ features
    var_hi = ev._rank_statistic(linear[:, :k])
    pnl_abs = ev._pnl_tables[3]
    size = pnl_abs[-1] + (np.abs(notion) * pnl_abs[idx]).sum(axis=1)
    mean_hi, u_lo = linear[:, k] + ev._slack(size), cost - var_hi
    a_lo = (problem.pnl_rf - mean_hi) + cost
    floor = np.full(a_lo.shape, -np.inf)
    np.divide(a_lo, np.inf, out=floor, where=a_lo >= 0.0)
    np.divide(a_lo, u_lo, out=floor, where=(a_lo < 0.0) & (u_lo > problem.epsilon))
    with np.errstate(invalid="ignore"):
        return floor + ev._penalty(ev._violations(linear[:, k + 1:]))


def round_half_away_from_zero(values: np.ndarray) -> np.ndarray:
    """Symmetric integer rounding: 2.5 -> 3, -2.5 -> -3."""
    return np.copysign(np.floor(np.abs(values) + 0.5), values)


def full_scoring_swarm(cfg: RatsConfig, problem: ProblemInstance) -> dict:
    """One swarm run that scores every particle in full on every step, serially.

    It draws its random numbers in ``Swarm``'s order and applies its rules:
    integer moves rounded half away from zero and clipped, personal bests on
    ``fitness < best``, a feasible-first champion, the ``tau_f`` move rule,
    and the three stops.  Returns the trajectory without wall times, the
    final position and fitness, the stop reason and the evaluation count.
    """
    evaluate = problem.evaluator.evaluate
    lower, upper = problem.structure.position_bounds()
    m, n = problem.structure.m, cfg.particles
    dim = 2 * m
    rng = np.random.default_rng(cfg.seed)
    x = np.empty((n, dim), dtype=np.int64)
    for j in range(dim):
        x[:, j] = rng.integers(lower[j], upper[j] + 1, size=n)
    v = rng.uniform(cfg.v_min, cfg.v_max, size=(n, dim))
    x[0, m:] = problem.empty_position()[m:]
    res = evaluate(x)
    pbest, pfit, pfeas = x.copy(), res["fitness"], res["feasible"]
    evaluations = n

    def champion() -> int:
        feasible = np.flatnonzero(pfeas)
        if not feasible.size:
            return int(np.argmin(pfit))
        return int(feasible[np.argmin(pfit[feasible])])

    def concentration(g: np.ndarray) -> float:
        return float(np.mean(np.all(pbest == g[None, :], axis=1)))

    c = champion()
    gbest, gfit, gfeas = pbest[c].copy(), float(pfit[c]), bool(pfeas[c])
    k, stall, inertia, chi = 0, 0, cfg.w_max, concentration(gbest)
    trajectory = [(0, gfit, chi, stall)]
    while k < cfg.k_max and stall < cfg.k_max_stall and chi < cfg.tau_p:
        if cfg.random_mode is RandomMode.SHARED:
            r1, r2 = rng.uniform(size=dim)[None, :], rng.uniform(size=dim)[None, :]
        else:
            r1, r2 = rng.uniform(size=(n, dim)), rng.uniform(size=(n, dim))
        v = inertia * v + cfg.c_pers * r1 * (pbest - x) + cfg.c_soc * r2 * (gbest - x)
        moved = x + v
        x = np.clip(round_half_away_from_zero(moved), lower, upper).astype(np.int64)
        res = evaluate(x)
        evaluations += n
        improved = res["fitness"] < pfit
        pbest[improved], pfit[improved], pfeas[improved] = (
            x[improved], res["fitness"][improved], res["feasible"][improved])
        k += 1
        c = champion()
        if bool(pfeas[c]) != gfeas:
            moves = bool(pfeas[c])
        else:
            with np.errstate(invalid="ignore"):  # inf - inf: NaN, no move
                moves = gfit - pfit[c] > cfg.tau_f
        if moves:
            gbest, gfit, gfeas, stall = pbest[c].copy(), float(pfit[c]), bool(pfeas[c]), 0
        else:
            stall += 1
        if cfg.k_max > 0:
            inertia = cfg.w_max - (k / cfg.k_max) * (cfg.w_max - cfg.w_min)
        chi = concentration(gbest)
        trajectory.append((k, gfit, chi, stall))
    if k >= cfg.k_max:
        stop = StopReason.MAX_ITER
    elif stall >= cfg.k_max_stall:
        stop = StopReason.STALL
    else:
        stop = StopReason.CONCENTRATION
    return {"trajectory": trajectory, "position": gbest, "fitness": float(evaluate(gbest[None, :])["fitness"][0]),
            "stop_reason": stop, "evaluations": evaluations}
