"""Pricing of stocks, futures and vanilla options, plus monetary bump Greeks.

European options use Black-Scholes, American options the Barone-Adesi-Whaley
approximation.  Futures are daily-settled: their value is the current forward
minus a reference forward fixed at inception, so a freshly traded futures is
worth zero while spot/rate shocks move it.

All prices are per unit notional.  Greeks follow the monetary one-sided shock
convention: Delta and Gamma from 1% multiplicative spot shocks, Vega from a
one-vol-point additive shock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np
from scipy.special import ndtr, ndtri

from .instruments import Kind

ArrayLike = Union[float, np.ndarray]

#: Multiplicative spot shock used for Delta/Gamma.
SPOT_SHOCK = 0.01
#: Additive volatility shock (one vol point) used for Vega.
VOL_SHOCK = 0.01


class Exercise(str, Enum):
    EUROPEAN = "european"
    AMERICAN = "american"


class PricingError(ValueError):
    pass


@dataclass(frozen=True)
class PricingInputs:
    """Market and contract state for a single valuation.

    ``ref_forward`` only matters for futures: it is the forward level locked
    in at inception.  ``None`` means "at inception", i.e. the value under the
    given inputs is zero; shocked revaluations must pin it first (see
    :meth:`pinned`).
    """

    spot: float
    vol: float
    tenor_years: float
    rate: float = 0.0
    div_yield: float = 0.0
    strike: Optional[float] = None
    kind: Kind = Kind.CALL
    exercise: Exercise = Exercise.EUROPEAN
    ref_forward: Optional[float] = None

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.spot, self.vol, self.tenor_years, self.rate, self.div_yield))):
            raise PricingError("pricing inputs must be finite")
        if self.spot <= 0:
            raise PricingError(f"spot must be positive, got {self.spot}")
        if self.vol <= 0:
            raise PricingError(f"vol must be positive, got {self.vol}")
        if self.tenor_years < 0:
            raise PricingError(f"tenor must be non-negative, got {self.tenor_years}")
        if self.kind.is_option and (self.strike is None or self.strike <= 0):
            raise PricingError("options need a positive strike")

    def pinned(self) -> "PricingInputs":
        """Materialize the futures reference forward at the current inputs."""
        if self.kind is Kind.FUTURES and self.ref_forward is None:
            return replace(self, ref_forward=forward(self.spot, self.tenor_years, self.rate, self.div_yield))
        return self


def forward(spot: ArrayLike, tenor_years: ArrayLike, rate: ArrayLike, div_yield: ArrayLike) -> ArrayLike:
    return spot * np.exp((rate - div_yield) * tenor_years)


def black_scholes(
    spot: ArrayLike,
    strike: ArrayLike,
    tenor_years: ArrayLike,
    rate: ArrayLike,
    div_yield: ArrayLike,
    vol: ArrayLike,
    is_call: Union[bool, np.ndarray],
) -> ArrayLike:
    """European vanilla price; broadcasts over numpy arrays.

    At zero tenor the intrinsic value is returned.
    """
    spot, strike, tau = np.asarray(spot, float), np.asarray(strike, float), np.asarray(tenor_years, float)
    sign = np.where(is_call, 1.0, -1.0)
    intrinsic = np.maximum(sign * (spot - strike), 0.0)
    tau_safe = np.where(tau > 0, tau, 1.0)
    sig_sqrt = vol * np.sqrt(tau_safe)
    d1 = (np.log(spot / strike) + (rate - div_yield + 0.5 * np.square(vol)) * tau_safe) / sig_sqrt
    d2 = d1 - sig_sqrt
    live = sign * (
        spot * np.exp(-div_yield * tau_safe) * ndtr(sign * d1)
        - strike * np.exp(-rate * tau_safe) * ndtr(sign * d2)
    )
    out = np.where(tau > 0, live, intrinsic)
    return float(out) if out.ndim == 0 else out


def bs_delta(
    spot: ArrayLike,
    strike: ArrayLike,
    tenor_years: ArrayLike,
    rate: ArrayLike,
    div_yield: ArrayLike,
    vol: ArrayLike,
    is_call: bool,
) -> ArrayLike:
    """Analytic spot delta (per unit spot move), used by the strike solver round trip."""
    sig_sqrt = vol * np.sqrt(tenor_years)
    d1 = (np.log(np.asarray(spot, float) / strike) + (rate - div_yield + 0.5 * np.square(vol)) * tenor_years) / sig_sqrt
    disc = np.exp(-div_yield * tenor_years)
    return disc * ndtr(d1) if is_call else -disc * ndtr(-d1)


def strike_from_delta(
    spot: float,
    tenor_years: float,
    rate: float,
    div_yield: float,
    vol: float,
    delta_pct: float,
    kind: Kind,
) -> float:
    """Absolute strike whose Black-Scholes spot-delta magnitude equals ``delta_pct``.

    Solves |e^{-q tau} Phi(+-d1)| = delta_pct for d1 and inverts the d1
    definition.  Only call/put kinds are meaningful.
    """
    if not kind.is_option:
        raise PricingError(f"delta-quoted strikes apply to options only, got {kind.name}")
    if not 0.0 < delta_pct < 1.0:
        raise PricingError(f"delta_pct must be in (0, 1), got {delta_pct}")
    if tenor_years <= 0:
        raise PricingError("strike_from_delta needs a positive tenor")
    target = delta_pct * math.exp(div_yield * tenor_years)
    if not 0.0 < target < 1.0:
        raise PricingError(f"forward delta {target} out of (0, 1); dividend yield too large")
    d1 = float(ndtri(target))
    if kind is Kind.PUT:
        d1 = -d1
    return spot * math.exp(-d1 * vol * math.sqrt(tenor_years) + (rate - div_yield + 0.5 * vol * vol) * tenor_years)


# ---------------------------------------------------------------------------
# Barone-Adesi-Whaley approximation for American options
# ---------------------------------------------------------------------------

_BAW_MAX_ITER = 100
_SQRT2 = math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


def _pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) * _INV_SQRT_2PI


def _bs_scalar(spot: float, strike: float, tau: float, rate: float, div_yield: float,
               vol: float, sign: float) -> float:
    # Scalar fast path used inside the early-exercise Newton iteration.
    sig_sqrt = vol * math.sqrt(tau)
    d1 = (math.log(spot / strike) + (rate - div_yield + 0.5 * vol * vol) * tau) / sig_sqrt
    d2 = d1 - sig_sqrt
    return sign * (
        spot * math.exp(-div_yield * tau) * _cdf(sign * d1)
        - strike * math.exp(-rate * tau) * _cdf(sign * d2)
    )


def _baw_call(spot: float, strike: float, tau: float, rate: float, carry: float, vol: float) -> float:
    european = black_scholes(spot, strike, tau, rate, rate - carry, vol, True)
    # No dividend-type income: early exercise is never optimal.
    if carry >= rate:
        return european
    vol2 = vol * vol
    mh = _m_over_h(rate, vol2, tau)
    n = 2.0 * carry / vol2
    q2 = 0.5 * (-(n - 1.0) + math.sqrt((n - 1.0) ** 2 + 4.0 * mh))
    if not math.isfinite(q2) or q2 <= 1.0:
        return max(european, spot - strike)

    s_inf = strike / (1.0 - 1.0 / q2)
    h2 = -(carry * tau + 2.0 * vol * math.sqrt(tau)) * strike / (s_inf - strike)
    s_star = strike + (s_inf - strike) * (1.0 - math.exp(h2))
    tol = 1e-10 * strike
    sig_sqrt = vol * math.sqrt(tau)
    disc = math.exp((carry - rate) * tau)
    # Newton on the smooth-pasting condition for the exercise boundary.
    for _ in range(_BAW_MAX_ITER):
        d1 = (math.log(s_star / strike) + (carry + 0.5 * vol2) * tau) / sig_sqrt
        nd1 = _cdf(d1)
        ec = _bs_scalar(s_star, strike, tau, rate, rate - carry, vol, 1.0)
        f = (s_star - strike) - ec - (1.0 - disc * nd1) * s_star / q2
        if abs(f) < tol:
            break
        fp = 1.0 - disc * nd1 - (1.0 - disc * nd1) / q2 + disc * _pdf(d1) / (q2 * sig_sqrt)
        if fp == 0.0 or not math.isfinite(fp):
            break
        s_star -= f / fp
        if not math.isfinite(s_star) or s_star <= strike:
            s_star = strike * (1.0 + 1e-9)
    d1 = (math.log(s_star / strike) + (carry + 0.5 * vol2) * tau) / sig_sqrt
    a2 = (s_star / q2) * (1.0 - disc * _cdf(d1))
    if spot >= s_star:
        return spot - strike
    return max(european + a2 * (spot / s_star) ** q2, european, spot - strike)


def _baw_put(spot: float, strike: float, tau: float, rate: float, carry: float, vol: float) -> float:
    european = black_scholes(spot, strike, tau, rate, rate - carry, vol, False)
    # Without positive interest on the strike, waiting dominates.
    if rate <= 0.0:
        return max(european, strike - spot)
    vol2 = vol * vol
    mh = _m_over_h(rate, vol2, tau)
    n = 2.0 * carry / vol2
    q1 = 0.5 * (-(n - 1.0) - math.sqrt((n - 1.0) ** 2 + 4.0 * mh))
    if not math.isfinite(q1) or q1 >= 0.0:
        return max(european, strike - spot)

    s_inf = strike / (1.0 - 1.0 / q1)
    h1 = (carry * tau - 2.0 * vol * math.sqrt(tau)) * strike / (strike - s_inf)
    s_star = s_inf + (strike - s_inf) * math.exp(h1)
    tol = 1e-10 * strike
    sig_sqrt = vol * math.sqrt(tau)
    disc = math.exp((carry - rate) * tau)
    for _ in range(_BAW_MAX_ITER):
        d1 = (math.log(s_star / strike) + (carry + 0.5 * vol2) * tau) / sig_sqrt
        nmd1 = _cdf(-d1)
        ep = _bs_scalar(s_star, strike, tau, rate, rate - carry, vol, -1.0)
        f = (strike - s_star) - ep + (1.0 - disc * nmd1) * s_star / q1
        if abs(f) < tol:
            break
        fp = -1.0 + disc * nmd1 + ((1.0 - disc * nmd1) + disc * _pdf(d1) / sig_sqrt) / q1
        if fp == 0.0 or not math.isfinite(fp):
            break
        s_star -= f / fp
        if not math.isfinite(s_star) or s_star >= strike or s_star <= 0.0:
            s_star = strike * (1.0 - 1e-9)
    d1 = (math.log(s_star / strike) + (carry + 0.5 * vol2) * tau) / sig_sqrt
    a1 = -(s_star / q1) * (1.0 - disc * _cdf(-d1))
    if spot <= s_star:
        return strike - spot
    return max(european + a1 * (spot / s_star) ** q1, european, strike - spot)


def _m_over_h(rate: float, vol2: float, tau: float) -> float:
    # M/h = (2r/sigma^2) / (1 - e^{-r tau}); take the r -> 0 limit explicitly.
    if abs(rate) < 1e-12:
        return 2.0 / (vol2 * tau)
    return 2.0 * rate / (vol2 * (1.0 - math.exp(-rate * tau)))


def barone_adesi_whaley(
    spot: float,
    strike: float,
    tenor_years: float,
    rate: float,
    div_yield: float,
    vol: float,
    is_call: bool,
) -> float:
    """American vanilla price via the quadratic early-exercise approximation."""
    if tenor_years <= 0:
        return max((spot - strike) if is_call else (strike - spot), 0.0)
    carry = rate - div_yield
    if is_call:
        return _baw_call(spot, strike, tenor_years, rate, carry, vol)
    return _baw_put(spot, strike, tenor_years, rate, carry, vol)


# ---------------------------------------------------------------------------
# Unified entry point and bump Greeks
# ---------------------------------------------------------------------------


def price(inputs: PricingInputs) -> float:
    """Per-unit value of the instrument described by ``inputs``."""
    if inputs.kind is Kind.STOCK:
        return inputs.spot
    if inputs.kind is Kind.FUTURES:
        fwd = forward(inputs.spot, inputs.tenor_years, inputs.rate, inputs.div_yield)
        ref = inputs.ref_forward if inputs.ref_forward is not None else fwd
        return float(fwd - ref)
    if inputs.exercise is Exercise.AMERICAN:
        return barone_adesi_whaley(
            inputs.spot, inputs.strike, inputs.tenor_years,
            inputs.rate, inputs.div_yield, inputs.vol, inputs.kind is Kind.CALL,
        )
    return float(
        black_scholes(
            inputs.spot, inputs.strike, inputs.tenor_years,
            inputs.rate, inputs.div_yield, inputs.vol, inputs.kind is Kind.CALL,
        )
    )


def bump_greeks(
    inputs: PricingInputs,
    pricer: Callable[[PricingInputs], float] = price,
) -> tuple[float, float, float]:
    """Monetary (Delta, Vega, Gamma) per unit notional from one-sided shocks.

    Delta = v(1.01 S) - v(S); Gamma = v(1.01 S) - 2 v(S) + v(0.99 S);
    Vega = v(sigma + 0.01) - v(sigma).
    """
    base = inputs.pinned()
    v0 = pricer(base)
    v_up = pricer(replace(base, spot=base.spot * (1.0 + SPOT_SHOCK)))
    v_dn = pricer(replace(base, spot=base.spot * (1.0 - SPOT_SHOCK)))
    v_vol = pricer(replace(base, vol=base.vol + VOL_SHOCK))
    delta = v_up - v0
    gamma = v_up - 2.0 * v0 + v_dn
    vega = v_vol - v0
    return delta, vega, gamma
