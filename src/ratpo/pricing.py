"""Pricing of stocks, futures and vanilla options, plus monetary bump Greeks.

European options use Black-Scholes, American options the Barone-Adesi-Whaley
approximation.  Futures are daily-settled: their value is the current forward
minus a reference forward fixed at inception, so a freshly traded futures is
worth zero while spot/rate shocks move it.

All prices are per unit notional, and every pricer broadcasts over numpy
arrays: :func:`price_at`, the one dispatch on kind and exercise style,
values the base states, bumps and scenarios of many instruments with one
call per pricer.  Greeks follow the monetary one-sided shock convention:
Delta and Gamma from 1% multiplicative spot shocks, Vega from a
one-vol-point additive shock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.special import ndtr, ndtri

from .instruments import Exercise, Kind

ArrayLike = Union[float, np.ndarray]

#: Multiplicative spot shock used for Delta/Gamma.
SPOT_SHOCK = 0.01
#: Additive volatility shock (one vol point) used for Vega.
VOL_SHOCK = 0.01


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
    live = _european(spot, strike, sign, d1, sig_sqrt, np.exp(-div_yield * tau_safe), np.exp(-rate * tau_safe),
                     ndtr(sign * d1))
    out = np.where(tau > 0, live, intrinsic)
    return float(out) if out.ndim == 0 else out


def _european(spot, strike, sign, d1, sig_sqrt, spot_disc, strike_disc, n1):
    """The Black-Scholes value at a positive tenor from its pieces: ``sign``
    is +1 for a call and -1 for a put, ``spot_disc`` and ``strike_disc`` are
    e^{-q tau} and e^{-r tau}, and ``n1`` is N(sign d1), which the caller may
    have computed for its own use."""
    return sign * (spot * spot_disc * n1 - strike * strike_disc * ndtr(sign * (d1 - sig_sqrt)))


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
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def barone_adesi_whaley(
    spot: ArrayLike,
    strike: ArrayLike,
    tenor_years: ArrayLike,
    rate: ArrayLike,
    div_yield: ArrayLike,
    vol: ArrayLike,
    is_call: Union[bool, np.ndarray],
) -> ArrayLike:
    """American vanilla price via the quadratic early-exercise approximation
    (Barone-Adesi & Whaley 1987); broadcasts over numpy arrays.

    Calls (eta = +1) and puts (eta = -1) share one Newton iteration on the
    smooth-pasting condition for the exercise boundary s*.  It runs on every
    element at once, and each element stops on its own.  Elements where
    early exercise cannot pay skip it: expired contracts (intrinsic value),
    calls without income (the European price), puts without positive rate
    and unusable quadratic roots (European price floored at exercise value).
    """
    args = np.broadcast_arrays(spot, strike, tenor_years, rate, div_yield, vol, is_call)
    shape = args[0].shape
    spot, strike, tau, rate, div_yield, vol = (np.asarray(a, float).ravel() for a in args[:6])
    is_call = args[6].astype(bool).ravel()
    eta = np.where(is_call, 1.0, -1.0)
    carry = rate - div_yield
    european = black_scholes(spot, strike, tau, rate, div_yield, vol, is_call)
    exercise = eta * (spot - strike)
    out = np.where(is_call & (carry >= rate), european, np.maximum(european, exercise))

    with np.errstate(all="ignore"):
        vol2 = vol * vol
        # M/h = (2r/sigma^2) / (1 - e^{-r tau}); take the r -> 0 limit explicitly.
        mh = np.where(np.abs(rate) < 1e-12, 2.0 / (vol2 * tau),
                      2.0 * rate / (vol2 * (1.0 - np.exp(-rate * tau))))
        n = 2.0 * carry / vol2
        q = 0.5 * (-(n - 1.0) + eta * np.sqrt((n - 1.0) ** 2 + 4.0 * mh))
        newton = (tau > 0) & np.isfinite(q) & np.where(
            is_call, (carry < rate) & (q > 1.0), (rate > 0.0) & (q < 0.0))
        i = np.flatnonzero(newton)
        S, K, t, r, b, d, v, v2, e, q, eu, ex = (a[i] for a in (
            spot, strike, tau, rate, carry, div_yield, vol, vol2, eta, q, european, exercise))
        call = e > 0

        s_inf = K / (1.0 - 1.0 / q)
        sig_sqrt = v * np.sqrt(t)
        h = -(b * t + 2.0 * e * sig_sqrt) * K / (s_inf - K)
        s = np.where(call, K + (s_inf - K) * (1.0 - np.exp(h)), s_inf + (K - s_inf) * np.exp(h))
        reset = K * (1.0 + e * 1e-9)
        # A call whose carry is below -2 vol / sqrt(tau) starts at or below zero.
        s = np.where(s > 0.0, s, reset)
        tol = 1e-10 * K
        disc = np.exp((b - r) * t)
        spot_disc, strike_disc = np.exp(-d * t), np.exp(-r * t)
        active = np.ones(i.size, dtype=bool)
        for _ in range(_BAW_MAX_ITER):
            d1 = (np.log(s / K) + (b + 0.5 * v2) * t) / sig_sqrt
            n1 = ndtr(e * d1)
            g = 1.0 - disc * n1
            # The European price at s, from this d1 and N(e d1): black_scholes
            # would compute both again, with the same operations.
            f = e * (s - K) - _european(s, K, e, d1, sig_sqrt, spot_disc, strike_disc, n1) - e * g * s / q
            fp = e * (g - g / q) + disc * (np.exp(-0.5 * d1 * d1) * _INV_SQRT_2PI) / (q * sig_sqrt)
            # An element stops at convergence or on a useless derivative, keeping its iterate.
            active &= ~(np.abs(f) < tol) & (fp != 0.0) & np.isfinite(fp)
            if not active.any():
                break
            step = s - f / fp
            # An iterate outside (K, inf) for a call or (0, K) for a put restarts next to K.
            step = np.where(np.isfinite(step) & (e * (step - K) > 0.0) & (step > 0.0), step, reset)
            s = np.where(active, step, s)
        d1 = (np.log(s / K) + (b + 0.5 * v2) * t) / sig_sqrt
        a = e * (s / q) * (1.0 - disc * ndtr(e * d1))
        early = np.maximum(np.maximum(eu + a * (S / s) ** q, eu), ex)
        out[i] = np.where(e * (S - s) >= 0.0, ex, early)
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# Unified entry point and bump Greeks
# ---------------------------------------------------------------------------


def price_at(
    inputs: Union[PricingInputs, Sequence[PricingInputs]], spot: ArrayLike, vol: ArrayLike, rate: ArrayLike,
) -> ArrayLike:
    """Per-unit values of instruments at the given spots, vols and rates; the
    contract and the other market inputs come from ``inputs``.  This is the
    one dispatch on kind and exercise style.

    ``inputs`` is one instrument, whose states broadcast, or a sequence of n
    instruments whose states broadcast to (n, ...), row i for instrument i.
    Each pricer then runs once, on the rows of every instrument it prices.
    A futures without a reference forward is valued against its own forward
    at each state, i.e. at zero.
    """
    spot, vol, rate = np.broadcast_arrays(spot, vol, rate)
    if isinstance(inputs, PricingInputs):
        return price_at([inputs], spot[None], vol[None], rate[None])[0]
    out = np.empty(spot.shape)
    stock, futures, european, american = [], [], [], []
    for i, p in enumerate(inputs):
        if p.kind is Kind.STOCK:
            stock.append(i)
        elif p.kind is Kind.FUTURES:
            futures.append(i)
        else:
            (american if p.exercise is Exercise.AMERICAN else european).append(i)

    def column(rows: list[int], field: Callable[[PricingInputs], object]) -> np.ndarray:
        """One contract field per row, shaped to broadcast against the rows' states."""
        return np.array([field(inputs[i]) for i in rows]).reshape((len(rows),) + (1,) * (spot.ndim - 1))

    if stock:
        out[stock] = spot[stock]
    if futures:
        fwd = forward(spot[futures], column(futures, lambda p: p.tenor_years), rate[futures],
                      column(futures, lambda p: p.div_yield))
        unpinned = column(futures, lambda p: p.ref_forward is None)
        ref = column(futures, lambda p: 0.0 if p.ref_forward is None else p.ref_forward)
        out[futures] = fwd - np.where(unpinned, fwd, ref)
    for rows, pricer in ((european, black_scholes), (american, barone_adesi_whaley)):
        if rows:
            out[rows] = pricer(
                spot[rows], column(rows, lambda p: p.strike), column(rows, lambda p: p.tenor_years), rate[rows],
                column(rows, lambda p: p.div_yield), vol[rows], column(rows, lambda p: p.kind is Kind.CALL))
    return out


def price(inputs: PricingInputs) -> float:
    """Per-unit value of the instrument described by ``inputs``."""
    return float(price_at(inputs, inputs.spot, inputs.vol, inputs.rate))


#: Spot factors and vol shifts of the bump states, base first: base, spot up, spot down, vol up.
_BUMP_SPOT = np.array([1.0, 1.0 + SPOT_SHOCK, 1.0 - SPOT_SHOCK, 1.0])
_BUMP_VOL = np.array([0.0, 0.0, 0.0, VOL_SHOCK])


def bump_states(spot: ArrayLike, vol: ArrayLike) -> tuple[np.ndarray, np.ndarray]:
    """Spots and vols of the four bump states whose values :func:`greeks_from`
    reads, along a new last axis."""
    return np.multiply.outer(spot, _BUMP_SPOT), np.add.outer(vol, _BUMP_VOL)


def greeks_from(values: np.ndarray) -> tuple[ArrayLike, ArrayLike, ArrayLike]:
    """Monetary (Delta, Vega, Gamma) from the values of the :func:`bump_states`,
    which are the first four entries of the last axis.

    Delta = v(1.01 S) - v(S); Gamma = v(1.01 S) - 2 v(S) + v(0.99 S);
    Vega = v(sigma + 0.01) - v(sigma).
    """
    v0, v_up, v_dn, v_vol = (values[..., k] for k in range(4))
    return v_up - v0, v_vol - v0, v_up - 2.0 * v0 + v_dn


def bump_greeks(inputs: PricingInputs) -> tuple[float, float, float]:
    """Monetary (Delta, Vega, Gamma) per unit notional from one-sided shocks,
    the four bump states priced in one call."""
    base = inputs.pinned()
    spots, vols = bump_states(base.spot, base.vol)
    delta, vega, gamma = greeks_from(price_at(base, spots, vols, base.rate))
    return float(delta), float(vega), float(gamma)
