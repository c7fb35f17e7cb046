"""References for ``ratpo.pricing.barone_adesi_whaley``, and the analytic
Black-Scholes delta that checks ``strike_from_delta``.

:func:`barone_adesi_whaley` is an independent scalar Barone-Adesi & Whaley
(1987) pricer: separate call and put routines, a Python loop for the Newton
iteration and a private Black-Scholes built on ``math.erfc``.  It shares no
arithmetic with the broadcasting pricer except the European price at the
input state, which comes from ``ratpo.pricing.black_scholes``.  Tests compare
the two element by element, to 1e-10 of the strike.

:func:`newton_black_scholes_baw` is the broadcasting pricer as it was before
its Newton step reused its own d1 and N(eta d1) for the European term: every
iteration calls ``ratpo.pricing.black_scholes``.  Tests compare the two byte
for byte.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtr

from ratpo.pricing import black_scholes

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


def bs_delta(spot: float, strike: float, tenor_years: float, rate: float, div_yield: float,
             vol: float, is_call: bool) -> float:
    """Analytic spot delta (per unit spot move), for the strike solver round trip."""
    sig_sqrt = vol * np.sqrt(tenor_years)
    d1 = (np.log(np.asarray(spot, float) / strike) + (rate - div_yield + 0.5 * np.square(vol)) * tenor_years) / sig_sqrt
    disc = np.exp(-div_yield * tenor_years)
    return disc * ndtr(d1) if is_call else -disc * ndtr(-d1)


def newton_black_scholes_baw(spot, strike, tenor_years, rate, div_yield, vol, is_call):
    """The broadcasting American pricer whose Newton step prices the European
    term with a full ``black_scholes`` call."""
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
        s = np.where(s > 0.0, s, reset)
        tol = 1e-10 * K
        disc = np.exp((b - r) * t)
        active = np.ones(i.size, dtype=bool)
        for _ in range(_BAW_MAX_ITER):
            d1 = (np.log(s / K) + (b + 0.5 * v2) * t) / sig_sqrt
            g = 1.0 - disc * ndtr(e * d1)
            f = e * (s - K) - black_scholes(s, K, t, r, d, v, call) - e * g * s / q
            fp = e * (g - g / q) + disc * (np.exp(-0.5 * d1 * d1) * _INV_SQRT_2PI) / (q * sig_sqrt)
            active &= ~(np.abs(f) < tol) & (fp != 0.0) & np.isfinite(fp)
            if not active.any():
                break
            step = s - f / fp
            step = np.where(np.isfinite(step) & (e * (step - K) > 0.0) & (step > 0.0), step, reset)
            s = np.where(active, step, s)
        d1 = (np.log(s / K) + (b + 0.5 * v2) * t) / sig_sqrt
        a = e * (s / q) * (1.0 - disc * ndtr(e * d1))
        early = np.maximum(np.maximum(eu + a * (S / s) ** q, eu), ex)
        out[i] = np.where(e * (S - s) >= 0.0, ex, early)
    out = out.reshape(shape)
    return float(out) if out.ndim == 0 else out
