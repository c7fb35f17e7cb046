"""Per-unit instrument features and their linear aggregation to portfolios.

Every instrument is summarized once per run by (value, scenario P&L vector,
Delta, Vega, Gamma, unit trading cost); portfolio features are then linear
combinations in the notionals, so the optimizer never touches a pricing
function inside its hot loop.

Scenario repricing holds the tenor fixed: scenarios are one-day risk-factor
moves applied at a frozen valuation date (multiplicative spot, additive vol,
additive rate).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import pricing
from .instruments import (
    Exercise,
    Kind,
    MarketData,
    Portfolio,
    QuoteError,
    ScenarioSet,
    UeiDescriptor,
    UnderlyingSpec,
    is_uei_id,
    parse_descriptor_id,
    parse_static_id,
)
from .pricing import PricingInputs

#: Shocked vols are floored here so scenario repricing stays defined.
VOL_FLOOR = 1e-6
#: Shocked spots cannot fall below this fraction of the base spot.
SPOT_FLOOR = 1e-6


class FeatureError(ValueError):
    pass


@dataclass(frozen=True)
class InstrumentFeatures:
    """Per-unit-notional features of a single instrument."""

    value: float
    pnl: np.ndarray
    delta: float
    vega: float
    gamma: float
    unit_cost: float

    def __post_init__(self) -> None:
        self.pnl.setflags(write=False)
        if self.unit_cost < 0:
            raise FeatureError(f"unit cost must be non-negative, got {self.unit_cost}")
        scalars = (self.value, self.delta, self.vega, self.gamma, self.unit_cost)
        if not all(map(math.isfinite, scalars)) or not np.all(np.isfinite(self.pnl)):
            raise FeatureError("instrument features must be finite")


@dataclass(frozen=True)
class PortfolioFeatures:
    value: float
    pnl: np.ndarray
    delta: float
    vega: float
    gamma: float
    cost: float

    def __post_init__(self) -> None:
        self.pnl.setflags(write=False)

    def __add__(self, other: "PortfolioFeatures") -> "PortfolioFeatures":
        return PortfolioFeatures(
            self.value + other.value,
            self.pnl + other.pnl,
            self.delta + other.delta,
            self.vega + other.vega,
            self.gamma + other.gamma,
            self.cost + other.cost,
        )


class FeatureTable:
    """Ordered, immutable map instrument id -> features."""

    def __init__(self, entries: Mapping[str, InstrumentFeatures], scenario_count: int):
        self._entries = dict(entries)
        self.scenario_count = scenario_count

    def __getitem__(self, instrument_id: str) -> InstrumentFeatures:
        try:
            return self._entries[instrument_id]
        except KeyError:
            raise FeatureError(f"instrument {instrument_id!r} not in feature table") from None

    def __contains__(self, instrument_id: str) -> bool:
        return instrument_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def ids(self) -> list[str]:
        return list(self._entries)

    def arrays(self, ids: Sequence[str]) -> dict[str, np.ndarray]:
        """Column-stack features for the given ids (used by the batch evaluator)."""
        feats = [self[i] for i in ids]
        return {
            "pnl": np.stack([f.pnl for f in feats]) if feats else np.zeros((0, self.scenario_count)),
            "delta": np.array([f.delta for f in feats]),
            "vega": np.array([f.vega for f in feats]),
            "gamma": np.array([f.gamma for f in feats]),
            "cost": np.array([f.unit_cost for f in feats]),
        }


def aggregate(table: FeatureTable, portfolio: Portfolio) -> PortfolioFeatures:
    """Linear combination of per-unit features; cost uses absolute notionals.

    Legs are processed as given (multiset semantics): duplicated ids simply
    contribute twice, which keeps every feature, cost included, additive
    under portfolio union.
    """
    value = delta = vega = gamma = cost = 0.0
    pnl = np.zeros(table.scenario_count)
    for instrument_id, notional in portfolio.legs:
        f = table[instrument_id]
        value += notional * f.value
        pnl = pnl + notional * f.pnl
        delta += notional * f.delta
        vega += notional * f.vega
        gamma += notional * f.gamma
        cost += abs(notional) * f.unit_cost
    return PortfolioFeatures(value, pnl, delta, vega, gamma, cost)


def _naming(ticker: str, exc: QuoteError) -> QuoteError:
    """A missing-quote error that names its underlying: the vol surfaces of
    several tickers quote the same (strike, tenor) points."""
    return QuoteError(f"{ticker}: {exc}")


class FeatureLab:
    """Computes instrument features from market data and scenarios.

    The universe specs provide the position -> ticker mapping for eligible
    instruments and the bid/ask spreads for trading costs.  Feature
    computation is pure per instrument and safe to run concurrently.
    """

    def __init__(
        self,
        market: MarketData,
        scenarios: ScenarioSet,
        universe_specs: Sequence[UnderlyingSpec],
        day_count: int = 360,
    ):
        self.market = market
        self.scenarios = scenarios
        self.specs = list(universe_specs)
        self.day_count = day_count

    # -- id resolution ------------------------------------------------------

    def _resolve(self, instrument_id: str) -> tuple[str, Kind, Optional[float], Optional[int], Exercise, Optional[float]]:
        """Return (ticker, kind, strike_abs, tenor_days, exercise, strike_delta_pct)."""
        if is_uei_id(instrument_id):
            d = parse_descriptor_id(instrument_id)
            if d.underlying_pos > len(self.specs):
                raise FeatureError(f"{instrument_id!r}: underlying position outside universe spec")
            ticker = self.specs[d.underlying_pos - 1].ticker
            if d.kind is Kind.STOCK:
                return ticker, d.kind, None, None, Exercise.EUROPEAN, None
            strike_abs = None
            if d.kind.is_option:
                strike_abs = self._delta_quoted_strike(ticker, d)
            return ticker, d.kind, strike_abs, d.tenor_days, Exercise.EUROPEAN, d.strike_delta_pct
        s = parse_static_id(instrument_id)
        if s.ticker not in self.market.underlyings:
            raise FeatureError(f"{instrument_id!r}: no market data for {s.ticker!r}")
        exercise = Exercise.EUROPEAN if s.exercise is None else s.exercise
        return s.ticker, s.kind, s.strike, s.tenor_days, exercise, None

    def _delta_quoted_strike(self, ticker: str, d: UeiDescriptor) -> float:
        u = self.market.underlying(ticker)
        tau = d.tenor_days / self.day_count
        return pricing.strike_from_delta(
            u.spot, tau, self.market.rate_for(ticker), u.div_yield,
            self._vol_for(ticker, d.strike_delta_pct, d.tenor_days), d.strike_delta_pct, d.kind,
        )

    def _vol_for(self, ticker: str, strike_delta_pct: Optional[float], tenor_days: Optional[int]) -> float:
        u = self.market.underlying(ticker)
        if not isinstance(u.vol, Mapping):
            return float(u.vol)
        # Static instruments quote absolute strikes; price them off the ATM point.
        strike = 0.50 if strike_delta_pct is None else strike_delta_pct
        try:
            return u.vol_for(strike, tenor_days)
        except QuoteError as exc:
            raise _naming(ticker, exc) from None

    # -- features -----------------------------------------------------------

    def compute(self, instrument_id: str) -> InstrumentFeatures:
        ticker, kind, strike_abs, tenor_days, exercise, strike_pct = self._resolve(instrument_id)
        u = self.market.underlying(ticker)
        rate = self.market.rate_for(ticker)
        tau = 0.0 if tenor_days is None else tenor_days / self.day_count
        vol = self._vol_for(ticker, strike_pct, tenor_days)
        base = PricingInputs(
            spot=u.spot, vol=vol, tenor_years=tau, rate=rate, div_yield=u.div_yield,
            strike=strike_abs, kind=kind, exercise=exercise,
        ).pinned()

        # One pricer call values the bump states, then the scenarios.
        sc = self.scenarios
        col, ccy_col = sc.column(ticker), sc.currency_column(u.currency)
        bump_spots, bump_vols = pricing.bump_states(base)
        values = pricing.price_at(
            base,
            np.concatenate([bump_spots, base.spot * np.maximum(1.0 + sc.spot_returns[:, col], SPOT_FLOOR)]),
            np.concatenate([bump_vols, np.maximum(base.vol + sc.vol_shifts[:, col], VOL_FLOOR)]),
            np.concatenate([np.full(bump_spots.size, base.rate), base.rate + sc.rate_shifts[:, ccy_col]]),
        )
        v0 = float(values[0])
        delta, vega, gamma = pricing.greeks_from(values)
        try:
            cost = self._unit_cost(u, kind, delta, vega, strike_pct)
        except QuoteError as exc:
            raise _naming(ticker, exc) from None
        return InstrumentFeatures(v0, values[bump_spots.size:] - v0, delta, vega, gamma, cost)

    def _unit_cost(
        self, u, kind: Kind, delta: float, vega: float, strike_pct: Optional[float],
    ) -> float:
        """Half-spread cost per unit notional.

        The stored Delta/Vega are 1%-shock monetary sensitivities, so the
        full exposures are 100x those; spreads are relative (spot), monetary
        (futures) and in absolute vol fraction (options).
        """
        if kind is Kind.FUTURES:
            return 0.5 * u.futures_spread
        cost = 0.5 * (100.0 * abs(delta)) * u.spot_spread
        if kind.is_option:
            bucket = strike_pct if strike_pct is not None else self._nearest_strike_bucket(u, delta)
            cost += 0.5 * (100.0 * abs(vega)) * u.vol_spread_for(bucket)
        return cost

    def _nearest_strike_bucket(self, u, delta: float) -> float:
        # Static options carry absolute strikes; bucket by exposure share for the spread lookup.
        if not u.vol_spread_by_strike:
            raise FeatureError("no option vol spreads quoted")
        share = min(abs(delta) / (0.01 * u.spot), 0.5) if u.spot else 0.5
        return min(u.vol_spread_by_strike, key=lambda k: abs(k - share))

    def build_table(self, ids: Sequence[str]) -> FeatureTable:
        entries: dict[str, InstrumentFeatures] = {}
        for instrument_id in ids:
            if instrument_id not in entries:
                entries[instrument_id] = self.compute(instrument_id)
        return FeatureTable(entries, self.scenarios.count)

    def build_run_table(self, universe: Sequence[UeiDescriptor], portfolio: Portfolio) -> FeatureTable:
        """Features for the whole eligible universe plus every initial holding."""
        ids = [d.id for d in universe] + [leg_id for leg_id, _ in portfolio.legs]
        return self.build_table(ids)
