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
from collections.abc import Mapping, Sequence
from typing import NamedTuple, Optional

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
    UnderlyingMarket,
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
#: Instruments priced per chunk of :meth:`FeatureLab.build_table`.
_CHUNK = 64


class FeatureError(ValueError):
    pass


class NonFiniteFeatures(FeatureError):
    """Instrument features that are not finite.

    ``row`` is the first scenario row (1-based, in the order of the
    scenario set's rows) whose P&L is not finite, or None when the value or
    a Greek is at fault.  The message names ``instrument_id`` when given.
    """

    def __init__(self, row: Optional[int], instrument_id: Optional[str] = None):
        what = "features must be finite" if row is None else f"P&L is not finite in scenario row {row}"
        super().__init__(f"instrument {what}" if instrument_id is None else f"{instrument_id!r}: {what}")
        self.row = row


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
        if not all(map(math.isfinite, scalars)):
            raise NonFiniteFeatures(None)
        finite = np.isfinite(self.pnl)
        if not finite.all():
            raise NonFiniteFeatures(int(np.argmin(finite)) + 1)


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


class _Resolved(NamedTuple):
    """An instrument id resolved to its underlying and its base pricing state."""

    id: str
    ticker: str
    market: UnderlyingMarket
    strike_pct: Optional[float]
    base: PricingInputs


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
    instruments and the bid/ask spreads for trading costs.  An instrument's
    features depend on nothing but its own id, however many are built
    together.
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

    def _resolve(self, instrument_id: str) -> tuple[str, Kind, Optional[float], Optional[int], Exercise,
                                                    Optional[float], float]:
        """Return (ticker, kind, strike_abs, tenor_days, exercise, strike_delta_pct, vol)."""
        if is_uei_id(instrument_id):
            d = parse_descriptor_id(instrument_id)
            if d.underlying_pos > len(self.specs):
                raise FeatureError(f"{instrument_id!r}: underlying position outside universe spec")
            ticker = self.specs[d.underlying_pos - 1].ticker
            if d.kind is Kind.STOCK:
                return ticker, d.kind, None, None, Exercise.EUROPEAN, None, self._vol_for(ticker, None, None)
            vol = self._vol_for(ticker, d.strike_delta_pct, d.tenor_days)
            strike_abs = self._delta_quoted_strike(ticker, d, vol) if d.kind.is_option else None
            return ticker, d.kind, strike_abs, d.tenor_days, Exercise.EUROPEAN, d.strike_delta_pct, vol
        s = parse_static_id(instrument_id)
        if s.ticker not in self.market.underlyings:
            raise FeatureError(f"{instrument_id!r}: no market data for {s.ticker!r}")
        exercise = Exercise.EUROPEAN if s.exercise is None else s.exercise
        return s.ticker, s.kind, s.strike, s.tenor_days, exercise, None, self._vol_for(s.ticker, None, s.tenor_days)

    def _delta_quoted_strike(self, ticker: str, d: UeiDescriptor, vol: float) -> float:
        u = self.market.underlying(ticker)
        tau = d.tenor_days / self.day_count
        return pricing.strike_from_delta(
            u.spot, tau, self.market.rate_for(ticker), u.div_yield, vol, d.strike_delta_pct, d.kind,
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

    def _resolved(self, instrument_id: str) -> _Resolved:
        ticker, kind, strike_abs, tenor_days, exercise, strike_pct, vol = self._resolve(instrument_id)
        u = self.market.underlying(ticker)
        rate = self.market.rate_for(ticker)
        tau = 0.0 if tenor_days is None else tenor_days / self.day_count
        base = PricingInputs(
            spot=u.spot, vol=vol, tenor_years=tau, rate=rate, div_yield=u.div_yield,
            strike=strike_abs, kind=kind, exercise=exercise,
        ).pinned()
        return _Resolved(instrument_id, ticker, u, strike_pct, base)

    def _features(self, chunk: Sequence[_Resolved]) -> dict[str, InstrumentFeatures]:
        """Features of a chunk of resolved instruments.  Each pricer runs once,
        on the bump states and then the scenarios of every instrument it
        prices."""
        sc = self.scenarios
        bases = [r.base for r in chunk]
        spot, vol, rate = (np.array([getattr(b, name) for b in bases]) for name in ("spot", "vol", "rate"))
        cols = [sc.column(r.ticker) for r in chunk]
        ccy_cols = [sc.currency_column(r.market.currency) for r in chunk]
        bump_spots, bump_vols = pricing.bump_states(spot, vol)
        bumps = bump_spots.shape[1]
        values = pricing.price_at(
            bases,
            np.hstack([bump_spots, spot[:, None] * np.maximum(1.0 + sc.spot_returns[:, cols].T, SPOT_FLOOR)]),
            np.hstack([bump_vols, np.maximum(vol[:, None] + sc.vol_shifts[:, cols].T, VOL_FLOOR)]),
            np.hstack([np.repeat(rate[:, None], bumps, axis=1), rate[:, None] + sc.rate_shifts[:, ccy_cols].T]),
        )
        greeks = zip(*(g.tolist() for g in pricing.greeks_from(values)))
        out = {}
        for r, value, (delta, vega, gamma), row in zip(chunk, values[:, 0].tolist(), greeks, values[:, bumps:]):
            try:
                cost = self._unit_cost(r.market, r.base.kind, delta, vega, r.strike_pct)
            except QuoteError as exc:
                raise _naming(r.ticker, exc) from None
            # One P&L array per instrument: views of a (chunk, S) block among
            # the pricers' temporaries of nearly its size fragment the heap
            # (bench table1_swarm peak RSS 72.7 against 71.7 MiB on 2 vCPUs).
            try:
                out[r.id] = InstrumentFeatures(value, row - value, delta, vega, gamma, cost)
            except NonFiniteFeatures as exc:
                raise NonFiniteFeatures(exc.row, r.id) from None
        return out

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
        """Features of the distinct ``ids``, in their order.

        Every id is resolved, and its input errors raised, before any is
        priced.  Pricing then runs in chunks of at most ``_CHUNK``
        instruments, which bounds the pricers' temporaries; the features
        equal those of pricing each instrument alone, byte for byte.
        """
        resolved = [self._resolved(instrument_id) for instrument_id in dict.fromkeys(ids)]
        entries: dict[str, InstrumentFeatures] = {}
        # An overflowing scenario prices to inf or nan, and InstrumentFeatures
        # then rejects it naming the instrument and the scenario row; numpy's
        # warnings would only repeat that without either.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(resolved), _CHUNK):
                entries.update(self._features(resolved[start:start + _CHUNK]))
        return FeatureTable(entries, self.scenarios.count)

    def build_run_table(self, universe: Sequence[UeiDescriptor], portfolio: Portfolio) -> FeatureTable:
        """Features for the whole eligible universe plus every initial holding."""
        ids = [d.id for d in universe] + [leg_id for leg_id, _ in portfolio.legs]
        return self.build_table(ids)
