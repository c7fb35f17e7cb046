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


def _check_features(value: float, pnl: np.ndarray, delta: float, vega: float, gamma: float,
                    unit_cost: float) -> None:
    """Raise the error of the first feature at fault, in the order the fields are declared."""
    if unit_cost < 0:
        raise FeatureError(f"unit cost must be non-negative, got {unit_cost}")
    if not all(map(math.isfinite, (value, delta, vega, gamma, unit_cost))):
        raise NonFiniteFeatures(None)
    finite = np.isfinite(pnl)
    if not finite.all():
        raise NonFiniteFeatures(int(np.argmin(finite)) + 1)


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
        _check_features(self.value, self.pnl, self.delta, self.vega, self.gamma, self.unit_cost)


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


#: The scalar features of an instrument, in :class:`InstrumentFeatures` order.
_SCALARS = ("value", "delta", "vega", "gamma", "unit_cost")


class FeatureTable:
    """Ordered, immutable map instrument id -> features.

    The features are held by column: one read-only (n, S) block whose row i
    is the scenario P&L of the i-th id, and one read-only array each of the
    values, Deltas, Vegas, Gammas and unit costs.  Indexing builds the id's
    :class:`InstrumentFeatures` from its row; :meth:`arrays` reads rows.
    """

    def __init__(self, entries: Mapping[str, InstrumentFeatures], scenario_count: int):
        feats = list(entries.values())
        pnl = np.array([f.pnl for f in feats], dtype=float).reshape(len(feats), scenario_count)
        self._adopt(list(entries), pnl, np.array([[getattr(f, name) for f in feats] for name in _SCALARS], float))

    @classmethod
    def _of_block(cls, ids: Sequence[str], pnl: np.ndarray, scalars: np.ndarray) -> "FeatureTable":
        """The table of ``ids`` over a P&L block and a (5, n) array of the
        ``_SCALARS`` rows, both taken over without a copy."""
        table = cls.__new__(cls)
        table._adopt(ids, pnl, scalars)
        return table

    def _adopt(self, ids: Sequence[str], pnl: np.ndarray, scalars: np.ndarray) -> None:
        self._rows = {instrument_id: k for k, instrument_id in enumerate(ids)}
        self.scenario_count = pnl.shape[1]
        pnl.setflags(write=False)
        scalars.setflags(write=False)
        self._pnl = pnl
        self._value, self._delta, self._vega, self._gamma, self._cost = scalars

    def _row(self, instrument_id: str) -> int:
        try:
            return self._rows[instrument_id]
        except KeyError:
            raise FeatureError(f"instrument {instrument_id!r} not in feature table") from None

    def __getitem__(self, instrument_id: str) -> InstrumentFeatures:
        k = self._row(instrument_id)
        return InstrumentFeatures(float(self._value[k]), self._pnl[k], float(self._delta[k]),
                                  float(self._vega[k]), float(self._gamma[k]), float(self._cost[k]))

    def __contains__(self, instrument_id: str) -> bool:
        return instrument_id in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def ids(self) -> list[str]:
        return list(self._rows)

    def arrays(self, ids: Sequence[str]) -> dict[str, np.ndarray]:
        """The features of the given ids, row k for ``ids[k]`` (used by the batch evaluator)."""
        rows = np.fromiter((self._row(i) for i in ids), dtype=np.intp, count=len(ids))
        return {"pnl": self._pnl[rows], "delta": self._delta[rows], "vega": self._vega[rows],
                "gamma": self._gamma[rows], "cost": self._cost[rows]}


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

    def _resolve(self, instrument_id: str, descriptor: Optional[UeiDescriptor] = None) -> tuple[
            str, Kind, Optional[float], Optional[int], Exercise, Optional[float], float]:
        """Return (ticker, kind, strike_abs, tenor_days, exercise, strike_delta_pct, vol).

        A universe instrument may come with its ``descriptor``, which then
        stands for its parsed id.
        """
        if descriptor is not None or is_uei_id(instrument_id):
            d = parse_descriptor_id(instrument_id) if descriptor is None else descriptor
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

    def _resolved(self, instrument_id: str, descriptor: Optional[UeiDescriptor] = None) -> _Resolved:
        ticker, kind, strike_abs, tenor_days, exercise, strike_pct, vol = self._resolve(instrument_id, descriptor)
        u = self.market.underlying(ticker)
        rate = self.market.rate_for(ticker)
        tau = 0.0 if tenor_days is None else tenor_days / self.day_count
        base = PricingInputs(
            spot=u.spot, vol=vol, tenor_years=tau, rate=rate, div_yield=u.div_yield,
            strike=strike_abs, kind=kind, exercise=exercise,
        ).pinned()
        return _Resolved(instrument_id, ticker, u, strike_pct, base)

    def _features(self, chunk: Sequence[_Resolved], pnl: np.ndarray, scalars: np.ndarray) -> None:
        """Fill the rows of a chunk of resolved instruments: their P&L into
        ``pnl``, their ``_SCALARS`` into the columns of ``scalars``.  Each
        pricer runs once, on the bump states and then the scenarios of every
        instrument it prices.  The chunk's first instrument at fault raises
        the error that building its :class:`InstrumentFeatures` alone would."""
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
        # The block is allocated once per table and each chunk writes its
        # rows in place, so no chunk temporary outlives its chunk: per-chunk
        # blocks kept alive among the pricers' temporaries of nearly their
        # size would fragment the heap.
        np.subtract(values[:, bumps:], values[:, :1], out=pnl)
        scalars[0] = values[:, 0]
        scalars[1:4] = pricing.greeks_from(values)
        finite = (np.isfinite(pnl).all(axis=1) & np.isfinite(scalars[:4]).all(axis=0)).tolist()
        costs = []
        for k, (r, ok, value, delta, vega, gamma) in enumerate(zip(chunk, finite, *scalars[:4].tolist())):
            try:
                cost = self._unit_cost(r.market, r.base.kind, delta, vega, r.strike_pct)
            except QuoteError as exc:
                raise _naming(r.ticker, exc) from None
            if not (ok and 0.0 <= cost < math.inf):
                try:
                    _check_features(value, pnl[k], delta, vega, gamma, cost)
                except NonFiniteFeatures as exc:
                    raise NonFiniteFeatures(exc.row, r.id) from None
            costs.append(cost)
        scalars[4] = costs

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
        equal those of pricing each instrument alone, byte for byte, and so
        does the first error.
        """
        return self._build([self._resolved(instrument_id) for instrument_id in dict.fromkeys(ids)])

    def build_run_table(self, universe: Sequence[UeiDescriptor], portfolio: Portfolio) -> FeatureTable:
        """Features for the whole eligible universe plus every initial holding,
        as :meth:`build_table` of their ids; universe instruments resolve from
        their descriptors."""
        entries: dict[str, Optional[UeiDescriptor]] = {d.id: d for d in universe}
        for leg_id, _ in portfolio.legs:
            entries.setdefault(leg_id, None)
        return self._build([self._resolved(instrument_id, d) for instrument_id, d in entries.items()])

    def _build(self, resolved: Sequence[_Resolved]) -> FeatureTable:
        n = len(resolved)
        pnl = np.empty((n, self.scenarios.count))
        scalars = np.empty((len(_SCALARS), n))
        # An overflowing scenario prices to inf or nan, and the chunk's check
        # then rejects it naming the instrument and the scenario row; numpy's
        # warnings would only repeat that without either.
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, n, _CHUNK):
                stop = start + _CHUNK
                self._features(resolved[start:stop], pnl[start:stop], scalars[:, start:stop])
        return FeatureTable._of_block([r.id for r in resolved], pnl, scalars)
