"""Instrument universe, portfolios, market data, and risk scenarios.

The tradable universe is generated from a declarative list of underlyings.
Every eligible instrument is identified by a compact string id built from
its parameter tuple (underlying position, payoff kind, delta-quoted strike,
tenor); ids sort lexicographically and the sorted order defines the 1-based
universe index used by the optimizer's position encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

CANONICAL_STRIKES = (0.10, 0.25, 0.50)


class Kind(str, Enum):
    """Payoff kind; the single-letter values define the sort order c < p < q < s."""

    CALL = "c"
    PUT = "p"
    FUTURES = "q"
    STOCK = "s"

    def __str__(self) -> str:  # so f-strings render "c" not "Kind.CALL"
        return self.value

    @property
    def is_option(self) -> bool:
        return self in (Kind.CALL, Kind.PUT)


class Category(str, Enum):
    STOCK = "stock"
    STOCK_INDEX = "stock_index"


class UniverseError(ValueError):
    """Raised for malformed universe specifications."""


class QuoteError(ValueError):
    """Raised when the market data lacks a vol or vol-spread point an instrument needs."""


@dataclass(frozen=True)
class UeiDescriptor:
    """Parameter tuple uniquely identifying one eligible instrument.

    ``underlying_pos`` is the 1-based position of the underlying in the
    lexicographically sorted underlying list.  Stocks carry neither strike
    nor tenor; calls, puts and futures carry both (for futures the strike
    is an enumeration label only and never affects pricing).
    """

    underlying_pos: int
    kind: Kind
    strike_delta_pct: Optional[float] = None
    tenor_days: Optional[int] = None

    def __post_init__(self) -> None:
        if self.underlying_pos < 1 or self.underlying_pos > 99:
            raise UniverseError(f"underlying_pos must be in [1, 99], got {self.underlying_pos}")
        if self.kind is Kind.STOCK:
            if self.strike_delta_pct is not None or self.tenor_days is not None:
                raise UniverseError("stock descriptors carry neither strike nor tenor")
        else:
            if self.strike_delta_pct is None or self.tenor_days is None:
                raise UniverseError(f"{self.kind.name} descriptors need strike and tenor")
            if not 0.0 < self.strike_delta_pct < 1.0:
                raise UniverseError(f"strike delta must be in (0, 1), got {self.strike_delta_pct}")
            if not 0 < self.tenor_days <= 999:
                raise UniverseError(f"tenor_days must be in [1, 999], got {self.tenor_days}")

    @cached_property
    def id(self) -> str:
        """:func:`descriptor_id`, formatted once per descriptor: a build reads
        each universe id several times (sort key, feature table, problem)."""
        return descriptor_id(self)


def descriptor_id(d: UeiDescriptor) -> str:
    """Canonical string id ``ν|ω|K|T`` (zero-padded, '-' for absent fields).

    The format is bijective with the descriptor and chosen so that plain
    string sorting reproduces the intended universe order.
    """
    if d.kind is Kind.STOCK:
        return f"{d.underlying_pos:02d}|{d.kind}|-|-"
    return f"{d.underlying_pos:02d}|{d.kind}|{d.strike_delta_pct:.2f}|{d.tenor_days:03d}"


def parse_descriptor_id(text: str) -> UeiDescriptor:
    """Inverse of :func:`descriptor_id`."""
    parts = text.split("|")
    if len(parts) != 4:
        raise UniverseError(f"malformed descriptor id {text!r}")
    pos_s, kind_s, k_s, t_s = parts
    try:
        pos = int(pos_s)
        kind = Kind(kind_s)
    except ValueError as exc:
        raise UniverseError(f"malformed descriptor id {text!r}") from exc
    if kind is Kind.STOCK:
        if (k_s, t_s) != ("-", "-"):
            raise UniverseError(f"stock descriptor id must omit strike/tenor: {text!r}")
        return UeiDescriptor(pos, kind)
    return UeiDescriptor(pos, kind, strike_delta_pct=float(k_s), tenor_days=int(t_s))


@dataclass(frozen=True)
class UnderlyingSpec:
    """Declares one underlying and the option/linear slots built on it.

    ``option_notional_bound`` and ``linear_notional_bound`` are symmetric
    half-widths for the per-slot notional grids; they may be left ``None``
    and derived later from portfolio sensitivities.  Spreads: ``spot_spread``
    is relative, ``futures_spread`` is monetary (EUR per unit notional) and
    ``vol_spread_by_strike`` maps the delta-quoted strike to an absolute
    volatility spread (0.005 means half a vol point).
    """

    ticker: str
    category: Category
    tenor_domain: tuple[int, ...]
    option_notional_bound: Optional[int] = None
    linear_notional_bound: Optional[int] = None
    spot_spread: float = 0.0
    futures_spread: float = 0.0
    vol_spread_by_strike: Mapping[float, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.ticker or self.ticker[0].isdigit():
            raise UniverseError(f"invalid ticker {self.ticker!r} (must not start with a digit)")
        if not self.tenor_domain:
            raise UniverseError(f"{self.ticker}: empty tenor domain")
        if any(t <= 0 for t in self.tenor_domain):
            raise UniverseError(f"{self.ticker}: tenors must be positive")
        if list(self.tenor_domain) != sorted(set(self.tenor_domain)):
            raise UniverseError(f"{self.ticker}: tenor domain must be strictly increasing")
        for name in ("option_notional_bound", "linear_notional_bound"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise UniverseError(f"{self.ticker}: {name} must be positive")
        if self.spot_spread < 0 or self.futures_spread < 0:
            raise UniverseError(f"{self.ticker}: spreads must be non-negative")
        if any(v < 0 for v in self.vol_spread_by_strike.values()):
            raise UniverseError(f"{self.ticker}: vol spreads must be non-negative")


def build_universe(specs: Sequence[UnderlyingSpec]) -> list[UeiDescriptor]:
    """Enumerate the eligible-instrument universe for sorted underlying specs.

    Per stock underlying: {call, put} x strikes x tenors plus the stock
    itself.  Per index underlying: {call, put, futures} x strikes x tenors
    (futures enumerate the strike label so the universe cardinality follows
    the 9-per-tenor layout).  The result is sorted by descriptor id; the
    1-based position of each descriptor is its universe index.
    """
    tickers = [s.ticker for s in specs]
    if len(set(tickers)) != len(tickers):
        raise UniverseError("duplicate tickers in universe spec")
    if tickers != sorted(tickers):
        raise UniverseError("underlying specs must be sorted lexicographically by ticker")

    out: list[UeiDescriptor] = []
    for pos, spec in enumerate(specs, start=1):
        option_kinds = (Kind.CALL, Kind.PUT)
        dated_kinds = option_kinds if spec.category is Category.STOCK else option_kinds + (Kind.FUTURES,)
        for kind in dated_kinds:
            for strike in CANONICAL_STRIKES:
                for tenor in spec.tenor_domain:
                    out.append(UeiDescriptor(pos, kind, strike, tenor))
        if spec.category is Category.STOCK:
            out.append(UeiDescriptor(pos, Kind.STOCK))
    out.sort(key=lambda d: d.id)
    return out


# ---------------------------------------------------------------------------
# Static instruments (initial-portfolio holdings outside the eligible universe)
# ---------------------------------------------------------------------------


class Exercise(str, Enum):
    EUROPEAN = "e"
    AMERICAN = "a"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class StaticInstrument:
    """An initial-portfolio holding, identified by ticker rather than universe index.

    Ids: ``TICKER|s`` (stock), ``TICKER|q|TTT`` (futures),
    ``TICKER|c|STRIKE|TTT|e`` / ``...|a`` (options with absolute strikes).
    """

    ticker: str
    kind: Kind
    strike: Optional[float] = None
    tenor_days: Optional[int] = None
    exercise: Optional[Exercise] = None

    def __post_init__(self) -> None:
        if self.kind.is_option:
            if self.strike is None or self.strike <= 0:
                raise UniverseError(f"{self.ticker}: option strike must be positive")
            if self.tenor_days is None or self.tenor_days <= 0:
                raise UniverseError(f"{self.ticker}: option tenor must be positive")
            if self.exercise is None:
                raise UniverseError(f"{self.ticker}: option exercise style required")
        elif self.kind is Kind.FUTURES:
            if self.tenor_days is None or self.tenor_days <= 0:
                raise UniverseError(f"{self.ticker}: futures tenor must be positive")
        else:
            if self.strike is not None or self.tenor_days is not None:
                raise UniverseError(f"{self.ticker}: stock carries no strike/tenor")

    @property
    def id(self) -> str:
        if self.kind is Kind.STOCK:
            return f"{self.ticker}|s"
        if self.kind is Kind.FUTURES:
            return f"{self.ticker}|q|{self.tenor_days:03d}"
        return f"{self.ticker}|{self.kind}|{self.strike:.4f}|{self.tenor_days:03d}|{self.exercise}"


def parse_static_id(text: str) -> StaticInstrument:
    parts = text.split("|")
    try:
        if len(parts) == 2:
            return StaticInstrument(parts[0], Kind(parts[1]))
        if len(parts) == 3:
            return StaticInstrument(parts[0], Kind(parts[1]), tenor_days=int(parts[2]))
        if len(parts) == 5:
            return StaticInstrument(
                parts[0], Kind(parts[1]), strike=float(parts[2]),
                tenor_days=int(parts[3]), exercise=Exercise(parts[4]),
            )
    except (ValueError, UniverseError) as exc:
        raise UniverseError(f"malformed static instrument id {text!r}") from exc
    raise UniverseError(f"malformed static instrument id {text!r}")


def is_uei_id(text: str) -> bool:
    """Universe ids start with the zero-padded underlying position; tickers never start with a digit."""
    return bool(text) and text[0].isdigit()


# ---------------------------------------------------------------------------
# Portfolio
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Portfolio:
    """A list of (instrument id, signed integer notional) legs with multiset semantics."""

    legs: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        for instrument_id, notional in self.legs:
            if not isinstance(notional, int):
                raise ValueError(f"notional for {instrument_id} must be an integer, got {notional!r}")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, int]]) -> "Portfolio":
        return cls(tuple((str(i), int(n)) for i, n in pairs))

    def merged(self) -> "Portfolio":
        """Sum duplicate ids and drop zero-notional legs, preserving first-seen order."""
        totals: dict[str, int] = {}
        for instrument_id, notional in self.legs:
            totals[instrument_id] = totals.get(instrument_id, 0) + notional
        return Portfolio(tuple((i, n) for i, n in totals.items() if n != 0))

    def __len__(self) -> int:
        return len(self.legs)


# ---------------------------------------------------------------------------
# Market data
# ---------------------------------------------------------------------------

VolSurface = Union[float, Mapping[tuple[float, int], float]]


@dataclass(frozen=True)
class UnderlyingMarket:
    """Base market state for one underlying, monetary fields already in EUR."""

    spot: float
    vol: VolSurface
    div_yield: float
    currency: str
    spot_spread: float = 0.0
    futures_spread: float = 0.0
    vol_spread_by_strike: Mapping[float, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.spot <= 0:
            raise ValueError(f"spot must be positive, got {self.spot}")
        if isinstance(self.vol, Mapping):
            if not self.vol or any(v <= 0 for v in self.vol.values()):
                raise ValueError("vol surface must be non-empty with positive vols")
        elif self.vol <= 0:
            raise ValueError(f"vol must be positive, got {self.vol}")

    def vol_for(self, strike_delta_pct: Optional[float], tenor_days: Optional[int]) -> float:
        if not isinstance(self.vol, Mapping):
            return float(self.vol)
        key = (strike_delta_pct, tenor_days)
        if key in self.vol:
            return float(self.vol[key])
        raise QuoteError(f"no vol quoted for (K={strike_delta_pct}, T={tenor_days})")

    def vol_spread_for(self, strike_delta_pct: float) -> float:
        try:
            return float(self.vol_spread_by_strike[strike_delta_pct])
        except KeyError:
            raise QuoteError(f"no vol spread quoted for K={strike_delta_pct}") from None


@dataclass(frozen=True)
class CurrencyMarket:
    rate: float
    fx_eur: float = 1.0

    def __post_init__(self) -> None:
        if self.fx_eur <= 0:
            raise ValueError(f"fx_eur must be positive, got {self.fx_eur}")


@dataclass(frozen=True)
class MarketData:
    """Per-underlying quotes plus per-currency rates; immutable after construction."""

    underlyings: Mapping[str, UnderlyingMarket]
    currencies: Mapping[str, CurrencyMarket]

    def __post_init__(self) -> None:
        for ticker, record in self.underlyings.items():
            if record.currency not in self.currencies:
                raise ValueError(f"{ticker}: unknown currency {record.currency!r}")

    def underlying(self, ticker: str) -> UnderlyingMarket:
        try:
            return self.underlyings[ticker]
        except KeyError:
            raise KeyError(f"no market data for underlying {ticker!r}") from None

    def rate_for(self, ticker: str) -> float:
        return self.currencies[self.underlying(ticker).currency].rate


# ---------------------------------------------------------------------------
# Risk scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSet:
    """Historical-style one-day shocks per scenario and risk factor.

    ``spot_returns`` are multiplicative (0.02 means +2%), ``vol_shifts`` and
    ``rate_shifts`` additive.  Row order is temporal: the last row is the
    most recent scenario.
    """

    tickers: tuple[str, ...]
    currencies: tuple[str, ...]
    spot_returns: np.ndarray
    vol_shifts: np.ndarray
    rate_shifts: np.ndarray

    def __post_init__(self) -> None:
        s = self.spot_returns.shape[0]
        if s < 1:
            raise ValueError("scenario set must contain at least one scenario")
        if self.spot_returns.shape != (s, len(self.tickers)):
            raise ValueError("spot_returns shape mismatch")
        if self.vol_shifts.shape != (s, len(self.tickers)):
            raise ValueError("vol_shifts shape mismatch")
        if self.rate_shifts.shape != (s, len(self.currencies)):
            raise ValueError("rate_shifts shape mismatch")
        for arr in (self.spot_returns, self.vol_shifts, self.rate_shifts):
            if not np.all(np.isfinite(arr)):
                raise ValueError("scenario shocks must be finite")
            arr.setflags(write=False)

    @property
    def count(self) -> int:
        return int(self.spot_returns.shape[0])

    def column(self, ticker: str) -> int:
        return self.tickers.index(ticker)

    def currency_column(self, currency: str) -> int:
        return self.currencies.index(currency)
