"""Synthetic market data, risk scenarios and initial portfolios.

Real desk data is proprietary, so tests and demos run on generated inputs
that keep the structural properties that matter: a multi-currency universe
of stocks and indexes with per-underlying tenor ladders and notional ranges,
heavy-tailed correlated daily returns (Student-t mixing keeps the 1% VaR
tail-driven), and an initial book mixing stocks, futures and European and
American options.

Everything is deterministic in the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .instruments import (
    Category,
    CurrencyMarket,
    Exercise,
    Kind,
    MarketData,
    Portfolio,
    ScenarioSet,
    StaticInstrument,
    UnderlyingMarket,
    UnderlyingSpec,
)

_VOL_SPREADS = {0.10: 0.006, 0.25: 0.005, 0.50: 0.004}

_TENORS_6 = (21, 49, 84, 168, 266, 630)
_TENORS_7A = (21, 49, 84, 168, 266, 476, 630)
_TENORS_7B = (21, 49, 112, 168, 266, 476, 630)


def _stock(ticker: str, tenors, opt_bound: int, lin_bound: int) -> UnderlyingSpec:
    return UnderlyingSpec(
        ticker, Category.STOCK, tenors, opt_bound, lin_bound,
        spot_spread=0.001, futures_spread=0.0, vol_spread_by_strike=dict(_VOL_SPREADS),
    )


def _index(ticker: str, tenors, opt_bound: int, lin_bound: int) -> UnderlyingSpec:
    return UnderlyingSpec(
        ticker, Category.STOCK_INDEX, tenors, opt_bound, lin_bound,
        spot_spread=0.0005, futures_spread=0.5, vol_spread_by_strike=dict(_VOL_SPREADS),
    )


#: Thirteen underlyings (eight stocks, five indexes), sorted by ticker,
#: with tenor ladders and notional ranges shaped like a real equity desk.
DEFAULT_UNDERLYINGS: tuple[UnderlyingSpec, ...] = (
    _index(".FTMIB", _TENORS_6, 800, 500),
    _index(".FTSE", _TENORS_6, 2_000, 2_000),
    _index(".GSPC", _TENORS_7A, 7_000, 3_000),
    _index(".NDX", _TENORS_7A, 3_000, 1_000),
    _index(".STOXX50E", _TENORS_6, 5_000, 3_000),
    _stock("AXAF.PA", _TENORS_6, 760_000, 340_000),
    _stock("FB.O", _TENORS_7B, 120_000, 50_000),
    _stock("GTO.AS", _TENORS_6, 310_000, 160_000),
    _stock("IBM.N", _TENORS_7B, 130_000, 60_000),
    _stock("KO.N", _TENORS_7B, 410_000, 190_000),
    _stock("ORCL.N", _TENORS_7A, 370_000, 140_000),
    _stock("PG.N", _TENORS_7B, 230_000, 110_000),
    _stock("T.N", _TENORS_7B, 570_000, 280_000),
)

DEFAULT_CURRENCY = {
    ".FTMIB": "EUR", ".FTSE": "GBP", ".GSPC": "USD", ".NDX": "USD", ".STOXX50E": "EUR",
    "AXAF.PA": "EUR", "FB.O": "USD", "GTO.AS": "EUR", "IBM.N": "USD", "KO.N": "USD",
    "ORCL.N": "USD", "PG.N": "USD", "T.N": "USD",
}


def currency_of(ticker: str) -> str:
    if ticker in DEFAULT_CURRENCY:
        return DEFAULT_CURRENCY[ticker]
    if ticker.endswith((".N", ".O", ".OQ")):
        return "USD"
    if ticker.endswith(".L"):
        return "GBP"
    return "EUR"


# ---------------------------------------------------------------------------
# Market data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MarketGenConfig:
    stock_spot_band: tuple[float, float] = (25.0, 250.0)
    index_spot_band: tuple[float, float] = (1_500.0, 12_000.0)
    vol_band: tuple[float, float] = (0.10, 0.40)
    div_band: tuple[float, float] = (0.0, 0.035)
    rate_band: tuple[float, float] = (-0.005, 0.03)
    fx_band: tuple[float, float] = (0.8, 1.3)


def gen_market(
    seed: int,
    specs: Sequence[UnderlyingSpec],
    config: MarketGenConfig = MarketGenConfig(),
) -> MarketData:
    """Flat-vol market snapshot, already converted to EUR."""
    rng = np.random.default_rng(seed)
    currencies = sorted({currency_of(s.ticker) for s in specs} | {"EUR"})
    ccy_records: dict[str, CurrencyMarket] = {}
    fx: dict[str, float] = {}
    for ccy in currencies:
        rate = rng.uniform(*config.rate_band)
        fx[ccy] = 1.0 if ccy == "EUR" else rng.uniform(*config.fx_band)
        ccy_records[ccy] = CurrencyMarket(rate=rate, fx_eur=1.0)

    underlyings: dict[str, UnderlyingMarket] = {}
    for spec in specs:
        band = config.stock_spot_band if spec.category is Category.STOCK else config.index_spot_band
        spot_native = math.exp(rng.uniform(math.log(band[0]), math.log(band[1])))
        vol = rng.uniform(*config.vol_band)
        div = rng.uniform(*config.div_band)
        ccy = currency_of(spec.ticker)
        underlyings[spec.ticker] = UnderlyingMarket(
            spot=spot_native * fx[ccy],
            vol=vol,
            div_yield=div,
            currency=ccy,
            spot_spread=spec.spot_spread,
            futures_spread=spec.futures_spread,
            vol_spread_by_strike=dict(spec.vol_spread_by_strike),
        )
    return MarketData(underlyings, ccy_records)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioGenConfig:
    tail_df: float = 5.0
    correlation: float = 0.3
    ret_scale: float = 0.012
    vol_shift_scale: float = 0.002
    rate_shift_scale: float = 2e-4

    def __post_init__(self) -> None:
        if self.tail_df <= 2.0:
            raise ValueError("tail_df must exceed 2 so returns have finite variance")
        if not 0.0 <= self.correlation < 1.0:
            raise ValueError("correlation must be in [0, 1)")


def gen_scenarios(
    seed: int,
    count: int,
    specs: Sequence[UnderlyingSpec],
    currencies: Optional[Sequence[str]] = None,
    config: ScenarioGenConfig = ScenarioGenConfig(),
) -> ScenarioSet:
    """Correlated Student-t daily spot returns plus small vol and rate shifts.

    A single chi-square mixing variable per scenario makes large moves hit
    all underlyings together, which is what compresses the left tail.
    """
    if count < 1:
        raise ValueError("scenario count must be >= 1")
    rng = np.random.default_rng(seed)
    tickers = tuple(s.ticker for s in specs)
    if currencies is None:
        currencies = sorted({currency_of(t) for t in tickers} | {"EUR"})
    currencies = tuple(currencies)

    u = len(tickers)
    common = rng.standard_normal((count, 1))
    idio = rng.standard_normal((count, u))
    mixing = rng.chisquare(config.tail_df, size=(count, 1))
    rho = config.correlation
    gaussian = math.sqrt(rho) * common + math.sqrt(1.0 - rho) * idio
    student = gaussian / np.sqrt(mixing / config.tail_df)
    # Rescale so the marginal standard deviation equals ret_scale.
    returns = config.ret_scale * math.sqrt((config.tail_df - 2.0) / config.tail_df) * student

    vol_shifts = config.vol_shift_scale * rng.standard_normal((count, u))
    rate_shifts = config.rate_shift_scale * rng.standard_normal((count, len(currencies)))
    return ScenarioSet(tickers, currencies, returns, vol_shifts, rate_shifts)


# ---------------------------------------------------------------------------
# Initial portfolio
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PortfolioProfile:
    """Leg counts by type plus sizing knobs for the generated book."""

    n_stocks: int = 75
    n_futures: int = 14
    n_european: int = 10
    n_american: int = 28
    exposure_band: tuple[float, float] = (50_000.0, 400_000.0)
    stock_long_prob: float = 0.7
    futures_long_prob: float = 0.3
    moneyness_band: tuple[float, float] = (0.85, 1.15)


ZERO_PROFILE = PortfolioProfile(n_stocks=0, n_futures=0, n_european=0, n_american=0)


def gen_portfolio(
    seed: int,
    specs: Sequence[UnderlyingSpec],
    market: MarketData,
    profile: PortfolioProfile = PortfolioProfile(),
) -> Portfolio:
    """Random initial book with the profile's exact type counts."""
    rng = np.random.default_rng(seed)
    stocks = [s for s in specs if s.category is Category.STOCK]
    indexes = [s for s in specs if s.category is Category.STOCK_INDEX]

    def pick(pool: Sequence[UnderlyingSpec]) -> UnderlyingSpec:
        return pool[int(rng.integers(0, len(pool)))]

    def sized_notional(ticker: str, long_prob: float) -> int:
        exposure = rng.uniform(*profile.exposure_band)
        sign = 1 if rng.uniform() < long_prob else -1
        return sign * max(1, round(exposure / market.underlying(ticker).spot))

    def option_leg(pool: Sequence[UnderlyingSpec], exercise: Exercise) -> tuple[str, int]:
        spec = pick(pool)
        kind = Kind.CALL if rng.uniform() < 0.5 else Kind.PUT
        tenor = int(spec.tenor_domain[int(rng.integers(0, len(spec.tenor_domain)))])
        strike = round(market.underlying(spec.ticker).spot * rng.uniform(*profile.moneyness_band), 4)
        inst = StaticInstrument(spec.ticker, kind, strike=strike, tenor_days=tenor, exercise=exercise)
        return inst.id, sized_notional(spec.ticker, 0.5)

    legs: list[tuple[str, int]] = []
    for _ in range(profile.n_stocks):
        spec = pick(stocks or specs)
        legs.append((StaticInstrument(spec.ticker, Kind.STOCK).id, sized_notional(spec.ticker, profile.stock_long_prob)))
    for _ in range(profile.n_futures):
        spec = pick(indexes or specs)
        tenor = int(spec.tenor_domain[int(rng.integers(0, len(spec.tenor_domain)))])
        inst = StaticInstrument(spec.ticker, Kind.FUTURES, tenor_days=tenor)
        legs.append((inst.id, sized_notional(spec.ticker, profile.futures_long_prob)))
    for _ in range(profile.n_european):
        legs.append(option_leg(indexes or specs, Exercise.EUROPEAN))
    for _ in range(profile.n_american):
        legs.append(option_leg(stocks or specs, Exercise.AMERICAN))
    return Portfolio.from_pairs(legs)


# ---------------------------------------------------------------------------
# Dataset orchestration
# ---------------------------------------------------------------------------


def reduced_stoxx_spec() -> UnderlyingSpec:
    """A single-index universe cut down to a brute-force-friendly size: its
    first two tenors."""
    base = next(s for s in DEFAULT_UNDERLYINGS if s.ticker == ".STOXX50E")
    return replace(base, tenor_domain=base.tenor_domain[:2])


PROFILES: dict[str, tuple[tuple[UnderlyingSpec, ...], PortfolioProfile]] = {
    "table1": (DEFAULT_UNDERLYINGS, PortfolioProfile()),
    "small": ((next(s for s in DEFAULT_UNDERLYINGS if s.ticker == ".STOXX50E"),), PortfolioProfile()),
    "reduced": ((reduced_stoxx_spec(),), PortfolioProfile()),
    "zero": (DEFAULT_UNDERLYINGS, ZERO_PROFILE),
}


@dataclass(frozen=True)
class Dataset:
    universe_specs: tuple[UnderlyingSpec, ...]
    market: MarketData
    scenarios: ScenarioSet
    portfolio: Portfolio


def gen_dataset(
    seed: int,
    profile: str = "table1",
    scenario_count: int = 250,
) -> Dataset:
    """Generate a full consistent input set.

    Market, scenarios and the initial portfolio always cover all default
    underlyings; the profile picks which subset forms the tradable universe.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; choose from {sorted(PROFILES)}")
    universe_specs, book_profile = PROFILES[profile]
    market = gen_market(seed, DEFAULT_UNDERLYINGS)
    scenarios = gen_scenarios(seed + 1, scenario_count, DEFAULT_UNDERLYINGS)
    portfolio = gen_portfolio(seed + 2, DEFAULT_UNDERLYINGS, market, book_profile)
    return Dataset(universe_specs, market, scenarios, portfolio)
