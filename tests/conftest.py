"""Shared fixtures: hand-built toy problems with exactly known numbers, and
session-scoped synthetic instances for the heavier integration tests."""

from __future__ import annotations

import numpy as np
import pytest

from ratpo import build_universe
from ratpo.cli import ProblemConfig, assemble_problem
from ratpo.datagen import DEFAULT_UNDERLYINGS, gen_dataset
from ratpo.features import FeatureLab, FeatureTable, InstrumentFeatures, PortfolioFeatures
from ratpo.instruments import Category, CurrencyMarket, MarketData, ScenarioSet, UnderlyingMarket, UnderlyingSpec
from ratpo.problem import ConstraintSpec, EosStructure, ProblemInstance, SlotSpec
from ratpo.risk import VarConfig

VOL_SPREADS = {0.10: 0.006, 0.25: 0.005, 0.50: 0.004}


# ---------------------------------------------------------------------------
# Hand-built toy problem: three instruments, four scenarios, all numbers exact
# ---------------------------------------------------------------------------


def make_toy_problem(
    tau: float = 0.5,
    penalties: tuple[float, float, float] = (10.0, 10.0, 10.0),
    pnl_rf: float = 5.0,
) -> ProblemInstance:
    ids = ("01|c|0.50|021", "01|p|0.50|021", "01|q|0.10|021")
    feats = {
        ids[0]: InstrumentFeatures(10.0, np.array([10.0, -5.0, 0.0, 5.0]), 2.0, 1.0, 0.5, 1.0),
        ids[1]: InstrumentFeatures(8.0, np.array([-10.0, 5.0, 0.0, -5.0]), -2.0, 1.0, 0.5, 1.0),
        ids[2]: InstrumentFeatures(0.0, np.array([20.0, -10.0, 0.0, 10.0]), 4.0, 0.0, 0.0, 0.5),
    }
    table = FeatureTable(feats, scenario_count=4)
    init = PortfolioFeatures(1000.0, np.array([-100.0, 50.0, 10.0, 40.0]), 8.0, 4.0, 2.0, 0.0)
    grid = (-2, -1, 0, 1, 2)
    structure = EosStructure(1, (
        SlotSpec(1, 2, grid), SlotSpec(1, 2, grid), SlotSpec(3, 3, (-1, 0, 1)),
    ))
    constraints = ConstraintSpec(
        tau, tau, tau, base_delta=init.delta, base_vega=init.vega, base_gamma=init.gamma,
        penalty_delta=penalties[0], penalty_vega=penalties[1], penalty_gamma=penalties[2],
    )
    return ProblemInstance(
        universe_ids=ids,
        structure=structure,
        table=table,
        init=init,
        pnl_rf=pnl_rf,
        var_cfg=VarConfig(0.01, 0.99, 4),
        constraints=constraints,
    )


@pytest.fixture
def toy_problem() -> ProblemInstance:
    return make_toy_problem()


# ---------------------------------------------------------------------------
# Minimal hand-built market for feature tests
# ---------------------------------------------------------------------------


def simple_specs() -> list[UnderlyingSpec]:
    return [
        UnderlyingSpec(".IDX", Category.STOCK_INDEX, (21, 49), spot_spread=0.0005,
                       futures_spread=0.5, vol_spread_by_strike=dict(VOL_SPREADS)),
        UnderlyingSpec("ACME", Category.STOCK, (21, 49), spot_spread=0.001,
                       vol_spread_by_strike=dict(VOL_SPREADS)),
    ]


def simple_market(spot_stock: float = 100.0, spot_index: float = 3000.0,
                  vol: float = 0.2, rate: float = 0.0, div: float = 0.0) -> MarketData:
    return MarketData(
        underlyings={
            ".IDX": UnderlyingMarket(spot_index, vol, div, "EUR", spot_spread=0.0005,
                                     futures_spread=0.5, vol_spread_by_strike=dict(VOL_SPREADS)),
            "ACME": UnderlyingMarket(spot_stock, vol, div, "EUR", spot_spread=0.001,
                                     vol_spread_by_strike=dict(VOL_SPREADS)),
        },
        currencies={"EUR": CurrencyMarket(rate=rate)},
    )


def simple_scenarios(spot_returns=None, vol_shifts=None, rate_shifts=None, count: int = 4) -> ScenarioSet:
    tickers = (".IDX", "ACME")
    ccys = ("EUR",)
    zeros_u = np.zeros((count, 2))
    zeros_c = np.zeros((count, 1))
    return ScenarioSet(
        tickers, ccys,
        zeros_u.copy() if spot_returns is None else np.asarray(spot_returns, float),
        zeros_u.copy() if vol_shifts is None else np.asarray(vol_shifts, float),
        zeros_c.copy() if rate_shifts is None else np.asarray(rate_shifts, float),
    )


@pytest.fixture
def simple_lab() -> FeatureLab:
    return FeatureLab(simple_market(), simple_scenarios(), simple_specs())


# ---------------------------------------------------------------------------
# Session-scoped synthetic instances
# ---------------------------------------------------------------------------

REDUCED_SEED = 7


def build_problem_from_dataset(dataset, tau: float, grid_points: int) -> ProblemInstance:
    """The CLI's problem assembly on an in-memory dataset, with default config otherwise."""
    cfg = ProblemConfig(tau_delta=tau, tau_vega=tau, tau_gamma=tau, grid_points=grid_points)
    return assemble_problem(dataset, cfg)


@pytest.fixture(scope="session")
def reduced_dataset():
    return gen_dataset(REDUCED_SEED, profile="reduced")


@pytest.fixture(scope="session")
def reduced_problem(reduced_dataset) -> ProblemInstance:
    """Single-index, two-tenor instance with 9-point grids (~6.3e5 positions)."""
    return build_problem_from_dataset(reduced_dataset, tau=0.5, grid_points=9)


@pytest.fixture(scope="session")
def table1_problem() -> ProblemInstance:
    """The paper's headline instance: 620 instruments, 21-point grids, tau 0.5."""
    return build_problem_from_dataset(gen_dataset(42, profile="table1"), tau=0.5, grid_points=21)


@pytest.fixture(scope="session")
def small_universe():
    specs = [s for s in DEFAULT_UNDERLYINGS if s.ticker == ".STOXX50E"]
    return specs, build_universe(specs)
