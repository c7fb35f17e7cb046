import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import simple_market, simple_scenarios, simple_specs
from reference import add_features, resolve

from ratpo.features import FeatureError, FeatureLab, FeatureTable, InstrumentFeatures, aggregate
from ratpo.instruments import Exercise, Kind, Portfolio, StaticInstrument
from ratpo import pricing


def lab_with(spot_returns=None, vol_shifts=None, rate_shifts=None, **market_kw):
    return FeatureLab(
        simple_market(**market_kw),
        simple_scenarios(spot_returns, vol_shifts, rate_shifts),
        simple_specs(),
    )


def compute(lab, instrument_id):
    return lab.build_table([instrument_id])[instrument_id]


STOCK_ID = StaticInstrument("ACME", Kind.STOCK).id
FUTURES_ID = StaticInstrument(".IDX", Kind.FUTURES, tenor_days=21).id


class TestComputeFeatures:
    def test_zero_scenarios_give_zero_pnl(self, simple_lab):
        f = compute(simple_lab, STOCK_ID)
        assert np.all(f.pnl == 0.0)

    def test_stock_two_percent_return(self):
        returns = np.zeros((4, 2))
        returns[:, 1] = 0.02  # ACME column
        lab = lab_with(spot_returns=returns)
        f = compute(lab, STOCK_ID)
        assert f.value == 100.0
        assert f.pnl == pytest.approx(np.full(4, 2.0), abs=1e-12)

    def test_call_scenario_pnl_equals_bump_delta(self):
        returns = np.zeros((4, 2))
        returns[0, 1] = 0.01  # same relative shock as the Delta bump
        lab = lab_with(spot_returns=returns)
        uei_call = "02|c|0.50|021"  # ACME is the second spec
        f = compute(lab, uei_call)
        assert f.pnl[0] == f.delta

    def test_futures_base_value_zero_and_scenario_pnl(self):
        returns = np.zeros((4, 2))
        returns[1, 0] = 0.05  # .IDX column
        lab = lab_with(spot_returns=returns, rate=0.02)
        f = compute(lab, FUTURES_ID)
        assert f.value == 0.0
        tau = 21 / 360
        expected = pricing.forward(3000 * 1.05, tau, 0.02, 0.0) - pricing.forward(3000, tau, 0.02, 0.0)
        assert f.pnl[1] == pytest.approx(expected, rel=1e-12)
        assert f.pnl[0] == 0.0

    def test_american_static_priced_by_early_exercise_path(self):
        lab = lab_with(rate=0.04)
        am_id = StaticInstrument("ACME", Kind.PUT, strike=110.0, tenor_days=180,
                                 exercise=Exercise.AMERICAN).id
        eu_id = StaticInstrument("ACME", Kind.PUT, strike=110.0, tenor_days=180,
                                 exercise=Exercise.EUROPEAN).id
        am, eu = compute(lab, am_id), compute(lab, eu_id)
        assert am.value > eu.value

    def test_rate_shift_moves_priced_instruments(self):
        shifts = np.zeros((4, 1))
        shifts[2, 0] = 0.01
        lab = lab_with(rate_shifts=shifts, rate=0.01)
        f = compute(lab, "01|c|0.50|049")  # .IDX call
        assert f.pnl[2] != 0.0

    def test_unresolvable_id_rejected(self, simple_lab):
        with pytest.raises(FeatureError):
            compute(simple_lab, "99|c|0.50|021")
        with pytest.raises(FeatureError):
            compute(simple_lab, "UNKNOWN|s")


class TestUnitCost:
    def test_stock_half_spread_on_full_exposure(self, simple_lab):
        # Delta = 1% of spot, exposure = spot, cost = spot * spread / 2.
        f = compute(simple_lab, STOCK_ID)
        assert f.unit_cost == pytest.approx(0.5 * 100.0 * 0.001, rel=1e-12)

    def test_futures_flat_half_spread(self, simple_lab):
        f = compute(simple_lab, FUTURES_ID)
        assert f.unit_cost == 0.5 * 0.5

    def test_option_cost_includes_vega_leg(self, simple_lab):
        f = compute(simple_lab, "02|c|0.50|021")
        delta_leg = 0.5 * (100.0 * abs(f.delta)) * 0.001
        vega_leg = 0.5 * (100.0 * abs(f.vega)) * 0.004
        assert f.unit_cost == pytest.approx(delta_leg + vega_leg, rel=1e-12)

    def test_zero_vega_kills_the_vega_leg(self, simple_lab):
        market = simple_market().underlying("ACME")
        cost = simple_lab._unit_cost(market, Kind.PUT, delta=-0.9, vega=0.0, strike_pct=0.25)
        assert cost == pytest.approx(0.5 * 100.0 * 0.9 * 0.001, rel=1e-12)

    def test_cost_non_negative_for_puts(self, simple_lab):
        f = compute(simple_lab, "02|p|0.10|049")
        assert f.delta < 0
        assert f.unit_cost > 0


class TestAggregate:
    def build_table(self):
        pnl_a = np.array([1.0, -2.0, 3.0])
        pnl_b = np.array([0.5, 0.5, -1.0])
        return FeatureTable({
            "a": InstrumentFeatures(10.0, pnl_a, 1.0, 0.5, 0.25, 2.0),
            "b": InstrumentFeatures(20.0, pnl_b, -2.0, 1.5, 0.1, 3.0),
        }, scenario_count=3)

    def test_homogeneity(self):
        table = self.build_table()
        one = aggregate(table, Portfolio.from_pairs([("a", 1)]))
        two = aggregate(table, Portfolio.from_pairs([("a", 2)]))
        assert two.value == 2 * one.value
        assert np.all(two.pnl == 2 * one.pnl)
        assert two.delta == 2 * one.delta
        assert two.cost == 2 * one.cost

    def test_portfolio_of_one_equals_instrument_features(self):
        table = self.build_table()
        f = table["a"]
        one = aggregate(table, Portfolio.from_pairs([("a", 1)]))
        assert (one.delta, one.vega, one.gamma) == (f.delta, f.vega, f.gamma)
        assert one.value == f.value
        assert np.array_equal(one.pnl, f.pnl)
        assert one.cost == f.unit_cost

    def test_cost_uses_absolute_notional(self):
        table = self.build_table()
        short = aggregate(table, Portfolio.from_pairs([("b", -3)]))
        assert short.cost == 9.0
        assert short.delta == 6.0

    def test_additive_under_portfolio_union(self):
        table = self.build_table()
        p = Portfolio.from_pairs([("a", 2), ("b", -1)])
        h = Portfolio.from_pairs([("a", -5), ("b", 4)])
        combined = aggregate(table, Portfolio(p.legs + h.legs))
        separate = add_features(aggregate(table, p), aggregate(table, h))
        assert combined.value == pytest.approx(separate.value, rel=1e-15)
        assert combined.cost == pytest.approx(separate.cost, rel=1e-15)
        assert np.allclose(combined.pnl, separate.pnl, rtol=1e-15)

    def test_cost_symmetry_under_negation(self):
        table = self.build_table()
        p = Portfolio.from_pairs([("a", 7), ("b", -4)])
        n = Portfolio.from_pairs([("a", -7), ("b", 4)])
        assert aggregate(table, p).cost == aggregate(table, n).cost

    def test_missing_id_rejected(self):
        with pytest.raises(FeatureError):
            aggregate(self.build_table(), Portfolio.from_pairs([("zzz", 1)]))


class TestAggregationOracle:
    """Aggregated features must agree with repricing the combined book scenario
    by scenario through the pricing engine (the independent path)."""

    @staticmethod
    def direct_book_pnl(legs, market, scenarios, lab):
        """Reprice every leg under every scenario straight from the pricer."""
        out = np.zeros(scenarios.count)
        for instrument_id, notional in legs:
            ticker, _, base = resolve(lab, instrument_id)
            col = scenarios.column(ticker)
            ccy = scenarios.currency_column(market.underlying(ticker).currency)
            v0 = pricing.price(base)
            for i in range(scenarios.count):
                shocked = replace(
                    base,
                    spot=base.spot * (1.0 + scenarios.spot_returns[i, col]),
                    vol=base.vol + scenarios.vol_shifts[i, col],
                    rate=base.rate + scenarios.rate_shifts[i, ccy],
                )
                out[i] += notional * (pricing.price(shocked) - v0)
        return out

    def test_aggregated_pnl_matches_direct_combined_repricing(self):
        rng = np.random.default_rng(11)
        returns = rng.normal(0, 0.01, size=(6, 2))
        vol_shifts = rng.normal(0, 0.002, size=(6, 2))
        rate_shifts = rng.normal(0, 2e-4, size=(6, 1))
        market = simple_market(rate=0.015, div=0.01)
        scenarios = simple_scenarios(returns, vol_shifts, rate_shifts, count=6)
        lab = FeatureLab(market, scenarios, simple_specs())
        ids = ["01|c|0.25|021", "01|q|0.10|049", "02|p|0.50|049", STOCK_ID,
               StaticInstrument("ACME", Kind.CALL, strike=105.0, tenor_days=90,
                                exercise=Exercise.AMERICAN).id]
        table = lab.build_table(ids)

        for _ in range(50):
            notionals = rng.integers(-50, 51, size=len(ids))
            book = Portfolio.from_pairs([(i, int(n)) for i, n in zip(ids, notionals)])
            agg = aggregate(table, book)
            direct = self.direct_book_pnl(book.legs, market, scenarios, lab)
            scale = max(1.0, float(np.max(np.abs(direct))))
            assert np.max(np.abs(agg.pnl - direct)) / scale < 1e-9
