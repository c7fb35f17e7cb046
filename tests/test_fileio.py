import json

import numpy as np
import pytest

from ratpo.datagen import DEFAULT_UNDERLYINGS, gen_market, gen_portfolio, gen_scenarios
from ratpo.fileio import (
    SchemaError,
    load_market,
    load_portfolio,
    load_scenarios,
    load_universe,
    save_features,
    save_market,
    save_portfolio,
    save_scenarios,
    save_universe,
)
from ratpo.features import FeatureTable, InstrumentFeatures
from ratpo.instruments import CurrencyMarket, MarketData, Portfolio, UnderlyingMarket


class TestUniverseFile:
    def test_round_trip_byte_identical(self, tmp_path):
        path = tmp_path / "universe.json"
        save_universe(DEFAULT_UNDERLYINGS, path)
        golden = path.read_bytes()
        save_universe(load_universe(path), path)
        assert path.read_bytes() == golden

    def test_loaded_specs_equal_originals(self, tmp_path):
        path = tmp_path / "universe.json"
        save_universe(DEFAULT_UNDERLYINGS, path)
        loaded = load_universe(path)
        assert [s.ticker for s in loaded] == [s.ticker for s in DEFAULT_UNDERLYINGS]
        assert loaded[0].tenor_domain == DEFAULT_UNDERLYINGS[0].tenor_domain
        assert loaded[0].vol_spread_by_strike == dict(DEFAULT_UNDERLYINGS[0].vol_spread_by_strike)

    def test_invalid_json_reports_file(self, tmp_path):
        path = tmp_path / "universe.json"
        path.write_text("not json")
        with pytest.raises(SchemaError, match="universe.json"):
            load_universe(path)

    def test_bad_entry_reports_index(self, tmp_path):
        path = tmp_path / "universe.json"
        path.write_text(json.dumps([{"ticker": "A"}]))
        with pytest.raises(SchemaError, match="entry 0"):
            load_universe(path)

    @pytest.mark.parametrize("keys, value, message", [
        (("spot_spread",), float("inf"), "non-finite"),
        (("vol_spread_by_strike", "0.50"), float("nan"), "non-finite"),
        (("option_notional_bound",), float("nan"), "notional bound must be an integer"),
        (("linear_notional_bound",), 2.5, "notional bound must be an integer"),
    ])
    def test_bad_number_rejected(self, tmp_path, keys, value, message):
        path = tmp_path / "universe.json"
        save_universe(DEFAULT_UNDERLYINGS, path)
        payload = json.loads(path.read_text())
        node = payload[1]
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=rf"universe\.json: entry 1: {message}"):
            load_universe(path)


class TestMarketFile:
    def test_round_trip_byte_identical_canonical_form(self, tmp_path):
        market = gen_market(11, DEFAULT_UNDERLYINGS)
        path = tmp_path / "market.json"
        save_market(market, path)
        golden = path.read_bytes()
        save_market(load_market(path), path)
        assert path.read_bytes() == golden

    def test_fx_conversion_applied_once_at_load(self, tmp_path):
        payload = {
            "currencies": {
                "EUR": {"rate": 0.01, "fx_eur": 1.0},
                "USD": {"rate": 0.02, "fx_eur": 1.1},
            },
            "underlyings": {
                "ACME": {"spot": 100.0, "vol": 0.2, "div_yield": 0.0, "currency": "USD",
                         "spot_spread": 0.001, "futures_spread": 2.0,
                         "vol_spread_by_strike": {"0.50": 0.004}},
            },
        }
        path = tmp_path / "market.json"
        path.write_text(json.dumps(payload))
        market = load_market(path)
        assert market.underlying("ACME").spot == pytest.approx(110.0)
        assert market.underlying("ACME").futures_spread == pytest.approx(2.2)
        assert market.currencies["USD"].fx_eur == 1.0
        assert market.currencies["USD"].rate == 0.02

    def test_vol_surface_round_trip(self, tmp_path):
        market = MarketData(
            underlyings={"ACME": UnderlyingMarket(
                spot=50.0, vol={(0.10, 21): 0.3, (0.50, 21): 0.2, (0.50, 49): 0.21},
                div_yield=0.0, currency="EUR",
            )},
            currencies={"EUR": CurrencyMarket(rate=0.01)},
        )
        path = tmp_path / "market.json"
        save_market(market, path)
        loaded = load_market(path)
        assert loaded.underlying("ACME").vol_for(0.50, 49) == 0.21
        save_market(loaded, tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("keys", [
        ("underlyings", "A", "spot"), ("underlyings", "A", "vol"), ("underlyings", "A", "div_yield"),
        ("underlyings", "A", "spot_spread"), ("underlyings", "A", "futures_spread"),
        ("underlyings", "A", "vol_spread_by_strike", "0.50"), ("underlyings", "B", "vol", "0.50", "021"),
        ("currencies", "EUR", "rate"), ("currencies", "EUR", "fx_eur"),
    ])
    def test_non_finite_number_rejected(self, tmp_path, keys):
        leg = {"spot": 100.0, "vol": 0.2, "div_yield": 0.0, "currency": "EUR", "spot_spread": 0.001,
               "futures_spread": 2.0, "vol_spread_by_strike": {"0.50": 0.004}}
        payload = {
            "currencies": {"EUR": {"rate": 0.01, "fx_eur": 1.0}},
            "underlyings": {"A": leg, "B": dict(leg, vol={"0.50": {"021": 0.2}})},
        }
        node = payload
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = float("nan") if len(keys) % 2 else float("inf")
        path = tmp_path / "market.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=r"market\.json: .*non-finite"):
            load_market(path)

    def test_unknown_currency_rejected(self, tmp_path):
        payload = {
            "currencies": {"EUR": {"rate": 0.01}},
            "underlyings": {"A": {"spot": 1.0, "vol": 0.2, "currency": "JPY"}},
        }
        path = tmp_path / "market.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match="JPY"):
            load_market(path)


class TestPortfolioFile:
    def test_round_trip_byte_identical(self, tmp_path):
        market = gen_market(1, DEFAULT_UNDERLYINGS)
        book = gen_portfolio(2, DEFAULT_UNDERLYINGS, market)
        path = tmp_path / "portfolio.csv"
        save_portfolio(book, path)
        golden = path.read_bytes()
        save_portfolio(load_portfolio(path), path)
        assert path.read_bytes() == golden
        assert load_portfolio(path).legs == book.legs

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "portfolio.csv"
        path.write_text("id,qty\nFB.O|s,10\n")
        with pytest.raises(SchemaError, match="header"):
            load_portfolio(path)

    def test_non_integer_notional_reports_line(self, tmp_path):
        path = tmp_path / "portfolio.csv"
        path.write_text("instrument_id,notional\nFB.O|s,10\nIBM.N|s,3.5\n")
        with pytest.raises(SchemaError, match="line 3"):
            load_portfolio(path)


class TestScenarioFile:
    def test_round_trip_byte_identical_and_counts(self, tmp_path):
        scenarios = gen_scenarios(3, 250, DEFAULT_UNDERLYINGS)
        path = tmp_path / "scenarios.csv"
        save_scenarios(scenarios, path)
        golden = path.read_bytes()
        loaded = load_scenarios(path)
        assert loaded.count == 250
        assert (loaded.tickers, loaded.currencies) == (scenarios.tickers, scenarios.currencies)
        for name in ("spot_returns", "vol_shifts", "rate_shifts"):
            got, want = getattr(loaded, name), getattr(scenarios, name)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
        save_scenarios(loaded, path)
        assert path.read_bytes() == golden

    def test_missing_volshift_column_named_in_error(self, tmp_path):
        path = tmp_path / "scenarios.csv"
        path.write_text("AAA_ret,BBB_ret,BBB_volshift,EUR_rateshift\n0.01,0.0,0.0,0.0\n")
        with pytest.raises(SchemaError, match="AAA_volshift"):
            load_scenarios(path)

    def test_row_width_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "scenarios.csv"
        path.write_text("AAA_ret,AAA_volshift,EUR_rateshift\n0.01,0.0,0.0\n0.01,0.0\n")
        with pytest.raises(SchemaError, match="line 3"):
            load_scenarios(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "-Infinity"])
    def test_non_finite_shock_reports_file_and_line(self, tmp_path, text):
        path = tmp_path / "scenarios.csv"
        path.write_text(f"AAA_ret,AAA_volshift,EUR_rateshift\n0.01,0.0,0.0\n0.01,{text},0.0\n")
        with pytest.raises(SchemaError, match=r"scenarios\.csv: line 3: non-finite"):
            load_scenarios(path)

    def test_temporal_order_preserved(self, tmp_path):
        scenarios = gen_scenarios(3, 10, DEFAULT_UNDERLYINGS[:2])
        path = tmp_path / "scenarios.csv"
        save_scenarios(scenarios, path)
        loaded = load_scenarios(path)
        assert loaded.spot_returns[-1, 0] == scenarios.spot_returns[-1, 0]


class TestFeaturesExport:
    def test_export_layout(self, tmp_path):
        table = FeatureTable({
            "a": InstrumentFeatures(1.0, np.array([0.1, -0.2]), 0.5, 0.25, 0.1, 0.01),
        }, scenario_count=2)
        path = tmp_path / "features.csv"
        save_features(table, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "instrument_id,value,delta,vega,gamma,unit_cost,pnl_1,pnl_2"
        assert lines[1].startswith("a,1.0,0.5,0.25,0.1,0.01,")
