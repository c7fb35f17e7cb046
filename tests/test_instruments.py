import numpy as np
import pytest

from ratpo.datagen import DEFAULT_UNDERLYINGS
from ratpo.instruments import (
    Category,
    Kind,
    Portfolio,
    UeiDescriptor,
    UniverseError,
    UnderlyingSpec,
    build_universe,
    descriptor_id,
    parse_descriptor_id,
    parse_static_id,
    StaticInstrument,
    Exercise,
    is_uei_id,
)


def universe_size(specs):
    """Closed-form count: 6*|T|+1 per stock, 9*|T| per index."""
    return sum(6 * len(s.tenor_domain) + 1 if s.category is Category.STOCK else 9 * len(s.tenor_domain)
               for s in specs)


def _spec(ticker, category, n_tenors, **kw):
    return UnderlyingSpec(ticker, category, tuple(21 * (i + 1) for i in range(n_tenors)), **kw)


class TestBuildUniverse:
    def test_single_index_six_tenors_gives_54(self):
        [spec] = [s for s in DEFAULT_UNDERLYINGS if s.ticker == ".STOXX50E"]
        universe = build_universe([spec])
        assert len(universe) == 54
        # 18 calls, 18 puts, 18 futures
        assert sum(1 for d in universe if d.kind is Kind.CALL) == 18
        assert sum(1 for d in universe if d.kind is Kind.FUTURES) == 18

    def test_single_stock_seven_tenors_gives_43(self):
        universe = build_universe([_spec("ACME", Category.STOCK, 7)])
        assert len(universe) == 43
        assert sum(1 for d in universe if d.kind is Kind.STOCK) == 1

    def test_full_default_spec_gives_620(self):
        universe = build_universe(DEFAULT_UNDERLYINGS)
        assert len(universe) == 620
        assert universe_size(DEFAULT_UNDERLYINGS) == 620

    def test_universe_sorted_by_id_and_indices_bijective(self):
        universe = build_universe(DEFAULT_UNDERLYINGS)
        ids = [d.id for d in universe]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        for d in universe:
            assert parse_descriptor_id(d.id) == d

    def test_count_formula_matches_enumeration(self):
        specs = [
            _spec(".AAA", Category.STOCK_INDEX, 3),
            _spec("BBB", Category.STOCK, 5),
            _spec("CCC", Category.STOCK, 2),
        ]
        assert len(build_universe(specs)) == universe_size(specs) == 9 * 3 + (6 * 5 + 1) + (6 * 2 + 1)

    def test_duplicate_tickers_rejected(self):
        spec = _spec("ACME", Category.STOCK, 2)
        with pytest.raises(UniverseError, match="duplicate"):
            build_universe([spec, spec])

    def test_unsorted_tickers_rejected(self):
        with pytest.raises(UniverseError, match="sorted"):
            build_universe([_spec("ZZZ", Category.STOCK, 2), _spec("AAA", Category.STOCK, 2)])

    def test_empty_tenor_domain_rejected(self):
        with pytest.raises(UniverseError, match="tenor"):
            UnderlyingSpec("ACME", Category.STOCK, ())


class TestDescriptorIds:
    def test_futures_id_formatting(self):
        d = UeiDescriptor(13, Kind.FUTURES, 0.25, 21)
        assert descriptor_id(d) == "13|q|0.25|021"

    def test_stock_id_formatting(self):
        assert descriptor_id(UeiDescriptor(1, Kind.STOCK)) == "01|s|-|-"

    def test_round_trip_random_descriptors(self):
        rng = np.random.default_rng(0)
        kinds = [Kind.CALL, Kind.PUT, Kind.FUTURES, Kind.STOCK]
        strikes = [0.10, 0.25, 0.50]
        for _ in range(1000):
            kind = kinds[rng.integers(0, 4)]
            if kind is Kind.STOCK:
                d = UeiDescriptor(int(rng.integers(1, 100)), kind)
            else:
                d = UeiDescriptor(
                    int(rng.integers(1, 100)), kind,
                    strikes[rng.integers(0, 3)], int(rng.integers(1, 1000)),
                )
            assert parse_descriptor_id(descriptor_id(d)) == d

    def test_kind_sort_order(self):
        assert sorted(k.value for k in Kind) == ["c", "p", "q", "s"]

    def test_stock_with_strike_rejected(self):
        with pytest.raises(UniverseError):
            UeiDescriptor(1, Kind.STOCK, 0.25, 21)

    def test_option_without_tenor_rejected(self):
        with pytest.raises(UniverseError):
            UeiDescriptor(1, Kind.CALL, 0.25, None)

    def test_malformed_ids_rejected(self):
        for bad in ("", "01|x|0.25|021", "01|c|0.25", "xx|c|0.25|021"):
            with pytest.raises(UniverseError):
                parse_descriptor_id(bad)


class TestStaticIds:
    def test_round_trip(self):
        cases = [
            StaticInstrument("FB.O", Kind.STOCK),
            StaticInstrument(".GSPC", Kind.FUTURES, tenor_days=21),
            StaticInstrument("IBM.N", Kind.CALL, strike=150.25, tenor_days=266, exercise=Exercise.AMERICAN),
            StaticInstrument(".NDX", Kind.PUT, strike=7123.5, tenor_days=49, exercise=Exercise.EUROPEAN),
        ]
        for inst in cases:
            assert parse_static_id(inst.id) == inst

    def test_uei_discriminator(self):
        assert is_uei_id("13|q|0.25|021")
        assert not is_uei_id("FB.O|s")
        assert not is_uei_id(".GSPC|q|021")


class TestPortfolio:
    def test_merged_sums_duplicates_and_drops_zeros(self):
        p = Portfolio.from_pairs([("a", 5), ("b", -2), ("a", -5), ("c", 1)])
        assert p.merged().legs == (("b", -2), ("c", 1))

    def test_non_integer_notional_rejected(self):
        with pytest.raises(ValueError):
            Portfolio((("a", 1.5),))
