import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binom

import reference_pricing
from reference_pricing import bs_delta
from ratpo import pricing
from ratpo.datagen import gen_dataset
from ratpo.features import FeatureLab
from ratpo.instruments import Kind
from ratpo.pricing import (
    Exercise,
    PricingInputs,
    PricingError,
    barone_adesi_whaley,
    black_scholes,
    bump_greeks,
    forward,
    price,
    strike_from_delta,
)


def crr_european(spot, strike, tau, rate, div, vol, is_call, steps=10_000):
    """Cox-Ross-Rubinstein tree evaluated as the discounted terminal expectation.

    For a European payoff the backward induction collapses to a single
    binomial-weighted sum over the terminal nodes, which keeps a 10k-step
    tree cheap while remaining an independent check on the closed form.
    """
    dt = tau / steps
    u = math.exp(vol * math.sqrt(dt))
    d = 1.0 / u
    p = (math.exp((rate - div) * dt) - d) / (u - d)
    j = np.arange(steps + 1)
    terminal = spot * np.exp((2 * j - steps) * vol * math.sqrt(dt))
    sign = 1.0 if is_call else -1.0
    payoff = np.maximum(sign * (terminal - strike), 0.0)
    return math.exp(-rate * tau) * float(np.dot(binom.pmf(j, steps, p), payoff))


def crr_american(spot, strike, tau, rate, div, vol, is_call, steps=800):
    dt = tau / steps
    u = math.exp(vol * math.sqrt(dt))
    d = 1.0 / u
    disc = math.exp(-rate * dt)
    p = (math.exp((rate - div) * dt) - d) / (u - d)
    j = np.arange(steps + 1)
    prices = spot * u ** j * d ** (steps - j)
    sign = 1.0 if is_call else -1.0
    values = np.maximum(sign * (prices - strike), 0.0)
    for step in range(steps - 1, -1, -1):
        prices = prices[1: step + 2] / u
        values = disc * (p * values[1: step + 2] + (1 - p) * values[: step + 1])
        values = np.maximum(values, sign * (prices - strike))
    return float(values[0])


class TestBlackScholes:
    def test_atm_call_reference_value(self):
        # Independent evaluation: 100*(2*Phi(0.1) - 1) = 7.965567...
        assert black_scholes(100, 100, 1.0, 0.0, 0.0, 0.2, True) == pytest.approx(7.9656, abs=1e-4)

    def test_atm_put_parity(self):
        # r = q = 0 and K = S makes forward = strike, so call = put.
        call = black_scholes(100, 100, 1.0, 0.0, 0.0, 0.2, True)
        put = black_scholes(100, 100, 1.0, 0.0, 0.0, 0.2, False)
        assert put == pytest.approx(7.9656, abs=1e-4)
        assert call == pytest.approx(put, abs=1e-12)

    def test_put_call_parity_general(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            s = rng.uniform(20, 300)
            k = s * rng.uniform(0.6, 1.5)
            tau = rng.uniform(0.05, 2.0)
            r = rng.uniform(-0.01, 0.05)
            q = rng.uniform(0.0, 0.04)
            vol = rng.uniform(0.1, 0.5)
            call = black_scholes(s, k, tau, r, q, vol, True)
            put = black_scholes(s, k, tau, r, q, vol, False)
            parity = s * math.exp(-q * tau) - k * math.exp(-r * tau)
            assert call - put == pytest.approx(parity, abs=1e-9)

    def test_binomial_tree_agreement(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            s = rng.uniform(50, 200)
            k = s * rng.uniform(0.7, 1.3)
            tau = rng.uniform(0.1, 1.5)
            r = rng.uniform(0.0, 0.04)
            q = rng.uniform(0.0, 0.03)
            vol = rng.uniform(0.12, 0.45)
            is_call = bool(rng.integers(0, 2))
            bs = black_scholes(s, k, tau, r, q, vol, is_call)
            tree = crr_european(s, k, tau, r, q, vol, is_call)
            assert bs == pytest.approx(tree, abs=1e-3)

    def test_zero_tenor_returns_intrinsic(self):
        assert black_scholes(120, 100, 0.0, 0.01, 0.0, 0.2, True) == 20.0
        assert black_scholes(80, 100, 0.0, 0.01, 0.0, 0.2, False) == 20.0

    def test_monotone_in_vol_and_strike(self):
        vols = np.linspace(0.05, 0.8, 40)
        prices = black_scholes(100, 110, 0.5, 0.01, 0.0, vols, True)
        assert np.all(np.diff(prices) > 0)
        strikes = np.linspace(60, 180, 40)
        calls = black_scholes(100, strikes, 0.5, 0.01, 0.0, 0.25, True)
        assert np.all(np.diff(calls) < 0)


class TestAmerican:
    def test_call_without_dividends_equals_european_exactly(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            s = rng.uniform(50, 200)
            k = s * rng.uniform(0.7, 1.3)
            tau = rng.uniform(0.1, 2.0)
            r = rng.uniform(0.0, 0.05)
            vol = rng.uniform(0.1, 0.5)
            assert barone_adesi_whaley(s, k, tau, r, 0.0, vol, True) == \
                float(black_scholes(s, k, tau, r, 0.0, vol, True))

    def test_put_early_exercise_premium_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            s = rng.uniform(40, 250)
            k = s * rng.uniform(0.6, 1.5)
            tau = rng.uniform(0.05, 2.0)
            r = rng.uniform(0.0, 0.06)
            q = rng.uniform(0.0, 0.04)
            vol = rng.uniform(0.1, 0.5)
            am = barone_adesi_whaley(s, k, tau, r, q, vol, False)
            eu = float(black_scholes(s, k, tau, r, q, vol, False))
            assert am >= eu - 1e-12
            assert am >= max(k - s, 0.0) - 1e-12

    def test_matches_binomial_american_tree(self):
        cases = [
            (100, 100, 0.25, 0.08, 0.12, 0.2, True),
            (90, 100, 1.0, 0.05, 0.0, 0.3, False),
            (100, 100, 0.5, 0.05, 0.02, 0.25, False),
            (80, 100, 2.0, 0.04, 0.01, 0.15, False),
        ]
        for s, k, tau, r, q, vol, is_call in cases:
            approx = barone_adesi_whaley(s, k, tau, r, q, vol, is_call)
            tree = crr_american(s, k, tau, r, q, vol, is_call)
            assert approx == pytest.approx(tree, rel=7e-3)

    def test_call_with_carry_below_minus_two_vol_over_sqrt_tenor(self):
        # The quadratic's starting boundary for such a call lies below zero.
        for s in (80.0, 100.0, 120.0):
            args = (s, 100.0, 2.0, -0.02, 0.08, 0.02, True)
            am = barone_adesi_whaley(*args)
            assert am >= max(s - 100.0, 0.0)
            assert am >= black_scholes(*args)
            assert am == pytest.approx(crr_american(*args), abs=1e-2)

    def test_zero_rate_put_equals_european(self):
        am = barone_adesi_whaley(90, 100, 1.0, 0.0, 0.0, 0.3, False)
        eu = float(black_scholes(90, 100, 1.0, 0.0, 0.0, 0.3, False))
        assert am == eu

    def test_call_without_dividends_never_below_intrinsic(self):
        # With q = 0 the European call itself dominates intrinsic value.
        rng = np.random.default_rng(8)
        for _ in range(100):
            s = rng.uniform(20, 300)
            k = s * rng.uniform(0.5, 1.5)
            tau = rng.uniform(0.05, 2.0)
            r = rng.uniform(0.0, 0.06)
            vol = rng.uniform(0.08, 0.6)
            eu = float(black_scholes(s, k, tau, r, 0.0, vol, True))
            assert eu >= max(s - k, 0.0) - 1e-10


def assert_matches_scalar_reference(spot, strike, tau, rate, div, vol, is_call):
    """The broadcasting pricer equals the scalar reference to 1e-10 * strike, element by element."""
    *args, calls = [np.ravel(a) for a in np.broadcast_arrays(*map(np.asarray, (spot, strike, tau, rate, div, vol,
                                                                                is_call)))]
    calls = calls.astype(bool)
    got = barone_adesi_whaley(*args, calls)
    want = np.array([reference_pricing.barone_adesi_whaley(*map(float, case[:6]), bool(case[6]))
                     for case in zip(*args, calls)])
    assert np.max(np.abs(got - want) / args[1]) <= 1e-10


class TestBaroneAdesiWhaleyAgainstScalarReference:
    def test_random_cases(self):
        rng = np.random.default_rng(12)
        n = 10_000
        s = rng.uniform(20, 300, n)
        tau = rng.uniform(0.0, 2.0, n)
        tau[::40] = 0.0
        assert_matches_scalar_reference(
            s, s * rng.uniform(0.5, 1.6, n), tau, rng.uniform(-0.02, 0.08, n),
            rng.uniform(0.0, 0.08, n), rng.uniform(0.1, 0.6, n), rng.integers(0, 2, n).astype(bool))

    @pytest.mark.parametrize("edge", [
        dict(div=[0.0], is_call=[True]),                     # q = 0 calls: the European price
        dict(rate=[-0.01, 0.0], is_call=[False]),            # r <= 0 puts: no early exercise
        dict(rate=[-0.015]),                                 # negative rates, both kinds
        dict(rate=[0.0, 1e-13, -5e-13, 9e-13]),              # M/h at its r -> 0 limit
        dict(spot=[20.0, 40.0, 250.0, 400.0]),               # deep in the money, beyond s*
        dict(tau=[0.0]),                                     # expired: the intrinsic value
        dict(vol=[0.01, 0.03, 0.05], rate=[0.04]),           # low vol
    ])
    def test_named_edges(self, edge):
        grid = dict(spot=[60.0, 90.0, 100.0, 110.0, 160.0], strike=[100.0], tau=[0.02, 0.5, 1.5],
                    rate=[0.05], div=[0.0, 0.02, 0.06], vol=[0.25], is_call=[True, False])
        grid.update(edge)
        cases = np.array(list(itertools.product(*grid.values())))
        assert_matches_scalar_reference(*cases.T)

    def test_table1_american_legs_over_scenarios_and_bumps(self, monkeypatch):
        dataset = gen_dataset(42, profile="table1")
        american = sorted({leg for leg, _ in dataset.portfolio.legs if leg.endswith("|a")})
        assert american
        calls = []
        original = pricing.barone_adesi_whaley

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(pricing, "barone_adesi_whaley", spy)
        FeatureLab(dataset.market, dataset.scenarios, dataset.universe_specs).build_table(american)
        # Per leg: the four bump states (the base first) and the 250 scenarios,
        # priced in as few calls as the chunks of the feature build allow.
        assert sum(np.broadcast(*args).size for args in calls) == 254 * len(american)
        for args in calls:
            assert_matches_scalar_reference(*args)

    def test_scalar_input_returns_float_of_one_element_call(self):
        for case in [(90.0, 100.0, 1.0, 0.05, 0.0, 0.3, False), (120.0, 100.0, 0.5, 0.02, 0.06, 0.2, True),
                     (100.0, 100.0, 1.0, 0.03, 0.0, 0.2, True), (80.0, 100.0, 0.0, 0.05, 0.0, 0.3, False)]:
            value = barone_adesi_whaley(*case)
            array = barone_adesi_whaley(*(np.array([x]) for x in case))
            assert type(value) is float
            assert array.shape == (1,) and value == array[0]


def assert_bytes_equal_newton_reference(*args):
    """The pricer equals the reference whose Newton step calls black_scholes, byte for byte."""
    got = barone_adesi_whaley(*args)
    want = reference_pricing.newton_black_scholes_baw(*args)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestBaroneAdesiWhaleyBytes:
    """Reusing the Newton step's d1 and N(eta d1) for the European term moves
    no byte: the scalar reference above would not see one ULP."""

    def test_table1_american_block(self, monkeypatch):
        dataset = gen_dataset(42, profile="table1")
        american = sorted({leg for leg, _ in dataset.portfolio.legs if leg.endswith("|a")})
        calls = []
        original = pricing.barone_adesi_whaley

        def spy(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(pricing, "barone_adesi_whaley", spy)
        FeatureLab(dataset.market, dataset.scenarios, dataset.universe_specs).build_table(american)
        assert sum(np.broadcast(*args).size for args in calls) == 254 * len(american)
        for args in calls:
            assert_bytes_equal_newton_reference(*args)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_random_batches(self, seed):
        rng = np.random.default_rng(seed)
        n = 4_000
        spot = rng.uniform(20, 300, n)
        strike = spot * rng.uniform(0.5, 1.6, n)
        tau = rng.uniform(0.0, 2.0, n)
        tau[::37] = 0.0
        rate = rng.uniform(-0.02, 0.08, n)
        rate[::29] = 0.0
        div = rng.uniform(0.0, 0.08, n)
        is_call = rng.integers(0, 2, n).astype(bool)
        # Calls whose dividend yield is at or above the rate.
        div[::11] = rate[::11] + rng.uniform(0.0, 0.03, rate[::11].size)
        div[::22] = rate[::22]
        # Deep in-the-money puts, exercised at once.
        is_call[::13], strike[::13] = False, spot[::13] * 3.0
        rate[::13] = np.abs(rate[::13]) + 0.01
        vol = rng.uniform(0.05, 0.6, n)
        assert (rate < 0).any() and (rate == 0).any() and (is_call & (div >= rate)).any()
        assert_bytes_equal_newton_reference(spot, strike, tau, rate, div, vol, is_call)
        exercised = ~is_call & (tau > 0) & (barone_adesi_whaley(spot, strike, tau, rate, div, vol, is_call)
                                            == strike - spot)
        assert exercised[::13].sum() > 100

    def test_broadcast_shapes_and_scalars(self):
        spot = np.array([[60.0], [100.0], [160.0]])
        args = (spot, 100.0, np.array([0.0, 0.5, 1.5]), 0.05, 0.02, 0.25, np.array([True, False, False]))
        assert_bytes_equal_newton_reference(*args)
        assert_bytes_equal_newton_reference(90.0, 100.0, 1.0, 0.05, 0.0, 0.3, False)


class TestStrikeFromDelta:
    def test_half_delta_strike(self):
        # Phi^-1(0.5) = 0 forces K = S * exp(sigma^2 tau / 2).
        k = strike_from_delta(100, 1.0, 0.0, 0.0, 0.2, 0.50, Kind.CALL)
        assert k == pytest.approx(102.0201, abs=1e-3)

    def test_quarter_delta_strike(self):
        k = strike_from_delta(100, 1.0, 0.0, 0.0, 0.2, 0.25, Kind.CALL)
        assert k == pytest.approx(116.755, abs=1e-2)

    def test_round_trip_delta(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            s = rng.uniform(20, 5000)
            tau = rng.uniform(0.05, 2.0)
            r = rng.uniform(-0.01, 0.05)
            q = rng.uniform(0.0, 0.03)
            vol = rng.uniform(0.08, 0.6)
            target = rng.uniform(0.05, 0.95)
            kind = Kind.CALL if rng.integers(0, 2) else Kind.PUT
            k = strike_from_delta(s, tau, r, q, vol, target, kind)
            delta = bs_delta(s, k, tau, r, q, vol, kind is Kind.CALL)
            assert abs(float(delta)) == pytest.approx(target, abs=1e-9)

    def test_rejects_out_of_range_delta(self):
        with pytest.raises(PricingError):
            strike_from_delta(100, 1.0, 0.0, 0.0, 0.2, 1.2, Kind.CALL)
        with pytest.raises(PricingError):
            strike_from_delta(100, 1.0, 0.0, 0.0, 0.2, 0.25, Kind.STOCK)
        # Dividend discounting can push the forward delta above one.
        with pytest.raises(PricingError):
            strike_from_delta(100, 10.0, 0.0, 0.5, 0.2, 0.9, Kind.CALL)


class TestPriceDispatch:
    def test_stock_price_is_spot(self):
        inputs = PricingInputs(spot=87.3, vol=0.2, tenor_years=0.0, kind=Kind.STOCK)
        assert price(inputs) == 87.3

    def test_futures_zero_at_inception(self):
        inputs = PricingInputs(spot=3000, vol=0.2, tenor_years=0.5, rate=0.02,
                               div_yield=0.01, kind=Kind.FUTURES)
        assert price(inputs) == 0.0

    def test_futures_value_vs_reference(self):
        base = PricingInputs(spot=3000, vol=0.2, tenor_years=0.5, rate=0.02,
                             div_yield=0.01, kind=Kind.FUTURES).pinned()
        shocked = replace(base, spot=3100)
        expected = forward(3100, 0.5, 0.02, 0.01) - forward(3000, 0.5, 0.02, 0.01)
        assert price(shocked) == pytest.approx(expected, rel=1e-15)

    def test_american_dispatch(self):
        inputs = PricingInputs(spot=90, vol=0.3, tenor_years=1.0, rate=0.05,
                               strike=100.0, kind=Kind.PUT, exercise=Exercise.AMERICAN)
        assert price(inputs) == barone_adesi_whaley(90, 100, 1.0, 0.05, 0.0, 0.3, False)

    def test_batch_rows_equal_single_instrument_prices(self):
        book = [
            PricingInputs(spot=90, vol=0.3, tenor_years=1.0, rate=0.05, strike=100.0, kind=Kind.PUT,
                          exercise=Exercise.AMERICAN),
            PricingInputs(spot=3000, vol=0.2, tenor_years=0.5, rate=0.02, div_yield=0.01, kind=Kind.FUTURES),
            PricingInputs(spot=100, vol=0.25, tenor_years=0.5, rate=0.01, strike=95.0, kind=Kind.CALL),
            PricingInputs(spot=3000, vol=0.2, tenor_years=0.5, rate=0.02, div_yield=0.01,
                          kind=Kind.FUTURES).pinned(),
            PricingInputs(spot=87.3, vol=0.2, tenor_years=0.0, kind=Kind.STOCK),
            PricingInputs(spot=110, vol=0.3, tenor_years=0.7, rate=0.03, div_yield=0.02, strike=100.0,
                          kind=Kind.CALL, exercise=Exercise.AMERICAN),
        ]
        factors = np.array([0.9, 1.0, 1.05])
        spots = np.array([p.spot for p in book])[:, None] * factors
        vols = np.array([p.vol for p in book])[:, None] + 0.01 * factors
        rates = np.array([p.rate for p in book])[:, None]
        batch = pricing.price_at(book, spots, vols, rates)
        assert batch.shape == (len(book), 3)
        for p, s, v, r, row in zip(book, spots, vols, rates, batch):
            assert np.array_equal(row, pricing.price_at(p, s, v, r))
        assert np.all(batch[1] == 0.0)  # unpinned: valued against its own forward
        assert batch[3, 1] == 0.0 and batch[3, 2] > 0.0

    def test_invalid_inputs_rejected(self):
        with pytest.raises(PricingError):
            PricingInputs(spot=-1, vol=0.2, tenor_years=1.0)
        with pytest.raises(PricingError):
            PricingInputs(spot=100, vol=0.2, tenor_years=-0.5)
        with pytest.raises(PricingError):
            PricingInputs(spot=100, vol=0.2, tenor_years=1.0, strike=None, kind=Kind.CALL)
        with pytest.raises(PricingError):
            PricingInputs(spot=math.nan, vol=0.2, tenor_years=1.0, strike=100.0)


class TestBumpGreeks:
    def test_stock_delta_is_one_percent_of_spot(self):
        inputs = PricingInputs(spot=100.0, vol=0.2, tenor_years=0.0, kind=Kind.STOCK)
        delta, vega, gamma = bump_greeks(inputs)
        assert delta == pytest.approx(0.01 * 100.0, rel=1e-12)
        assert vega == 0.0
        assert gamma == pytest.approx(0.0, abs=1e-10)

    def test_futures_linear_greeks(self):
        inputs = PricingInputs(spot=3000.0, vol=0.2, tenor_years=0.5, kind=Kind.FUTURES)
        delta, vega, gamma = bump_greeks(inputs)
        assert delta == pytest.approx(0.01 * 3000.0, rel=1e-12)
        assert vega == 0.0
        assert gamma == pytest.approx(0.0, abs=1e-8)

    def test_atm_call_bump_delta_matches_taylor_expansion(self):
        s, vol, tau = 100.0, 0.2, 1.0
        inputs = PricingInputs(spot=s, vol=vol, tenor_years=tau, strike=100.0, kind=Kind.CALL)
        delta_bump, vega_bump, gamma_bump = bump_greeks(inputs)
        d1 = (math.log(1.0) + 0.5 * vol * vol * tau) / (vol * math.sqrt(tau))
        analytic_delta = 0.5 * math.erfc(-d1 / math.sqrt(2))
        analytic_gamma = math.exp(-0.5 * d1 * d1) / math.sqrt(2 * math.pi) / (s * vol * math.sqrt(tau))
        taylor = analytic_delta * s * 0.01 + 0.5 * analytic_gamma * (s * 0.01) ** 2
        assert delta_bump == pytest.approx(taylor, rel=1e-4)

    def test_gamma_bump_positive_for_options(self):
        inputs = PricingInputs(spot=100.0, vol=0.25, tenor_years=0.5, strike=105.0, kind=Kind.PUT)
        _, vega, gamma = bump_greeks(inputs)
        assert gamma > 0
        assert vega > 0
