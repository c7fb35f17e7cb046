"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The suite is self-contained: synthetic inputs are generated from
fixed seeds, brute-force optima are computed on the spot.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import REDUCED_SEED, build_problem_from_dataset

from ratpo.cli import derive_cell_seed, main as cli_main
from ratpo.datagen import DEFAULT_UNDERLYINGS, gen_dataset
from ratpo.features import aggregate
from ratpo.instruments import Kind, Portfolio, build_universe
from ratpo.oracle import enumerate_space
from ratpo.pricing import PricingInputs, barone_adesi_whaley, black_scholes, bump_greeks, price
from ratpo.pricing import Exercise as PricingExercise
from ratpo.problem import build_structure, round_magnitude, search_space_size
from ratpo.risk import VarConfig, var_index
from ratpo.swarm import RatsConfig, Swarm, run

from reference import beta_var
from test_pricing import crr_european


def report(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion}: PASS - {text}")


@pytest.fixture(scope="module")
def reduced_dataset_acc():
    return gen_dataset(REDUCED_SEED, profile="reduced")


@pytest.fixture(scope="module")
def large_problem():
    dataset = gen_dataset(42, profile="table1")
    return build_problem_from_dataset(dataset, tau=0.5, grid_points=21)


def test_criterion_1_universe_cardinality():
    t0 = time.perf_counter()
    single = build_universe([s for s in DEFAULT_UNDERLYINGS if s.ticker == ".STOXX50E"])
    full = build_universe(DEFAULT_UNDERLYINGS)
    elapsed = time.perf_counter() - t0
    assert len(single) == 54
    assert len(full) == 620
    assert elapsed < 1.0
    report(1, f"universe sizes 54 and 620 built in {elapsed * 1000:.0f} ms")


def test_criterion_2_search_space_size():
    specs = [s for s in DEFAULT_UNDERLYINGS if s.ticker == ".STOXX50E"]
    structure = build_structure(specs, build_universe(specs))
    size = search_space_size(structure)
    assert size == (36 * 21) ** 2 * (18 * 21)
    assert size == 216_040_608
    assert 1e8 < size < 1e9
    report(2, f"small-case slot product = {size} (~2.16e8)")


def test_criterion_3_rounding_oracle():
    assert round_magnitude(75) == 80
    assert round_magnitude(740) == 700
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        x = float(rng.uniform(1.0, 1e8))
        scale = 10 ** math.floor(math.log10(x))
        expected = math.ceil(0.5 * math.floor(2.0 * x / scale)) * scale
        assert round_magnitude(x) == expected
    report(3, "75->80, 740->700 and 1000 randomized inputs match the direct formula")


def test_criterion_4_var_index_and_properties():
    assert var_index(VarConfig(0.01, 0.99, 250)) == 1
    assert var_index(VarConfig(0.01, 0.999, 250)) == 3

    rng = np.random.default_rng(99)
    cfg = VarConfig(0.05, 0.97, 40)
    for _ in range(10_000):
        pnl = rng.normal(0, 1000, size=40)
        v = beta_var(pnl, cfg)
        shift = float(rng.normal(0, 100))
        scale = float(rng.uniform(0.1, 10))
        perm = rng.permutation(40)
        assert beta_var(pnl + shift, cfg) == v + shift
        assert beta_var(scale * pnl, cfg) == scale * v
        assert beta_var(pnl[perm], cfg) == v
    report(4, "rank rules (i*=1, i*=3) and 10^4 exact translation/homogeneity/permutation checks")


def test_criterion_5_feature_linearity(reduced_dataset_acc, reduced_problem):
    from test_features import TestAggregationOracle
    from ratpo.features import FeatureLab

    dataset = reduced_dataset_acc
    specs = dataset.universe_specs
    lab = FeatureLab(dataset.market, dataset.scenarios, specs)
    universe_ids = list(reduced_problem.universe_ids)
    table = reduced_problem.table

    rng = np.random.default_rng(7)
    for _ in range(50):
        picks = rng.choice(len(universe_ids), size=4, replace=False)
        legs = [(universe_ids[i], int(rng.integers(-40, 41))) for i in picks]
        book = Portfolio.from_pairs(legs)
        agg = aggregate(table, book)
        direct = TestAggregationOracle.direct_book_pnl(book.legs, dataset.market,
                                                       dataset.scenarios, lab)
        scale = max(1.0, float(np.max(np.abs(direct))))
        assert np.max(np.abs(agg.pnl - direct)) / scale < 1e-9
        negated = Portfolio.from_pairs([(i, -n) for i, n in legs])
        assert aggregate(table, negated).cost == agg.cost
    report(5, "50 random books: aggregation == direct repricing (1e-9 rel), cost(g) == cost(-g)")


def test_criterion_6_pricing():
    rng = np.random.default_rng(2024)
    # 100-case grid: Black-Scholes vs 10,000-step binomial tree.
    for _ in range(100):
        s = rng.uniform(50, 200)
        k = s * rng.uniform(0.7, 1.3)
        tau = rng.uniform(0.1, 1.5)
        r = rng.uniform(0.0, 0.04)
        q = rng.uniform(0.0, 0.03)
        vol = rng.uniform(0.12, 0.45)
        is_call = bool(rng.integers(0, 2))
        assert abs(black_scholes(s, k, tau, r, q, vol, is_call)
                   - crr_european(s, k, tau, r, q, vol, is_call, steps=10_000)) < 1e-3

    # American call without dividends is exactly European.
    for _ in range(100):
        s = rng.uniform(50, 200)
        k = s * rng.uniform(0.7, 1.3)
        tau = rng.uniform(0.1, 2.0)
        r = rng.uniform(0.0, 0.05)
        vol = rng.uniform(0.1, 0.5)
        assert barone_adesi_whaley(s, k, tau, r, 0.0, vol, True) == \
            float(black_scholes(s, k, tau, r, 0.0, vol, True))

    # American put premium never below European.
    for _ in range(100):
        s = rng.uniform(40, 250)
        k = s * rng.uniform(0.6, 1.5)
        tau = rng.uniform(0.05, 2.0)
        r = rng.uniform(0.0, 0.06)
        q = rng.uniform(0.0, 0.04)
        vol = rng.uniform(0.1, 0.5)
        assert barone_adesi_whaley(s, k, tau, r, q, vol, False) >= \
            float(black_scholes(s, k, tau, r, q, vol, False)) - 1e-12

    # Stock bump Delta is 1% of value (to float rounding).
    for _ in range(100):
        spot = float(rng.uniform(1.0, 10_000.0))
        inputs = PricingInputs(spot=spot, vol=0.2, tenor_years=0.0, kind=Kind.STOCK)
        delta, vega, gamma = bump_greeks(inputs)
        assert abs(delta - 0.01 * spot) <= 1e-12 * spot
        assert vega == 0.0
        assert abs(gamma) <= 1e-12 * spot
    report(6, "BS==tree (1e-3, 100 cases), American call q=0 exact, BAW put >= European, stock Delta = 1% of value")


def test_criterion_7_oracle_equivalence(reduced_dataset_acc):
    pairs = (0.5, 1.0, 1.5)
    thresholds = {0.1: 5, 0.5: 8, 1.0: 8}
    summary = []
    base = build_problem_from_dataset(reduced_dataset_acc, tau=0.5, grid_points=9)
    for tau in (0.1, 0.5, 1.0):
        # Only the constraints depend on tau, as in ``ratpo sweep``.
        problem = dataclasses.replace(base, constraints=dataclasses.replace(
            base.constraints, tau_delta=tau, tau_vega=tau, tau_gamma=tau))
        assert search_space_size(problem.structure) <= 10**6
        oracle = enumerate_space(problem, budget=10**6)
        for pair in pairs:
            hits = 0
            for seed in range(10):
                t0 = time.perf_counter()
                result = run(RatsConfig(c_pers=pair, c_soc=pair, seed=seed), problem)
                assert time.perf_counter() - t0 <= 120.0
                if abs(result.fitness - oracle.optimal_fitness) <= 1e-4:
                    hits += 1
            assert hits >= thresholds[tau], \
                f"tau={tau} pair={pair}: {hits}/10 < {thresholds[tau]}"
            summary.append(f"tau={tau}/c={pair}: {hits}/10")
    report(7, "swarm reaches the brute-force optimum within 1e-4 [" + ", ".join(summary) + "]")


def test_criterion_8_improvement_property(large_problem):
    empty = large_problem.evaluate(large_problem.empty_position())
    assert math.isfinite(empty.fitness)
    improved = feasible = 0
    for seed in range(10):
        result = run(RatsConfig(particles=1000, k_max=40, seed=seed, threads=2), large_problem)
        improved += result.fitness <= empty.fitness
        feasible += result.breakdown.feasible
    assert improved == 10
    assert feasible == 10
    report(8, f"620-UEI instance: fitness <= empty-strategy baseline and all constraints met in 10/10 seeds")


def test_criterion_9_swarm_invariants(reduced_problem):
    # Bounds hold after every step, under deliberately violent velocities.
    cfg = RatsConfig(particles=100, c_pers=1.9, c_soc=1.9, v_min=-25.0, v_max=25.0, seed=5)
    swarm = Swarm(cfg, reduced_problem)
    state = swarm.initialize()
    lo, hi = reduced_problem.structure.position_bounds()
    for _ in range(30):
        swarm.step(state)
        assert np.all(swarm.positions >= lo) and np.all(swarm.positions <= hi)

    # Non-increasing incumbent and bit-identical runs across 1/4/8 threads.
    results = [
        run(RatsConfig(particles=400, k_max=30, seed=11, threads=t), reduced_problem)
        for t in (1, 4, 8)
    ]
    fits = [row[1] for row in results[0].trajectory]
    assert all(b <= a for a, b in zip(fits, fits[1:]))
    for other in results[1:]:
        assert np.array_equal(results[0].position, other.position)
        assert results[0].fitness == other.fitness
        assert [r[:4] for r in results[0].trajectory] == [r[:4] for r in other.trajectory]
    report(9, "monotone incumbent, in-bounds positions every step, bit-identical across 1/4/8 threads")


def test_criterion_10_throughput(large_problem):
    assert len(large_problem.universe_ids) == 620
    assert large_problem.var_cfg.count == 250
    cfg = RatsConfig(particles=1000, k_max=500, k_max_stall=10**9, tau_p=0.999999,
                     seed=1, threads=2)
    t0 = time.perf_counter()
    result = run(cfg, large_problem)
    elapsed = time.perf_counter() - t0
    assert result.iterations == 500
    assert elapsed <= 60.0
    report(10, f"1000 particles x 500 iterations on 620 UEIs in {elapsed:.1f}s (limit 60s)")


def test_criterion_11_sweep_reproduction(tmp_path):
    import csv as _csv
    import json as _json

    data = tmp_path / "data"
    assert cli_main(["gen", "--seed", str(REDUCED_SEED), "--out-dir", str(data),
                     "--profile", "reduced"]) == 0
    problem_cfg = tmp_path / "problem.json"
    problem_cfg.write_text(_json.dumps({"tau_g": 0.5, "grid_points": 9}))
    rats_cfg = tmp_path / "rats.json"
    rats_cfg.write_text(_json.dumps({"particles": 40, "k_max": 2}))

    sweep_csv = tmp_path / "sweep.csv"
    assert cli_main(["sweep", "--data-dir", str(data), "--problem", str(problem_cfg),
                     "--rats", str(rats_cfg), "--grid", "c_pers=0.1:1.9:0.1",
                     "c_soc=0.1:1.9:0.1", "--tau-g", "0.5", "--seed", "2718",
                     "--threads", "2", "--out", str(sweep_csv)]) == 0
    with open(sweep_csv) as fh:
        rows = list(_csv.DictReader(fh))
    assert len(rows) == 361
    assert all(r["status"] == "ok" for r in rows)
    seeds = {int(r["seed"]) for r in rows}
    assert len(seeds) == 361  # deterministic and distinct per cell

    # Re-run one cell standalone and reproduce its row exactly.
    probe = rows[137]
    cp, cs = float(probe["c_pers"]), float(probe["c_soc"])
    cell_seed = derive_cell_seed(2718, cp, cs, 0.5)
    assert cell_seed == int(probe["seed"])
    cell_rats = tmp_path / "cell_rats.json"
    cell_rats.write_text(_json.dumps({"particles": 40, "k_max": 2, "c_pers": cp, "c_soc": cs}))
    out = tmp_path / "cell"
    assert cli_main(["optimize", "--data-dir", str(data), "--problem", str(problem_cfg),
                     "--rats", str(cell_rats), "--seed", str(cell_seed),
                     "--out", str(out)]) == 0
    result = _json.loads((out / "result.json").read_text())
    assert result["fitness"] == float(probe["fitness"])
    assert result["iterations"] == int(probe["iterations"])
    assert result["stop_reason"] == probe["stop_reason"]
    report(11, "19x19 sweep emits 361 deterministic rows; standalone rerun reproduces cell 137 exactly")
