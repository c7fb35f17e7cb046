import contextlib
import csv
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratpo.cli import build_problem, derive_cell_seed, load_problem_config, main
from ratpo.oracle import enumerate_space
from ratpo.risk import VarConfig, var_index


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "reduced"
    assert main(["gen", "--seed", "7", "--out-dir", str(out), "--profile", "reduced"]) == 0
    return out


def write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture(scope="module")
def configs(tmp_path_factory, data_dir):
    cfg_dir = tmp_path_factory.mktemp("cfg")
    problem = write_json(cfg_dir / "problem.json", {"tau_g": 0.5, "grid_points": 9})
    rats = write_json(cfg_dir / "rats.json", {"particles": 150, "k_max": 8, "seed": 3})
    return problem, rats


class TestConfigs:
    def test_rats_defaults_match_reference_configuration(self):
        from ratpo.swarm import RatsConfig

        cfg = RatsConfig()
        assert (cfg.particles, cfg.v_min, cfg.v_max) == (1000, -1.0, 1.0)
        assert (cfg.w_min, cfg.w_max) == (1.0, 1.0)
        assert (cfg.tau_f, cfg.tau_p) == (1e-4, 0.75)
        assert (cfg.k_max, cfg.k_max_stall) == (500, 100)

    def test_env_var_supplies_problem_config(self, data_dir, tmp_path, monkeypatch):
        cfg = write_json(tmp_path / "env_problem.json", {"tau_g": 0.5, "grid_points": 9})
        rats = write_json(tmp_path / "env_rats.json", {"particles": 30, "k_max": 1})
        monkeypatch.setenv("RATPO_PROBLEM_CONFIG", cfg)
        monkeypatch.setenv("RATPO_RATS_CONFIG", rats)
        out = tmp_path / "envrun"
        assert main(["optimize", "--data-dir", str(data_dir), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["iterations"] == 1

    def test_universe_tickers_restricts_the_tradable_universe(self, tmp_path):
        from ratpo.cli import ProblemConfig, build_problem

        data = tmp_path / "full"
        assert main(["gen", "--seed", "4", "--out-dir", str(data), "--profile", "table1"]) == 0
        cfg = ProblemConfig(universe_tickers=(".STOXX50E",), grid_points=9)
        problem = build_problem(str(data), cfg)
        assert len(problem.universe_ids) == 54
        assert problem.structure.m == 3

    def test_unknown_universe_ticker_is_config_error(self, data_dir, tmp_path):
        problem = write_json(tmp_path / "p.json",
                             {"tau_g": 0.5, "universe_tickers": ["NOPE"]})
        code = main(["optimize", "--data-dir", str(data_dir), "--problem", problem,
                     "--out", str(tmp_path / "x")])
        assert code == 2


def _set(name, *keys, value):
    """Mutation that sets one nested key of a JSON input file."""
    def mutate(data: Path) -> None:
        payload = json.loads((data / name).read_text())
        node = payload
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        (data / name).write_text(json.dumps(payload))
    return mutate


def _write(name, text=None, raw=None):
    def mutate(data: Path) -> None:
        if raw is not None:
            (data / name).write_bytes(raw)
        else:
            (data / name).write_text(text)
    return mutate


def _append_leg(instrument_id):
    def mutate(data: Path) -> None:
        with open(data / "portfolio.csv", "a") as fh:
            fh.write(f"{instrument_id},5\n")
    return mutate


def _drop_scenario_columns(ticker):
    def mutate(data: Path) -> None:
        rows = list(csv.reader((data / "scenarios.csv").read_text().splitlines()))
        keep = [i for i, c in enumerate(rows[0]) if c not in (f"{ticker}_ret", f"{ticker}_volshift")]
        (data / "scenarios.csv").write_text("\n".join(",".join(r[i] for i in keep) for r in rows) + "\n")
    return mutate


class TestBadInputFiles:
    """Each malformed input exits 2 with the offending file named on stderr."""

    @pytest.mark.parametrize("mutate, culprit, ticker", [
        (_set("market.json", "underlyings", value=[]), "market.json", None),
        (_set("market.json", "currencies", value=[]), "market.json", None),
        (_set("market.json", "underlyings", ".STOXX50E", "vol", value={"0.50": 0.2}), "market.json", None),
        (_set("universe.json", 0, "vol_spread_by_strike", value=[0.006, 0.005]), "universe.json", None),
        (_set("universe.json", 0, "tenor_domain", value=[21.5, 49]), "universe.json", None),
        (_set("universe.json", 0, "tenor_domain", value=[True, 49]), "universe.json", None),
        (_set("universe.json", 0, "tenor_domain", value=["21", "49"]), "universe.json", None),
        (_write("universe.json", "[]"), "universe.json", None),
        (lambda data: (data / "scenarios.csv").unlink(), "scenarios.csv", None),
        (_write("portfolio.csv", raw=b"instrument_id,notional\n\xff\xfe,1\n"), "portfolio.csv", None),
        (_append_leg("FOO|z"), "portfolio.csv", None),
        (_append_leg("NOPE|s"), "portfolio.csv", None),
        (_drop_scenario_columns("IBM.N"), "scenarios.csv", None),
        (_drop_scenario_columns(".STOXX50E"), "scenarios.csv", None),
        (_set("market.json", "underlyings", ".FTMIB", "vol", value={"0.50": {"021": 0.2}}), "market.json", ".FTMIB"),
        (_set("market.json", "underlyings", ".STOXX50E", "vol", value={"0.50": {"021": 0.2}}), "market.json",
         ".STOXX50E"),
        (_set("market.json", "underlyings", ".STOXX50E", "vol_spread_by_strike", value={"0.10": 0.006}),
         "market.json", ".STOXX50E"),
    ], ids=["market-underlyings-list", "market-currencies-list", "vol-strike-not-object",
            "vol-spreads-list", "tenor-float", "tenor-bool", "tenor-string", "universe-empty",
            "missing-file", "non-utf8", "malformed-id", "unknown-ticker",
            "scenarios-lack-book-ticker", "scenarios-lack-universe-ticker",
            "book-vol-point-missing", "universe-vol-point-missing", "vol-spread-point-missing"])
    def test_exit_2_names_file(self, data_dir, configs, tmp_path, capsys, mutate, culprit, ticker):
        problem, _ = configs
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        mutate(data)
        code = main(["features", "--data-dir", str(data), "--problem", problem,
                     "--out", str(tmp_path / "f.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert str(data / culprit) in err
        if ticker is not None:
            # Both tickers quote vol surfaces over the same points; the message names the one lacking it.
            assert f"{culprit}: {ticker}: no vol" in err


#: rats.json's float fields, and int fields given float values (a type error).
RATS_FLOATS = ["c_pers", "c_soc", "v_min", "v_max", "w_min", "w_max", "tau_f", "tau_p"]
RATS_INTS = ["particles", "k_max", "k_max_stall", "seed"]
EXTREMES = [math.nan, math.inf, -math.inf, 1e308, -1e308, 1.7976931348623157e308, 5e-324, -5e-324, 0.0]


class TestBadConfigs:
    @pytest.mark.parametrize("payload", [
        {"beta": "x"}, {"grid_points": "9"}, {"beta": 2}, {"tau_g": -1}, {"daycount": 300},
        {"grid_points": 8}, [1], {"universe_tickers": []}, {"derive_bounds": 1},
        {"epsilon": math.nan}, {"epsilon": math.inf}, {"epsilon": -1e-9},
    ], ids=["beta-string", "grid-string", "beta-range", "tau-range", "daycount", "grid-even",
            "array", "no-tickers", "bounds-int", "epsilon-nan", "epsilon-inf", "epsilon-negative"])
    def test_problem_config_exit_2_names_file(self, data_dir, tmp_path, capsys, payload):
        path = write_json(tmp_path / "problem.json", payload)
        code = main(["features", "--data-dir", str(data_dir), "--problem", path,
                     "--out", str(tmp_path / "f.csv")])
        assert code == 2
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [{"random_mode": "bogus"}, {"particles": 0}, {"seed": -1},
                                         {"particles": 2.5}, {"inject_zero_strategy": False},
                                         {"c_pers": math.nan}, {"w_min": math.nan}, {"v_min": -math.inf},
                                         {"tau_f": math.inf}, {"v_min": -1e308, "v_max": 1e308}])
    def test_rats_config_exit_2_names_file(self, data_dir, configs, tmp_path, capsys, payload):
        problem, _ = configs
        path = write_json(tmp_path / "rats.json", payload)
        code = main(["optimize", "--data-dir", str(data_dir), "--problem", problem, "--rats", path,
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert path in capsys.readouterr().err

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.dictionaries(st.sampled_from(RATS_FLOATS + RATS_INTS), st.sampled_from(EXTREMES) | st.floats(),
                           max_size=2))
    def test_rats_config_numbers_exit_2_or_stay_in_bounds(self, data_dir, configs, tmp_path_factory, payload):
        """NaN, +-inf, huge and tiny numbers in rats.json: a run either exits 2
        naming the file, or exits 0 with every position it evaluated in bounds
        (the evaluator rejects any other batch) and a final position in bounds."""
        problem, _ = configs
        out = tmp_path_factory.mktemp("extreme")
        path = write_json(out / "rats.json", {"particles": 12, "k_max": 6, "seed": 1, **payload})
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["optimize", "--data-dir", str(data_dir), "--problem", problem, "--rats", path,
                         "--out", str(out / "run")])
        if code == 2:
            assert path in err.getvalue()
            return
        assert code == 0, err.getvalue()
        result = json.loads((out / "run" / "result.json").read_text())
        lo, hi = build_problem(str(data_dir), load_problem_config(problem)).structure.position_bounds()
        assert np.all((lo <= result["position"]) & (result["position"] <= hi))

    @pytest.mark.parametrize("command, extra", [
        ("sweep", ["--grid", "c_pers=1:1:1", "c_soc=1:1:1"]), ("oracle", ["--budget", "10"]), ("optimize", []),
    ])
    def test_zero_threads_is_usage_error(self, data_dir, configs, tmp_path, capsys, command, extra):
        problem, rats = configs
        rats_flag = [] if command == "oracle" else ["--rats", rats]
        with pytest.raises(SystemExit) as exc:
            main([command, "--data-dir", str(data_dir), "--problem", problem, *rats_flag, *extra,
                  "--threads", "0", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--tau-eq", "nan"), ("--tau-eq", "-1"), ("--budget", "0"), ("--budget", "-5"),
    ])
    def test_bad_oracle_flag_is_usage_error(self, data_dir, configs, tmp_path, capsys, flag, value):
        problem, _ = configs
        with pytest.raises(SystemExit) as exc:
            main(["oracle", "--data-dir", str(data_dir), "--problem", problem, flag, value,
                  "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_bad_tau_list_exit_2(self, data_dir, configs, tmp_path, capsys):
        problem, rats = configs
        code = main(["sweep", "--data-dir", str(data_dir), "--problem", problem, "--rats", rats,
                     "--tau-g", "0.5,-1", "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "--tau-g" in capsys.readouterr().err

    def test_internal_value_error_is_not_a_config_error(self, data_dir, configs, tmp_path, monkeypatch):
        import ratpo.cli as cli_mod

        problem, rats = configs

        def broken(cfg, prob):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli_mod.swarm_mod, "run", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["optimize", "--data-dir", str(data_dir), "--problem", problem, "--rats", rats,
                  "--out", str(tmp_path / "run")])


class TestGen:
    def test_writes_expected_files(self, data_dir):
        for name in ("universe.json", "market.json", "scenarios.csv", "portfolio.csv"):
            assert (data_dir / name).exists()

    def test_deterministic_directory_contents(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen", "--seed", "9", "--out-dir", str(a)]) == 0
        assert main(["gen", "--seed", "9", "--out-dir", str(b)]) == 0
        for name in ("universe.json", "market.json", "scenarios.csv", "portfolio.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_table1_profile_has_127_legs(self, tmp_path):
        out = tmp_path / "t1"
        assert main(["gen", "--seed", "1", "--out-dir", str(out), "--profile", "table1"]) == 0
        rows = (out / "portfolio.csv").read_text().splitlines()
        assert len(rows) == 128  # header + 127 legs

    def test_missing_out_dir_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen", "--seed", "1"])
        assert exc.value.code == 2


class TestFeaturesCmd:
    def test_export(self, data_dir, configs, tmp_path):
        problem, _ = configs
        out = tmp_path / "features.csv"
        assert main(["features", "--data-dir", str(data_dir), "--problem", problem,
                     "--out", str(out)]) == 0
        header = out.read_text().splitlines()[0].split(",")
        assert header[:6] == ["instrument_id", "value", "delta", "vega", "gamma", "unit_cost"]
        assert len(header) == 6 + 250


class TestOptimize:
    def test_run_and_outputs(self, data_dir, configs, tmp_path):
        problem, rats = configs
        out = tmp_path / "run"
        assert main(["optimize", "--data-dir", str(data_dir), "--problem", problem,
                     "--rats", rats, "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        identity = (result["mean_pnl"] - result["pnl_rf"] - result["cost"]) / \
            (result["beta_var"] - result["cost"])
        assert abs(result["objective"] - identity) <= 1e-12
        assert result["feasible"] is True

        with open(out / "trajectory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == result["iterations"] + 1
        fits = [float(r["best_fitness"]) for r in rows]
        assert all(b <= a for a, b in zip(fits, fits[1:]))
        assert result["fitness"] == fits[-1]

        with open(out / "pnl_hist.csv") as fh:
            hist = list(csv.DictReader(fh))
        assert len(hist) == 250

        # The slot report keeps zero-notional rows; the strategy merges them out.
        assert len(result["slots"]) == 3
        slot_total = {}
        for row in result["slots"]:
            slot_total[row["instrument_id"]] = slot_total.get(row["instrument_id"], 0) + row["notional"]
        merged = {leg["instrument_id"]: leg["notional"] for leg in result["strategy"]}
        assert {k: v for k, v in slot_total.items() if v != 0} == merged

    def test_reports_rows_scored(self, data_dir, configs, tmp_path, capsys):
        # 1000 particles on reduced is a swarm that prunes (swarm.prunes).
        problem, _ = configs
        rats = write_json(tmp_path / "rats1000.json", {"particles": 1000, "k_max": 5, "seed": 2})
        out = tmp_path / "run1000"
        assert main(["optimize", "--data-dir", str(data_dir), "--problem", problem,
                     "--rats", rats, "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["evaluations"] == 6 * 1000
        assert 1000 <= result["scored"] < result["evaluations"]
        assert 0.0 < result["init_seconds"] <= result["wall_seconds"]
        assert f"5 iterations, {result['scored']}/6000 rows scored, " in capsys.readouterr().out

    def test_reports_the_empty_strategy_baseline(self, data_dir, configs, tmp_path):
        problem, rats = configs
        out = tmp_path / "baseline"
        assert main(["optimize", "--data-dir", str(data_dir), "--problem", problem,
                     "--rats", rats, "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        instance = build_problem(str(data_dir), load_problem_config(problem))
        b = instance.evaluate(instance.empty_position())
        assert result["baseline"] == {"fitness": b.fitness, "objective": b.objective, "mean_pnl": b.mean_pnl,
                                      "beta_var": b.var, "cost": b.cost}
        assert result["baseline"]["cost"] == 0.0

    def test_pnl_hist_reproduces_var_and_mean(self, data_dir, configs, tmp_path):
        problem, _ = configs
        rats = write_json(tmp_path / "rats30.json", {"particles": 30, "k_max": 60})
        rank = var_index(VarConfig(0.01, 0.99, 250))
        for seed in range(10):
            out = tmp_path / f"run{seed}"
            assert main(["optimize", "--data-dir", str(data_dir), "--problem", problem,
                         "--rats", rats, "--seed", str(seed), "--out", str(out)]) == 0
            result = json.loads((out / "result.json").read_text())
            with open(out / "pnl_hist.csv") as fh:
                total = np.array([float(r["total_pnl"]) for r in csv.DictReader(fh)])
            assert np.sort(total)[rank - 1] == result["beta_var"], seed
            assert total.mean() == result["mean_pnl"], seed

    def test_zero_iteration_budget(self, data_dir, configs, tmp_path):
        problem, _ = configs
        rats = write_json(tmp_path / "rats0.json", {"particles": 50, "k_max": 0, "seed": 5})
        out = tmp_path / "run0"
        assert main(["optimize", "--data-dir", str(data_dir), "--problem", problem,
                     "--rats", rats, "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert result["stop_reason"] == "max_iter"
        assert result["iterations"] == 0

    def test_degenerate_problem_exit_1(self, tmp_path, configs):
        # An empty book prices to a zero P&L vector, so VaR - cost cannot be
        # safely negative; declared bounds skip the (impossible) derivation.
        _, rats = configs
        out = tmp_path / "zero"
        assert main(["gen", "--seed", "3", "--out-dir", str(out), "--profile", "zero"]) == 0
        problem = write_json(tmp_path / "p_declared.json",
                             {"tau_g": 0.5, "derive_bounds": False})
        code = main(["optimize", "--data-dir", str(out), "--problem", problem,
                     "--rats", rats, "--out", str(tmp_path / "run")])
        assert code == 1

    def test_empty_book_with_derived_bounds_is_config_error(self, tmp_path, configs):
        problem, rats = configs
        out = tmp_path / "zero2"
        assert main(["gen", "--seed", "3", "--out-dir", str(out), "--profile", "zero"]) == 0
        code = main(["optimize", "--data-dir", str(out), "--problem", problem,
                     "--rats", rats, "--out", str(tmp_path / "run")])
        assert code == 2

    def test_non_finite_input_exit_2_names_file(self, data_dir, configs, tmp_path, capsys):
        problem, rats = configs
        data = tmp_path / "nan_spot"
        data.mkdir()
        for name in ("universe.json", "scenarios.csv", "portfolio.csv"):
            (data / name).write_bytes((data_dir / name).read_bytes())
        market = json.loads((data_dir / "market.json").read_text())
        next(iter(market["underlyings"].values()))["spot"] = float("nan")
        (data / "market.json").write_text(json.dumps(market))
        code = main(["optimize", "--data-dir", str(data), "--problem", problem,
                     "--rats", rats, "--out", str(tmp_path / "run")])
        assert code == 2
        assert str(data / "market.json") in capsys.readouterr().err

    def test_unknown_config_key_exit_2(self, data_dir, tmp_path):
        bad = write_json(tmp_path / "bad.json", {"not_a_key": 1})
        code = main(["optimize", "--data-dir", str(data_dir), "--problem", bad,
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_seed_flag_overrides_config(self, data_dir, configs, tmp_path):
        problem, rats = configs
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["optimize", "--data-dir", str(data_dir), "--problem", problem,
              "--rats", rats, "--seed", "77", "--out", str(out_a)])
        main(["optimize", "--data-dir", str(data_dir), "--problem", problem,
              "--rats", rats, "--seed", "77", "--out", str(out_b)])
        ra = json.loads((out_a / "result.json").read_text())
        rb = json.loads((out_b / "result.json").read_text())
        assert ra["seed"] == rb["seed"] == 77
        assert ra["fitness"] == rb["fitness"]
        assert ra["position"] == rb["position"]


class TestOracleCmd:
    def test_budget_exceeded_exit_4(self, data_dir, configs, tmp_path):
        problem, _ = configs
        code = main(["oracle", "--data-dir", str(data_dir), "--problem", problem,
                     "--budget", "10", "--out", str(tmp_path / "o")])
        assert code == 4

    def test_tiny_instance_count_matches_space(self, data_dir, tmp_path):
        problem = write_json(tmp_path / "p.json", {"tau_g": 0.5, "grid_points": 3})
        out = tmp_path / "oracle"
        assert main(["oracle", "--data-dir", str(data_dir), "--problem", problem,
                     "--budget", "100000", "--threads", "2", "--out", str(out)]) == 0
        with open(out / "oracle.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        # 12 calls+puts and 6 futures on two tenors, 3-point grids
        assert all(int(r["count"]) == (12 * 3) ** 2 * (6 * 3) for r in rows)
        assert all(r["status"] == "optimal" and r["truncated"] == "0" for r in rows)

    def test_infinite_tau_eq_is_valid(self, data_dir, tmp_path):
        problem = write_json(tmp_path / "p.json", {"tau_g": 0.5, "grid_points": 3})
        out = tmp_path / "oracle"
        assert main(["oracle", "--data-dir", str(data_dir), "--problem", problem,
                     "--budget", "100000", "--tau-eq", "inf", "--out", str(out)]) == 0
        assert (out / "oracle.csv").exists()

    def test_summary_reports_feasible_count(self, data_dir, tmp_path, capsys):
        problem = write_json(tmp_path / "p.json", {"tau_g": 0.5, "grid_points": 3})
        assert main(["oracle", "--data-dir", str(data_dir), "--problem", problem,
                     "--budget", "100000", "--out", str(tmp_path / "oracle")]) == 0
        summary = capsys.readouterr().out
        expected = enumerate_space(build_problem(str(data_dir), load_problem_config(problem)), budget=100000)
        assert 0 < expected.scored < expected.feasible < expected.count
        assert (f"over {expected.count} positions ({expected.feasible} feasible, {expected.scored} scored, "
                f"{len(expected.optimal_positions)} optimal, ") in summary

    def test_truncated_optimal_set_marked_in_csv(self, data_dir, tmp_path, monkeypatch):
        from ratpo import oracle

        monkeypatch.setattr(oracle, "MAX_OPTIMAL_SET", 2)
        problem = write_json(tmp_path / "p.json", {"tau_g": 0.5, "grid_points": 3})
        out = tmp_path / "oracle"
        assert main(["oracle", "--data-dir", str(data_dir), "--problem", problem,
                     "--budget", "100000", "--out", str(out)]) == 0
        with open(out / "oracle.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["solution"] for r in rows} == {"0", "1"}
        assert all(r["truncated"] == "1" for r in rows)


class TestSweep:
    def test_single_cell_matches_standalone_optimize(self, data_dir, configs, tmp_path):
        problem, rats = configs
        sweep_out = tmp_path / "sweep.csv"
        assert main(["sweep", "--data-dir", str(data_dir), "--problem", problem,
                     "--rats", rats, "--grid", "c_pers=0.8:0.8:0.1", "c_soc=1.2:1.2:0.1",
                     "--tau-g", "0.5", "--seed", "99", "--out", str(sweep_out)]) == 0
        with open(sweep_out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["status"] == "ok"

        cell_seed = derive_cell_seed(99, 0.8, 1.2, 0.5)
        assert int(row["seed"]) == cell_seed
        rats_cell = write_json(tmp_path / "rats_cell.json",
                               {"particles": 150, "k_max": 8, "c_pers": 0.8, "c_soc": 1.2})
        out = tmp_path / "cell"
        assert main(["optimize", "--data-dir", str(data_dir), "--problem", problem,
                     "--rats", rats_cell, "--seed", str(cell_seed), "--out", str(out)]) == 0
        result = json.loads((out / "result.json").read_text())
        assert float(row["fitness"]) == result["fitness"]
        assert int(row["iterations"]) == result["iterations"]
        assert row["stop_reason"] == result["stop_reason"]

    def test_grid_row_counts_and_parallel_cells(self, data_dir, configs, tmp_path):
        problem, _ = configs
        rats = write_json(tmp_path / "rats_fast.json", {"particles": 40, "k_max": 2})
        sweep_out = tmp_path / "grid.csv"
        assert main(["sweep", "--data-dir", str(data_dir), "--problem", problem,
                     "--rats", rats, "--grid", "c_pers=0.5:1.0:0.25", "c_soc=0.5:1.0:0.25",
                     "--tau-g", "0.5,1.0", "--seed", "5", "--threads", "2",
                     "--out", str(sweep_out)]) == 0
        with open(sweep_out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3 * 3 * 2
        assert {r["tau_g"] for r in rows} == {"0.5", "1.0"}

    def test_bad_grid_spec_exit_2(self, data_dir, configs, tmp_path):
        problem, rats = configs
        code = main(["sweep", "--data-dir", str(data_dir), "--problem", problem,
                     "--rats", rats, "--grid", "c_pers=banana",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2

    @pytest.mark.parametrize("spec", [
        "c_pers=banana", "c_pers=nan:1:0.1", "c_pers=0.1:1.9:nan", "c_pers=0:inf:1", "c_pers=-inf:1:0.1",
        "c_pers=0:1:1e-12", "c_pers=1e300:1e300:1", "c_pers=0:1001:1",
    ])
    def test_runaway_grid_spec_exit_2_names_the_flag(self, data_dir, configs, tmp_path, capsys, spec):
        problem, rats = configs
        code = main(["sweep", "--data-dir", str(data_dir), "--problem", problem,
                     "--rats", rats, "--grid", spec,
                     "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert "--grid" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_grid_values(self):
        from ratpo.cli import MAX_GRID_VALUES, _parse_grid

        assert _parse_grid("c_pers=0.4:1.6:0.4") == ("c_pers", [0.4, 0.8, 1.2, 1.6])
        name, values = _parse_grid("c_soc=0.1:1.9:0.1")
        assert name == "c_soc" and values == [k / 10 for k in range(1, 20)]
        assert len(_parse_grid(f"c_pers=1:{MAX_GRID_VALUES}:1")[1]) == MAX_GRID_VALUES

    def test_grid_values_are_distinct_at_the_seed_digits(self):
        from ratpo.cli import _parse_grid

        name, values = _parse_grid("c_pers=0:1e-9:1e-11")
        assert len(values) == 101 and len({f"{v:.10g}" for v in values}) == 101
        assert values[-1] == 1e-09

    def test_grids_in_use_keep_their_floats(self):
        # The values the grids gave when they were rounded to 10 decimal places.
        from ratpo.cli import _parse_grid

        for spec in ("0.1:1.9:0.1", "0.4:1.6:0.4"):
            start, stop, step = map(float, spec.split(":"))
            want = [round(start + k * step, 10) for k in range(int(round((stop - start) / step)) + 1)]
            values = _parse_grid(f"c_soc={spec}")[1]
            assert [v.hex() for v in values] == [v.hex() for v in want]

    @pytest.mark.parametrize("flag, value", [("--grid", "c_pers=1:1.00000000001:1e-12"), ("--tau-g", "0.5,0.5")])
    def test_repeated_cell_exit_2_names_the_flag(self, data_dir, configs, tmp_path, capsys, flag, value):
        problem, rats = configs
        code = main(["sweep", "--data-dir", str(data_dir), "--problem", problem, "--rats", rats,
                     flag, value, "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_failed_cell_marks_row_and_exit_3(self, data_dir, configs, tmp_path, monkeypatch):
        import ratpo.cli as cli_mod

        problem, rats = configs
        real_run = cli_mod.swarm_mod.run

        def sabotaged(cfg, prob):
            if cfg.c_pers == 0.75:
                raise RuntimeError("boom")
            return real_run(cfg, prob)

        monkeypatch.setattr(cli_mod.swarm_mod, "run", sabotaged)
        sweep_out = tmp_path / "sweep.csv"
        code = main(["sweep", "--data-dir", str(data_dir), "--problem", problem,
                     "--rats", rats, "--grid", "c_pers=0.5:0.75:0.25", "c_soc=0.5:0.5:0.1",
                     "--tau-g", "0.5", "--out", str(sweep_out)])
        assert code == 3
        with open(sweep_out) as fh:
            rows = list(csv.DictReader(fh))
        statuses = {r["c_pers"]: r["status"] for r in rows}
        assert statuses["0.5"] == "ok"
        assert statuses["0.75"].startswith("failed")
