"""The batched feature build against the per-instrument reference of
``reference.feature_table``: the same bytes in the same order, whatever the
chunking, and the same errors on bad inputs."""

import contextlib
import io
import json
import shutil
import warnings

import numpy as np
import pytest

from conftest import simple_market, simple_scenarios, simple_specs

import reference
from ratpo import features, fileio
from ratpo.cli import ProblemConfig, assemble_problem, main
from ratpo.datagen import Dataset, gen_dataset
from ratpo.features import FeatureError, FeatureLab, NonFiniteFeatures
from ratpo.instruments import Exercise, Kind, QuoteError, StaticInstrument, build_universe


def entries(table):
    """Every feature of every instrument, as bytes, in table order."""
    return [(i, repr((f.value, f.delta, f.vega, f.gamma, f.unit_cost)), f.pnl.tobytes())
            for i, f in ((i, table[i]) for i in table.ids())]


def run_lab(dataset):
    specs = list(dataset.universe_specs)
    lab = FeatureLab(dataset.market, dataset.scenarios, specs)
    ids = [d.id for d in build_universe(specs)] + [leg for leg, _ in dataset.portfolio.legs]
    return lab, ids


@pytest.fixture(scope="module")
def table1_run():
    return run_lab(gen_dataset(42, profile="table1"))


@pytest.fixture
def reduced_run(reduced_dataset):
    return run_lab(reduced_dataset)


class TestByteIdentity:
    def test_reduced_seed_7(self, reduced_run):
        lab, ids = reduced_run
        assert entries(lab.build_table(ids)) == entries(reference.feature_table(lab, ids))

    def test_table1_seed_42(self, table1_run):
        lab, ids = table1_run
        table = lab.build_table(ids)
        assert len(table) == 679
        assert entries(table) == entries(reference.feature_table(lab, ids))

    def test_every_kind_and_exercise_of_the_simple_market(self):
        rng = np.random.default_rng(5)
        lab = FeatureLab(
            simple_market(rate=0.03, div=0.02),
            simple_scenarios(rng.normal(0, 0.02, (6, 2)), rng.normal(0, 0.01, (6, 2)),
                             rng.normal(0, 1e-3, (6, 1)), count=6),
            simple_specs(),
        )
        ids = [StaticInstrument("ACME", Kind.STOCK).id, StaticInstrument(".IDX", Kind.FUTURES, tenor_days=21).id,
               "01|q|0.50|049", "02|s|-|-", "01|c|0.25|021", "01|p|0.10|049", "02|c|0.50|049", "02|p|0.25|021"]
        for kind in (Kind.CALL, Kind.PUT):
            for exercise in Exercise:
                ids.append(StaticInstrument("ACME", kind, strike=104.0, tenor_days=90, exercise=exercise).id)
        ids.append(ids[0])  # a duplicate keeps its first place
        table = lab.build_table(ids)
        assert table.ids() == list(dict.fromkeys(ids))
        assert entries(table) == entries(reference.feature_table(lab, ids))

    def test_chunk_boundaries_do_not_move_bytes(self, table1_run):
        lab, ids = table1_run
        whole = dict((i, rest) for i, *rest in entries(lab.build_table(ids)))
        shifted = entries(lab.build_table(ids[1:]))
        assert [(i, *whole[i]) for i, *_ in shifted] == shifted

    @pytest.mark.parametrize("chunk", [1, 5, 1000])
    def test_chunk_size_does_not_move_bytes(self, reduced_run, monkeypatch, chunk):
        lab, ids = reduced_run
        want = entries(lab.build_table(ids))
        monkeypatch.setattr(features, "_CHUNK", chunk)
        assert entries(lab.build_table(ids)) == want


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "reduced"
    assert main(["gen", "--seed", "7", "--out-dir", str(out), "--profile", "reduced"]) == 0
    return out


@pytest.fixture(scope="module")
def problem_json(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "problem.json"
    path.write_text(json.dumps({"tau_g": 0.5, "grid_points": 9}))
    return path


def per_instrument(monkeypatch):
    """Make every FeatureLab build its tables one instrument at a time."""
    monkeypatch.setattr(FeatureLab, "build_table", reference.feature_table)


def features_cli(data, problem_json, out, warn="ignore"):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter(warn, RuntimeWarning)
        code = main(["features", "--data-dir", str(data), "--problem", str(problem_json), "--out", str(out)])
    return code, err.getvalue()


def test_features_csv_equals_per_instrument_csv(data_dir, problem_json, tmp_path, monkeypatch):
    assert features_cli(data_dir, problem_json, tmp_path / "batched.csv")[0] == 0
    per_instrument(monkeypatch)
    assert features_cli(data_dir, problem_json, tmp_path / "single.csv")[0] == 0
    assert (tmp_path / "batched.csv").read_bytes() == (tmp_path / "single.csv").read_bytes()


def _set_json(name, *keys, value):
    def mutate(data):
        payload = json.loads((data / name).read_text())
        node = payload
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
        (data / name).write_text(json.dumps(payload))
    return mutate


def _append_leg(instrument_id):
    def mutate(data):
        with open(data / "portfolio.csv", "a") as fh:
            fh.write(f"{instrument_id},5\n")
    return mutate


def _overflow_index_return(data):
    """One scenario moves the index by a factor that overflows every price of it."""
    lines = (data / "scenarios.csv").read_text().splitlines()
    col = lines[0].split(",").index(".STOXX50E_ret")
    row = lines[3].split(",")
    row[col] = "1e308"
    lines[3] = ",".join(row)
    (data / "scenarios.csv").write_text("\n".join(lines) + "\n")


def _both(first, second):
    def mutate(data):
        first(data)
        second(data)
    return mutate


@pytest.mark.parametrize("mutate, error, message, culprit", [
    (_set_json("market.json", "underlyings", ".FTMIB", "vol", value={"0.50": {"021": 0.2}}),
     QuoteError, ".FTMIB: no vol quoted for (K=0.5, T=49)", "market.json"),
    (_set_json("market.json", "underlyings", ".STOXX50E", "vol_spread_by_strike", value={"0.10": 0.006}),
     QuoteError, ".STOXX50E: no vol spread quoted for K=0.25", "market.json"),
    (_append_leg("NOPE|s"), FeatureError, "'NOPE|s': no market data for 'NOPE'", "portfolio.csv"),
    (_append_leg("09|c|0.50|021"), FeatureError, "'09|c|0.50|021': underlying position outside universe spec",
     "portfolio.csv"),
    (_overflow_index_return, NonFiniteFeatures, "'01|c|0.10|021': P&L is not finite in scenario row 3",
     "scenarios.csv"),
    # A later instrument of the same chunk finds no spread quote: the
    # earlier instrument's non-finite P&L is still the error raised.
    (_both(_overflow_index_return,
           _set_json("market.json", "underlyings", ".STOXX50E", "vol_spread_by_strike", value={"0.10": 0.006})),
     NonFiniteFeatures, "'01|c|0.10|021': P&L is not finite in scenario row 3", "scenarios.csv"),
], ids=["vol-quote", "vol-spread", "static-without-market", "position-outside-spec", "non-finite",
        "non-finite-before-a-later-quote-error"])
def test_errors_equal_the_per_instrument_build(data_dir, problem_json, tmp_path, monkeypatch,
                                               mutate, error, message, culprit):
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    mutate(data)
    dataset = Dataset(
        universe_specs=tuple(fileio.load_universe(data / "universe.json")),
        market=fileio.load_market(data / "market.json"),
        scenarios=fileio.load_scenarios(data / "scenarios.csv"),
        portfolio=fileio.load_portfolio(data / "portfolio.csv"),
    )
    cfg = ProblemConfig(tau_delta=0.5, tau_vega=0.5, tau_gamma=0.5, grid_points=9)

    def outcomes():
        with pytest.raises(error) as exc, warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assemble_problem(dataset, cfg)
        return str(exc.value), features_cli(data, problem_json, tmp_path / "f.csv")

    batched = outcomes()
    # The batched build lets no numpy warning through to the CLI.
    assert features_cli(data, problem_json, tmp_path / "f.csv", warn="error") == batched[1]
    per_instrument(monkeypatch)
    assert outcomes() == batched
    text, (code, err) = batched
    assert text == message
    assert code == 2
    # The CLI names the file at fault, or the data directory when no one file is.
    assert f"ratpo: {data / culprit if culprit else data}: " in err
