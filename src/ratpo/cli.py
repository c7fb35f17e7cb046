"""Command-line front end.

Subcommands: ``gen`` (synthetic data), ``features`` (feature table export),
``optimize`` (swarm run), ``oracle`` (brute-force enumeration) and ``sweep``
(hyperparameter grid).  Exit codes: 0 success, 1 degenerate problem,
2 configuration/usage error, 3 sweep with failed cells, 4 oracle budget
exceeded.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

from . import datagen, fileio, oracle as oracle_mod, swarm as swarm_mod
from .features import FeatureError, FeatureLab, NonFiniteFeatures, aggregate
from .instruments import QuoteError, UniverseError, build_universe, is_uei_id, parse_descriptor_id, parse_static_id
from .pricing import PricingError
from .problem import (
    ConstraintSpec,
    EvalBreakdown,
    ProblemInstance,
    StructureError,
    build_structure,
    check_epsilon,
    notional_grid,
    riskfree_pnl,
)
from .risk import VarConfig
from .swarm import RandomMode, RatsConfig

ENV_PROBLEM_CONFIG = "RATPO_PROBLEM_CONFIG"
ENV_RATS_CONFIG = "RATPO_RATS_CONFIG"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ProblemConfig:
    beta: float = 0.01
    decay: float = 0.99
    tau_delta: float = 0.5
    tau_vega: float = 0.5
    tau_gamma: float = 0.5
    penalty_delta: float = 10.0
    penalty_vega: float = 10.0
    penalty_gamma: float = 10.0
    daycount: int = 360
    epsilon: float = 1e-9
    grid_points: int = 21
    derive_bounds: bool = True
    universe_tickers: Optional[tuple[str, ...]] = None


def _read_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            raw = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: expected a JSON object, got {type(raw).__name__}")
    return raw


def _check_types(path: Optional[str], raw: dict, defaults) -> None:
    """Reject unknown keys and values whose JSON type differs from the default's."""
    unknown = sorted(set(raw) - {f.name for f in dataclasses.fields(defaults)})
    if unknown:
        raise ConfigError(f"{path}: unknown keys {unknown}")
    for name, value in raw.items():
        default = getattr(defaults, name)
        if isinstance(default, bool):
            ok = isinstance(value, bool)
        elif isinstance(default, int):
            ok = isinstance(value, int) and not isinstance(value, bool)
        elif isinstance(default, float):
            ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        elif isinstance(default, str):
            ok = isinstance(value, str)
        else:  # universe_tickers
            ok = value is None or (isinstance(value, list) and value and all(isinstance(t, str) for t in value))
        if not ok:
            expected = "a non-empty list of tickers" if default is None else type(default).__name__
            raise ConfigError(f"{path}: {name} must be {expected}, got {value!r}")


def load_problem_config(path: Optional[str]) -> ProblemConfig:
    if path is None:
        return ProblemConfig()
    raw = _read_config(path)
    if "tau_g" in raw:
        tau = raw.pop("tau_g")
        raw.setdefault("tau_delta", tau)
        raw.setdefault("tau_vega", tau)
        raw.setdefault("tau_gamma", tau)
    _check_types(path, raw, ProblemConfig())
    if raw.get("universe_tickers") is not None:
        raw["universe_tickers"] = tuple(raw["universe_tickers"])
    cfg = ProblemConfig(**raw)
    # The constructors that assemble_problem calls own the range rules.
    try:
        VarConfig(cfg.beta, cfg.decay, 1)
        ConstraintSpec(cfg.tau_delta, cfg.tau_vega, cfg.tau_gamma, 0.0, 0.0, 0.0,
                       cfg.penalty_delta, cfg.penalty_vega, cfg.penalty_gamma)
        riskfree_pnl(0.0, 0.0, cfg.daycount)
        check_epsilon(cfg.epsilon)
        notional_grid(1, cfg.grid_points)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return cfg


def load_rats_config(path: Optional[str], seed: Optional[int], threads: Optional[int]) -> RatsConfig:
    raw = {} if path is None else _read_config(path)
    _check_types(path, raw, RatsConfig())
    if seed is not None:
        raw["seed"] = seed
    if threads is not None:
        raw["threads"] = threads
    try:
        if "random_mode" in raw:
            raw["random_mode"] = RandomMode(raw["random_mode"])
        return RatsConfig(**raw)
    except ValueError as exc:
        raise ConfigError(f"{path or 'swarm config'}: {exc}") from exc


def build_problem(data_dir: str, cfg: ProblemConfig) -> ProblemInstance:
    """Load the four input files of a data directory and assemble their problem."""
    data = Path(data_dir)
    paths = {name: data / name for name in ("universe.json", "market.json", "scenarios.csv", "portfolio.csv")}
    dataset = datagen.Dataset(
        universe_specs=tuple(fileio.load_universe(paths["universe.json"])),
        market=fileio.load_market(paths["market.json"]),
        scenarios=fileio.load_scenarios(paths["scenarios.csv"]),
        portfolio=fileio.load_portfolio(paths["portfolio.csv"]),
    )
    _check_inputs(dataset, paths)
    try:
        return assemble_problem(dataset, cfg)
    except QuoteError as exc:
        raise fileio.SchemaError(paths["market.json"], str(exc)) from exc
    except NonFiniteFeatures as exc:
        if exc.row is None:
            raise ConfigError(f"{data}: {exc}") from exc
        # The value at the base state is finite, so the scenario row broke it.
        raise fileio.SchemaError(paths["scenarios.csv"], str(exc)) from exc
    except (FeatureError, PricingError, StructureError, UniverseError) as exc:
        # Raised on inputs the loaders accept but that cannot be priced or sized.
        raise ConfigError(f"{data}: {exc}") from exc


def _check_inputs(dataset: datagen.Dataset, paths: dict[str, Path]) -> None:
    """Every ticker the universe or the book names has quotes and scenario columns."""
    specs = dataset.universe_specs
    needed = {s.ticker: "universe.json" for s in specs}
    for instrument_id, _ in dataset.portfolio.legs:
        if is_uei_id(instrument_id):
            pos = parse_descriptor_id(instrument_id).underlying_pos
            if pos > len(specs):
                raise fileio.SchemaError(paths["portfolio.csv"], f"{instrument_id!r}: underlying "
                                         f"position {pos} is not in universe.json")
            needed.setdefault(specs[pos - 1].ticker, "portfolio.csv")
        else:
            needed.setdefault(parse_static_id(instrument_id).ticker, "portfolio.csv")
    market, scenarios = dataset.market, dataset.scenarios
    for ticker, source in needed.items():
        if ticker not in market.underlyings:
            raise fileio.SchemaError(paths[source], f"no quotes for {ticker!r} in market.json")
        if ticker not in scenarios.tickers:
            raise fileio.SchemaError(paths["scenarios.csv"], f"no columns for {ticker!r}, which {source} needs")
        currency = market.underlyings[ticker].currency
        if currency not in scenarios.currencies:
            raise fileio.SchemaError(paths["scenarios.csv"],
                                     f"no {currency}_rateshift column, which {ticker!r} needs")


def assemble_problem(dataset: datagen.Dataset, cfg: ProblemConfig) -> ProblemInstance:
    """The one problem assembly: features, initial book, slot structure and constraints.

    ``dataset`` is anything shaped like :class:`datagen.Dataset`.
    """
    specs = list(dataset.universe_specs)
    if cfg.universe_tickers is not None:
        wanted = set(cfg.universe_tickers)
        specs = [s for s in specs if s.ticker in wanted]
        missing = wanted - {s.ticker for s in specs}
        if missing:
            raise ConfigError(f"universe_tickers not in universe.json: {sorted(missing)}")
    market, scenarios, portfolio = dataset.market, dataset.scenarios, dataset.portfolio

    universe = build_universe(specs)
    lab = FeatureLab(market, scenarios, specs, day_count=cfg.daycount)
    table = lab.build_run_table(universe, portfolio)
    init = aggregate(table, portfolio)
    if "EUR" not in market.currencies:
        raise ConfigError("market.json must quote an EUR rate for the risk-free leg")
    pnl_rf = riskfree_pnl(init.value, market.currencies["EUR"].rate, cfg.daycount)
    structure = build_structure(
        specs, universe, grid_points=cfg.grid_points, table=table, base=init,
        derive_bounds=cfg.derive_bounds,
    )
    constraints = ConstraintSpec(
        tau_delta=cfg.tau_delta, tau_vega=cfg.tau_vega, tau_gamma=cfg.tau_gamma,
        base_delta=init.delta, base_vega=init.vega, base_gamma=init.gamma,
        penalty_delta=cfg.penalty_delta, penalty_vega=cfg.penalty_vega, penalty_gamma=cfg.penalty_gamma,
    )
    var_cfg = VarConfig(cfg.beta, cfg.decay, scenarios.count)
    return ProblemInstance(
        universe_ids=tuple(d.id for d in universe),
        structure=structure,
        table=table,
        init=init,
        pnl_rf=pnl_rf,
        var_cfg=var_cfg,
        constraints=constraints,
        epsilon=cfg.epsilon,
    )


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen(args: argparse.Namespace) -> int:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    dataset = datagen.gen_dataset(args.seed, profile=args.profile, scenario_count=args.scenarios)
    fileio.save_universe(dataset.universe_specs, out / "universe.json")
    fileio.save_market(dataset.market, out / "market.json")
    fileio.save_scenarios(dataset.scenarios, out / "scenarios.csv")
    fileio.save_portfolio(dataset.portfolio, out / "portfolio.csv")
    print(f"gen: wrote universe/market/scenarios/portfolio to {out} "
          f"({len(dataset.portfolio)} legs, {dataset.scenarios.count} scenarios)")
    return 0


def cmd_features(args: argparse.Namespace) -> int:
    cfg = load_problem_config(args.problem)
    problem = build_problem(args.data_dir, cfg)
    fileio.save_features(problem.table, args.out)
    print(f"features: wrote {len(problem.table)} instruments to {args.out}")
    return 0


def _write_trajectory(trajectory, path: Path) -> None:
    fileio.write_csv(path, [["iteration", "best_fitness", "concentration", "stall", "wall_seconds"]]
                     + [[k, repr(fit), repr(chi), stall, repr(wall)] for k, fit, chi, stall, wall in trajectory])


def _write_result(result: swarm_mod.RatsResult, problem: ProblemInstance, baseline: EvalBreakdown,
                  out: Path) -> None:
    out.mkdir(parents=True, exist_ok=True)
    b = result.breakdown
    payload = {
        "fitness": b.fitness,
        "objective": b.objective,
        "mean_pnl": b.mean_pnl,
        "beta_var": b.var,
        "cost": b.cost,
        "pnl_rf": problem.pnl_rf,
        "violations": list(b.psi),
        "feasible": b.feasible,
        # The empty strategy, which leaves the initial book as it is.
        "baseline": {"fitness": baseline.fitness, "objective": baseline.objective,
                     "mean_pnl": baseline.mean_pnl, "beta_var": baseline.var, "cost": baseline.cost},
        "stop_reason": result.stop_reason.value,
        "iterations": result.iterations,
        "evaluations": result.evaluations,
        "scored": result.scored,
        "wall_seconds": result.wall_seconds,
        "init_seconds": result.init_seconds,
        "seed": result.seed,
        "strategy": [{"instrument_id": i, "notional": n} for i, n in result.strategy.legs],
        "slots": [{"slot": j, "instrument_id": i, "notional": n}
                  for j, (i, n) in enumerate(problem.structure.legs(result.position, problem.universe_ids), 1)],
        "position": [int(v) for v in result.position],
    }
    (out / "result.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8", newline="")
    _write_trajectory(result.trajectory, out / "trajectory.csv")

    # The evaluator's own P&L row, so the column reproduces beta_var and mean_pnl bit for bit.
    total = problem.evaluator.evaluate(result.position[None, :])["pnl"][0]
    fileio.write_csv(out / "pnl_hist.csv", [["scenario", "initial_pnl", "total_pnl"]] + [
        [i + 1, repr(float(problem.init.pnl[i])), repr(float(total[i]))] for i in range(problem.var_cfg.count)])


def cmd_optimize(args: argparse.Namespace) -> int:
    pcfg = load_problem_config(args.problem)
    rcfg = load_rats_config(args.rats, args.seed, args.threads)
    problem = build_problem(args.data_dir, pcfg)
    baseline = problem.evaluate(problem.empty_position())
    if not math.isfinite(baseline.fitness):
        print("optimize: degenerate problem (empty strategy has non-finite fitness)", file=sys.stderr)
        return 1
    result = swarm_mod.run(rcfg, problem)
    _write_result(result, problem, baseline, Path(args.out))
    print(f"optimize: fitness {result.fitness:.6f} ({result.stop_reason.value}, "
          f"{result.iterations} iterations, {result.scored}/{result.evaluations} rows scored, "
          f"{result.wall_seconds:.2f}s) -> {args.out}")
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    pcfg = load_problem_config(args.problem)
    problem = build_problem(args.data_dir, pcfg)
    progress = None
    if args.progress:
        def progress(done: int, total: int) -> None:
            print(f"oracle: {done}/{total} positions screened, bounded and scored", file=sys.stderr)
    try:
        result = oracle_mod.enumerate_space(
            problem, tau_eq=args.tau_eq, budget=args.budget, progress=progress,
        )
    except oracle_mod.BudgetExceeded as exc:
        print(f"oracle: {exc}", file=sys.stderr)
        return 4

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = [["solution", "fitness", "count", "status", "truncated", "instrument_id", "notional"]]
    for rank, position in enumerate(result.optimal_positions):
        strategy = problem.decode(position)
        head = [rank, repr(result.optimal_fitness), result.count, result.status, int(result.truncated)]
        for instrument_id, notional in strategy.legs or [("", 0)]:
            rows.append(head + [instrument_id, notional])
    fileio.write_csv(out / "oracle.csv", rows)
    print(f"oracle: optimum {result.optimal_fitness:.6f} over {result.count} positions "
          f"({result.feasible} feasible, {result.scored} scored, {len(result.optimal_positions)} optimal, "
          f"{result.wall_seconds:.2f}s)")
    return 0


def _seed_digits(value: float) -> str:
    """A sweep value as the cell seed reads it: 10 significant digits."""
    return f"{value:.10g}"


def derive_cell_seed(master: int, c_pers: float, c_soc: float, tau_g: float) -> int:
    key = f"{master}|{_seed_digits(c_pers)}|{_seed_digits(c_soc)}|{_seed_digits(tau_g)}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big") & (2**63 - 1)


#: Most values one ``--grid`` spec may give.  A sweep runs one swarm per cell
#: of the product of its grids, so two axes at this cap are already a million
#: runs; the cap stops a spec such as ``0:1:1e-12`` before it builds a list of
#: 10^12 values.
MAX_GRID_VALUES = 1_000


def _parse_grid(text: str) -> tuple[str, list[float]]:
    try:
        name, spec = text.split("=", 1)
        start_s, stop_s, step_s = spec.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError as exc:
        raise ConfigError(f"--grid {text!r}: want name=start:stop:step") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"--grid {text!r}: start, stop and step must be finite")
    if step <= 0 or stop < start:
        raise ConfigError(f"--grid {text!r}: want step > 0 and stop >= start")
    values = []
    for k in range(MAX_GRID_VALUES + 1):
        # Rounded to the digits of the cell seed, so two cells never share one.
        # A step lost to that rounding, or to the sum itself as in
        # 1e300:1e300:1, repeats a value.
        v = float(_seed_digits(start + k * step))
        if v > stop + step / 2:
            return name, values
        if values and v == values[-1]:
            raise ConfigError(f"--grid {text!r}: the step repeats the value {_seed_digits(v)} "
                              f"at 10 significant digits")
        values.append(v)
    raise ConfigError(f"--grid {text!r}: more than {MAX_GRID_VALUES} values")


def cmd_sweep(args: argparse.Namespace) -> int:
    pcfg = load_problem_config(args.problem)
    rcfg = load_rats_config(args.rats, None, None)
    grids = dict(_parse_grid(g) for g in args.grid)
    unknown = sorted(set(grids) - {"c_pers", "c_soc"})
    if unknown:
        raise ConfigError(f"unsupported grid variables {unknown}")
    c_pers_values = grids.get("c_pers", [rcfg.c_pers])
    c_soc_values = grids.get("c_soc", [rcfg.c_soc])

    # Only the constraints depend on tau, so the problem is built once.
    problem = build_problem(args.data_dir, pcfg)
    try:
        taus = [float(t) for t in args.tau_g.split(",")] if args.tau_g else [pcfg.tau_delta]
        if len(set(map(_seed_digits, taus))) < len(taus):
            raise ValueError("a value repeats at the 10 significant digits of the cell seeds")
        limits = {tau: dataclasses.replace(problem.constraints, tau_delta=tau, tau_vega=tau, tau_gamma=tau)
                  for tau in taus}
    except ValueError as exc:
        raise ConfigError(f"--tau-g {args.tau_g}: {exc}") from exc
    problems = {tau: dataclasses.replace(problem, constraints=c) for tau, c in limits.items()}

    cells = [
        (tau, cp, cs)
        for tau in taus
        for cp in c_pers_values
        for cs in c_soc_values
    ]

    def run_cell(cell):
        tau, cp, cs = cell
        seed = derive_cell_seed(args.seed, cp, cs, tau)
        cfg = dataclasses.replace(rcfg, c_pers=cp, c_soc=cs, seed=seed)
        try:
            result = swarm_mod.run(cfg, problems[tau])
            return (cp, cs, tau, result.fitness, result.iterations, result.wall_seconds,
                    result.stop_reason.value, seed, "ok")
        except Exception as exc:  # noqa: BLE001 - cell failures are reported, not fatal
            return (cp, cs, tau, float("nan"), 0, 0.0, "", seed, f"failed: {exc}")

    rows = [run_cell(c) for c in cells]

    fileio.write_csv(args.out, [["c_pers", "c_soc", "tau_g", "fitness", "iterations", "wall_s",
                                 "stop_reason", "seed", "status"]] + [
        [repr(cp), repr(cs), repr(tau), repr(fit), iters, repr(wall), reason, seed, status]
        for cp, cs, tau, fit, iters, wall, reason, seed, status in rows])

    failures = [r for r in rows if r[-1] != "ok"]
    print(f"sweep: {len(rows)} cells -> {args.out} ({len(failures)} failed)")
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value
    return parse


def _non_negative_float(text: str) -> float:
    """argparse type: a float that is at least 0; +inf passes, NaN does not."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value >= 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


#: The --threads flags are checked but have no effect; they stay so that existing command lines run.
THREADS_HELP = "at least 1; has no effect, every run uses the calling thread"


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ratpo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic data directory")
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--profile", default="table1", choices=sorted(datagen.PROFILES))
    p.add_argument("--scenarios", type=_at_least(1), default=250)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("features", help="export the feature table as CSV")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--problem", default=os.environ.get(ENV_PROBLEM_CONFIG))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("optimize", help="run the swarm optimizer")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--problem", default=os.environ.get(ENV_PROBLEM_CONFIG))
    p.add_argument("--rats", default=os.environ.get(ENV_RATS_CONFIG))
    p.add_argument("--seed", type=_at_least(0), default=None, help="override the swarm seed")
    p.add_argument("--threads", type=_at_least(1), default=None, help=THREADS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("oracle", help="brute-force the full strategy space")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--problem", default=os.environ.get(ENV_PROBLEM_CONFIG))
    p.add_argument("--budget", type=_at_least(1), default=10_000_000)
    p.add_argument("--tau-eq", type=_non_negative_float, default=1e-12)
    p.add_argument("--threads", type=_at_least(1), default=1, help=THREADS_HELP)
    p.add_argument("--progress", action="store_true",
                   help="after each block, print to stderr how many positions are screened, bounded and scored")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sweep", help="grid-sweep swarm hyperparameters")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--problem", default=os.environ.get(ENV_PROBLEM_CONFIG))
    p.add_argument("--rats", default=os.environ.get(ENV_RATS_CONFIG))
    p.add_argument("--grid", nargs="+", default=["c_pers=0.1:1.9:0.1", "c_soc=0.1:1.9:0.1"])
    p.add_argument("--tau-g", default=None)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--threads", type=_at_least(1), default=1, help=THREADS_HELP)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, fileio.SchemaError) as exc:
        print(f"ratpo: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
