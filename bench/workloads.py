"""The benchmark workloads, and the sweep that traced runs add as a probe.

Each workload turns the generated data directory into config files, then
repeats one *repetition*: a timed set-up (input files on disk to a problem
ready to evaluate) followed by the timed user-facing operation.  ``check``
validates the operation's output and says how many operations it held, how
many failed and how many reached the workload's quality target.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ratpo import cli
from ratpo.oracle import Enumerator
from ratpo.swarm import Swarm

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))

#: Worker threads the program itself may use (the machine has two cores).
THREADS = 2


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    hits: int = 0
    evaluations: int = 0
    problems: list[str] = field(default_factory=list)
    cell_walls: list[float] = field(default_factory=list)

    def fail(self, message: str, failed: int = 1) -> None:
        self.failed = max(self.failed, min(failed, self.attempted))
        self.problems.append(message)


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return str(path)


class Workload:
    name = ""
    profile = ""
    instance_seed = 0
    problem_config: dict = {}
    #: Operations one repetition attempts (a swarm run, an enumeration, a sweep cell).
    operations = 1
    #: Whether a traced run also makes the ``ReducedSweep`` probe on this
    #: workload's data.
    sweep_probe = False

    def __init__(self, data_dir: Path, work_dir: Path):
        self.data_dir = str(data_dir)
        self.problem_path = _write_json(work_dir / "problem.json", self.problem_config)

    def build(self):
        return cli.build_problem(self.data_dir, cli.load_problem_config(self.problem_path))

    def setup(self, seed: int):
        raise NotImplementedError

    def run(self, state, seed: int):
        raise NotImplementedError

    def check(self, state, result, seed: int) -> Outcome:
        raise NotImplementedError


class Table1Swarm(Workload):
    """The paper's headline instance: 620 instruments, m = 39 slots."""

    name = "table1_swarm"
    profile = "table1"
    instance_seed = 42
    problem_config = {"tau_g": 0.5}
    #: Iterations per swarm run; the stall and concentration stops are off,
    #: as in acceptance criterion 10, so every run does exactly this many.
    iterations = 50
    particles = 1000

    def __init__(self, data_dir: Path, work_dir: Path):
        super().__init__(data_dir, work_dir)
        self.rats_path = _write_json(work_dir / "rats.json", {
            "particles": self.particles, "k_max": self.iterations, "k_max_stall": 10**9,
            "tau_p": 0.999999, "threads": THREADS,
        })

    def setup(self, seed: int):
        problem = self.build()
        return problem, Swarm(cli.load_rats_config(self.rats_path, seed, None), problem)

    def run(self, state, seed: int):
        return state[1].run()

    def check(self, state, result, seed: int) -> Outcome:
        problem = state[0]
        out = Outcome(attempted=1, evaluations=result.evaluations)
        fits = [row[1] for row in result.trajectory]
        lo, hi = problem.structure.position_bounds()
        empty = problem.evaluate(problem.empty_position()).fitness
        if result.iterations != self.iterations:
            out.fail(f"seed {seed}: {result.iterations} iterations, expected {self.iterations}")
        if any(b > a for a, b in zip(fits, fits[1:])):
            out.fail(f"seed {seed}: incumbent fitness increased along the trajectory")
        if np.any(result.position < lo) or np.any(result.position > hi):
            out.fail(f"seed {seed}: final position out of bounds")
        if not result.breakdown.feasible:
            out.fail(f"seed {seed}: final strategy violates the sensitivity limits")
        if not result.fitness <= empty:
            out.fail(f"seed {seed}: fitness {result.fitness} above the empty strategy's {empty}")
        out.hits = out.attempted - out.failed
        return out


class ReducedOracle(Workload):
    """Brute force over every position of the reduced instance (m = 3)."""

    name = "reduced_oracle"
    profile = "reduced"
    instance_seed = 7
    problem_config = {"tau_g": 0.5, "grid_points": 9}
    sweep_probe = True

    def setup(self, seed: int):
        return Enumerator(self.build())

    def run(self, state, seed: int):
        return state.enumerate(threads=THREADS, budget=10**6)

    def check(self, state, result, seed: int) -> Outcome:
        ref = REFERENCE["optima"]["0.5"]
        out = Outcome(attempted=1, evaluations=result.count)
        if result.status != "optimal":
            out.fail(f"status {result.status!r}, expected 'optimal'")
        if result.count != REFERENCE["positions"]:
            out.fail(f"enumerated {result.count} positions, expected {REFERENCE['positions']}")
        if not abs(result.optimal_fitness - ref["fitness"]) <= 1e-12:
            out.fail(f"optimum {result.optimal_fitness!r}, reference {ref['fitness']!r}")
        if len(result.optimal_positions) != ref["optimal_set_size"] or result.truncated:
            out.fail(f"optimal set of {len(result.optimal_positions)} (truncated={result.truncated}), "
                     f"reference {ref['optimal_set_size']}")
        out.hits = out.attempted - out.failed
        return out


class ReducedSweep(Workload):
    """``ratpo sweep`` through ``cli.main``: many short swarms on 30-row batches.

    It is not a workload of its own.  Its time is almost all interpreter
    work, which the 2-vCPU VM's drift moves about twice as much as the
    numpy-bound work of the other two: ten runs of the same code spread by
    about 20 % of their median.  Traced ``reduced_oracle`` runs make it as a
    probe instead, and it gives the ``cli.*`` per-layer metrics.
    """

    name = "sweep_probe"
    profile = "reduced"
    instance_seed = 7
    problem_config = {"tau_g": 0.5, "grid_points": 9}
    particles = 30
    grid = ("c_pers=0.4:1.6:0.4", "c_soc=0.4:1.6:0.4")
    taus = ("0.1", "0.5", "1.0")
    cells = operations = 4 * 4 * len(taus)

    def __init__(self, data_dir: Path, work_dir: Path):
        super().__init__(data_dir, work_dir)
        self.rats_path = _write_json(work_dir / "rats.json", {"particles": self.particles})
        self.csv_path = str(work_dir / "sweep.csv")

    def setup(self, seed: int):
        return self.build()

    def run(self, state, seed: int):
        Path(self.csv_path).unlink(missing_ok=True)  # a failed sweep must not leave an old CSV
        return cli.main([
            "sweep", "--data-dir", self.data_dir, "--problem", self.problem_path,
            "--rats", self.rats_path, "--grid", *self.grid, "--tau-g", ",".join(self.taus),
            "--seed", str(seed), "--threads", str(THREADS), "--out", self.csv_path,
        ])

    def check(self, state, result, seed: int) -> Outcome:
        out = Outcome(attempted=self.cells)
        try:
            with open(self.csv_path, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
        except OSError as exc:
            out.fail(f"sweep seed {seed}: exit code {result}, no CSV ({exc})", failed=self.cells)
            return out
        bad = [r for r in rows if r["status"] != "ok"]
        if bad:
            out.fail(f"sweep seed {seed}: {len(bad)} cells failed, first: {bad[0]['status']}",
                     failed=len(bad))
        # Exit code 3 reports failed cells, which are counted above.
        if result != 0 and not (result == 3 and bad):
            out.fail(f"sweep seed {seed}: exit code {result}", failed=self.cells)
        if len(rows) != self.cells:
            out.fail(f"sweep seed {seed}: {len(rows)} cells, expected {self.cells}", failed=self.cells)
        if len({r["seed"] for r in rows}) != len(rows):
            out.fail(f"sweep seed {seed}: per-cell seeds are not distinct", failed=self.cells)
        optima = REFERENCE["optima"]
        for r in rows:
            if r["status"] != "ok":
                continue
            out.evaluations += (int(r["iterations"]) + 1) * self.particles
            out.cell_walls.append(float(r["wall_s"]))
            ref = optima[repr(float(r["tau_g"]))]["fitness"]
            out.hits += abs(float(r["fitness"]) - ref) <= 1e-4
        return out


WORKLOADS = {w.name: w for w in (Table1Swarm, ReducedOracle)}

