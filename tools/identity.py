"""Check that two source trees write the same output files, byte for byte
up to wall times.

Usage::

    python tools/identity.py --base <parent checkout>

runs one fixed set of ``ratpo`` commands twice, in child processes: once
against ``<parent checkout>/src`` and once against the ``src/`` of the tree
this script belongs to.  The set is

* ``gen`` of table1 (seed 42) and reduced (seed 7);
* ``features`` on both;
* ``optimize`` on table1 at seeds 101000-101002 with the benchmark's
  ``rats.json`` (1000 particles, 50 iterations, no early stop);
* ``optimize`` on reduced with 30 and with 1000 particles;
* ``oracle`` on reduced at ``tau_g`` 0.1, 0.5 and 1.0;
* the benchmark's 48-cell sweep on reduced.

For every output file it prints ``identical``, or the first field that
differs, both values and, when both are numbers, their distance in units in
the last place (ULPs).  CSV and JSON files are compared field by field,
after dropping the wall-time fields (:data:`WALL_FIELDS`), which are the
only fields that may differ between two runs of the same code.  The exit
status is 0 when every file is identical and every command exited 0 in
both trees, 1 otherwise.

The two trees run on the same host.  Digests pinned across hosts would not
do: numpy's ``exp`` and ``log`` may round differently on another CPU.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Iterator, Optional

#: The tree this script belongs to, compared against ``--base``.
THIS_TREE = Path(__file__).resolve().parents[1]

#: Fields (JSON keys or CSV columns) that hold wall times.
WALL_FIELDS = frozenset({"wall_seconds", "init_seconds", "wall_s"})

#: The benchmark's table1 swarm and its sweep probe.
TABLE1_RATS = {"particles": 1000, "k_max": 50, "k_max_stall": 10**9, "tau_p": 0.999999, "threads": 2}
SWEEP_GRID = ["c_pers=0.4:1.6:0.4", "c_soc=0.4:1.6:0.4"]
SWEEP_TAUS = "0.1,0.5,1.0"


def commands() -> Iterator[tuple[str, dict[str, object], list[str]]]:
    """(name, config files to write, ratpo arguments) of every run, in order.

    Paths are relative to the run's directory; config files are named by
    their key and written as JSON before the run.
    """
    table1, reduced = "data/table1", "data/reduced"
    table1_problem, reduced_problem = {"tau_g": 0.5}, {"tau_g": 0.5, "grid_points": 9}
    yield "gen table1", {}, ["gen", "--seed", "42", "--profile", "table1", "--out-dir", table1]
    yield "gen reduced", {}, ["gen", "--seed", "7", "--profile", "reduced", "--out-dir", reduced]
    yield ("features table1", {"cfg/table1.json": table1_problem},
           ["features", "--data-dir", table1, "--problem", "cfg/table1.json", "--out", "features_table1.csv"])
    yield ("features reduced", {"cfg/reduced.json": reduced_problem},
           ["features", "--data-dir", reduced, "--problem", "cfg/reduced.json", "--out", "features_reduced.csv"])
    for seed in (101000, 101001, 101002):
        yield (f"optimize table1 seed {seed}", {"cfg/table1.json": table1_problem, "cfg/rats_table1.json": TABLE1_RATS},
               ["optimize", "--data-dir", table1, "--problem", "cfg/table1.json", "--rats", "cfg/rats_table1.json",
                "--seed", str(seed), "--out", f"optimize/table1_{seed}"])
    for particles in (30, 1000):
        rats = f"cfg/rats_{particles}.json"
        yield (f"optimize reduced {particles} particles", {"cfg/reduced.json": reduced_problem,
                                                           rats: {"particles": particles}},
               ["optimize", "--data-dir", reduced, "--problem", "cfg/reduced.json", "--rats", rats,
                "--out", f"optimize/reduced_{particles}"])
    for tau in ("0.1", "0.5", "1.0"):
        problem = f"cfg/reduced_tau{tau}.json"
        yield (f"oracle tau_g {tau}", {problem: {"tau_g": float(tau), "grid_points": 9}},
               ["oracle", "--data-dir", reduced, "--problem", problem, "--out", f"oracle/tau{tau}"])
    yield ("sweep", {"cfg/reduced.json": reduced_problem, "cfg/rats_30.json": {"particles": 30}},
           ["sweep", "--data-dir", reduced, "--problem", "cfg/reduced.json", "--rats", "cfg/rats_30.json",
            "--grid", *SWEEP_GRID, "--tau-g", SWEEP_TAUS, "--seed", "0", "--out", "sweep.csv"])


def run_tree(tree: Path, out: Path) -> dict[str, tuple[int, str]]:
    """Run every command against ``tree/src`` in ``out``; (exit code, last
    line of stderr) of each, by name."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out.mkdir(parents=True)
    codes = {}
    for name, configs, argv in commands():
        for rel, payload in configs.items():
            (out / rel).parent.mkdir(parents=True, exist_ok=True)
            (out / rel).write_text(json.dumps(payload) + "\n", encoding="utf-8")
        done = subprocess.run([sys.executable, "-m", "ratpo.cli", *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        codes[name] = (done.returncode, (done.stderr.strip().splitlines() or [""])[-1])
    return codes


# -- comparison ---------------------------------------------------------------


def _ordered(x: float) -> int:
    """The float's bit pattern as an integer that orders like the floats."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFF_FFFF_FFFF_FFFF)


def ulp_distance(a: float, b: float) -> Optional[int]:
    """How many representable steps apart ``a`` and ``b`` are (0 when equal,
    +0.0 and -0.0 included), or None when either is NaN."""
    if math.isnan(a) or math.isnan(b):
        return None
    return abs(_ordered(a) - _ordered(b))


def _json_fields(node, path: str) -> Iterator[tuple[str, str]]:
    if isinstance(node, dict):
        for key, value in node.items():
            if key not in WALL_FIELDS:
                yield from _json_fields(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _json_fields(value, f"{path}[{i}]")
    else:
        yield path, json.dumps(node)


def fields(path: Path) -> list[tuple[str, str]]:
    """(name, text) of every field of an output file, wall times dropped."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return list(_json_fields(json.loads(text), ""))
    if path.suffix == ".csv":
        rows = list(csv.reader(text.splitlines())) or [[]]
        header = rows[0]
        out = [("header", name) for name in header if name not in WALL_FIELDS]
        for line, row in enumerate(rows[1:], 2):
            out += [(f"line {line}, {header[c] if c < len(header) else f'column {c + 1}'}", value)
                    for c, value in enumerate(row) if c >= len(header) or header[c] not in WALL_FIELDS]
        return out
    return [(f"line {i}", line) for i, line in enumerate(text.splitlines(), 1)]


def _number(text: str) -> Optional[float]:
    try:
        return float(text)
    except ValueError:
        return None


def compare(base: Path, head: Path) -> str:
    """``identical``, or the first field of the two files that differs."""
    a, b = fields(base), fields(head)
    for (name_a, text_a), (name_b, text_b) in zip(a, b):
        if name_a != name_b:
            return f"field {name_a!r} in base, {name_b!r} in head"
        if text_a == text_b:
            continue
        x, y = _number(text_a), _number(text_b)
        if x is None or y is None:
            return f"{name_a}: {text_a} vs {text_b}"
        ulps = ulp_distance(x, y)
        return f"{name_a}: {text_a} vs {text_b} ({'NaN' if ulps is None else f'{ulps} ULPs'})"
    if len(a) != len(b):
        return f"{len(a)} fields in base, {len(b)} in head"
    return "identical"


def compare_trees(base: Path, head: Path) -> list[tuple[str, str]]:
    """(relative path, verdict) of every file either output tree holds."""
    files = sorted({p.relative_to(root) for root in (base, head) for p in root.rglob("*")
                    if p.is_file() and p.relative_to(root).parts[0] != "cfg"})
    verdicts = []
    for rel in files:
        if not (base / rel).is_file() or not (head / rel).is_file():
            verdicts.append((str(rel), "only in " + ("head" if (head / rel).is_file() else "base")))
        else:
            verdicts.append((str(rel), compare(base / rel, head / rel)))
    return verdicts


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, type=Path, help="checkout of the tree to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="ratpo-identity-") as work:
        outs = {label: Path(work) / label for label in ("base", "head")}
        codes = {label: run_tree(tree, outs[label]) for label, tree in (("base", args.base.resolve()),
                                                                        ("head", THIS_TREE))}
        ok = True
        for name in codes["base"]:
            (code_a, err_a), (code_b, err_b) = codes["base"][name], codes["head"][name]
            if code_a or code_b:
                ok = False
                print(f"{name}: exit {code_a} in base, {code_b} in head\n  base: {err_a}\n  head: {err_b}")
        for rel, verdict in compare_trees(outs["base"], outs["head"]):
            ok &= verdict == "identical"
            print(f"{rel}: {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
