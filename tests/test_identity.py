"""The comparison of ``tools/identity.py``: equal outputs read identical, wall
times aside, and one field one ULP apart is named with its distance."""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "identity", Path(__file__).resolve().parents[1] / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(identity)

HEADER = "iteration,best_fitness,concentration,stall,wall_seconds\n"


def trajectory(best: float, wall: float) -> str:
    return HEADER + f"0,1.5,0.001,0,{wall!r}\n1,{best!r},0.002,0,{2 * wall!r}\n"


def result(fitness: float, wall: float) -> dict:
    return {"fitness": fitness, "violations": [0.0, 0.0, 0.0], "wall_seconds": wall,
            "init_seconds": wall / 2, "strategy": [{"instrument_id": "01|s|-|-", "notional": 3}]}


def write(tmp_path: Path, name: str, files: dict[str, str]) -> Path:
    root = tmp_path / name
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
    return root


def test_equal_outputs_are_identical_whatever_their_wall_times(tmp_path):
    base = write(tmp_path, "base", {"run/trajectory.csv": trajectory(0.25, 0.01),
                                    "run/result.json": json.dumps(result(0.25, 0.01))})
    head = write(tmp_path, "head", {"run/trajectory.csv": trajectory(0.25, 0.07),
                                    "run/result.json": json.dumps(result(0.25, 0.07), indent=2)})
    assert identity.compare_trees(base, head) == [("run/result.json", "identical"),
                                                  ("run/trajectory.csv", "identical")]


def test_one_ulp_apart_in_one_field(tmp_path):
    near = math.nextafter(0.25, 1.0)
    base = write(tmp_path, "base", {"trajectory.csv": trajectory(0.25, 0.01),
                                    "result.json": json.dumps(result(0.25, 0.01))})
    head = write(tmp_path, "head", {"trajectory.csv": trajectory(near, 0.01),
                                    "result.json": json.dumps(result(near, 0.01))})
    assert dict(identity.compare_trees(base, head)) == {
        "result.json": f"fitness: 0.25 vs {near!r} (1 ULPs)",
        "trajectory.csv": f"line 3, best_fitness: 0.25 vs {near!r} (1 ULPs)",
    }


def test_other_differences(tmp_path):
    base = write(tmp_path, "base", {"a.csv": "x,y\n1,b\n", "b.csv": "x\n1\n", "c.csv": "x\n1\n"})
    head = write(tmp_path, "head", {"a.csv": "x,y\n1,c\n", "b.csv": "x\n1\n2\n"})
    assert identity.compare_trees(base, head) == [
        ("a.csv", "line 2, y: b vs c"), ("b.csv", "2 fields in base, 3 in head"), ("c.csv", "only in base")]


@pytest.mark.parametrize("a, b, ulps", [
    (0.0, -0.0, 0), (-1.0, math.nextafter(-1.0, 0.0), 1), (-5e-324, 5e-324, 2),
    (1.0, 1.0 + 4 * 2.0**-52, 4), (math.inf, 1.7976931348623157e308, 1), (math.nan, 1.0, None),
])
def test_ulp_distance(a, b, ulps):
    assert identity.ulp_distance(a, b) == ulps
