"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It generates the workload's input data in
one child process, measures the workload in a second one (see worker.py),
checks the outputs, and prints every metric that BENCHMARK.json lists for the
chosen mode: the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Scratch files go to ``.bench_work/`` in the repository root: the generated
data (removed at the end), a JSON record of every run under ``results/`` and
the spans of traced runs under ``traces/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
#: Everything must end within the 180 s a run may take.
TIME_LIMIT_S = 170.0
#: The program's own parallelism is its ``threads`` setting; numerical
#: libraries get no thread pools of their own.
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def run_child(argv: list[str], result: Path, deadline: float) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in PINNED_THREADS})
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for {argv[0]}")
    try:
        # The child's own prints (ratpo's CLI messages) go to stderr so that
        # standard output stays the benchmark's.
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *argv, "--result", str(result)],
                              cwd=ROOT, env=env, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {argv[0]} did not finish within {remaining:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {argv[0]} exited with code {proc.returncode}")
    return json.loads(result.read_text(encoding="utf-8"))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args: argparse.Namespace, measured: dict) -> dict:
    return {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        **measured["versions"],
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "threads": {"ratpo": measured["threads"], **{var: 1 for var in PINNED_THREADS}},
        "seeds": {"instance": measured["instance_seed"], "bench": args.seed,
                  "repetitions": [r["seed"] for r in measured["reps"]]},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "ratpo" / "__init__.py").is_file():
        print(f"bench: no ratpo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = WORK / "runs" / f"{tag}-{os.getpid()}"
    for sub in ("results", "traces"):
        (WORK / sub).mkdir(parents=True, exist_ok=True)
    (scratch / "data").mkdir(parents=True)
    try:
        gen = run_child(["gen", "--workload", args.workload, "--out-dir", str(scratch / "data"),
                         "--trace", str(args.trace)], scratch / "gen.json", deadline)
        measured = run_child([
            "measure", "--workload", args.workload, "--data-dir", str(scratch / "data"),
            "--work-dir", str(scratch), "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--spans", str(WORK / "traces" / f"{tag}.csv"),
        ], scratch / "measure.json", deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    values = dict(measured["metrics"])
    if args.trace:
        values["datagen.gen_dataset_s"] = gen["datagen.gen_dataset_s"]
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    names = {m["name"] for m in wanted}
    if set(values) != names:
        print(f"bench: metrics {sorted(set(values) ^ names)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    problems = list(measured["problems"])
    if gen["exit_code"] != 0:
        problems.append(f"ratpo gen exited with code {gen['exit_code']}")
    for name, value in values.items():
        if not math.isfinite(value):
            problems.append(f"{name} could not be measured")
            values[name] = 0.0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    summary = {
        "correct": not problems and measured["failed"] == 0 and measured["attempted"] >= 1,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": metrics,
    }

    env = environment(args, measured)
    record = {**summary, "problems": problems, "environment": env, "repetitions": measured["reps"]}
    (WORK / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for problem in problems:
        print(f"bench: FAILED CHECK: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{args.workload:<15} {name:<34} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"environment": env}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
