"""Byte-for-byte comparison of ``BatchEvaluator`` with the per-slot loop it
replaced (``reference.slot_loop_evaluate``), on the generated instances.

The sparse product must add every row's terms in the loop's order, so no
tolerance applies: the P&L, the moments, the violations and the fitness must
carry the same bytes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import reference

from ratpo.oracle import Enumerator
from ratpo.risk import VarConfig, var_index

KEYS = ("pnl", "mean", "var", "psi", "fitness", "objective", "cost", "feasible")


def random_rows(problem, rows: int, seed: int) -> np.ndarray:
    """Random in-bounds positions; every other row picks one instrument in both
    option slots of each triplet, so duplicate picks are always present."""
    lo, hi = problem.structure.position_bounds()
    X = np.random.default_rng(seed).integers(lo, hi + 1, size=(rows, lo.size))
    for j in range(0, problem.structure.m, 3):
        X[::2, j + 1] = X[::2, j]
    return X


def assert_same_bytes(got: dict, want: dict, keys=KEYS) -> None:
    for key in keys:
        a, b = np.asarray(got[key]), np.asarray(want[key])
        assert a.shape == b.shape and a.dtype == b.dtype, key
        assert a.tobytes() == b.tobytes(), f"{key} differs"


def test_table1_matches_slot_loop(table1_problem):
    X = random_rows(table1_problem, 1000, seed=21)
    assert_same_bytes(table1_problem.evaluator.evaluate(X), reference.slot_loop_evaluate(table1_problem, X))


def test_reduced_block_matches_slot_loop(reduced_problem):
    enumerator = Enumerator(reduced_problem)
    X = enumerator.positions_for(4 * 65_536, 5 * 65_536)
    assert_same_bytes(reduced_problem.evaluator.evaluate(X), reference.slot_loop_evaluate(reduced_problem, X))


def test_var_rank_above_one_matches_slot_loop(reduced_problem):
    problem = dataclasses.replace(reduced_problem, var_cfg=VarConfig(0.01, 0.999, reduced_problem.var_cfg.count))
    assert var_index(problem.var_cfg) > 1
    X = random_rows(problem, 4096, seed=22)
    assert_same_bytes(problem.evaluator.evaluate(X), reference.slot_loop_evaluate(problem, X))


def test_rows_do_not_depend_on_the_batch(table1_problem):
    ev = table1_problem.evaluator
    X = random_rows(table1_problem, 1000, seed=23)
    full = ev.evaluate(X)
    rng = np.random.default_rng(24)
    cuts = np.sort(rng.choice(np.arange(1, len(X)), size=7, replace=False))
    parts = [ev.evaluate(chunk) for chunk in np.split(X, cuts)]
    split = {key: np.concatenate([part[key] for part in parts]) for key in KEYS}
    assert_same_bytes(split, full)
    for i in rng.choice(len(X), size=20, replace=False):
        alone = ev.evaluate(X[i:i + 1])
        assert_same_bytes(alone, {key: full[key][i:i + 1] for key in KEYS})


@pytest.mark.parametrize("instance", ["table1_problem", "reduced_problem"])
def test_cancelling_picks_score_as_empty_picks(instance, request):
    """Both option slots on one instrument, at notionals n and -n, hold no
    position: every key, the P&L row included, carries the bytes of the same
    row with both notionals at 0."""
    problem = request.getfixturevalue(instance)
    m, structure = problem.structure.m, problem.structure
    X = random_rows(problem, 500, seed=28)
    zero = X.copy()
    empty = problem.empty_position()
    for j in range(0, m, 3):
        X[:, j + 1] = zero[:, j + 1] = X[:, j]
        # The grids are symmetric: index g holds n and index len - 1 - g holds -n.
        X[:, m + j + 1] = len(structure.slots[j + 1].grid) - 1 - X[:, m + j]
        zero[:, [m + j, m + j + 1]] = empty[[m + j, m + j + 1]]
    grids = structure.grid_matrix()
    assert (grids[np.arange(m), X[:, m:]][:, 0:m:3] != 0).any()
    ev = problem.evaluator
    assert_same_bytes(ev.evaluate(X), ev.evaluate(zero))
    assert ev.feasible_slice(X).tobytes() == ev.feasible_slice(zero).tobytes()


@pytest.mark.parametrize("tau", [0.0, 0.5])
def test_feasible_slice_matches_evaluate(table1_problem, tau):
    """The Greek screen's mask carries the bytes of the full evaluation's, on
    table1 rows with duplicate picks (prefixes of full length) and on the
    441-position slices spanned by the last two entries of near-empty rows."""
    problem = dataclasses.replace(table1_problem, constraints=dataclasses.replace(
        table1_problem.constraints, tau_delta=tau, tau_vega=tau, tau_gamma=tau))
    ev, m = problem.evaluator, problem.structure.m
    X = random_rows(problem, 1000, seed=25)
    assert_same_bytes({"feasible": ev.feasible_slice(X)}, ev.evaluate(X), keys=("feasible",))
    # Random rows all break the limits; near-empty ones trade only in the first
    # option pair, which picks one instrument twice on even rows.
    prefixes = X[:20, :-2].copy()
    prefixes[:, m + 2:] = problem.empty_position()[m + 2:-2]
    want = ev.evaluate(reference.slice_positions(problem, prefixes))
    assert want["feasible"].any() and not want["feasible"].all()
    assert_same_bytes({"feasible": ev.feasible_slice(prefixes)}, want, keys=("feasible",))


def test_feasible_slice_adds_slots_in_evaluate_order(table1_problem):
    """Positions whose three Greek sums sit exactly on the limits stay feasible
    only if the screen adds the 39 slot terms in the slot loop's order; most
    other orders move some of these sums by an ULP."""
    X = random_rows(table1_problem, 40, seed=27)
    sens = reference.slot_loop_evaluate(table1_problem, X)["sens"]
    for x, (delta, vega, gamma) in zip(X, sens):
        problem = dataclasses.replace(table1_problem, constraints=dataclasses.replace(
            table1_problem.constraints, tau_delta=1.0, tau_vega=1.0, tau_gamma=1.0,
            base_delta=delta, base_vega=vega, base_gamma=gamma))
        assert problem.evaluator.evaluate(x[None, :])["feasible"].all()
        assert problem.evaluator.feasible_slice(x[None, :]).all()
