"""Every run happens in the calling thread.

The swarm, the oracle and the sweep accept a thread count of 2 (``threads``
and ``--threads``) but start no thread: with ``threading.Thread.start``
patched to raise, each one still completes.
"""

from __future__ import annotations

import threading
from unittest import mock

from conftest import make_toy_problem

from ratpo.cli import main
from ratpo.oracle import Enumerator
from ratpo.swarm import RatsConfig, Swarm, prunes


def test_runs_start_no_thread(reduced_problem, tmp_path):
    data = tmp_path / "reduced"
    assert main(["gen", "--seed", "7", "--out-dir", str(data), "--profile", "reduced"]) == 0
    problem = tmp_path / "problem.json"
    problem.write_text('{"tau_g": 0.5, "grid_points": 3}')
    rats = tmp_path / "rats.json"
    rats.write_text('{"particles": 20, "k_max": 2}')

    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    with mock.patch.object(threading.Thread, "start", refuse):
        for particles in (1000, 30):
            cfg = RatsConfig(particles=particles, k_max=3, seed=5, threads=2)
            assert prunes(reduced_problem, particles) is (particles == 1000)
            assert Swarm(cfg, reduced_problem).run().iterations == 3
        assert Enumerator(make_toy_problem()).enumerate(budget=1000, block_size=7, threads=2).count == 300
        assert main(["sweep", "--data-dir", str(data), "--problem", str(problem), "--rats", str(rats),
                     "--grid", "c_pers=0.5:1.0:0.5", "c_soc=1:1:1", "--threads", "2",
                     "--out", str(tmp_path / "sweep.csv")]) == 0
