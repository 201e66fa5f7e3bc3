"""The work counters that later changes cite must repeat exactly.

Run from the repository root (about a minute):

    python3 -m pytest -q perfbench/test_counters.py

Each workload runs twice in-process under the tracer on its pinned seed;
``corrector.rk4_steps``, ``effective.n_evals``, ``pde.evolve_steps`` and
``pde.node_steps`` must come out identical, and the counter of the layer
the workload isolates must be nonzero.
"""

import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402

sys.path.insert(0, str(run.SRC))

EXERCISED = {"theta-curve": "corrector.rk4_steps",
             "effective": "effective.n_evals",
             "homogenize": "pde.node_steps"}


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_work_counters_repeat_exactly(workload):
    seed = W.DEFAULT_SEEDS[workload]
    work = run.WORK / f"test-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    reference, half = (W.homogenize_reference(seed)
                       if workload == "homogenize" else (None, 0.0))
    runs = W.configs(workload, seed, work, reference)
    gate = run.Gate(workload, seed, half)
    counters = []
    for _ in range(2):
        tracer = tracing.Tracer()
        run.inprocess_rep(runs, gate, tracer)
        metrics = tracer.summary()
        counters.append({k: metrics[k] for k in tracing.EXACT_COUNTERS})
    shutil.rmtree(work)
    assert gate.failed == 0, gate.problems
    assert counters[0] == counters[1]
    assert counters[0][EXERCISED[workload]] > 0
