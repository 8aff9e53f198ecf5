"""Every op of every perfbench workload, run once through perfbench's own
output checks (perfbench/ops.py), so a change to a name or an output the
benchmark reads fails here and not only in a benchmark run.

The ops run untimed: perfbench/run.py calls a run correct when no op raised
and no completed op failed a check, and a missed deadline is a timing, not
a fault.
"""

import os
import signal
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


@pytest.fixture
def at_root(monkeypatch):
    """Work from the checkout root, where the shipped scenarios are read from
    ``scenarios/``, and restore the CPU affinity and the SIGALRM handler,
    which the runner changes for the whole process."""
    monkeypatch.chdir(ROOT)
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else None
    handler = signal.getsignal(signal.SIGALRM)
    yield
    signal.signal(signal.SIGALRM, handler)
    if cpus is not None:
        os.sched_setaffinity(0, cpus)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_op_of_the_workload_checks_out(workload, tmp_path, at_root):
    from ops import Runner

    spec = workloads.generate(workload, 1)
    runner = Runner(spec, tmp_path)
    outcomes = [runner.run(op) for op in spec["ops"]]
    faults = [f"{o.op_id}: {p}" for o in outcomes
              if o.status == "error" or (o.status == "ok" and o.problems) for p in o.problems]
    assert faults == []
