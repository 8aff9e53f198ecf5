"""Self-tests of the benchmark's own logic.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from stats import tail  # noqa: E402
from tracing import PER_LAYER, self_times  # noqa: E402


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    assert tail(values) == (90.0, 90, 10)
    assert tail(values[:40]) == (30.0, 75, 10)


def test_tail_counts_ties_as_not_beyond():
    # Every percentile above 50 lands on the 2.0 plateau, which has nothing beyond it.
    assert tail([1.0] * 50 + [2.0] * 50) == (1.0, 50, 50)


def test_tail_falls_back_to_the_median_and_reports_the_count():
    assert tail([3.0, 1.0, 2.0]) == (2.0, 50, 1)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and its sibling b [5, 9]; a holds c [2, 3].
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times(np.array([2.0]), np.array([2.5]), np.array([-1])).tolist() == [0.5]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    assert json.dumps(workloads.generate(workload, 7)) == json.dumps(workloads.generate(workload, 7))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_different_seed_gives_different_inputs(workload):
    assert json.dumps(workloads.generate(workload, 7)) != json.dumps(workloads.generate(workload, 8))


def test_every_seed_keeps_each_op_far_from_its_deadline():
    # generate() raises for an op whose predicted sampler cost sits near a deadline.
    for seed in range(200):
        spec = workloads.generate("ball_geometry", seed)
        collapsed = [op for op in spec["ops"] if op["deadline_s"] == workloads.COLLAPSE_DEADLINE_S]
        assert len(collapsed) == 4
        for op in collapsed:
            dim = op["dim"] if "dim" in op else op["scenario"]["space"]["dim"]
            assert dim >= 15


def test_round_work_does_not_depend_on_the_seed():
    def sizes(spec):
        out = []
        for op in spec["ops"]:
            sc = op.get("scenario", {})
            out.append((op["kind"], op.get("samples"), op.get("steps"), sc.get("max_steps"),
                        sorted(c.get("samples", 0) for c in sc.get("checks", []))))
        return sorted(map(repr, out))

    for workload in ("scenario_checks", "powerless_maps"):
        assert sizes(workloads.generate(workload, 1)) == sizes(workloads.generate(workload, 2))


def test_benchmark_json_names_what_the_runs_report():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER
