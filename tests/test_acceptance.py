"""Acceptance criteria: one test per criterion, one PASS/FAIL line each.

Every criterion is checked at its stated tolerance; a criterion test fails
loudly with the list of offending sub-checks rather than weakening a bound.
"""

import copy
import json
import math

import numpy as np
import pytest

from conftest import record_acceptance
from fixiter import (
    PhiSpec,
    RunConfig,
    Schedule,
    NormedSpace,
    TAU_LEM22,
    Vector,
    certify_condition_I,
    certify_nearly_nonexpansive,
    certify_nonexpansive,
    check_lemma21,
    check_lemma22_witness,
    cli,
    compare_schemes,
    linear_rate_oracle,
    make_example21,
    make_linear_contraction,
    modulus_of_convexity_estimate,
    run_scheme,
    verify_theorem33,
)

HALF = Schedule.constant(0.5)


def _report(num: int, ok: bool, failures: list[str]) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}"
    print(line)
    record_acceptance(line)
    assert ok, f"criterion {num}: " + "; ".join(failures)


def _criterion2_runs():
    m = make_example21(0.5)
    runs = []
    for x0 in (0.1, 0.5, 0.9, 1.0):
        cfg = RunConfig("modified_pm_hybrid", m, Vector((x0,)), alpha=HALF,
                        max_steps=200, stop_tolerance=-1.0)
        runs.append(run_scheme(cfg))
    return m, runs


def test_criterion_01_jump_map_certification():
    failures = []
    for q in (0.3, 0.5, 0.9):
        m = make_example21(q)
        near = certify_nearly_nonexpansive(m, Schedule.geometric(q), 50, 10_000, 0)
        if near.verdict != "certified" or near.max_violation > 1e-8:
            failures.append(f"q={q}: nearly verdict {near.verdict}, "
                            f"violation {near.max_violation}")
        non = certify_nonexpansive(m, 10_000, 0)
        witness_coord = max(abs(non.witness.x.coords[0]), abs(non.witness.y.coords[0]))
        if non.verdict != "refuted" or non.max_violation < 0.05 or witness_coord < 0.99:
            failures.append(f"q={q}: nonexpansive verdict {non.verdict}, "
                            f"violation {non.max_violation}, witness near {witness_coord}")
    _report(1, not failures, failures)


def test_criterion_02_power_hybrid_convergence():
    _, runs = _criterion2_runs()
    failures = []
    for traj in runs:
        x0 = traj.iterates[0].coords[0]
        final = abs(traj.final.coords[0])
        dists = [abs(v.coords[0]) for v in traj.iterates]
        window = dists[-50:]
        osc = max(window) - min(window)
        tail_resid = max(traj.residual_Tn[-50:])
        if final > 1e-10:
            failures.append(f"x0={x0}: |x_N| = {final}")
        if osc > 1e-8:
            failures.append(f"x0={x0}: tail oscillation {osc}")
        if tail_resid > 1e-8:
            failures.append(f"x0={x0}: tail power residual {tail_resid}")
        if traj.steps != 200:
            failures.append(f"x0={x0}: stopped after {traj.steps} steps")
    _report(2, not failures, failures)


def test_criterion_03_per_step_bound_and_telescoping():
    _, runs = _criterion2_runs()
    a = Schedule.geometric(0.5)
    failures = []
    for traj in runs:
        x0 = traj.iterates[0].coords[0]
        dists = [abs(v.coords[0]) for v in traj.iterates]
        b = [(1.0 + HALF.at(n)) * a.at(n) for n in range(1, traj.steps + 1)]
        for n in range(1, traj.steps + 1):
            if dists[n] > dists[n - 1] + b[n - 1] + 1e-9:
                failures.append(f"x0={x0}: per-step bound broken at n={n}")
                break
        # telescoped majorant: distance plus the remaining perturbation budget
        tails = [dists[n] + sum(b[n:]) for n in range(traj.steps + 1)]
        for prev, cur in zip(tails, tails[1:]):
            if cur > prev + 1e-9:
                failures.append(f"x0={x0}: telescoped majorant increased")
                break
    _report(3, not failures, failures)


def test_criterion_04_oracle_equivalence():
    failures = []
    for q in (0.3, 0.5, 0.9):
        m = make_linear_contraction(q, 1)
        for al in (0.25, 0.5, 0.75):
            alpha = Schedule.constant(al)
            for scheme in ("picard", "mann", "pm_hybrid", "modified_pm_hybrid"):
                cfg = RunConfig(scheme, m, Vector((1.0,)),
                                alpha=None if scheme == "picard" else alpha,
                                max_steps=20, stop_tolerance=-1.0)
                traj = run_scheme(cfg)
                predicted = 1.0
                for n in range(1, 21):
                    predicted *= linear_rate_oracle(scheme, q, al, n)
                    got = traj.iterates[n].coords[0]
                    rel = abs(got - predicted) / max(abs(predicted), 1e-300)
                    if rel > 1e-10:
                        failures.append(
                            f"{scheme} q={q} alpha={al} n={n}: rel error {rel}")
                        break
    _report(4, not failures, failures)


def test_criterion_05_speed_ordering():
    m = make_linear_contraction(0.5, 1)
    base = RunConfig("picard", m, Vector((1.0,)), alpha=HALF)
    rep = compare_schemes(base, ["picard", "mann", "pm_hybrid", "modified_pm_hybrid"],
                          1e-6)
    by = {row.scheme: row.steps_to_target for row in rep.rows}
    failures = []
    if not by["pm_hybrid"] < by["picard"]:
        failures.append(f"pm_hybrid {by['pm_hybrid']} !< picard {by['picard']}")
    if not by["picard"] < by["mann"]:
        failures.append(f"picard {by['picard']} !< mann {by['mann']}")
    if not by["modified_pm_hybrid"] <= by["pm_hybrid"]:
        failures.append(
            f"modified_pm_hybrid {by['modified_pm_hybrid']} !<= pm_hybrid {by['pm_hybrid']}")
    _report(5, not failures, failures)


def test_criterion_06_recurrence_checker():
    failures = []
    n = np.arange(1, 201)
    rep = check_lemma21(1.0 + 2.0 ** -n, 2.0 ** -n, np.zeros(200), 200)
    if rep.verdict != "converged" or abs(rep.estimated_limit - 1.0) > 1e-6:
        failures.append(f"geometric example: {rep.verdict}, limit {rep.estimated_limit}")
    rep = check_lemma21(np.zeros(200), np.zeros(200), np.zeros(200), 200)
    if rep.verdict != "converged" or rep.estimated_limit != 0.0:
        failures.append(f"zero example: {rep.verdict}, limit {rep.estimated_limit}")
    rep = check_lemma21(n.astype(float), np.zeros(200), np.ones(200), 200)
    if rep.verdict != "undetermined" or not rep.recurrence_ok or rep.summable:
        failures.append("non-summable example not flagged as undetermined")

    rng = np.random.default_rng(2024)
    for case in range(100):
        size = int(rng.integers(5, 100))
        b = rng.uniform(0.0, 0.5, size)
        d = rng.uniform(0.0, 0.2, size)
        a = np.empty(size)
        a[0] = rng.uniform(0.0, 2.0)
        for i in range(size - 1):
            a[i + 1] = ((1.0 + d[i]) * a[i] + b[i]) * rng.uniform(0.0, 1.0)
        j = int(rng.integers(1, size))
        a[j] = (1.0 + d[j - 1]) * a[j - 1] + b[j - 1] + rng.uniform(0.5, 2.0)
        rep = check_lemma21(a, b, d, size)
        if rep.first_violation_index != j:
            failures.append(
                f"fuzz case {case}: expected index {j}, got {rep.first_violation_index}")
    _report(6, not failures, failures)


def test_criterion_07_collapse_checker():
    sp = NormedSpace(2, 2.0)
    xs = [Vector((1.0, 0.0))] * 500
    ys = [Vector((math.cos(n ** -3.0), math.sin(n ** -3.0))) for n in range(1, 501)]
    t = [0.5] * 500
    failures = []
    rep = check_lemma22_witness(t, xs, ys, 1.0, sp, 500, 0.5, 0.5)
    if rep.extra["verdict"] != "confirmed" or rep.checks[3].value > TAU_LEM22:
        failures.append(f"rotating: {rep.extra['verdict']}, tail gap {rep.checks[3].value}")
    anti = check_lemma22_witness(t, xs, [Vector((-1.0, 0.0))] * 500, 1.0, sp,
                                 500, 0.5, 0.5)
    if anti.extra["verdict"] != "hypothesis_failure":
        failures.append(f"antipodal: {anti.extra['verdict']}")
    _report(7, not failures, failures)


def test_criterion_08_coercivity_and_chain():
    m, runs = _criterion2_runs()
    failures = []
    weak = certify_condition_I(m, PhiSpec("linear", lam=0.5), 10_000, 0)
    if weak.verdict != "certified":
        failures.append(f"0.5t gauge: {weak.verdict}")
    strong = certify_condition_I(m, PhiSpec("linear", lam=0.75), 10_000, 0)
    if strong.verdict != "refuted":
        failures.append(f"0.75t gauge: {strong.verdict}")
    for traj in runs:
        rep = verify_theorem33(traj, m, PhiSpec("linear", lam=0.5), weak)
        if not rep.passed:
            x0 = traj.iterates[0].coords[0]
            failures.append(f"chain failed from x0={x0}")
    _report(8, not failures, failures)


def test_criterion_09_modulus_of_convexity():
    sp = NormedSpace(2, 2.0)
    failures = []
    for eps in (0.5, 1.0, 1.5):
        want = 1.0 - math.sqrt(1.0 - eps * eps / 4.0)
        est = modulus_of_convexity_estimate(sp, eps, 100_000, 0).estimate
        if not (want - 1e-12 <= est <= want + 1e-2):
            failures.append(f"eps={eps}: estimate {est}, closed form {want}")
    if modulus_of_convexity_estimate(sp, 0.0, 100_000, 0).estimate != 0.0:
        failures.append("estimate at eps=0 is not exactly 0")
    if modulus_of_convexity_estimate(sp, 2.0, 100_000, 0).estimate != 1.0:
        failures.append("estimate at eps=2 is not exactly 1")
    _report(9, not failures, failures)


SCENARIO = {
    "schema_version": 1,
    "name": "determinism-probe",
    "space": {"dim": 1, "p": 2},
    "mapping": {"id": "example21", "parameters": {"q": 0.5}},
    "scheme": "modified_pm_hybrid",
    "schedules": {"alpha": {"kind": "constant", "parameters": {"value": 0.5}}},
    "x0": [0.9],
    "max_steps": 200,
    "stop_tolerance": -1.0,
    "checks": [{"name": "theorem31"}],
}


def test_criterion_10_determinism_and_contracts(tmp_path):
    failures = []
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        code = cli.main(["run", str(path), "--output", str(out), "--seed", "0",
                         "--quiet"])
        if code != 0:
            failures.append(f"run exited {code}")
    csvs = [(out / "determinism-probe.trajectory.csv").read_bytes() for out in outs]
    if csvs[0] != csvs[1]:
        failures.append("trajectory CSVs differ between identical runs")

    def variant(**edits):
        doc = copy.deepcopy(SCENARIO)
        doc.update(edits)
        return doc

    invalid = [
        variant(schema_version=7),
        variant(name="no spaces allowed"),
        variant(space={"dim": 1, "p": 0.0}),
        variant(mapping={"id": "example21", "parameters": {}}),
        variant(scheme="gradient_descent"),
        variant(schedules={"alpha": {"kind": "constant", "parameters": {"value": 1.5}}}),
        variant(x0=[5.0]),
        variant(x0=[0.9, 0.9]),
        variant(stop_tolerance=[1e-12]),
        variant(checks=[{"name": "certify"}]),
        variant(checks=[{"name": "theorem31", "mystery": True}]),
        variant(scheme="mann"),  # theorem31 check demands the power hybrid
    ]
    for i, doc in enumerate(invalid):
        bad_path = tmp_path / f"bad{i}.json"
        bad_path.write_text(json.dumps(doc))
        out = tmp_path / f"bad-out{i}"
        code = cli.main(["run", str(bad_path), "--output", str(out), "--quiet"])
        if code != 1:
            failures.append(f"fuzz case {i}: exit {code}, expected 1")
        if out.exists() and list(out.iterdir()):
            failures.append(f"fuzz case {i}: partial outputs written")
    _report(10, not failures, failures)
