"""Limit diagnostics, recurrence/collapse checkers, theorem chains, rates."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixiter import (
    ConditionIWitness,
    ConfigurationError,
    ContractError,
    NormedSpace,
    PhiSpec,
    RunConfig,
    Schedule,
    ScopeError,
    Vector,
    certify_condition_I,
    check_lemma21,
    check_lemma22_witness,
    compare_schemes,
    limit_verdict,
    make_example21,
    make_identity,
    make_linear_contraction,
    run_scheme,
    tail_window_start,
    verify_theorem31,
    verify_theorem32,
    verify_theorem33,
)

HALF = Schedule.constant(0.5)


def _hybrid_run(x0, max_steps=200):
    m = make_example21(0.5)
    cfg = RunConfig("modified_pm_hybrid", m, Vector((x0,)), alpha=HALF,
                    max_steps=max_steps, stop_tolerance=-1.0)
    return run_scheme(cfg), m


# ---------------------------------------------------------------------------
# tail windows and limit verdicts

def test_tail_window_start():
    assert tail_window_start(200) == 150
    assert tail_window_start(1000) == 750
    assert tail_window_start(60) == 10
    assert tail_window_start(40) == 0  # shorter than the floor: whole record
    assert tail_window_start(1) == 0
    with pytest.raises(ContractError):
        tail_window_start(0)


def test_limit_verdict_converged_to_zero():
    lv = limit_verdict([0.5 ** n for n in range(200)])
    assert lv.verdict == "converged"
    assert lv.estimated_limit == 0.0
    assert lv.window_start == 150


def test_limit_verdict_converged_to_nonzero():
    lv = limit_verdict([1.0 + 0.5 ** n for n in range(200)])
    assert lv.verdict == "converged"
    assert lv.estimated_limit == pytest.approx(1.0)


def test_limit_verdict_diverged():
    lv = limit_verdict([1.2 ** n for n in range(251)])
    assert lv.verdict == "diverged"
    assert lv.estimated_limit is None


def test_limit_verdict_oscillation_is_undetermined():
    lv = limit_verdict([(-1.0) ** n + 1.0 for n in range(200)])
    assert lv.verdict == "undetermined"


def test_limit_verdict_input_validation():
    with pytest.raises(ContractError):
        limit_verdict([])
    with pytest.raises(ContractError):
        limit_verdict([1.0, math.nan])


# ---------------------------------------------------------------------------
# perturbed-recurrence checker

def test_recurrence_checker_converges_to_one():
    n = np.arange(1, 201)
    rep = check_lemma21(1.0 + 2.0 ** -n, 2.0 ** -n, np.zeros(200), 200)
    assert rep.hypothesis_ok
    assert rep.verdict == "converged"
    assert rep.estimated_limit == pytest.approx(1.0)
    assert rep.first_violation_index is None


def test_recurrence_checker_all_zero():
    z = np.zeros(200)
    rep = check_lemma21(z, z, z, 200)
    assert rep.verdict == "converged"
    assert rep.estimated_limit == 0.0


def test_recurrence_checker_flags_non_summable_perturbation():
    n = np.arange(1, 201)
    rep = check_lemma21(n.astype(float), np.zeros(200), np.ones(200), 200)
    assert rep.recurrence_ok  # n + 1 <= 2n holds for n >= 1
    assert not rep.summable
    assert not rep.hypothesis_ok
    assert rep.verdict == "undetermined"
    assert rep.estimated_limit is None


def test_recurrence_checker_reports_first_violation():
    a = [1.0, 1.0, 5.0, 1.0]
    rep = check_lemma21(a, [0.0] * 4, [0.0] * 4, 4)
    assert not rep.recurrence_ok
    assert rep.first_violation_index == 2


def _first_violation_loop(a, b, d, n):
    """The first violation as check_lemma21 found it with a loop over numpy scalars."""
    aa, bb, dd = (np.asarray(list(v), dtype=float)[:n] for v in (a, b, d))
    for i in range(n - 1):
        if aa[i + 1] > (1.0 + dd[i]) * aa[i] + bb[i] + 1e-12:
            return i + 1
    return None


def test_recurrence_checker_fuzzed_violation_indices():
    rng = np.random.default_rng(123)
    for _ in range(100):
        n = int(rng.integers(5, 120))
        a = rng.uniform(0.0, 2.0, n)
        b = rng.uniform(0.0, 0.5, n)
        d = rng.uniform(0.0, 0.2, n)
        rep = check_lemma21(a, b, d, n)
        expect = _first_violation_loop(a, b, d, n)
        assert rep.first_violation_index == expect
        assert rep.recurrence_ok == (expect is None)


entries = st.floats(0.0, 4.0) | st.sampled_from([0.0, 1e-12, 1.0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=st.lists(entries, min_size=2, max_size=40), b=st.lists(entries, min_size=40, max_size=40),
       d=st.lists(entries, min_size=40, max_size=40), decay=st.booleans())
def test_recurrence_checker_finds_the_loops_first_violation(a, b, d, decay):
    # With decay, a is made nonincreasing, so the recurrence holds throughout.
    if decay:
        a = sorted(a, reverse=True)
    n = len(a)
    expect = _first_violation_loop(a, b, d, n)
    assert expect is None or not decay
    rep = check_lemma21(a, b, d, n)
    assert (rep.first_violation_index, rep.recurrence_ok) == (expect, expect is None)


def test_recurrence_checker_input_validation():
    with pytest.raises(ContractError):
        check_lemma21([1.0], [0.0], [0.0], 1)  # N < 2
    with pytest.raises(ContractError):
        check_lemma21([1.0, -1.0], [0.0, 0.0], [0.0, 0.0], 2)
    with pytest.raises(ContractError):
        check_lemma21([1.0, math.inf], [0.0, 0.0], [0.0, 0.0], 2)
    with pytest.raises(ContractError):
        check_lemma21([1.0], [0.0, 0.0], [0.0, 0.0], 2)  # too short


# ---------------------------------------------------------------------------
# two-sequence collapse checker

def _unit(theta):
    return Vector((math.cos(theta), math.sin(theta)))


def test_collapse_checker_identical_sequences():
    sp = NormedSpace(2, 2.0)
    pts = [Vector((1.0, 0.0))] * 500
    rep = check_lemma22_witness([0.5] * 500, pts, pts, 1.0, sp, 500, 0.4, 0.6)
    assert rep.verdict == "confirmed"
    assert rep.conclusion_tail_max == 0.0


def test_collapse_checker_slowly_closing_rotation():
    sp = NormedSpace(2, 2.0)
    xs = [Vector((1.0, 0.0))] * 500
    ys = [_unit(1.0 / n) for n in range(1, 501)]
    rep = check_lemma22_witness([0.5] * 500, xs, ys, 1.0, sp, 500, 0.5, 0.5)
    # window starts at n = 376 where the chord is largest
    assert rep.conclusion_tail_max == pytest.approx(2.0 * math.sin(1.0 / 752.0), rel=1e-12)
    # the chord has not yet fallen to TAU_LEM22
    assert rep.verdict == "conclusion_failure"
    assert rep.conclusion_ok is False
    # a rotation closing as 1/n^3 has: its chord at n = 376 is about 2e-8
    fast = check_lemma22_witness([0.5] * 500, xs, [_unit(n ** -3.0) for n in range(1, 501)],
                                 1.0, sp, 500, 0.5, 0.5)
    assert fast.verdict == "confirmed"


def test_collapse_checker_antipodal_is_hypothesis_failure():
    sp = NormedSpace(2, 2.0)
    xs = [Vector((1.0, 0.0))] * 500
    ys = [Vector((-1.0, 0.0))] * 500
    rep = check_lemma22_witness([0.5] * 500, xs, ys, 1.0, sp, 500, 0.5, 0.5)
    assert rep.verdict == "hypothesis_failure"
    assert rep.conclusion_ok is None
    failing = {c.name for c in rep.hypothesis_checks if c.status == "violated"}
    assert failing == {"mixture_norm_to_r"}


def test_collapse_report_hypothesis_ok_and_dict():
    sp = NormedSpace(2, 2.0)
    xs = [Vector((1.0, 0.0))] * 500
    confirmed = check_lemma22_witness([0.5] * 500, xs, xs, 1.0, sp, 500, 0.4, 0.6)
    failed = check_lemma22_witness([0.5] * 500, xs, [Vector((-1.0, 0.0))] * 500, 1.0, sp,
                                   500, 0.5, 0.5)
    assert confirmed.hypothesis_ok and not failed.hypothesis_ok
    d = confirmed.to_dict()
    assert (d["verdict"], d["conclusion_tail_max"], d["conclusion_ok"]) == ("confirmed", 0.0, True)
    assert [(c["name"], c["status"]) for c in d["hypothesis_checks"]] == [
        ("limsup_x", "satisfied"), ("limsup_y", "satisfied"), ("mixture_norm_to_r", "satisfied")]
    d = failed.to_dict()
    assert (d["verdict"], d["conclusion_tail_max"], d["conclusion_ok"]) == ("hypothesis_failure", 2.0, None)
    assert [(c["name"], c["status"]) for c in d["hypothesis_checks"]] == [
        ("limsup_x", "satisfied"), ("limsup_y", "satisfied"), ("mixture_norm_to_r", "violated")]
    assert d["hypothesis_checks"][2]["detail"].startswith("tail deviation of ||(1-t_n) x_n + t_n y_n|| from r: ")
    assert json.loads(json.dumps(d)) == d


def test_collapse_checker_contract_errors():
    sp = NormedSpace(2, 2.0)
    pts = [Vector((1.0, 0.0))] * 10
    good_t = [0.5] * 10
    with pytest.raises(ContractError):
        check_lemma22_witness(good_t, pts, pts, 1.0, NormedSpace(2, 1.0), 10, 0.4, 0.6)
    with pytest.raises(ContractError):
        check_lemma22_witness(good_t, pts, pts, 0.0, sp, 10, 0.4, 0.6)
    with pytest.raises(ContractError):
        check_lemma22_witness(good_t, pts, pts, 1.0, sp, 10, 0.0, 0.6)
    with pytest.raises(ContractError, match=r"t\[3\]"):
        bad_t = [0.5] * 3 + [0.9] + [0.5] * 6
        check_lemma22_witness(bad_t, pts, pts, 1.0, sp, 10, 0.4, 0.6)
    with pytest.raises(ContractError):
        check_lemma22_witness(good_t, pts[:5], pts, 1.0, sp, 10, 0.4, 0.6)
    with pytest.raises(ContractError, match="^N must be >= 1, got 0$"):
        check_lemma22_witness(good_t, pts, pts, 1.0, sp, 0, 0.4, 0.6)


# ---------------------------------------------------------------------------
# theorem chains

def test_power_scheme_convergence_report_passes():
    traj, m = _hybrid_run(0.9)
    rep = verify_theorem31(traj, m)
    assert rep.passed
    names = {c.name for c in rep.checks}
    assert {"power_residual_vanishes", "residual_vanishes", "iterates_cauchy",
            "final_point_fixed"} <= names
    assert all(c.passed for c in rep.checks)


def test_power_scheme_report_rejects_other_schemes():
    m = make_example21(0.5)
    t = run_scheme(RunConfig("mann", m, Vector((0.9,)), alpha=HALF, max_steps=50,
                             stop_tolerance=-1.0))
    with pytest.raises(ScopeError):
        verify_theorem31(t, m)
    from fixiter import Box, build_mapping
    bare = build_mapping("bare", NormedSpace(1, 2.0), Box((-1.0,), (1.0,)),
                         lambda x: Vector((0.5 * x.coords[0],)))
    t = run_scheme(RunConfig("modified_pm_hybrid", bare, Vector((0.9,)), alpha=HALF, max_steps=5))
    with pytest.raises(ContractError, match="^theorem31 diagnostics need at least one known fixed point$"):
        verify_theorem31(t, bare)


def test_power_scheme_report_fails_honestly_when_truncated():
    traj, m = _hybrid_run(0.9, max_steps=3)
    rep = verify_theorem31(traj, m)
    assert not rep.passed


def test_liminf_report_consistent_on_converging_run():
    traj, m = _hybrid_run(0.9)
    rep = verify_theorem32(traj, m.meta.known_fixed_points)
    assert rep.passed
    assert rep.extra["verdict"] == "consistent"


def test_liminf_report_inconsistent_when_visited_point_is_left():
    # iterates pass exactly through 0.25 once, then drift away from it
    m = make_linear_contraction(0.5, 1)
    t = run_scheme(RunConfig("picard", m, Vector((1.0,)), max_steps=10,
                             stop_tolerance=-1.0))
    rep = verify_theorem32(t, [Vector((0.25,))])
    assert rep.extra["verdict"] == "inconsistent"
    assert not rep.passed


def test_liminf_report_no_evidence_far_from_claimed_point():
    m = make_identity(1)
    t = run_scheme(RunConfig("picard", m, Vector((0.7,)), max_steps=5,
                             stop_tolerance=-1.0))
    rep = verify_theorem32(t, [Vector((0.0,))])
    assert rep.extra["verdict"] == "no_evidence"
    assert not rep.passed
    assert "not a refutation" in rep.checks[0].detail
    with pytest.raises(ContractError):
        verify_theorem32(t, [])


def test_liminf_report_refuses_a_point_of_another_dimension():
    # A point is measured against the iterates as space.distance measures it,
    # so it is not broadcast across their coordinates.
    m = make_linear_contraction(0.5, 2)
    t = run_scheme(RunConfig("picard", m, Vector((0.5, 0.5)), max_steps=20, stop_tolerance=-1.0))
    with pytest.raises(ContractError, match="^dimension mismatch: vectors have dims 2 and 1$"):
        verify_theorem32(t, [Vector((0.5,))])
    with pytest.raises(ContractError, match="^dimension mismatch: vectors have dims 2 and 3$"):
        verify_theorem32(t, [Vector((0.0, 0.0, 0.0))])


# ---------------------------------------------------------------------------
# coercivity gauges

def test_gauge_evaluation():
    assert PhiSpec("linear", lam=0.5)(2.0) == 1.0
    assert PhiSpec("power", lam=1.0, gamma=2.0)(0.5) == 0.25
    table = PhiSpec("table", grid=((0.0, 0.0), (1.0, 0.5), (2.0, 0.6)))
    assert table(0.5) == 0.25
    assert table(1.5) == pytest.approx(0.55)
    assert table(5.0) == 0.6  # flat beyond the last knot
    assert table(0.0) == 0.0


def test_gauge_validation():
    with pytest.raises(ContractError):
        PhiSpec("linear", lam=0.0)
    with pytest.raises(ContractError):
        PhiSpec("power", lam=1.0, gamma=0.5)
    with pytest.raises(ContractError):
        PhiSpec("table", grid=((0.0, 0.0),))
    with pytest.raises(ContractError):
        PhiSpec("table", grid=((0.5, 0.0), (1.0, 0.5)))  # must start at (0, 0)
    with pytest.raises(ContractError):
        PhiSpec("table", grid=((0.0, 0.0), (1.0, 0.5), (1.0, 0.6)))
    with pytest.raises(ContractError):
        PhiSpec("table", grid=((0.0, 0.0), (1.0, 0.5), (2.0, 0.4)))
    with pytest.raises(ContractError):
        PhiSpec("sqrt")
    with pytest.raises(ContractError):
        PhiSpec("linear")(-1.0)
    with pytest.raises(ContractError, match=r"^linear gauge is not finite at t = 1e\+308: inf$"):
        PhiSpec("linear", lam=2.0)(1e308)
    for bad in (math.inf, math.nan):
        with pytest.raises(ContractError, match="finite"):
            PhiSpec("linear", lam=bad)
        with pytest.raises(ContractError, match="finite"):
            PhiSpec("power", lam=bad, gamma=2.0)
        with pytest.raises(ContractError, match="finite"):
            PhiSpec("power", lam=1.0, gamma=bad)
        with pytest.raises(ContractError, match="finite"):
            PhiSpec("table", grid=((0.0, 0.0), (1.0, 0.5), (bad, 0.6)))
        with pytest.raises(ContractError, match="finite"):
            PhiSpec("table", grid=((0.0, 0.0), (1.0, 0.5), (2.0, bad)))


def test_coercivity_certified_for_weak_gauge():
    m = make_example21(0.5)
    cert = certify_condition_I(m, PhiSpec("linear", lam=0.5), 10_000, 0)
    assert cert.verdict == "certified"
    assert cert.max_violation <= 1e-8


def test_coercivity_refuted_for_strong_gauge():
    m = make_example21(0.5)
    cert = certify_condition_I(m, PhiSpec("linear", lam=0.75), 10_000, 0)
    assert cert.verdict == "refuted"
    assert cert.max_violation == pytest.approx(0.25, abs=1e-3)
    assert cert.witness.x.coords[0] >= 0.999  # largest excess next to the jump


def test_coercivity_exact_on_identity_and_contraction():
    cert = certify_condition_I(make_identity(2), PhiSpec("linear", lam=1.0), 1_000, 0)
    assert cert.verdict == "certified"
    assert cert.max_violation == 0.0
    c = make_linear_contraction(0.5, 1)
    tight = certify_condition_I(c, PhiSpec("linear", lam=0.5), 1_000, 0)
    assert tight.verdict == "certified"
    loose = certify_condition_I(c, PhiSpec("linear", lam=1.0), 1_000, 0)
    assert loose.verdict == "refuted"
    assert loose.max_violation == pytest.approx(0.5, abs=1e-6)


def test_coercivity_needs_fixed_point_info():
    from fixiter import Box, build_mapping
    sp = NormedSpace(1, 2.0)
    bare = build_mapping("bare", sp, Box((-1.0,), (1.0,)),
                         lambda x: Vector((0.5 * x.coords[0],)))
    with pytest.raises(ContractError):
        certify_condition_I(bare, PhiSpec("linear", lam=0.5), 100, 0)
    with pytest.raises(ContractError, match="^sample_count must be >= 1, got 0$"):
        certify_condition_I(make_example21(0.5), PhiSpec("linear", lam=0.5), 0, 0)


@pytest.mark.parametrize("fixed_dim", [1, 4])
def test_coercivity_refuses_a_fixed_point_of_another_dimension(fixed_dim):
    # A directly built Mapping has no dimension checked, so the kernel checks
    # each special point it reads.
    m = make_linear_contraction(0.5, 2)
    bad = replace(m, meta=replace(m.meta, known_fixed_points=(Vector((0.0,) * fixed_dim),)))
    with pytest.raises(ContractError, match=f"^dimension mismatch: vectors have dims 2 and {fixed_dim}$"):
        certify_condition_I(bad, PhiSpec("linear", lam=0.5), 100, 0)


def test_condition_witness_bundles_certificate():
    m = make_example21(0.5)
    phi = PhiSpec("linear", lam=0.5)
    w = ConditionIWitness(phi, certify_condition_I(m, phi, 1_000, 0))
    assert w.certificate is not None
    assert w.certificate.verdict == "certified"
    assert w.phi(2.0) == 1.0


def test_residual_to_distance_chain_passes():
    traj, m = _hybrid_run(0.9)
    phi = PhiSpec("linear", lam=0.5)
    w = ConditionIWitness(phi, certify_condition_I(m, phi, 1_000, 0))
    rep = verify_theorem33(traj, m, w)
    assert rep.passed
    assert {c.name for c in rep.checks} == {
        "residual_tail_vanishes", "gauge_dominated_by_residual", "distance_tail_vanishes"}


def test_residual_to_distance_chain_demands_certified_witness():
    traj, m = _hybrid_run(0.9)
    phi = PhiSpec("linear", lam=0.75)
    refuted = ConditionIWitness(phi, certify_condition_I(m, phi, 1_000, 0))
    with pytest.raises(ScopeError):
        verify_theorem33(traj, m, refuted)
    with pytest.raises(ScopeError):
        verify_theorem33(traj, m, ConditionIWitness(PhiSpec("linear", lam=0.5)))


def test_residual_to_distance_chain_needs_distance_records():
    from fixiter import Box, build_mapping
    sp = NormedSpace(1, 2.0)
    bare = build_mapping("bare", sp, Box((-1.0,), (1.0,)),
                         lambda x: Vector((0.5 * x.coords[0],)))
    t = run_scheme(RunConfig("picard", bare, Vector((1.0,)), max_steps=5,
                             stop_tolerance=-1.0))
    m21 = make_example21(0.5)
    phi = PhiSpec("linear", lam=0.5)
    w = ConditionIWitness(phi, certify_condition_I(m21, phi, 1_000, 0))
    with pytest.raises(ContractError):
        verify_theorem33(t, bare, w)


# ---------------------------------------------------------------------------
# rate comparison

def _base(x0=1.0):
    m = make_linear_contraction(0.5, 1)
    return RunConfig("picard", m, Vector((x0,)), alpha=HALF)


def test_rate_table_orderings():
    rep = compare_schemes(_base(), ["picard", "mann", "pm_hybrid", "modified_pm_hybrid"],
                          1e-6)
    by = {row.scheme: row for row in rep.rows}
    assert by["pm_hybrid"].steps_to_target < by["picard"].steps_to_target
    assert by["picard"].steps_to_target < by["mann"].steps_to_target
    assert by["modified_pm_hybrid"].steps_to_target <= by["pm_hybrid"].steps_to_target
    # per-step work differs: the hybrids pay two applications per step
    assert by["pm_hybrid"].applications_to_target == 2 * by["pm_hybrid"].steps_to_target
    assert by["picard"].applications_to_target == by["picard"].steps_to_target
    assert by["mann"].final_error <= 1e-6


def test_rate_table_exact_step_counts():
    rep = compare_schemes(_base(), ["picard", "mann", "pm_hybrid", "modified_pm_hybrid"],
                          1e-6)
    by = {row.scheme: row.steps_to_target for row in rep.rows}
    assert by == {"picard": 20, "mann": 49, "pm_hybrid": 15, "modified_pm_hybrid": 6}


def test_rate_table_start_already_at_target():
    rep = compare_schemes(_base(), ["picard"], 1.0)
    assert rep.rows[0].steps_to_target == 0
    assert rep.rows[0].applications_to_target == 0


def test_rate_table_serialization():
    rep = compare_schemes(_base(), ["picard", "mann"], 1e-6)
    rows = rep.to_csv_rows()
    assert rows[0][0] == "scheme"
    assert len(rows) == 3
    d = rep.to_dict()
    assert d["target_error"] == 1e-6
    text = rep.to_text()
    assert "picard" in text and "mann" in text


def test_rate_table_errors():
    for target in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ContractError, match="target_error must be finite and > 0"):
            compare_schemes(_base(), ["picard"], target)
    with pytest.raises(ConfigurationError):
        compare_schemes(_base(), ["ishikawa"], 1e-6)
    from fixiter import Box, build_mapping
    sp = NormedSpace(1, 2.0)
    bare = build_mapping("bare", sp, Box((-1.0,), (1.0,)),
                         lambda x: Vector((0.5 * x.coords[0],)))
    cfg = RunConfig("picard", bare, Vector((1.0,)))
    with pytest.raises(ContractError):
        compare_schemes(cfg, ["picard"], 1e-6)


def test_report_serialization_round_trip_shapes():
    traj, m = _hybrid_run(0.9)
    rep = verify_theorem31(traj, m)
    d = rep.to_dict()
    assert d["name"] == "theorem31"
    assert d["passed"] is True
    assert all({"name", "passed", "value", "threshold", "detail"} <= set(c) for c in d["checks"])
