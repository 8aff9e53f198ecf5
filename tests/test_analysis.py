"""Limit diagnostics, recurrence/collapse checkers, theorem chains, rates."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixiter import (
    TAU_CERT,
    TAU_FP,
    TAU_LEM22,
    TAU_LIM,
    TAU_REG,
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
    combine,
    compare_schemes,
    fixed_point_residual,
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


@st.composite
def recurrences(draw):
    """Sequences a, b and d of one length: both readers slice b and d to len(a)."""
    a = draw(st.lists(entries, min_size=2, max_size=40))
    same_length = st.lists(entries, min_size=len(a), max_size=len(a))
    return a, draw(same_length), draw(same_length)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(abd=recurrences(), decay=st.booleans())
def test_recurrence_checker_finds_the_loops_first_violation(abd, decay):
    a, b, d = abd
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
    assert rep.extra["verdict"] == "confirmed"
    assert rep.checks[3].value == 0.0


def test_collapse_checker_slowly_closing_rotation():
    sp = NormedSpace(2, 2.0)
    xs = [Vector((1.0, 0.0))] * 500
    ys = [_unit(1.0 / n) for n in range(1, 501)]
    rep = check_lemma22_witness([0.5] * 500, xs, ys, 1.0, sp, 500, 0.5, 0.5)
    # window starts at n = 376 where the chord is largest
    assert rep.checks[3].value == pytest.approx(2.0 * math.sin(1.0 / 752.0), rel=1e-12)
    # the chord has not yet fallen to TAU_LEM22
    assert rep.extra["verdict"] == "conclusion_failure"
    assert rep.checks[3].passed is False
    # a rotation closing as 1/n^3 has: its chord at n = 376 is about 2e-8
    fast = check_lemma22_witness([0.5] * 500, xs, [_unit(n ** -3.0) for n in range(1, 501)],
                                 1.0, sp, 500, 0.5, 0.5)
    assert fast.extra["verdict"] == "confirmed"


def test_collapse_checker_antipodal_is_hypothesis_failure():
    sp = NormedSpace(2, 2.0)
    xs = [Vector((1.0, 0.0))] * 500
    ys = [Vector((-1.0, 0.0))] * 500
    rep = check_lemma22_witness([0.5] * 500, xs, ys, 1.0, sp, 500, 0.5, 0.5)
    # a failed hypothesis makes no claim about the conclusion
    assert rep.extra["verdict"] == "hypothesis_failure"
    assert rep.passed is False
    failing = {c.name for c in rep.checks[:3] if not c.passed}
    assert failing == {"mixture_norm_to_r"}


def test_collapse_report_hypothesis_ok_and_dict():
    sp = NormedSpace(2, 2.0)
    xs = [Vector((1.0, 0.0))] * 500
    confirmed = check_lemma22_witness([0.5] * 500, xs, xs, 1.0, sp, 500, 0.4, 0.6)
    failed = check_lemma22_witness([0.5] * 500, xs, [Vector((-1.0, 0.0))] * 500, 1.0, sp,
                                   500, 0.5, 0.5)
    assert all(c.passed for c in confirmed.checks[:3]) and not all(c.passed for c in failed.checks[:3])
    d = confirmed.to_dict()
    assert (d["verdict"], d["checks"][3]["value"], d["checks"][3]["passed"]) == ("confirmed", 0.0, True)
    assert [(c["name"], c["passed"]) for c in d["checks"][:3]] == [
        ("limsup_x", True), ("limsup_y", True), ("mixture_norm_to_r", True)]
    d = failed.to_dict()
    assert (d["verdict"], d["checks"][3]["value"], d["passed"]) == ("hypothesis_failure", 2.0, False)
    assert [(c["name"], c["passed"]) for c in d["checks"][:3]] == [
        ("limsup_x", True), ("limsup_y", True), ("mixture_norm_to_r", False)]
    assert d["checks"][2]["detail"].startswith("max deviation of ||(1-t_n) x_n + t_n y_n|| from r over ")
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


@pytest.mark.parametrize("r", [math.nan, math.inf, 0.0, -1.0])
def test_collapse_checker_refuses_a_radius_that_is_not_finite_and_positive(r):
    pts = [Vector((1.0, 0.0))] * 10
    with pytest.raises(ContractError, match=rf"^r must be finite and > 0, got {r}$"):
        check_lemma22_witness([0.5] * 10, pts, pts, r, NormedSpace(2, 2.0), 10, 0.4, 0.6)


def _lemma22_reference(t, xs, ys, r, space, N):
    """The collapse rule as it read before its report took the theorems'
    shape: the verdict, the three hypothesis excesses, whether each is within
    its tolerance, and the tail max of the gap."""
    x_norms = np.array([space.norm(xs[i]) for i in range(N)])
    y_norms = np.array([space.norm(ys[i]) for i in range(N)])
    mix_norms = np.array([space.norm(combine(t[i], xs[i], ys[i])) for i in range(N)])
    gaps = np.array([space.distance(xs[i], ys[i]) for i in range(N)])
    start = tail_window_start(N)
    excess = [float(x_norms[start:].max()) - r, float(y_norms[start:].max()) - r,
              float(np.abs(mix_norms[start:] - r).max())]
    ok = [e <= tol for e, tol in zip(excess, (TAU_LIM, TAU_LIM, TAU_LEM22))]
    gap = float(gaps[start:].max())
    verdict = ("hypothesis_failure" if not all(ok)
               else "confirmed" if gap <= TAU_LEM22 else "conclusion_failure")
    return verdict, excess, ok, gap


# Relative norm offsets and angles that land on each side of TAU_LIM and TAU_LEM22.
_OFFSETS = st.sampled_from([0.0, 1e-12, -1e-12, 5e-9, 2e-8, -3e-7, 4e-6, 0.3])
_ANGLES = st.sampled_from([0.0, 3e-9, 2e-7, 5e-6, 4e-5, 1e-3, math.pi])


@st.composite
def _collapse_cases(draw):
    p = draw(st.sampled_from([1.5, 2.0, 3.0]))
    N = draw(st.integers(1, 60))
    a = draw(st.floats(0.01, 0.99))
    b = draw(st.floats(a, 0.99))
    r = draw(st.sampled_from([0.5, 1.0, 2.75]))
    theta = draw(st.floats(0.0, 2.0 * math.pi))
    dx, angle, dy = draw(_OFFSETS), draw(_ANGLES), draw(_OFFSETS)
    # Per entry k in 0 .. 8: t_n sits at a fraction k // 3 / 2 of [a, b], and
    # takes a share k % 3 / 2 of each offset.
    steps = draw(st.lists(st.integers(0, 8), min_size=N, max_size=N))

    def on_sphere(angle, offset):  # a point of norm about r * (1 + offset)
        c, s = math.cos(theta + angle), math.sin(theta + angle)
        scale = r * (1.0 + offset) / (abs(c) ** p + abs(s) ** p) ** (1.0 / p)
        return Vector((scale * c, scale * s))

    t = [min(a + k // 3 / 2 * (b - a), b) for k in steps]
    xs = [on_sphere(0.0, k % 3 / 2 * dx) for k in steps]
    ys = [on_sphere(k % 3 / 2 * angle, k % 3 / 2 * dy) for k in steps]
    return t, xs, ys, r, NormedSpace(2, p), N, a, b


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=_collapse_cases())
def test_collapse_report_keeps_the_reference_rules_verdict_and_bits(case):
    # Each check's value is the tail max of a per-n array: fl(a - r) is monotone
    # in a, so max(a[s:] - r) has the bits of max(a[s:]) - r.
    t, xs, ys, r, space, N, a, b = case
    rep = check_lemma22_witness(t, xs, ys, r, space, N, a, b)
    verdict, excess, ok, gap = _lemma22_reference(t, xs, ys, r, space, N)
    assert rep.extra["verdict"] == verdict and rep.passed == (verdict == "confirmed")
    assert [c.value.hex() for c in rep.checks] == [v.hex() for v in (*excess, gap)]
    assert [c.passed for c in rep.checks] == [*ok, gap <= TAU_LEM22]
    assert [c.threshold for c in rep.checks] == [TAU_LIM, TAU_LIM, TAU_LEM22, TAU_LEM22]


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
    # The final residual is the last record's, which is the final point's own.
    final = next(c for c in rep.checks if c.name == "final_point_fixed")
    assert final.value == fixed_point_residual(m, traj.final) != traj.residual_T[-2]


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
# verdicts at their thresholds: a check passes when its value is at most its
# threshold and fails one float above it, and its report follows it

def _at_or_above(threshold, above):
    return float(np.nextafter(threshold, math.inf)) if above else threshold


def _with_last(column, value):
    return (*column[:-1], value)


def _assert_verdict(rep, name, value, threshold, above):
    check = next(c for c in rep.checks if c.name == name)
    assert (check.value, check.threshold, check.passed) == (value, threshold, not above)
    assert rep.passed is (not above)
    assert rep.to_dict()["passed"] is rep.passed


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
def test_a_tail_max_check_passes_at_its_threshold(above):
    traj, m = _hybrid_run(0.9)
    value = _at_or_above(TAU_REG, above)
    rep = verify_theorem31(replace(traj, residual_Tn=_with_last(traj.residual_Tn, value)), m)
    _assert_verdict(rep, "power_residual_vanishes", value, TAU_REG, above)


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
def test_the_final_point_check_passes_at_its_threshold(above):
    traj, m = _hybrid_run(0.9)
    value = _at_or_above(TAU_FP, above)
    rep = verify_theorem31(replace(traj, residual_T=_with_last(traj.residual_T, value)), m)
    _assert_verdict(rep, "final_point_fixed", value, TAU_FP, above)


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
def test_a_limit_check_passes_at_its_threshold_exactly_when_the_limit_converges(above):
    traj, m = _hybrid_run(0.9)
    value = _at_or_above(TAU_LIM, above)
    points = np.zeros_like(traj.points)
    points[-1] = value
    rep = verify_theorem31(replace(traj, points=points), m)
    _assert_verdict(rep, "limit_exists_at_(0.0,)", value, TAU_LIM, above)
    assert rep.extra["limits"]["[0.0]"]["verdict"] == ("undetermined" if above else "converged")


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
def test_the_liminf_check_passes_at_its_threshold(above):
    traj, _ = _hybrid_run(0.9)
    value = _at_or_above(TAU_LIM, above)
    rep = verify_theorem32(replace(traj, points=np.full_like(traj.points, value)), [Vector((0.0,))])
    _assert_verdict(rep, "liminf_vanishes", value, TAU_LIM, above)
    assert rep.extra["verdict"] == ("no_evidence" if above else "consistent")


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
def test_the_distance_tail_check_passes_at_its_threshold(above):
    traj, _ = _hybrid_run(0.9)
    value = _at_or_above(TAU_LIM, above)
    points = np.full_like(traj.points, TAU_LIM)
    points[-1] = value
    rep = verify_theorem32(replace(traj, points=points), [Vector((0.0,))])
    assert rep.checks[0].passed
    _assert_verdict(rep, "distance_tail_vanishes", value, TAU_LIM, above)
    assert rep.extra["verdict"] == ("inconsistent" if above else "consistent")


@pytest.mark.parametrize("above", [False, True], ids=["at", "above"])
def test_the_gauge_check_passes_at_its_threshold(above):
    # phi(d) - ||x_1 - T x_1|| is 0.5 * 2 TAU_CERT - 0 at step 1, before the
    # tail windows, where every other step's excess is below it.
    traj, m = _hybrid_run(0.9)
    phi = PhiSpec("linear", lam=0.5)
    cert = certify_condition_I(m, phi, 1_000, 0)
    value = _at_or_above(TAU_CERT, above)
    records = replace(traj, residual_T=(0.0, *traj.residual_T[1:]),
                      dist_to_known_fp=(2.0 * value, *traj.dist_to_known_fp[1:]))
    rep = verify_theorem33(records, m, phi, cert)
    _assert_verdict(rep, "gauge_dominated_by_residual", value, TAU_CERT, above)
    assert rep.checks[1].detail.endswith("worst at step 1")


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


def test_residual_to_distance_chain_passes():
    traj, m = _hybrid_run(0.9)
    phi = PhiSpec("linear", lam=0.5)
    cert = certify_condition_I(m, phi, 1_000, 0)
    assert cert.verdict == "certified"
    assert phi(2.0) == 1.0
    rep = verify_theorem33(traj, m, phi, cert)
    assert rep.passed
    assert {c.name for c in rep.checks} == {
        "residual_tail_vanishes", "gauge_dominated_by_residual", "distance_tail_vanishes"}


def test_residual_to_distance_chain_demands_certified_witness():
    traj, m = _hybrid_run(0.9)
    phi = PhiSpec("linear", lam=0.75)
    refuted = certify_condition_I(m, phi, 1_000, 0)
    with pytest.raises(ScopeError):
        verify_theorem33(traj, m, phi, refuted)
    with pytest.raises(ScopeError):
        verify_theorem33(traj, m, PhiSpec("linear", lam=0.5), None)


def test_residual_to_distance_chain_needs_distance_records():
    from fixiter import Box, build_mapping
    sp = NormedSpace(1, 2.0)
    bare = build_mapping("bare", sp, Box((-1.0,), (1.0,)),
                         lambda x: Vector((0.5 * x.coords[0],)))
    t = run_scheme(RunConfig("picard", bare, Vector((1.0,)), max_steps=5,
                             stop_tolerance=-1.0))
    m21 = make_example21(0.5)
    phi = PhiSpec("linear", lam=0.5)
    cert = certify_condition_I(m21, phi, 1_000, 0)
    with pytest.raises(ContractError):
        verify_theorem33(t, bare, phi, cert)


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
