"""Iteration engine: scheme updates, stopping, costs, schedules, serialization."""

import io
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fixiter import (
    Box,
    ConfigurationError,
    ContractError,
    DomainError,
    Mapping,
    MappingMeta,
    NormedSpace,
    ParameterError,
    RunConfig,
    SCHEMES,
    Schedule,
    Vector,
    build_mapping,
    linear_rate_oracle,
    make_example21,
    make_linear_contraction,
    run_scheme,
    trajectory_csv_rows,
    trajectory_header,
    validate_schedule,
    write_trajectory_csv,
)
from fixiter.schemes import _float_texts

HALF = Schedule.constant(0.5)


def _run(scheme, m, x0, **kw):
    kw.setdefault("alpha", None if scheme == "picard" else HALF)
    if scheme == "ishikawa":
        kw.setdefault("beta", HALF)
    return run_scheme(RunConfig(scheme, m, Vector(x0), **kw))


def test_picard_hand_values():
    t = _run("picard", make_linear_contraction(0.5, 1), (1.0,), max_steps=3, stop_tolerance=-1.0)
    assert [v.coords[0] for v in t.iterates] == [1.0, 0.5, 0.25, 0.125]
    assert t.stop_reason == "max_steps"


def test_mann_hand_value():
    t = _run("mann", make_linear_contraction(0.5, 1), (1.0,), max_steps=1, stop_tolerance=-1.0)
    assert t.iterates[1].coords[0] == 0.75


def test_ishikawa_hand_value():
    t = _run("ishikawa", make_linear_contraction(0.5, 1), (1.0,), max_steps=1, stop_tolerance=-1.0)
    assert t.iterates[1].coords[0] == 0.6875


def test_modified_mann_hand_values():
    t = _run("modified_mann", make_linear_contraction(0.5, 1), (1.0,), max_steps=2, stop_tolerance=-1.0)
    assert t.iterates[1].coords[0] == 0.75
    assert t.iterates[2].coords[0] == 0.46875  # second step applies the squared map


def test_pm_hybrid_hand_value():
    t = _run("pm_hybrid", make_linear_contraction(0.5, 1), (1.0,), max_steps=1, stop_tolerance=-1.0)
    assert t.iterates[1].coords[0] == 0.375


def test_modified_pm_hybrid_hand_value_on_jump_map():
    t = _run("modified_pm_hybrid", make_example21(0.5), (0.9,), max_steps=1, stop_tolerance=-1.0)
    assert t.iterates[1].coords[0] == 0.3375


def test_step_records_carry_diagnostics():
    t = _run("picard", make_linear_contraction(0.5, 1), (1.0,), max_steps=2, stop_tolerance=-1.0)
    # Entry n - 1 of each column describes step n.
    assert (t.step_norm[0], t.residual_T[0], t.residual_Tn[0]) == (0.5, 0.25, 0.25)
    assert t.dist_to_known_fp[0] == 0.5
    assert (t.step_norm[1], t.residual_T[1]) == (0.25, 0.125)
    assert t.residual_Tn[1] == 0.1875  # against the squared map at step 2
    assert t.final == t.iterates[-1]
    assert t.steps == 2


def test_stopping_is_inclusive():
    # an exactly-zero displacement meets a zero tolerance
    sp = NormedSpace(1, 2.0)
    ident = build_mapping("ident", sp, Box((-1.0,), (1.0,)), lambda x: x)
    t = run_scheme(RunConfig("picard", ident, Vector((0.3,)), max_steps=10, stop_tolerance=0.0))
    assert t.stop_reason == "tolerance"
    assert t.steps == 1


def test_negative_tolerance_disables_stopping():
    sp = NormedSpace(1, 2.0)
    ident = build_mapping("ident", sp, Box((-1.0,), (1.0,)), lambda x: x)
    t = run_scheme(RunConfig("picard", ident, Vector((0.3,)), max_steps=10, stop_tolerance=-1.0))
    assert t.stop_reason == "max_steps"
    assert t.steps == 10


def test_default_tolerance_stop_step_count():
    t = _run("picard", make_linear_contraction(0.5, 1), (1.0,))
    # displacement 2^-n first reaches 1e-12 at n = 40
    assert t.stop_reason == "tolerance"
    assert t.steps == 40


def test_domain_exit_truncates_before_offending_point():
    sp = NormedSpace(1, 2.0)
    doubler = Mapping("doubler", sp, Box((-1.0,), (1.0,)),
                      lambda x: Vector((2.0 * x.coords[0],)), None, MappingMeta())
    t = run_scheme(RunConfig("picard", doubler, Vector((0.7,)), max_steps=10, stop_tolerance=-1.0))
    assert t.stop_reason == "domain_exit"
    assert t.iterates == (Vector((0.7,)),)
    assert (t.step_norm, t.residual_T, t.residual_Tn, t.dist_to_known_fp, t.applications) == ((),) * 5


def test_iterates_remain_in_convex_domain():
    m = make_example21(0.5)
    for scheme in SCHEMES:
        t = _run(scheme, m, (0.9,), max_steps=30, stop_tolerance=-1.0)
        for v in t.iterates:
            assert m.domain.contains(m.space, v)
            assert all(math.isfinite(c) for c in v.coords)


def test_application_costs_with_closed_form_power():
    m = make_linear_contraction(0.5, 1)  # registers an exact power
    expectations = {"picard": 5, "mann": 5, "ishikawa": 10, "pm_hybrid": 10,
                    "modified_mann": 5, "modified_pm_hybrid": 10}
    for scheme, total in expectations.items():
        t = _run(scheme, m, (1.0,), max_steps=5, stop_tolerance=-1.0)
        assert t.total_applications == total, scheme


def test_application_costs_without_closed_form_power():
    sp = NormedSpace(1, 2.0)
    m = build_mapping("halver", sp, Box((-1.0,), (1.0,)),
                      lambda x: Vector((0.5 * x.coords[0],)))
    t = _run("modified_mann", m, (1.0,), max_steps=5, stop_tolerance=-1.0)
    assert t.applications == (1, 2, 3, 4, 5)
    assert t.total_applications == 15
    t = _run("modified_pm_hybrid", m, (1.0,), max_steps=5, stop_tolerance=-1.0)
    assert t.applications == (2, 4, 6, 8, 10)
    assert t.total_applications == 30


def test_config_validation_errors():
    m = make_linear_contraction(0.5, 1)
    with pytest.raises(ConfigurationError):
        run_scheme(RunConfig("newton", m, Vector((1.0,))))
    # A step size that is missing or misplaced raises validate_schedule's line.
    with pytest.raises(ConfigurationError, match=r"^scheme mann requires an alpha schedule$"):
        run_scheme(RunConfig("mann", m, Vector((1.0,))))
    with pytest.raises(ConfigurationError, match=r"^beta schedule is only meaningful for ishikawa, not mann$"):
        run_scheme(RunConfig("mann", m, Vector((1.0,)), alpha=HALF, beta=HALF))
    with pytest.raises(ConfigurationError, match=r"^ishikawa requires a beta schedule$"):
        run_scheme(RunConfig("ishikawa", m, Vector((1.0,)), alpha=HALF))
    with pytest.raises(DomainError):  # x0 is checked before the step sizes
        run_scheme(RunConfig("mann", m, Vector((3.0,))))
    with pytest.raises(ContractError):
        run_scheme(RunConfig("picard", m, Vector((1.0,)), max_steps=0))
    with pytest.raises(ContractError):
        run_scheme(RunConfig("picard", m, Vector((1.0,)), stop_tolerance=math.nan))
    with pytest.raises(ContractError):
        run_scheme(RunConfig("picard", m, Vector((1.0, 0.0))))
    with pytest.raises(DomainError):
        run_scheme(RunConfig("picard", m, Vector((3.0,))))


def test_run_rejects_violated_schedule():
    m = make_linear_contraction(0.5, 1)
    decaying = Schedule.harmonic_tail(offset=1.0)
    with pytest.raises(ConfigurationError):
        run_scheme(RunConfig("modified_mann", m, Vector((1.0,)), alpha=decaying))
    # the same schedule is fine where only series divergence matters
    run_scheme(RunConfig("mann", m, Vector((1.0,)), alpha=decaying, max_steps=3,
                         stop_tolerance=-1.0))


def test_validate_schedule_verdicts():
    harmonic = Schedule.harmonic_tail(offset=1.0)
    v = validate_schedule("mann", harmonic, horizon=500)
    assert v.verdict == "satisfied"
    assert v.ok
    v = validate_schedule("modified_mann", HALF, horizon=500)
    assert v.verdict == "satisfied"
    v = validate_schedule("modified_mann", harmonic, horizon=500)
    assert v.verdict == "violated"
    assert not v.ok
    assert any(c.name == "alpha_bounded_below" and c.status == "violated" for c in v.checks)
    # for the power-step hybrid the decay trend is reported but not enforced
    v = validate_schedule("modified_pm_hybrid", harmonic, horizon=500)
    assert v.verdict == "satisfied"
    trend = {c.name: c for c in v.checks}["alpha_bounded_below"]
    assert not trend.enforced
    # a harmonic series whose log-growth shows only at a long horizon is not settled
    v = validate_schedule("mann", Schedule.harmonic_tail(1.0, 1.0), horizon=10_000)
    assert v.verdict == "undetermined"
    assert v.checks[-1].status == "undetermined"


@pytest.mark.parametrize("scheme", ["modified_mann", "modified_pm_hybrid"])
def test_bounded_away_checks_exact_outcomes(scheme):
    enforced = scheme == "modified_mann"
    trend = "violated" if enforced else "undetermined"
    below_ok = ("alpha_bounded_below", "satisfied", "alpha(n) >= 0.5 with no decay trend")
    above_ok = ("alpha_bounded_above", "satisfied", "alpha(n) <= 0.5 with no growth trend")
    cases = [
        (Schedule.harmonic_tail(1.0, 1.0), [
            ("alpha_bounded_below", trend, "alpha(500) = 0.00199601 is trending to 0 "
             "(vs alpha(250) = 0.00398406); no positive lower bound"),
            above_ok,
        ]),
        (HALF, [below_ok, above_ok]),
        (Schedule.formula(lambda n: 1 - 1 / (n + 1)), [
            below_ok,
            ("alpha_bounded_above", trend, "alpha(500) = 0.998004 is trending to 1; no upper bound below 1"),
        ]),
    ]
    for alpha, expected in cases:
        checks = validate_schedule(scheme, alpha, horizon=500).checks[1:]
        assert [(c.name, c.status, c.detail) for c in checks] == expected
        assert all(c.enforced == enforced for c in checks)


@pytest.mark.parametrize("scheme", [s for s in SCHEMES if s != "picard"])
def test_validate_schedule_evaluates_each_schedule_once_per_n(scheme):
    calls = {"alpha": 0, "beta": 0}

    def counted(name):
        def fn(n):
            calls[name] += 1
            return 0.5
        return Schedule.formula(fn, name)

    beta = counted("beta") if scheme == "ishikawa" else None
    assert validate_schedule(scheme, counted("alpha"), beta, horizon=3000).verdict == "satisfied"
    assert calls == {"alpha": 3000, "beta": 3000 if beta else 0}


def test_validate_schedule_range_boundaries():
    one = Schedule.constant(1.0)
    zero = Schedule.constant(0.0)
    assert validate_schedule("mann", one).verdict == "violated"  # right-open range
    # zero passes the closed left endpoint but fails series divergence
    v = validate_schedule("mann", zero)
    statuses = {c.name: c.status for c in v.checks}
    assert statuses["alpha_range"] == "satisfied"
    assert statuses["alpha_sum_divergent"] == "violated"
    assert v.verdict == "violated"
    assert validate_schedule("modified_mann", zero).verdict == "violated"  # open at 0
    assert validate_schedule("picard", None).verdict == "satisfied"
    with pytest.raises(ConfigurationError):
        validate_schedule("mann", None)
    with pytest.raises(ConfigurationError):
        validate_schedule("mann", HALF, beta=HALF)
    with pytest.raises(ContractError):
        validate_schedule("mann", HALF, horizon=0)


def test_linear_rate_oracle_factors():
    assert linear_rate_oracle("picard", 0.5, 0.5) == 0.5
    assert linear_rate_oracle("mann", 0.5, 0.5) == 0.75
    assert linear_rate_oracle("pm_hybrid", 0.5, 0.5) == 0.375
    assert linear_rate_oracle("modified_pm_hybrid", 0.5, 0.5, n=2) == 0.15625
    with pytest.raises(ParameterError):
        linear_rate_oracle("ishikawa", 0.5, 0.5)
    with pytest.raises(ParameterError):
        linear_rate_oracle("picard", 1.5, 0.5)
    with pytest.raises(ParameterError, match=r"^alpha must lie in \(0, 1\), got 1.0$"):
        linear_rate_oracle("mann", 0.5, 1.0)
    with pytest.raises(ContractError):
        linear_rate_oracle("picard", 0.5, 0.5, n=0)


def test_engine_matches_oracle_products():
    m = make_linear_contraction(0.5, 1)
    for scheme in ("picard", "mann", "pm_hybrid", "modified_pm_hybrid"):
        t = _run(scheme, m, (1.0,), max_steps=20, stop_tolerance=-1.0)
        predicted = 1.0
        for n in range(1, 21):
            predicted *= linear_rate_oracle(scheme, 0.5, 0.5, n)
            got = t.iterates[n].coords[0]
            assert got == pytest.approx(predicted, rel=1e-10)


def test_picard_contraction_per_step_bound():
    m = make_linear_contraction(0.5, 2)
    t = _run("picard", m, (0.6, -0.3), max_steps=30, stop_tolerance=-1.0)
    dists = [m.space.norm(v) for v in t.iterates]
    for prev, cur in zip(dists, dists[1:]):
        assert cur <= 0.5 * prev + 1e-12


def test_warns_outside_uniformly_convex_range():
    for p in (1.0, math.inf):
        m = make_example21(0.5, NormedSpace(1, p))
        with pytest.warns(UserWarning, match="not uniformly convex"):
            _run("modified_pm_hybrid", m, (0.5,), max_steps=3, stop_tolerance=-1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _run("mann", m, (0.5,), max_steps=3, stop_tolerance=-1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _run("modified_pm_hybrid", make_example21(0.5), (0.5,), max_steps=3,
             stop_tolerance=-1.0)


def test_csv_rows_round_trip_floats():
    t = _run("picard", make_linear_contraction(0.5, 1), (1.0,), max_steps=3, stop_tolerance=-1.0)
    rows = trajectory_csv_rows(t)
    assert rows[0] == ["n", "x_0", "step_norm", "residual_T", "residual_Tn", "dist_to_known_fp"]
    assert len(rows) == 4
    for i, row in enumerate(rows[1:], start=1):
        assert row[0] == str(i)
        assert float(row[1]) == t.iterates[i].coords[0]  # repr round-trips exactly
        assert float(row[2]) == t.step_norm[i - 1]


def test_csv_blank_cell_for_unknown_distance():
    sp = NormedSpace(1, 2.0)
    bare = build_mapping("bare", sp, Box((-1.0,), (1.0,)),
                         lambda x: Vector((0.5 * x.coords[0],)))
    t = run_scheme(RunConfig("picard", bare, Vector((1.0,)), max_steps=2, stop_tolerance=-1.0))
    rows = trajectory_csv_rows(t)
    assert rows[1][-1] == ""


def test_csv_writer_uses_unix_line_endings():
    t = _run("picard", make_linear_contraction(0.5, 1), (1.0,), max_steps=2, stop_tolerance=-1.0)
    buf = io.StringIO()
    write_trajectory_csv(t, buf)
    text = buf.getvalue()
    assert "\r" not in text
    assert text.endswith("\n")


def _reprs(a):
    return [repr(v) for v in a.tolist()]


FLOAT_TEXT_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@FLOAT_TEXT_SETTINGS
@given(st.lists(st.integers(-2**63, 2**63 - 1), max_size=50))
def test_float_texts_are_repr_of_every_bit_pattern(bits):
    a = np.array(bits, dtype=np.int64).view(float)
    assert _float_texts(a) == _reprs(a)


@FLOAT_TEXT_SETTINGS
@given(st.lists(st.floats(), max_size=50))
def test_float_texts_are_repr_of_any_float(values):
    a = np.array(values, dtype=float)
    assert _float_texts(a) == _reprs(a)


def test_float_texts_are_repr_across_the_bands_where_notations_part():
    decades = np.array([float(f"1e{k}") for k in range(-325, 309)])
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    rng = np.random.default_rng(0)
    # The edges of the magnitudes repr writes, and where the exponent gains or
    # loses a digit: 2000 neighbouring floats on each side of each, and draws
    # from half to twice each.
    edges = np.array([5e-10, 1e-9, 9e-6, 2e-4, 5e15, 1e16])
    sweeps = (edges.view(np.int64)[:, None] + np.arange(-2000, 2001)).view(float)
    a = np.concatenate([
        decades, np.nextafter(decades, -np.inf), np.nextafter(decades, np.inf),
        powers, np.nextafter(powers, 0.0), sweeps.ravel(),
        *(rng.uniform(edge / 2, 2 * edge, 5000) for edge in edges),
        rng.uniform(9e-6, 2e-4, 20000), rng.uniform(1e15, 1e17, 20000),
        [0.0, math.inf, math.nan, 5e-324, np.finfo(float).max],
    ])
    a = np.concatenate([a, -a])
    assert _float_texts(a) == _reprs(a)
    assert _float_texts(np.empty(0)) == []


def test_csv_cells_are_repr_on_a_run_that_stays_where_repr_writes_them():
    # mann on x -> 0.99 x from 2e-4 shrinks by 0.995 a step: x_0, the step
    # norms and both residuals stay between 5e-10 and 2e-4 for all 1000 steps,
    # while x_1 and x_2 stay -0.0 and 0.0.
    t = _run("mann", make_linear_contraction(0.99, 3), (2e-4, -0.0, 0.0), max_steps=1000, stop_tolerance=-1.0)
    inside = np.array([t.points[1:, 0], t.step_norm, t.residual_T, t.residual_Tn])
    assert ((inside >= 5e-10) & (inside < 2e-4)).all()
    rows = [["n", "x_0", "x_1", "x_2", "step_norm", "residual_T", "residual_Tn", "dist_to_known_fp"]]
    for n, (x, *record) in enumerate(zip(t.points[1:].tolist(), t.step_norm, t.residual_T, t.residual_Tn,
                                         t.dist_to_known_fp), 1):
        rows.append([str(n), *map(repr, x), *map(repr, record)])
    assert {(row[2], row[3]) for row in rows[1:]} == {("-0.0", "0.0")}
    assert trajectory_csv_rows(t) == rows
    buf = io.StringIO()
    write_trajectory_csv(t, buf)
    assert buf.getvalue() == "".join(",".join(row) + "\n" for row in rows)


def test_trajectory_header_echoes_config():
    m = make_example21(0.5, NormedSpace(1, math.inf))
    t = _run("mann", m, (0.5,), max_steps=2, stop_tolerance=-1.0)
    h = trajectory_header(t)
    assert h["scheme"] == "mann"
    assert h["mapping"] == {"id": "example21", "parameters": {"q": 0.5}}
    assert h["space"] == {"dim": 1, "p": "inf"}
    assert h["alpha"] == {"kind": "constant", "parameters": {"value": 0.5}}
    assert h["beta"] is None
    assert h["stop_reason"] == "max_steps"
    assert h["steps"] == 2


def test_two_dimensional_run():
    m = make_linear_contraction(0.5, 2)
    rng = np.random.default_rng(0)
    x0 = Vector(tuple(rng.uniform(-0.5, 0.5, 2)))
    t = _run("pm_hybrid", m, x0.coords, max_steps=15, stop_tolerance=-1.0)
    assert t.final.dim == 2
    assert m.space.norm(t.final) < 1e-6
