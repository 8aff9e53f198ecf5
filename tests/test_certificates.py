"""Properties every sampled certificate keeps, over generated seeds and budgets.

All five certifiers share one kernel, so the same facts must hold for each:
re-evaluating the witness reproduces ``max_violation`` exactly, the sample
count is the deterministic special candidates plus the requested budget, the
same seed gives an equal certificate, and the kernel's array screen gives the
certificate that evaluating every candidate through the scalar path gives.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixiter import (
    CATALOG_IDS,
    TAU_CERT,
    Box,
    Certificate,
    ContractError,
    DomainError,
    MappingMeta,
    NormedSpace,
    PhiSpec,
    Schedule,
    Vector,
    Witness,
    apply_power,
    build_mapping,
    certify_asymptotically_nonexpansive,
    certify_condition_I,
    certify_nearly_nonexpansive,
    certify_nonexpansive,
    certify_uniform_lipschitz,
    distance_to_fixed_set,
    fixed_point_residual,
    get_mapping,
    make_asymptotically_nonexpansive_example,
    make_example21,
    make_identity,
    make_linear_contraction,
    modulus_of_convexity_estimate,
)
from fixiter.mappings import (
    CATALOG,
    _certify,
    _discontinuity_neighbors,
    asymptotically_nonexpansive_violation,
    nearly_nonexpansive_violation,
    special_points,
    uniform_lipschitz_violation,
)

PROPERTY_SETTINGS = settings(max_examples=15, deadline=None, derandomize=True, database=None)

seeds = st.integers(min_value=0, max_value=2**32 - 1)
budgets = st.integers(min_value=1, max_value=60)
n_maxes = st.integers(min_value=1, max_value=6)
ratios = st.floats(min_value=0.05, max_value=0.95)
dims = st.integers(min_value=1, max_value=3)

# example21 on [0, 1]: the extremes pair plus the two in-domain neighbours of
# the jump at 1; as points, also the jump itself and the fixed point 0.
EXAMPLE21_SPECIAL_PAIRS = 3
EXAMPLE21_SPECIAL_POINTS = 6


def _check_repeatable(certify, *args):
    first = certify(*args)
    assert certify(*args) == first
    return first


@PROPERTY_SETTINGS
@given(q=ratios, budget=budgets, seed=seeds)
def test_nonexpansive_certificate(q, budget, seed):
    m = make_example21(q)
    cert = _check_repeatable(certify_nonexpansive, m, budget, seed)
    w = cert.witness
    assert uniform_lipschitz_violation(m, 1.0, w.n, w.x, w.y) == cert.max_violation
    assert cert.sample_count == EXAMPLE21_SPECIAL_PAIRS + budget


@PROPERTY_SETTINGS
@given(q=ratios, n_max=n_maxes, budget=budgets, seed=seeds)
def test_nearly_nonexpansive_certificate(q, n_max, budget, seed):
    m = make_example21(q)
    a = Schedule.geometric(q)
    cert = _check_repeatable(certify_nearly_nonexpansive, m, a, n_max, budget, seed)
    w = cert.witness
    assert nearly_nonexpansive_violation(m, a, w.n, w.x, w.y) == cert.max_violation
    assert cert.sample_count == EXAMPLE21_SPECIAL_PAIRS * n_max + budget


@PROPERTY_SETTINGS
@given(q=ratios, dim=dims, n_max=n_maxes, budget=budgets, seed=seeds)
def test_uniform_lipschitz_certificate(q, dim, n_max, budget, seed):
    m = make_linear_contraction(q, dim)
    cert = _check_repeatable(certify_uniform_lipschitz, m, 1.0, n_max, budget, seed)
    w = cert.witness
    assert uniform_lipschitz_violation(m, 1.0, w.n, w.x, w.y) == cert.max_violation
    assert cert.sample_count == n_max + budget  # the ball has no discontinuities


@PROPERTY_SETTINGS
@given(dim=st.integers(min_value=2, max_value=3), n_max=n_maxes, budget=budgets, seed=seeds)
def test_asymptotically_nonexpansive_certificate(dim, n_max, budget, seed):
    m = make_asymptotically_nonexpansive_example(dim)
    k = Schedule.table((1.2, 1.0))
    cert = _check_repeatable(certify_asymptotically_nonexpansive, m, k, n_max, budget, seed)
    w = cert.witness
    assert asymptotically_nonexpansive_violation(m, k, w.n, w.x, w.y) == cert.max_violation
    assert cert.sample_count == n_max + budget


@PROPERTY_SETTINGS
@given(q=ratios, lam=st.floats(min_value=0.01, max_value=2.0), budget=budgets, seed=seeds)
def test_condition_I_certificate(q, lam, budget, seed):
    m = make_example21(q)
    phi = PhiSpec("linear", lam=lam)
    cert = _check_repeatable(certify_condition_I, m, phi, budget, seed)
    x = cert.witness.x
    assert phi(distance_to_fixed_set(m, x)) - fixed_point_residual(m, x) == cert.max_violation
    assert cert.sample_count == EXAMPLE21_SPECIAL_POINTS + budget


def test_has_fixed_set():
    assert make_example21(0.5).has_fixed_set  # declared fixed point 0
    assert make_identity(2).has_fixed_set  # every point is fixed
    assert not replace(make_example21(0.5), meta=MappingMeta()).has_fixed_set


def test_every_sampler_refuses_a_negative_seed():
    # numpy would raise a bare ValueError from inside the sampler.
    m = make_example21(0.5)
    for sample in (
        lambda seed: certify_nonexpansive(m, 100, seed),
        lambda seed: certify_nearly_nonexpansive(m, Schedule.constant(0.1), 2, 100, seed),
        lambda seed: certify_uniform_lipschitz(m, 2.0, 2, 100, seed),
        lambda seed: certify_asymptotically_nonexpansive(m, Schedule.constant(1.5), 2, 100, seed),
        lambda seed: certify_condition_I(m, PhiSpec("linear", lam=0.5), 100, seed),
        lambda seed: modulus_of_convexity_estimate(NormedSpace(2, 2.0), 1.0, 100, seed),
    ):
        with pytest.raises(ContractError, match=r"^seed must be >= 0, got -1$"):
            sample(-1)
        assert sample(0) == sample(0)


def test_a_certificate_whose_every_violation_is_minus_inf_is_refused():
    # L * ||x - y|| overflows on every candidate, so no violation exceeds -inf.
    m = make_asymptotically_nonexpansive_example(40)
    with pytest.raises(ContractError, match="^uniformly_lipschitz: every sampled violation is -inf or nan, "):
        certify_uniform_lipschitz(m, 1e308, 20, 10, 0)


@pytest.mark.parametrize("value", [-math.inf, math.nan])
def test_the_kernel_refuses_a_certificate_without_a_witness(value):
    with pytest.raises(ContractError, match="^probe: every sampled violation is -inf or nan, "):
        _certify("probe", (1, 1), lambda w: value, lambda: None, 10, np.zeros((3, 1)))



# ---------------------------------------------------------------------------
# the array screen against the scalar loop

P_VALUES = (1.0, 1.5, 2.0, 3.0, math.inf)
CERTIFIERS = ("nonexpansive", "uniformly_lipschitz", "asymptotically_nonexpansive",
              "nearly_nonexpansive", "condition_I")
gauges = st.one_of(
    st.builds(PhiSpec, st.just("linear"), lam=st.floats(min_value=0.01, max_value=2.0)),
    st.builds(PhiSpec, st.just("power"), lam=st.floats(min_value=0.01, max_value=2.0),
              gamma=st.floats(min_value=1.0, max_value=3.0)),
    st.builds(lambda v: PhiSpec("table", grid=((0.0, 0.0), (0.5, v), (2.0, 2.0 * v))),
              st.floats(min_value=0.01, max_value=1.0)),
)


@st.composite
def catalog_maps(draw, drop_rows=st.booleans()):
    """A catalog map in a generated l_p space; when ``drop_rows`` draws True its
    row evaluators are dropped, so rows are evaluated by the per-row loop
    derived over its scalar views."""
    mapping_id = draw(st.sampled_from(CATALOG_IDS))
    dim = 1 if mapping_id == "example21" else draw(st.integers(2 if mapping_id == "asymptotic_demo" else 1, 3))
    params = {"q": draw(ratios)} if CATALOG[mapping_id].parameters else {}
    m = get_mapping(mapping_id, params, NormedSpace(dim, draw(st.sampled_from(P_VALUES))))
    return replace(m, apply_rows=None, power_rows=None) if draw(drop_rows) else m


def _scalar_loop(name, n_range, candidates, violation, requested):
    """The reference: every candidate through the scalar path, first strict maximum kept."""
    best, witness = -math.inf, None
    for w in candidates:
        v = violation(w)
        if v > best:
            best, witness = v, w
    verdict = "inconclusive" if requested < 10 else ("refuted" if best > TAU_CERT else "certified")
    return Certificate(name, n_range, len(candidates), best, witness, verdict)


def _scalar_pairs(name, m, violation, n_max, budget, seed):
    pairs = [m.domain.extreme_points()] + [
        (neighbor, d) for d in m.meta.discontinuities
        for neighbor in _discontinuity_neighbors(m.space, m.domain, d)
    ]
    rng = np.random.default_rng(seed)
    ns = rng.integers(1, n_max + 1, size=budget)
    xs = m.domain.sample(m.space, rng, budget)
    ys = m.domain.sample(m.space, rng, budget)
    candidates = [Witness(x=x, y=y, n=n) for x, y in pairs for n in range(1, n_max + 1)]
    candidates += [Witness(x=Vector.from_array(x), y=Vector.from_array(y), n=int(n))
                   for n, x, y in zip(ns, xs, ys)]
    return _scalar_loop(name, (1, n_max), candidates, lambda w: violation(w.n, w.x, w.y), budget)


def _scalar_condition_I(m, phi, budget, seed):
    sampled = m.domain.sample(m.space, np.random.default_rng(seed), budget)
    points = special_points(m.space, m.domain, m.meta) + [Vector.from_array(x) for x in sampled]
    return _scalar_loop(
        "condition_I", (1, 1), [Witness(x=x) for x in points],
        lambda w: phi(distance_to_fixed_set(m, w.x)) - m.space.norm(w.x - apply_power(m, 1, w.x)),
        budget,
    )


def _both(certifier, m, coef, r, phi, n_max, budget, seed):
    """The kernel's certificate and the scalar loop's, for one certifier."""
    if certifier == "condition_I":
        return certify_condition_I(m, phi, budget, seed), _scalar_condition_I(m, phi, budget, seed)
    if certifier == "nonexpansive":
        return certify_nonexpansive(m, budget, seed), _scalar_pairs(
            "nonexpansive", m, lambda n, x, y: uniform_lipschitz_violation(m, 1.0, n, x, y), 1, budget, seed)
    if certifier == "uniformly_lipschitz":
        return certify_uniform_lipschitz(m, coef, n_max, budget, seed), _scalar_pairs(
            "uniformly_lipschitz", m, lambda n, x, y: uniform_lipschitz_violation(m, coef, n, x, y),
            n_max, budget, seed)
    if certifier == "asymptotically_nonexpansive":
        k = Schedule.table((coef, 1.0))
        return certify_asymptotically_nonexpansive(m, k, n_max, budget, seed), _scalar_pairs(
            certifier, m, lambda n, x, y: asymptotically_nonexpansive_violation(m, k, n, x, y),
            n_max, budget, seed)
    a = Schedule.geometric(r)
    return certify_nearly_nonexpansive(m, a, n_max, budget, seed), _scalar_pairs(
        certifier, m, lambda n, x, y: nearly_nonexpansive_violation(m, a, n, x, y), n_max, budget, seed)


_TIE = dict(certifier="nonexpansive", coef=1.0, r=0.5, phi=PhiSpec("linear"), n_max=1, budget=40, seed=0)


@settings(PROPERTY_SETTINGS, max_examples=150)
# Every violation of the identity is exactly 0, so the first candidate must
# stay the witness: with exact norms (dim 1, p = 2) and with rounded ones.
@example(m=make_identity(1), **_TIE)
@example(m=make_identity(3, NormedSpace(3, 1.5)), **_TIE)
# phi(||x||) = ||x - Tx|| up to rounding, so any rounding in which the array
# violations differ from the scalar ones would decide the maximum.
@example(certifier="condition_I", m=make_linear_contraction(0.5, 2, NormedSpace(2, 1.5)), coef=1.0, r=0.5,
         phi=PhiSpec("linear", lam=0.5), n_max=1, budget=60, seed=0)
@given(certifier=st.sampled_from(CERTIFIERS), m=catalog_maps(),
       coef=st.floats(min_value=1.0, max_value=2.0), r=ratios, phi=gauges,
       n_max=st.integers(min_value=1, max_value=40), budget=budgets, seed=seeds)
def test_screened_certificate_equals_scalar_loop(certifier, m, coef, r, phi, n_max, budget, seed):
    screened, scalar = _both(certifier, m, coef, r, phi, n_max, budget, seed)
    assert screened == scalar


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(m=catalog_maps(drop_rows=st.just(False)), seed=seeds)
def test_row_evaluators_equal_scalar_evaluators(m, seed):
    # Catalog maps give rows only; their scalar evaluators are one-row views
    # derived when the map is built, and this guards those views.
    rng = np.random.default_rng(seed)
    specials = [p.coords for p in special_points(m.space, m.domain, m.meta)]
    X = np.concatenate([np.reshape(specials, (-1, m.space.dim)), m.domain.sample(m.space, rng, 50)])
    ns = rng.integers(1, 41, size=len(X))
    before = X.copy()
    xs = [Vector.from_array(x) for x in X]
    for rows, scalar in (
        (m.apply_rows(X), [m.apply(x).coords for x in xs]),
        (m.power_rows(ns, X), [m.power(int(n), x).coords for n, x in zip(ns, xs)]),
    ):
        assert rows.shape == X.shape
        assert rows.tobytes() == np.array(scalar).tobytes()
    assert X.tobytes() == before.tobytes()


def _heard(run):
    """run()'s result and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run()
    return result, [(w.category, str(w.message)) for w in caught]


def test_screen_defers_errors_to_the_scalar_loop():
    # A declared discontinuity outside the domain makes the scalar loop raise
    # DomainError at its first pair; the screen must raise the same.
    meta = MappingMeta(declared_class="nonexpansive", known_fixed_points=(Vector((0.0,)),),
                       discontinuities=(Vector((2.0,)),))
    m = build_mapping("quarter", NormedSpace(1, 2.0), Box((0.0,), (1.0,)),
                      lambda x: Vector((x.coords[0] / 4.0,)), lambda n, x: Vector((x.coords[0] / 4.0**n,)),
                      meta, apply_rows=lambda X: X / 4.0)
    a = Schedule.geometric(0.5)
    for certify, scalar in (
        (lambda: certify_nonexpansive(m, 20, 0), lambda: _scalar_pairs(
            "nonexpansive", m, lambda n, x, y: uniform_lipschitz_violation(m, 1.0, n, x, y), 1, 20, 0)),
        (lambda: certify_nearly_nonexpansive(m, a, 3, 20, 0), lambda: _scalar_pairs(
            "nearly_nonexpansive", m, lambda n, x, y: nearly_nonexpansive_violation(m, a, n, x, y), 3, 20, 0)),
    ):
        with pytest.raises(DomainError) as expected:
            scalar()
        with pytest.raises(DomainError) as raised:
            certify()
        assert str(raised.value) == str(expected.value)

    # A map that stops being a self-map once built: the condition (I) screen
    # sees an image outside the domain, and the scalar loop raises.
    factor = [0.5]
    leaving = build_mapping("leaving", NormedSpace(1, 2.0), Box((0.0,), (1.0,)),
                            lambda x: Vector((factor[0] * x.coords[0],)),
                            meta=MappingMeta(known_fixed_points=(Vector((0.0,)),)),
                            apply_rows=lambda X: factor[0] * X)
    factor[0] = 4.0
    phi = PhiSpec("linear", lam=0.5)
    with pytest.raises(DomainError) as expected:
        _scalar_condition_I(leaving, phi, 20, 0)
    with pytest.raises(DomainError) as raised:
        certify_condition_I(leaving, phi, 20, 0)
    assert str(raised.value) == str(expected.value)

    # A power gauge that overflows on the box: the screen reads inf, and the
    # scalar gauge raises ContractError.
    demo = make_asymptotically_nonexpansive_example(3)
    with pytest.raises(ContractError, match="power gauge overflows"):
        certify_condition_I(demo, PhiSpec("power", lam=1.0, gamma=1e6), 50, 0)

    # x / (1 + 1/x) is finite on [0, 1], but numpy warns of 1/0 at the extreme
    # 0.  The screen notes it, and the scalar loop warns as it does alone.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the build probes warn at 0 too
        divide = build_mapping("divide", NormedSpace(1, 2.0), Box((0.0,), (1.0,)),
                               meta=MappingMeta(known_fixed_points=(Vector((0.0,)),)),
                               apply_rows=lambda X: X / (1.0 + 1.0 / X))
    heard = [_heard(lambda: certify_nonexpansive(divide, 200, 0)), _heard(lambda: _scalar_pairs(
        "nonexpansive", divide, lambda n, x, y: uniform_lipschitz_violation(divide, 1.0, n, x, y), 1, 200, 0))]
    assert heard[0] == heard[1]
    assert [(category, "divide by zero" in message) for category, message in heard[0][1]] == [
        (RuntimeWarning, True)]

    # An evaluator whose error names its batch size: build_mapping raises the
    # error of the one-row scalar call, not that of the array probe.
    def refusing(X):
        raise RuntimeError(f"cannot evaluate {len(X)} row(s)")

    with pytest.raises(RuntimeError, match=r"^cannot evaluate 1 row\(s\)$"):
        build_mapping("refusing", NormedSpace(1, 2.0), Box((0.0,), (1.0,)), apply_rows=refusing)

    # A closed form that refuses any batch with a row past 0.9: at n = 1 the
    # scalar path never calls it, so the certificate is the scalar loop's.
    def edge_refusing(ns, X):
        if (np.abs(X) > 0.9).any():
            refusing(X)
        return 0.5 ** ns[:, None] * X

    edgy = replace(make_linear_contraction(0.5), power_rows=edge_refusing)
    cert = certify_nonexpansive(edgy, 50, 0)
    assert cert.verdict == "certified"
    assert cert == _scalar_pairs(
        "nonexpansive", edgy, lambda n, x, y: uniform_lipschitz_violation(edgy, 1.0, n, x, y), 1, 50, 0)


def test_all_tie_certificate_confirms_one_candidate(monkeypatch, capsys):
    # Every violation of the identity is exactly 0.  The array norms are the
    # scalar ones, so the screen keeps the first candidate alone.
    import fixiter.mappings
    from fixiter import cli

    confirmed = []
    excess = fixiter.mappings._pair_excess

    def counting(*args):
        confirmed.append(args)
        return excess(*args)

    monkeypatch.setattr(fixiter.mappings, "_pair_excess", counting)
    assert cli.main(["certify", "identity", "--class", "nonexpansive", "--dim", "2"]) == 0
    assert '"sample_count": 1001' in capsys.readouterr().out
    assert len(confirmed) == 1


def test_power_gauge_certificate_evaluates_one_candidate(monkeypatch):
    # A power gauge's rows take Python's powers, as the scalar gauge does, so
    # the violations are exact and only the witness is evaluated again.
    import fixiter.analysis

    evaluated = []

    def counting(m, x):
        evaluated.append(x)
        return distance_to_fixed_set(m, x)

    monkeypatch.setattr(fixiter.analysis, "distance_to_fixed_set", counting)
    m = make_linear_contraction(0.5, 2, NormedSpace(2, 1.5))
    cert = certify_condition_I(m, PhiSpec("power", lam=0.5, gamma=1.0), 2000, 0)
    assert cert.sample_count == 2003
    assert len(evaluated) == 1


@pytest.mark.parametrize("n_max", [1, 7, 20])
@pytest.mark.parametrize("certifier, make, sequence", [
    (certify_nearly_nonexpansive, lambda: make_example21(0.5), lambda n: 0.5**n),
    (certify_asymptotically_nonexpansive, make_asymptotically_nonexpansive_example,
     lambda n: 1.2 if n == 1 else 1.0),
], ids=["example21", "asymptotic_demo"])
def test_pair_certificate_evaluates_its_schedule_once_per_n(certifier, make, sequence, n_max):
    calls = []
    counted = Schedule.formula(lambda n: calls.append(n) or sequence(n))
    certifier(make(), counted, n_max, 50, 7)
    # n = 1 ... n_max in order before sampling; the witness reads the table they filled
    assert calls == [*range(1, n_max + 1)]
    # A zero sample count is refused before the table is built.
    calls.clear()
    with pytest.raises(ContractError, match="^sample_count must be >= 1, got 0$"):
        certifier(make(), counted, n_max, 0, 7)
    assert calls == []
