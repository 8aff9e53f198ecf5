"""Mapping catalog, construction contracts, and sampled class certification."""

import itertools
import math
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixiter import (
    CATALOG_IDS,
    Ball,
    Box,
    ContractError,
    DomainError,
    Mapping,
    MappingMeta,
    NormedSpace,
    ParameterError,
    Schedule,
    ScheduleError,
    Vector,
    apply_power,
    build_mapping,
    certify_asymptotically_nonexpansive,
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
    near_schedule_for,
    near_sequence_from_asymptotic,
)
from fixiter.mappings import (_POWER_N_MAX, _POWER_SAMPLES, _SELF_MAP_SAMPLES, _SELF_MAP_SEED, CATALOG, _per_n,
                              _screen, special_points, uniform_lipschitz_violation)


def test_scaling_with_jump_hand_values():
    m = make_example21(0.5)
    assert m.apply(Vector((0.5,))).coords == (0.25,)
    assert m.apply(Vector((0.8,))).coords == (0.4,)
    assert m.apply(Vector((1.0,))).coords == (0.0,)  # jump at the right endpoint
    assert m.apply(Vector((0.0,))).coords == (0.0,)
    assert fixed_point_residual(m, Vector((0.0,))) == 0.0
    assert distance_to_fixed_set(m, Vector((0.7,))) == 0.7


def test_scaling_with_jump_power():
    m = make_example21(0.5)
    assert apply_power(m, 0, Vector((0.5,))) == Vector((0.5,))
    assert apply_power(m, 3, Vector((0.5,))).coords == (0.0625,)
    # the jump point is absorbed after one application
    for n in (1, 2, 5):
        assert apply_power(m, n, Vector((1.0,))).coords == (0.0,)
    with pytest.raises(ContractError):
        apply_power(m, -1, Vector((0.5,)))
    with pytest.raises(DomainError):
        apply_power(m, 1, Vector((2.0,)))


def test_scaling_with_jump_metadata():
    m = make_example21(0.25)
    assert m.meta.known_fixed_points == (Vector((0.0,)),)
    assert m.meta.a_schedule == Schedule.geometric(0.25)
    assert m.meta.discontinuities == (Vector((1.0,)),)
    assert m.has_power
    assert m.parameters == (("q", 0.25),)


def test_contraction_and_identity_factories():
    c = make_linear_contraction(0.5, 2)
    x = Vector((0.4, -0.2))
    assert c.apply(x).coords == (0.2, -0.1)
    assert apply_power(c, 3, x).coords == (0.05, -0.025)
    assert distance_to_fixed_set(c, x) == pytest.approx(math.hypot(0.4, -0.2))
    ident = make_identity(2)
    assert ident.apply(x) == x
    assert ident.meta.fixed_set_is_domain
    assert distance_to_fixed_set(ident, x) == 0.0


def test_swap_shrink_example_values_and_power():
    m = make_asymptotically_nonexpansive_example(3)
    v = Vector((0.5, 0.25, -0.8))
    assert m.apply(v).coords == pytest.approx((0.3, 0.25, -0.4))
    # closed-form power must track repeated application
    for n in range(1, 11):
        stepped = v
        for _ in range(n):
            stepped = m.apply(stepped)
        closed = apply_power(m, n, v)
        assert closed.coords == pytest.approx(stepped.coords, abs=1e-12)
    assert m.meta.k_schedule.at(1) == 1.2
    assert m.meta.k_schedule.at(2) == 1.0
    assert m.meta.k_schedule.at(9) == 1.0


@pytest.mark.parametrize("dim", [2, 3])
def test_swap_shrink_power_of_one_row_is_that_row_of_many(dim):
    # One row takes its own branch, which returns the row np.where picks for
    # many: its bits, for odd and even n, signed zeros included.
    m = make_asymptotically_nonexpansive_example(dim)
    rng = np.random.default_rng(dim)
    ns = rng.permutation(np.arange(1, 41))
    X = rng.uniform(-1.0, 1.0, (40, dim)) * np.array(m.domain.highs)
    X[::7] = -0.0
    many = m.power_rows(ns, X)
    for i in range(40):
        assert m.power_rows(ns[i:i + 1], X[i:i + 1]).view(np.int64).tolist() == many[i:i + 1].view(np.int64).tolist()
    one = np.array([[0.5, -0.8, *[-0.0] * (dim - 2)]])
    assert m.power_rows(np.array([1]), one).view(np.int64).tolist() == m.apply_rows(one).view(np.int64).tolist()


def test_swap_shrink_is_refuted_as_nonexpansive_at_every_dim_it_builds():
    # Every dim it builds at gives the expanding map, never a nonexpansive stand-in.
    built = []
    for dim in range(1, 5):
        try:
            m = make_asymptotically_nonexpansive_example(dim)
        except ParameterError:
            continue
        built.append(dim)
        assert certify_nonexpansive(m, 500, 0).verdict == "refuted", dim
    assert built == [2, 3, 4]


def test_catalog_lookup():
    sp1 = NormedSpace(1, 2.0)
    assert set(CATALOG_IDS) == {"example21", "contraction", "identity", "asymptotic_demo"}
    m = get_mapping("example21", {"q": 0.5}, sp1)
    assert m.mapping_id == "example21"
    assert m.apply(Vector((0.5,))).coords == (0.25,)
    get_mapping("contraction", {"q": 0.3}, NormedSpace(2, 2.0))
    get_mapping("identity", {}, NormedSpace(3, 1.0))
    get_mapping("asymptotic_demo", {}, NormedSpace(3, 2.0))


def test_catalog_parameter_errors():
    sp1 = NormedSpace(1, 2.0)
    with pytest.raises(ParameterError):
        get_mapping("example21", {}, sp1)
    with pytest.raises(ParameterError):
        get_mapping("example21", {"q": 1.5}, sp1)
    with pytest.raises(ParameterError):
        get_mapping("example21", {"q": 0.5, "extra": 1.0}, sp1)
    with pytest.raises(ParameterError):
        get_mapping("identity", {"q": 0.5}, NormedSpace(1, 2.0))
    with pytest.raises(ParameterError, match=r"^unknown mapping 'no_such_map'; catalog: \('example21', "):
        get_mapping("no_such_map", {}, sp1)
    with pytest.raises(ParameterError):
        make_example21(0.5, NormedSpace(2, 2.0))  # one-dimensional by construction
    with pytest.raises(ParameterError, match=r"^q must lie in \(0, 1\), got 1.5$"):
        get_mapping("contraction", {"q": 1.5}, sp1)
    with pytest.raises(ParameterError, match="^dim must be >= 1, got 0$"):
        make_identity(0)
    with pytest.raises(ParameterError, match="^space dim 1 != requested dim 2$"):
        make_identity(2, sp1)


def test_build_rejects_non_self_map():
    sp = NormedSpace(1, 2.0)
    box = Box((-1.0,), (1.0,))
    with pytest.raises(ContractError):
        build_mapping("escape", sp, box, lambda x: Vector((x.coords[0] + 2.0,)))


def test_build_rejects_inconsistent_power():
    sp = NormedSpace(1, 2.0)
    box = Box((-1.0,), (1.0,))
    with pytest.raises(ContractError):
        build_mapping("bad_power", sp, box,
                      lambda x: Vector((0.5 * x.coords[0],)),
                      power=lambda n, x: x)
    # right from n = 1 on, wrong at n = 0
    with pytest.raises(ContractError, match=r"^power\(0, x\) must return x exactly for 'bad_zero'$"):
        build_mapping("bad_zero", sp, box,
                      lambda x: Vector((0.5 * x.coords[0],)),
                      power=lambda n, x: Vector((0.5 ** max(n, 1) * x.coords[0],)))


def test_build_rejects_incoherent_metadata():
    sp = NormedSpace(1, 2.0)
    box = Box((-1.0,), (1.0,))
    halve = lambda x: Vector((0.5 * x.coords[0],))
    with pytest.raises(ContractError):
        build_mapping("m", sp, box, halve, meta=MappingMeta(declared_class="mystery"))
    with pytest.raises(ContractError):
        build_mapping("m", sp, box, halve,
                      meta=MappingMeta(declared_class="asymptotically_nonexpansive"))
    with pytest.raises(ScheduleError):
        build_mapping("m", sp, box, halve,
                      meta=MappingMeta(declared_class="asymptotically_nonexpansive",
                                       k_schedule=Schedule.constant(0.9)))
    with pytest.raises(ScheduleError, match="^k schedule does not approach 1$"):
        build_mapping("m", sp, box, halve,
                      meta=MappingMeta(declared_class="asymptotically_nonexpansive",
                                       k_schedule=Schedule.constant(1.5)))
    for L in (0.0, math.inf, math.nan):
        with pytest.raises(ContractError, match=f"^Lipschitz constant must be finite and > 0, got {L}$"):
            build_mapping("m", sp, box, halve, meta=MappingMeta(lipschitz_L=L))
    with pytest.raises(ContractError, match=r"^fixed point \(0.0, 0.0\) has wrong dimension$"):
        build_mapping("m", sp, box, halve, meta=MappingMeta(known_fixed_points=(Vector((0.0, 0.0)),)))
    with pytest.raises(ContractError):
        build_mapping("m", sp, box, halve,
                      meta=MappingMeta(known_fixed_points=(Vector((0.5,)),)))
    with pytest.raises(ContractError):
        build_mapping("m", NormedSpace(2, 2.0), box, halve)
    with pytest.raises(ContractError, match=r"discontinuity \(0.5,\) has wrong dimension"):
        build_mapping("m", NormedSpace(2, 2.0), Box((-1.0, -1.0), (1.0, 1.0)),
                      lambda x: 0.5 * x, meta=MappingMeta(discontinuities=(Vector((0.5,)),)))


def test_certify_nearly_certifies_the_jump_map():
    m = make_example21(0.5)
    cert = certify_nearly_nonexpansive(m, Schedule.geometric(0.5), 50, 10_000, 0)
    assert cert.verdict == "certified"
    assert cert.max_violation <= 1e-8
    assert cert.n_range == (1, 50)


def test_certify_nonexpansive_refutes_the_jump_map():
    m = make_example21(0.5)
    cert = certify_nonexpansive(m, 10_000, 0)
    assert cert.verdict == "refuted"
    assert cert.max_violation > 0.4  # O(1) gap, not roundoff
    w = cert.witness
    assert max(abs(w.x.coords[0]), abs(w.y.coords[0])) >= 0.999  # near the jump


def test_certificate_witness_reproduces_reported_violation():
    m = make_example21(0.5)
    cert = certify_nonexpansive(m, 2_000, 7)
    w = cert.witness
    again = uniform_lipschitz_violation(m, 1.0, w.n, w.x, w.y)
    assert again == cert.max_violation


def test_certification_is_deterministic():
    m = make_example21(0.3)
    a = certify_nonexpansive(m, 2_000, 11)
    b = certify_nonexpansive(m, 2_000, 11)
    assert a == b
    c = certify_nearly_nonexpansive(m, Schedule.geometric(0.3), 10, 2_000, 11)
    d = certify_nearly_nonexpansive(m, Schedule.geometric(0.3), 10, 2_000, 11)
    assert c == d


def test_small_sample_requests_are_inconclusive():
    m = make_example21(0.5)
    cert = certify_nonexpansive(m, 5, 0)
    assert cert.verdict == "inconclusive"


def test_near_sequence_sharpness():
    # a quarter of the true near-sequence is already violated at n = 1
    for q in (0.3, 0.5, 0.9):
        m = make_example21(q)
        quarter = Schedule.formula(lambda n, q=q: (q ** n) / 4.0, "quarter_geometric")
        cert = certify_nearly_nonexpansive(m, quarter, 1, 2_000, 0)
        assert cert.verdict == "refuted"
        assert cert.max_violation == pytest.approx(3.0 * q / 4.0, abs=1e-3)


def test_class_hierarchy_on_a_contraction():
    c = make_linear_contraction(0.5, 2)
    assert certify_nonexpansive(c, 1_000, 0).verdict == "certified"
    ones = Schedule.constant(1.0)
    assert certify_asymptotically_nonexpansive(c, ones, 10, 1_000, 0).verdict == "certified"
    zeros = near_sequence_from_asymptotic(ones, c.domain.diameter(c.space))
    assert certify_nearly_nonexpansive(c, zeros, 10, 1_000, 0).verdict == "certified"
    assert certify_uniform_lipschitz(c, 0.5, 10, 1_000, 0).verdict == "certified"


def test_swap_shrink_certifications():
    m = make_asymptotically_nonexpansive_example(3)
    k = Schedule.table((1.2, 1.0))
    assert certify_asymptotically_nonexpansive(m, k, 20, 2_000, 0).verdict == "certified"
    bad = certify_nonexpansive(m, 2_000, 0)
    assert bad.verdict == "refuted"
    assert bad.max_violation > 0.1
    assert certify_uniform_lipschitz(m, 1.2, 20, 2_000, 0).verdict == "certified"


def test_identity_is_exactly_nonexpansive():
    cert = certify_nonexpansive(make_identity(2), 1_000, 0)
    assert cert.verdict == "certified"
    assert cert.max_violation == 0.0


def test_certifier_argument_validation():
    m = make_example21(0.5)
    with pytest.raises(ContractError):
        certify_nonexpansive(m, 0, 0)
    with pytest.raises(ContractError):
        certify_nearly_nonexpansive(m, Schedule.constant(0.1), 0, 100, 0)
    with pytest.raises(ParameterError, match=r"^Lipschitz constant must be finite and > 0, got 0\.0$"):
        certify_uniform_lipschitz(m, 0.0, 1, 100, 0)
    for L in (math.inf, math.nan):
        with pytest.raises(ParameterError, match=f"^Lipschitz constant must be finite and > 0, got {L}$"):
            certify_uniform_lipschitz(m, L, 1, 100, 0)
    for scale, offset in ((math.inf, 0.0), (math.nan, 0.0), (1.0, math.inf)):
        with pytest.raises(ScheduleError):
            certify_nearly_nonexpansive(m, Schedule.harmonic_tail(scale, offset), 1, 100, 0)
    with pytest.raises(ScheduleError):
        certify_nearly_nonexpansive(m, Schedule.geometric(2.0), 1100, 100, 0)
    with pytest.raises(ScheduleError):
        certify_nearly_nonexpansive(m, Schedule.constant(-0.1), 1, 100, 0)
    with pytest.raises(ScheduleError):
        certify_asymptotically_nonexpansive(m, Schedule.constant(0.5), 1, 100, 0)


def test_near_schedule_selection():
    assert near_schedule_for(make_example21(0.5)) == Schedule.geometric(0.5)
    c = make_linear_contraction(0.5, 1)
    assert near_schedule_for(c) == Schedule.constant(0.0)
    demo = make_asymptotically_nonexpansive_example(3)
    derived = near_schedule_for(demo)
    diam = demo.domain.diameter(demo.space)
    assert derived.at(1) == pytest.approx(0.2 * diam)
    assert derived.at(2) == 0.0
    sp = NormedSpace(1, 2.0)
    bare = build_mapping("bare", sp, Box((-1.0,), (1.0,)),
                         lambda x: Vector((0.5 * x.coords[0],)))
    assert near_schedule_for(bare) is None
    # On a domain of infinite diameter, (k(n) - 1) * diam would read inf at k(1) = 1.2, and nan where k(n) = 1.
    wide = Mapping("wide", sp, Box((-1e308,), (1e308,)), lambda x: x, None,
                   MappingMeta(declared_class="asymptotically_nonexpansive", k_schedule=Schedule.table([1.2, 1.0])))
    with pytest.raises(ContractError) as raised:
        near_schedule_for(wide)
    assert str(raised.value) == ("mapping 'wide' on Box(lows=(-1e+308,), highs=(1e+308,)): "
                                 "diameter must be finite and >= 0, got inf")


def test_near_sequence_from_asymptotic_values():
    k = Schedule.formula(lambda n: 1.0 + 2.0 ** -n, "one_plus_geometric")
    a = near_sequence_from_asymptotic(k, 1.0)
    assert a.at(1) == 0.5
    assert a.at(3) == 0.125
    a = near_sequence_from_asymptotic(Schedule.formula(lambda n: 1.0 + 1.0 / n, "one_plus_harmonic"), 2.0)
    assert a.at(1) == 2.0
    assert a.at(4) == 0.5
    with pytest.raises(ScheduleError):
        near_sequence_from_asymptotic(Schedule.constant(0.9), 1.0).at(1)
    for diam in (-1.0, math.inf, math.nan):
        with pytest.raises(ContractError, match=f"^diameter must be finite and >= 0, got {diam}$"):
            near_sequence_from_asymptotic(Schedule.constant(1.0), diam)


def test_special_points_cover_jump_neighborhood():
    m = make_example21(0.5)
    pts = {v.coords[0] for v in special_points(m.space, m.domain, m.meta)}
    assert {0.0, 1.0} <= pts
    assert 1.0 - 1e-3 in pts
    assert 1.0 - 1e-6 in pts


def test_distance_unknown_without_fixed_point_info():
    sp = NormedSpace(1, 2.0)
    bare = build_mapping("bare", sp, Box((-1.0,), (1.0,)),
                         lambda x: Vector((0.5 * x.coords[0],)))
    assert distance_to_fixed_set(bare, Vector((0.5,))) is None


def test_direct_mapping_construction_is_allowed():
    # the dataclass itself carries no sampling guarantees; build_mapping adds them
    sp = NormedSpace(1, 2.0)
    m = Mapping("raw", sp, Box((0.0,), (1.0,)), lambda x: x, None, MappingMeta())
    assert m.apply(Vector((0.3,))) == Vector((0.3,))
    assert not m.has_power
    # Nor does it check dimensions, but a distance to a fixed point of the wrong one fails.
    plane = Mapping("raw", NormedSpace(2, 2.0), Box((-1.0, -1.0), (1.0, 1.0)), lambda x: x, None,
                    MappingMeta(known_fixed_points=(Vector((0.0,)),)))
    with pytest.raises(ContractError, match="dimension mismatch"):
        distance_to_fixed_set(plane, Vector((0.3, 0.4)))


def test_a_distance_to_a_fixed_point_that_overflows_raises_without_a_warning():
    # x - p is not finite, so the distance raises what that Vector raises.
    wide = Mapping("raw", NormedSpace(1, 2.0), Box((-1e308,), (1e308,)), lambda x: x, None,
                   MappingMeta(known_fixed_points=(Vector((1e308,)),)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match=r"^vector has non-finite coordinates: \(-inf,\)$"):
            distance_to_fixed_set(wide, Vector((-1e308,)))


def test_a_box_wider_than_the_largest_float_is_refused_before_sampling():
    # numpy would warn of the overflowing width, then raise a bare OverflowError.
    with pytest.raises(ContractError) as raised:
        build_mapping("wide", NormedSpace(1, 2.0), Box((-1e308,), (1e308,)), apply_rows=lambda X: X)
    assert str(raised.value) == ("cannot sample Box(lows=(-1e+308,), highs=(1e+308,)): "
                                 "a side is wider than the largest float")


def _halving_rows(ns, X):
    if (ns < 1).any():
        raise AssertionError(f"power rows take indices >= 1, got {ns}")
    return np.array([0.5**int(n) for n in ns])[:, None] * X


def test_rows_only_map_derives_bit_equal_scalar_evaluators():
    sp = NormedSpace(2, 2.0)
    m = build_mapping("halve_rows", sp, Ball(Vector((0.0, 0.0)), 1.0), apply=None,
                      apply_rows=lambda X: 0.5 * X, power_rows=_halving_rows)
    assert m.has_power
    rng = np.random.default_rng(3)
    X = m.domain.sample(sp, rng, 40)
    ns = rng.integers(1, 30, size=len(X))
    xs = [Vector.from_array(x) for x in X]
    assert np.array([m.apply(x).coords for x in xs]).tobytes() == m.apply_rows(X).tobytes()
    assert (np.array([m.power(int(n), x).coords for n, x in zip(ns, xs)]).tobytes()
            == m.power_rows(ns, X).tobytes())
    assert all(m.power(0, x).coords == x.coords for x in xs)


def test_a_map_without_evaluators_is_refused():
    sp, box = NormedSpace(1, 2.0), Box((-1.0,), (1.0,))
    with pytest.raises(ContractError, match="mapping 'blank' declares neither apply nor apply_rows"):
        Mapping("blank", sp, box, None, None, MappingMeta())
    with pytest.raises(ContractError, match="mapping 'blank' declares neither apply nor apply_rows"):
        build_mapping("blank", sp, box)


def test_power_rows_without_a_scalar_power_is_a_closed_form():
    sp, box = NormedSpace(1, 2.0), Box((-1.0,), (1.0,))
    halve = lambda x: Vector((0.5 * x.coords[0],))
    m = build_mapping("halve", sp, box, halve, power_rows=_halving_rows)
    assert m.has_power
    assert apply_power(m, 3, Vector((0.5,))).coords == (0.0625,)
    with pytest.raises(ContractError, match="closed-form power of 'wrong' disagrees with"):
        build_mapping("wrong", sp, box, halve, power_rows=lambda ns, X: X)


def test_a_closed_form_given_as_rows_must_be_apply_at_n_1():
    # exp(n log q) agrees with n-fold application to within 1e-10, but at
    # n = 1 it is not q in the last bits, and T^1 is T.
    sp, box, q = NormedSpace(1, 2.0), Box((-1.0,), (1.0,)), 0.123
    with pytest.raises(ContractError, match=r"closed-form power of 'expq' at n = 1 differs from apply at \("):
        build_mapping("expq", sp, box, apply_rows=lambda X: q * X,
                      power_rows=lambda ns, X: np.exp(ns * math.log(q))[:, None] * X)


# Construction's probes, drawn as build_mapping draws them: the self-map
# samples, then the power samples and their indices.
def _build_probes(sp, domain):
    rng = np.random.default_rng(_SELF_MAP_SEED)
    sampled = domain.sample(sp, rng, _SELF_MAP_SAMPLES)
    return sampled, domain.sample(sp, rng, _POWER_SAMPLES), rng.integers(1, _POWER_N_MAX + 1, size=_POWER_SAMPLES)


def _refusal(call):
    with pytest.raises(Exception) as raised:
        call()
    return type(raised.value), str(raised.value)


def test_build_refuses_a_map_that_leaves_the_domain_at_a_sampled_probe():
    sp, box = NormedSpace(1, 2.0), Box((-1.0,), (1.0,))
    x = next(x for (x,) in _build_probes(sp, box)[0].tolist() if x > 0.5)
    assert _refusal(lambda: build_mapping("escape", sp, box, apply_rows=lambda X: np.where(X > 0.5, 2.0 * X, X))) == (
        ContractError, f"mapping 'escape' is not a self-map: T{(x,)} = {(2.0 * x,)} left the domain")


def test_build_refuses_a_map_that_leaves_the_domain_only_at_a_special_point():
    sp = NormedSpace(1, 2.0)
    corner = lambda X: np.where(X == 1.0, 1.5, 0.5 * X)
    assert _refusal(lambda: build_mapping("corner", sp, Box((-1.0,), (1.0,)), apply_rows=corner)) == (
        ContractError, "mapping 'corner' is not a self-map: T(1.0,) = (1.5,) left the domain")
    # The discontinuity's neighbours at +-1e-3 come first, then 0.5 + 1e-6.
    near = 0.5 + 1e-6
    jump = lambda X: np.where(X == near, 2.0, 0.5 * X)
    assert _refusal(lambda: build_mapping("jump", sp, Box((0.0,), (1.0,)), apply_rows=jump,
                                          meta=MappingMeta(discontinuities=(Vector((0.5,)),)))) == (
        ContractError, f"mapping 'jump' is not a self-map: T{(near,)} = (2.0,) left the domain")


def test_build_refuses_a_declared_fixed_point_that_is_not_fixed():
    sp, box = NormedSpace(1, 2.0), Box((-1.0,), (1.0,))
    halve = lambda X: 0.5 * X
    fixed = lambda *points: MappingMeta(known_fixed_points=tuple(Vector((p,)) for p in points))
    assert _refusal(lambda: build_mapping("m", sp, box, apply_rows=halve, meta=fixed(0.0, 4e-10))) == (
        ContractError, "declared fixed point (4e-10,) of 'm' has residual 2.000e-10")
    # A residual of at most 1e-10 is fixed; a point outside the domain is refused
    # though its image lies inside.
    assert build_mapping("m", sp, box, apply_rows=halve, meta=fixed(2e-10, 0.0)).meta == fixed(2e-10, 0.0)
    assert _refusal(lambda: build_mapping("m", sp, box, apply_rows=halve, meta=fixed(0.0, 2.0))) == (
        DomainError, "point (2.0,) lies outside the domain of mapping 'm'")


def test_build_raises_what_an_evaluator_raises_at_one_probe():
    def apply_rows(X):
        if (X == 1.0).any():
            raise ValueError("no image at 1.0")
        return 0.5 * X

    assert _refusal(lambda: build_mapping("m", NormedSpace(1, 2.0), Box((-1.0,), (1.0,)), apply_rows=apply_rows)) == (
        ValueError, "no image at 1.0")


def test_build_refuses_a_closed_form_wrong_at_one_n_or_at_n_1():
    sp, box = NormedSpace(1, 2.0), Box((-1.0,), (1.0,))
    _, xs, ns = _build_probes(sp, box)
    i = ns.tolist().index(7)
    x = Vector((xs[i, 0],))
    wrong = lambda ns, X: np.array([0.5 ** (int(n) - (int(n) == 7)) for n in ns])[:, None] * X
    gap = sp.distance(Vector((0.5**6 * x.coords[0],)), Vector((0.5**7 * x.coords[0],)))
    assert _refusal(lambda: build_mapping("wrong7", sp, box, apply_rows=lambda X: 0.5 * X, power_rows=wrong)) == (
        ContractError, f"closed-form power of 'wrong7' disagrees with 7-fold application at {x.coords} by {gap:.3e}")
    q = 0.123
    sampled = _build_probes(sp, box)[0]
    expq = lambda ns, X: np.exp(ns * math.log(q))[:, None] * X
    differs = expq(np.ones(len(sampled), dtype=int), sampled).view(np.int64) != (q * sampled).view(np.int64)
    first = int(np.argmax(differs[:, 0]))
    assert _refusal(lambda: build_mapping("expq", sp, box, apply_rows=lambda X: q * X, power_rows=expq)) == (
        ContractError, f"closed-form power of 'expq' at n = 1 differs from apply at {tuple(sampled[first].tolist())}")


def test_a_numpy_condition_met_only_at_a_special_point_warns_once_there():
    # 1 / (1 - x) divides by zero at the corner x = 1 alone; arctan takes the
    # inf to pi / 2, inside the box.
    seen = []

    def apply(x):
        seen.append(x.coords)
        return Vector((0.25 * np.arctan(np.float64(1.0) / (1.0 - np.float64(x.coords[0]))),))

    def apply_rows(X):
        return 0.25 * np.arctan(1.0 / (1.0 - X))

    with pytest.warns(RuntimeWarning, match="divide by zero") as record:
        build_mapping("m", NormedSpace(1, 2.0), Box((-1.0,), (1.0,)), apply, apply_rows=apply_rows)
    assert len(record) == 1
    assert seen.count((1.0,)) == 1


def _unique_per_n(fn, ns):
    """The reference factors: ``fn`` once per distinct n, through np.unique."""
    if len(ns) == 1:
        return float(fn(int(ns[0])))
    distinct, index = np.unique(ns, return_inverse=True)
    return np.array([fn(n) for n in distinct.tolist()], dtype=float)[index, None]


_CATALOG_POWERS = [make_example21(0.3), make_linear_contraction(0.9, 2), make_identity(2),
                   *map(make_asymptotically_nonexpansive_example, (2, 3))]
_INDEX_ARRAYS = st.one_of(
    # a range no longer than the rows, a dense table's
    st.integers(1, 30).flatmap(lambda k: st.tuples(st.integers(1, 1000), st.integers(0, k - 1)).flatmap(
        lambda start: st.lists(st.integers(start[0], sum(start)), min_size=k, max_size=k))),
    st.lists(st.integers(1, 10**6), min_size=2, max_size=8),  # sparse and wide, np.unique's
    st.tuples(st.integers(1, 10**9), st.integers(1, 30)).map(lambda nk: [nk[0]] * nk[1]),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(ns=_INDEX_ARRAYS)
@example(ns=[1, 10**9])
@example(ns=[7])
@example(ns=[3, 1, 2, 2, 3])
@example(ns=[5, 5, 5])
@example(ns=[1, 20, 40, 10**6])
def test_per_n_factors_are_the_unique_formulas_bits_from_at_most_one_call_a_row(ns):
    ns = np.array(ns)
    calls = []
    factors = _per_n(lambda n: calls.append(n) or 0.5**n, ns)
    assert len(calls) <= len(ns)
    assert np.asarray(factors).tobytes() == np.asarray(_unique_per_n(lambda n: 0.5**n, ns)).tobytes()
    for m in _CATALOG_POWERS:
        X = m.domain.sample(m.space, np.random.default_rng(len(ns)), len(ns))
        with mock.patch("fixiter.mappings._per_n", _unique_per_n):
            want = m.power_rows(ns, X)
        assert m.power_rows(ns, X).tobytes() == want.tobytes(), m.mapping_id


def test_dropped_rows_become_per_row_adapters():
    rng = np.random.default_rng(4)
    for mapping_id in CATALOG_IDS:
        dim = 1 if mapping_id == "example21" else 3
        params = {"q": 0.4} if mapping_id in ("example21", "contraction") else {}
        m = get_mapping(mapping_id, params, NormedSpace(dim, 2.0))
        adapted = replace(m, apply_rows=None, power_rows=None)
        assert adapted.apply_rows is not m.apply_rows and adapted.power_rows is not m.power_rows
        X = m.domain.sample(m.space, rng, 30)
        ns = rng.integers(1, 30, size=len(X))
        assert adapted.apply_rows(X).tobytes() == m.apply_rows(X).tobytes()
        assert adapted.power_rows(ns, X).tobytes() == m.power_rows(ns, X).tobytes()
        assert m.power_rows(np.ones(len(X), dtype=int), X).tobytes() == m.apply_rows(X).tobytes()


def test_derived_rows_refuse_an_image_of_another_dim():
    # On a plane, images of dims 1 and 3 hold the four numbers of two rows,
    # yet neither is a row: the derived row evaluators raise, so an array
    # pass gives way to the scalar path.
    wrong = Mapping("wrong_dims", NormedSpace(2, 2.0), Box((-1.0, -1.0), (1.0, 1.0)),
                    lambda x: Vector((0.0,) * (1 if x.coords[0] < 0 else 3)), None, MappingMeta())
    X = np.array([[-0.5, 0.0], [0.5, 0.0]])
    with pytest.raises(ContractError, match="^dimension mismatch: vectors have dims 2 and 1$"):
        wrong.apply_rows(X)
    with pytest.raises(ContractError, match="^dimension mismatch: vectors have dims 2 and 3$"):
        wrong.power_rows(np.array([2, 2]), X[::-1])
    assert _screen(lambda: wrong.apply_rows(X)) is None


def test_replace_derives_again_from_a_new_evaluator():
    # A map built from a scalar apply: its rows and its per-row iteration
    # follow the apply that replace puts in, and it still has no closed form.
    sp = NormedSpace(1, 2.0)
    m = build_mapping("halve", sp, Box((-1.0,), (1.0,)), lambda x: Vector((0.5 * x.coords[0],)))
    quartered = replace(m, apply=lambda x: Vector((0.25 * x.coords[0],)))
    X = np.array([[0.8]])
    assert quartered.apply(Vector((0.8,))).coords == (0.2,)
    assert quartered.apply_rows(X).tolist() == [[0.2]]
    assert quartered.power_rows(np.array([2]), X).tolist() == [[0.05]]
    assert not quartered.has_power and not replace(m, mapping_id="again").has_power

    # A catalog map given rows: a new apply_rows gives a new scalar apply,
    # and the power, derived from the unchanged power_rows, is kept.
    c = make_linear_contraction(0.5)
    quartered = replace(c, apply_rows=lambda X: 0.25 * X)
    assert quartered.apply(Vector((0.8,))).coords == (0.2,)
    assert quartered.power is c.power

    # Evaluators kept when their source is cleared stay kept through a later replace.
    adapted = replace(c, apply_rows=None, power_rows=None)
    again = replace(adapted, mapping_id="again")
    assert (again.apply, again.power) == (adapted.apply, adapted.power) == (c.apply, c.power)
    assert again.power_rows(np.array([2]), X).tolist() == [[0.2]]


_EVALUATORS = ("apply", "power", "apply_rows", "power_rows")
# Each derived evaluator's source field, and how the test calls the evaluator.
# power_rows derived is the per-row iteration, which reads apply at n = 1.
_SOURCE_OF = {"apply": "apply_rows", "power": "power_rows", "apply_rows": "apply", "power_rows": "apply"}
_CALL = {
    "apply": lambda m, X: m.apply(Vector.from_array(X[0])),
    "power": lambda m, X: m.power(2, Vector.from_array(X[0])),
    "apply_rows": lambda m, X: m.apply_rows(X),
    "power_rows": lambda m, X: m.power_rows(np.ones(len(X), dtype=int), X),
}
_REPLACE_MAPS = ["scalars", "scalars_with_power"] + [
    f"{mapping_id}-{dim}" for mapping_id, dim in itertools.product(CATALOG_IDS, (1, 2, 3))
    if {"example21": dim == 1, "asymptotic_demo": dim >= 2}.get(mapping_id, True)]


def _map_and_given(key):
    """The map named ``key`` in _REPLACE_MAPS and the evaluators it was built from."""
    if key.startswith("scalars"):
        power = (lambda n, x: Vector((0.5**n * x.coords[0], x.coords[1]))) if key.endswith("power") else None
        m = build_mapping("halve_first", NormedSpace(2, 2.0), Box((-1.0, -1.0), (1.0, 1.0)),
                          lambda x: Vector((0.5 * x.coords[0], x.coords[1])), power)
        return m, {"apply", "power"} if power else {"apply"}
    mapping_id, dim = key.rsplit("-", 1)
    params = dict.fromkeys(CATALOG[mapping_id].parameters, 0.5)
    return get_mapping(mapping_id, params, NormedSpace(int(dim), 2.0)), {"apply_rows", "power_rows"}


@pytest.mark.parametrize("key", _REPLACE_MAPS)
def test_replace_never_leaves_a_stale_form(key):
    # Each evaluator field is set to None, to a fresh given wrapper of itself,
    # or left.  Either both apply forms are cleared, or the rows have the bits
    # of the scalar path, every callable passed in is kept, and an evaluator
    # derived from a field that now holds a passed callable is derived again
    # and calls it.
    m, given = _map_and_given(key)
    X = m.domain.sample(m.space, np.random.default_rng(7), 4)
    ns, xs = np.array([1, 2, 3, 5]), [Vector.from_array(x) for x in X]
    calls = []

    def noting(fn):
        def wrapper(*args):
            calls.append(wrapper)
            return fn(*args)
        return wrapper

    choices = [[{}, {name: None}] + ([{name: noting(getattr(m, name))}] if getattr(m, name) is not None else [])
               for name in _EVALUATORS]
    for combo in itertools.product(*choices):
        changes = {name: fn for change in combo for name, fn in change.items()}
        try:
            r = replace(m, **changes)
        except ContractError as e:  # only when both apply forms are cleared
            assert "declares neither apply nor apply_rows" in str(e), changes
            assert {changes.get("apply", m.apply), changes.get("apply_rows", m.apply_rows)} == {None}, changes
            continue
        passed = {name: fn for name, fn in changes.items() if fn is not None}
        assert all(getattr(r, name) is fn for name, fn in passed.items()), changes
        assert r.apply_rows(X).tobytes() == np.array([r.apply(x).coords for x in xs]).tobytes(), changes
        assert (r.power_rows(ns, X).tobytes()
                == np.array([apply_power(r, int(n), x).coords for n, x in zip(ns, xs)]).tobytes()), changes
        for name, source in _SOURCE_OF.items():
            # one left as it is stays the same object, unless it is derived from a
            # field that now holds a passed callable, or is the per-row iteration
            if name not in changes and getattr(m, name) is not None:
                kept = name in given or name != "power_rows" and source not in passed
                assert (getattr(r, name) is getattr(m, name)) == kept, (name, changes)
            derived = name not in passed and (name in changes or name not in given)
            if derived and source in passed:
                calls.clear()
                _CALL[name](r, X)
                assert passed[source] in calls, (name, changes)


def test_per_row_iteration_boxes_each_row_once(monkeypatch):
    # A map without a closed form iterates each row on Vectors: one boxing
    # per row, then its own apply, which boxes nothing through from_array.
    applied = []

    def halve(x):
        applied.append(x)
        return Vector((0.5 * x.coords[0], x.coords[1]))

    sp = NormedSpace(2, 2.0)
    m = build_mapping("halve_first", sp, Box((-1.0, -1.0), (1.0, 1.0)), halve)
    assert not m.has_power
    X = m.domain.sample(sp, np.random.default_rng(5), 6)
    ns = np.array([1, 4, 2, 7, 3, 1])
    boxed = []
    from_array = Vector.from_array

    def counting(arr):
        boxed.append(arr)
        return from_array(arr)

    monkeypatch.setattr(Vector, "from_array", staticmethod(counting))
    applied.clear()
    got = m.power_rows(ns, X)
    assert len(boxed) == len(ns)
    assert len(applied) == ns.sum()
    assert got[:, 1].tobytes() == X[:, 1].tobytes()
    assert got[:, 0].tolist() == [x * 0.5**n for x, n in zip(X[:, 0].tolist(), ns.tolist())]


def _floor_message(call) -> str:
    with pytest.raises(ScheduleError) as raised:
        call()
    return str(raised.value)


def test_a_schedule_below_its_floor_raises_one_message_everywhere():
    sp, box = NormedSpace(1, 2.0), Box((0.0,), (1.0,))
    halve = lambda x: Vector((0.5 * x.coords[0],))
    m = make_identity()

    k = Schedule.constant(0.5)
    expected = "asymptotic schedule must satisfy k(n) >= 1; k(1) = 0.5"
    assert _floor_message(lambda: build_mapping(
        "m", sp, box, halve,
        meta=MappingMeta(declared_class="asymptotically_nonexpansive", k_schedule=k))) == expected
    assert _floor_message(lambda: near_sequence_from_asymptotic(k, 1.0).at(1)) == expected
    assert _floor_message(lambda: certify_asymptotically_nonexpansive(m, k, 3, 20, 1)) == expected

    a = Schedule.table((0.5, -0.1))
    expected = "near-sequence must be >= 0; a(2) = -0.1"
    assert _floor_message(lambda: build_mapping(
        "m", sp, box, halve,
        meta=MappingMeta(declared_class="nearly_nonexpansive", a_schedule=a))) == expected
    assert _floor_message(lambda: certify_nearly_nonexpansive(m, a, 3, 20, 1)) == expected
