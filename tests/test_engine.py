"""The array engine against the step-by-step engine on Vectors it replaced.

``run_scheme`` keeps the iterates in one array and computes the step records
as array columns.  A copy of the Vector loop it replaced is kept here as the
reference: over generated schemes, maps, spaces and stopping rules, both must
give the same iterates, records and stop reason, or raise the same error.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixiter import (
    CATALOG_IDS,
    SCHEMES,
    Box,
    ContractError,
    DomainError,
    Mapping,
    MappingMeta,
    NormedSpace,
    RunConfig,
    Schedule,
    Vector,
    apply_power,
    combine,
    distance_to_fixed_set,
    domain_membership,
    get_mapping,
    make_linear_contraction,
    run_scheme,
)
from fixiter.mappings import CATALOG
from fixiter.schemes import StepRecord, _validate_config

# The overflowing maps warn on their way to the error both engines raise.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                        "ignore:p = .* is not uniformly convex:UserWarning")

P_VALUES = (1.0, 1.5, 2.0, 3.0, math.inf)
TOLERANCES = (-1.0, 0.0, 1e-9, 1e-3)


def _scalar_run(config):
    """The Vector engine: (iterates, records, stop_reason), or its error."""
    _validate_config(config)
    m = config.mapping
    space = m.space
    power_cost = (lambda n: 1) if m.has_power else (lambda n: n)
    iterates = [config.x0]
    records = []
    stop_reason = "max_steps"
    for n in range(1, config.max_steps + 1):
        x = iterates[-1]
        try:
            if config.scheme == "picard":
                nxt = apply_power(m, 1, x)
                cost = 1
            elif config.scheme == "mann":
                nxt = combine(config.alpha.at(n), x, apply_power(m, 1, x))
                cost = 1
            elif config.scheme == "ishikawa":
                y = combine(config.beta.at(n), x, apply_power(m, 1, x))
                if not domain_membership(m.domain, space, y):
                    raise DomainError("auxiliary point left the domain")
                nxt = combine(config.alpha.at(n), x, apply_power(m, 1, y))
                cost = 2
            elif config.scheme == "modified_mann":
                nxt = combine(config.alpha.at(n), x, apply_power(m, n, x))
                cost = power_cost(n)
            elif config.scheme == "pm_hybrid":
                y = combine(config.alpha.at(n), x, apply_power(m, 1, x))
                if not domain_membership(m.domain, space, y):
                    raise DomainError("auxiliary point left the domain")
                nxt = apply_power(m, 1, y)
                cost = 2
            else:  # modified_pm_hybrid
                y = combine(config.alpha.at(n), x, apply_power(m, n, x))
                if not domain_membership(m.domain, space, y):
                    raise DomainError("auxiliary point left the domain")
                nxt = apply_power(m, n, y)
                cost = 2 * power_cost(n)
            if not domain_membership(m.domain, space, nxt):
                raise DomainError("iterate left the domain")
        except DomainError:
            stop_reason = "domain_exit"
            break
        records.append(StepRecord(
            n=n,
            step_norm=space.norm(nxt - x),
            residual_T=space.norm(nxt - apply_power(m, 1, nxt)),
            residual_Tn=space.norm(nxt - apply_power(m, n, nxt)),
            dist_to_known_fp=distance_to_fixed_set(m, nxt),
            applications=cost,
        ))
        iterates.append(nxt)
        if records[-1].step_norm <= config.stop_tolerance:
            stop_reason = "tolerance"
            break
    return tuple(iterates), tuple(records), stop_reason


def _outcome(run):
    try:
        return "ok", run()
    except Exception as e:
        return "raised", type(e), str(e)


def _assert_same(config):
    def array_engine():
        t = run_scheme(config)
        assert t.points.shape == (t.steps + 1, config.mapping.space.dim)
        assert not t.points.flags.writeable
        return t.iterates, t.records, t.stop_reason

    assert _outcome(array_engine) == _outcome(lambda: _scalar_run(config))


def _scaling(name, space, factor, rows, power, bound=1.0, known=True, refuse=False):
    """x -> factor * x on the box [-bound, bound]^dim, built without the
    self-map probe so that it may leave the box or overflow.  With ``refuse``
    the evaluators raise DomainError instead of leaving the box."""

    def out(y):
        if refuse and np.any(np.abs(y) > bound):
            raise DomainError("the map refuses to leave its box")
        return y

    return Mapping(
        name, space, Box((-bound,) * space.dim, (bound,) * space.dim),
        apply=lambda x: Vector.from_array(out(factor * x.array)),
        power=(lambda n, x: Vector.from_array(out(factor**n * x.array))) if power else None,
        meta=MappingMeta(known_fixed_points=(Vector((0.0,) * space.dim),) if known else None),
        apply_rows=(lambda X: out(factor * X)) if rows else None,
        power_rows=(lambda ns, X: out(np.array([factor**int(n) for n in ns])[:, None] * X))
        if rows and power else None,
    )


@st.composite
def catalog_maps(draw):
    """A catalog map in a generated l_p space, with or without its row evaluators."""
    mapping_id = draw(st.sampled_from(CATALOG_IDS))
    dim = 1 if mapping_id == "example21" else draw(st.integers(1, 3))
    params = {"q": draw(st.floats(0.05, 0.95))} if CATALOG[mapping_id].parameters else {}
    m = get_mapping(mapping_id, params, NormedSpace(dim, draw(st.sampled_from(P_VALUES))))
    return m if draw(st.booleans()) else replace(m, apply_rows=None, power_rows=None)


@st.composite
def leaving_maps(draw):
    """Scaling maps that leave their box (factor > 1) or refuse to, overflow
    inside a box of side 2e300 so that a point stops being finite, or reflect
    through the origin of a box so wide that differences of points overflow."""
    space = NormedSpace(draw(st.integers(1, 3)), draw(st.sampled_from(P_VALUES)))
    rows, power, known = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    kind = draw(st.sampled_from(["expander", "refuser", "overflow", "reflection"]))
    if kind in ("expander", "refuser"):
        return _scaling(kind, space, draw(st.floats(1.05, 3.0)), rows, power, known=known,
                        refuse=kind == "refuser")
    if kind == "overflow":
        return _scaling(kind, space, draw(st.floats(1e100, 1e200)), rows, power, bound=1e300, known=known)
    # A self-map whose steps x - Tx = 2x overflow near the faces of the box.
    return _scaling(kind, space, -1.0, rows, power, bound=1.5e308, known=known)


def _start(m, seed):
    """A point drawn inside the domain, away from its boundary."""
    rng = np.random.default_rng(seed)
    if isinstance(m.domain, Box):  # halved first, so that a box of side 3e308 does not overflow
        lows, highs = np.array(m.domain.lows) / 2, np.array(m.domain.highs) / 2
        return Vector.from_array(lows + highs + rng.uniform(-0.99, 0.99, m.space.dim) * (highs - lows))
    return Vector.from_array(m.domain.sample(m.space, rng, 1)[0] * 0.99)


def _config(scheme, m, seed, alpha, beta, steps, tol):
    x0 = _start(m, seed)
    return RunConfig(
        scheme, m, x0,
        alpha=None if scheme == "picard" else Schedule.constant(alpha),
        beta=Schedule.constant(beta) if scheme == "ishikawa" else None,
        max_steps=steps, stop_tolerance=tol,
    )


ENGINE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
run_args = dict(scheme=st.sampled_from(SCHEMES), seed=st.integers(0, 2**32 - 1),
                alpha=st.floats(0.1, 0.9), beta=st.floats(0.1, 0.9),
                steps=st.integers(1, 60), tol=st.sampled_from(TOLERANCES))


@ENGINE_SETTINGS
@example(scheme="picard", m=make_linear_contraction(0.5, 2), seed=0, alpha=0.5, beta=0.5, steps=60, tol=1e-9)
@given(m=catalog_maps(), **run_args)
def test_array_engine_equals_vector_engine(scheme, m, seed, alpha, beta, steps, tol):
    _assert_same(_config(scheme, m, seed, alpha, beta, steps, tol))


@ENGINE_SETTINGS
@given(m=leaving_maps(), **run_args)
def test_array_engine_equals_vector_engine_on_exits_and_overflow(scheme, m, seed, alpha, beta, steps, tol):
    _assert_same(_config(scheme, m, seed, alpha, beta, steps, tol))


@pytest.mark.parametrize("rows", [True, False])
def test_domain_exit_and_errors_come_in_step_order(rows):
    space = NormedSpace(1, 2.0)
    doubler = _scaling("doubler", space, 2.0, rows, power=False)
    # T(0.7) leaves at step 1: a domain exit with x0 alone.
    t = run_scheme(RunConfig("picard", doubler, Vector((0.7,)), max_steps=10, stop_tolerance=-1.0))
    assert (t.stop_reason, t.steps, t.iterates) == ("domain_exit", 0, (Vector((0.7,)),))
    # x_1 = 0.6 is accepted, but its residual needs T(0.6) = 1.2 outside the
    # box, which raises before step 2 ever runs.
    with pytest.raises(DomainError, match="left its domain"):
        run_scheme(RunConfig("picard", doubler, Vector((0.3,)), max_steps=10, stop_tolerance=-1.0))
    overflow = _scaling("overflow", space, 1e200, rows, power=False, bound=1e300)
    with pytest.raises(ContractError, match="non-finite coordinates"):
        run_scheme(RunConfig("picard", overflow, Vector((1.0,)), max_steps=10, stop_tolerance=-1.0))
    # Step 2 raises in T^2 x_1 = T(1.2), but step 1's residual T(0.6) = 1.2
    # left the box first.
    def fussy_rows(X):
        if np.any(np.abs(X) > 1.0):
            raise ValueError("evaluated outside the box")
        return 2.0 * X

    m = Mapping("fussy", space, Box((-1.0,), (1.0,)), lambda x: Vector.from_array(fussy_rows(x.array)),
                None, MappingMeta(), apply_rows=fussy_rows if rows else None)
    config = RunConfig("modified_mann", m, Vector((0.4,)), alpha=Schedule.constant(0.5), max_steps=2,
                       stop_tolerance=-1.0)
    for run in (run_scheme, _scalar_run):
        with pytest.raises(DomainError, match="left its domain"):
            run(config)


def test_weights_past_the_validated_horizon_may_leave_the_domain():
    # Past the validated horizon of 10000 steps a weight may leave [0, 1], and
    # the combination (1 - w) x + w Tx with it, though x and Tx stay inside.
    slow = _scaling("slow", NormedSpace(1, 2.0), 1.0 - 1e-6, rows=True, power=True)
    late = Schedule.formula(lambda n: 0.5 if n <= 10_000 else -1e6)
    for scheme in ("mann", "ishikawa"):
        config = RunConfig(scheme, slow, Vector((0.9,)), alpha=late, beta=late if scheme == "ishikawa" else None,
                           max_steps=10_002, stop_tolerance=-1.0)
        t = run_scheme(config)
        assert (t.stop_reason, t.steps) == ("domain_exit", 10_000)
        assert (t.iterates, t.records, t.stop_reason) == _scalar_run(config)


def test_huge_step_budget_with_tolerance_stop_allocates_by_the_steps_taken():
    m = make_linear_contraction(0.5, 3)
    config = RunConfig("picard", m, Vector((0.5, -0.25, 0.125)), max_steps=10**9, stop_tolerance=1e-12)
    tracemalloc.start()
    try:
        t = run_scheme(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (t.stop_reason, t.steps) == ("tolerance", 40)
    assert peak < 2**20


def test_trajectory_equality_and_lazy_iterates():
    m = make_linear_contraction(0.5, 2)
    config = RunConfig("mann", m, Vector((0.5, 0.25)), alpha=Schedule.constant(0.5), max_steps=20,
                       stop_tolerance=-1.0)
    a, b = run_scheme(config), run_scheme(config)
    assert a == b and hash(a) == hash(b)
    assert a != run_scheme(replace(config, max_steps=19))
    assert a != run_scheme(replace(config, x0=Vector((0.5, -0.25))))
    assert a.iterates == tuple(Vector(x) for x in a.points.tolist())
    assert a.iterates[0] == config.x0
    assert a.final == a.iterates[-1]
