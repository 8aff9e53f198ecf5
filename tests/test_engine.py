"""The array engine against the step-by-step engine on Vectors it replaced.

``run_scheme`` keeps the iterates in one array and computes the step records
as array columns.  A copy of the Vector loop it replaced is kept here as the
reference: over generated schemes, maps, spaces and stopping rules, both must
give the same iterates, records and stop reason, or raise the same error.
The engine tests its points once per block of steps, so runs that stop at
and across block boundaries are held to the same loop.
"""

import math
import tracemalloc
import warnings
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
    build_mapping,
    combine,
    distance_to_fixed_set,
    domain_membership,
    get_mapping,
    make_example21,
    make_linear_contraction,
    run_scheme,
)
from fixiter.mappings import CATALOG
from fixiter.schemes import POWER_SCHEMES, StepRecord, _STAGES, _validate_config

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
    """A catalog map in a generated l_p space: as built, without its row
    evaluators, or without its closed-form power."""
    mapping_id = draw(st.sampled_from(CATALOG_IDS))
    dim = 1 if mapping_id == "example21" else draw(st.integers(1, 3))
    params = {"q": draw(st.floats(0.05, 0.95))} if CATALOG[mapping_id].parameters else {}
    m = get_mapping(mapping_id, params, NormedSpace(dim, draw(st.sampled_from(P_VALUES))))
    return draw(st.sampled_from([m, replace(m, apply_rows=None, power_rows=None),
                                 replace(m, power=None, power_rows=None)]))


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


def _config(scheme, m, seed, alpha, beta, steps, tol, x0=None):
    """A run from x0, or from a point drawn with ``seed``."""
    return RunConfig(
        scheme, m, _start(m, seed) if x0 is None else x0,
        alpha=None if scheme == "picard" else Schedule.constant(alpha),
        beta=Schedule.constant(beta) if scheme == "ishikawa" else None,
        max_steps=steps, stop_tolerance=tol,
    )


ENGINE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
run_args = dict(scheme=st.sampled_from(SCHEMES), seed=st.integers(0, 2**32 - 1),
                alpha=st.floats(0.1, 0.9), beta=st.floats(0.1, 0.9),
                steps=st.integers(1, 120), tol=st.sampled_from(TOLERANCES))


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


@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_record_chain_that_raises_first_raises_in_step_order(scheme):
    # T halves, and refuses a point below 1e-6.  On mann the iterates shrink
    # by 3/4 a step and stay above it for 30 steps, but the records' chain to
    # T^15 x_15 goes below it first.
    def guarded(x):
        if abs(x.coords[0]) < 1e-6:
            raise ContractError(f"refused {x.coords}: below 1e-6")
        return Vector((0.5 * x.coords[0],))

    m = Mapping("guarded", NormedSpace(1, 2.0), Box((-1.0,), (1.0,)), guarded, None, MappingMeta())
    config = _config(scheme, m, None, 0.5, 0.5, 30, -1.0, x0=Vector((0.9,)))
    outcome = _outcome(lambda: run_scheme(config))
    assert outcome[:2] == ("raised", ContractError)
    assert outcome == _outcome(lambda: _scalar_run(config))


def test_a_scalar_closed_form_is_the_map_itself_at_n_1():
    # exp(n log q) is not q at n = 1 in its last bits.  T^1 is T, so every T
    # stage and T column runs apply, as on the same map without a power.
    # A power stage reads the closed form from step 2, so those schemes run
    # one step, where their records match too.
    q, space, box = 0.123, NormedSpace(1, 2.0), Box((-1.0,), (1.0,))
    scale = lambda x: Vector.from_array(q * x.array)
    power = lambda n, x: Vector.from_array(math.exp(n * math.log(q)) * x.array)
    closed, bare = build_mapping("expq", space, box, scale, power), build_mapping("expq", space, box, scale)
    for scheme in SCHEMES:
        steps = 1 if scheme in POWER_SCHEMES else 40
        t, u = (run_scheme(_config(scheme, m, None, 0.5, 0.5, steps, -1.0, x0=Vector((0.7,))))
                for m in (closed, bare))
        assert t.points.tobytes() == u.points.tobytes()
        assert [(r.step_norm, r.residual_T) for r in t.records] == [
            (r.step_norm, r.residual_T) for r in u.records]
        if steps == 1:
            assert t.records == u.records


# Mapping applications of a 120-step run from 0.7 on example21 (q = 0.5)
# without its closed-form power: the update's own (total_applications), and
# the calls of its scalar apply.  The second stage of ishikawa and pm_hybrid,
# a plain T, calls the catalog apply_rows the map kept instead.  The records
# take T x_n and, on a power scheme, T^n x_n from the update's chains,
# continue a T^n x_n from T x_n, and on picard read T^n x_n = x_{2n}; built
# afresh, they would cost n + 1 applications a step.
APPLY_CALLS = {"picard": (120, 240), "mann": (120, 7261), "ishikawa": (240, 7261),
               "modified_mann": (7260, 7380), "pm_hybrid": (240, 7261), "modified_pm_hybrid": (14520, 14640)}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_records_reuse_the_updates_chains_without_a_closed_form_power(scheme):
    powerless = replace(make_example21(0.5), power=None, power_rows=None)
    calls = []
    m = replace(powerless, apply=lambda x: calls.append(x) or powerless.apply(x))
    t = run_scheme(_config(scheme, m, None, 0.5, 0.5, 120, -1.0, x0=Vector((0.7,))))
    charged, applied = APPLY_CALLS[scheme]
    assert (t.steps, t.total_applications) == (120, charged)
    assert len(calls) == applied


def _switching(k, late, rows):
    """x -> 0.9 x on the box [-1, 1], whose closed-form power T^n x is 0.9^n x
    for n < k and late(n, x) from n = k on: a power scheme meets what late
    does at step k first.  Given as rows, or as Vectors."""

    def power(n, a):
        return late(n, a) if n >= k else 0.9**n * a

    space, box = NormedSpace(1, 2.0), Box((-1.0,), (1.0,))
    if rows:
        return Mapping("switching", space, box, None, None, MappingMeta(), apply_rows=lambda X: 0.9 * X,
                       power_rows=lambda ns, X: np.array([power(int(n), x) for n, x in zip(ns, X)]))
    return Mapping("switching", space, box, lambda x: Vector.from_array(0.9 * x.array),
                   lambda n, x: Vector.from_array(power(n, x.array)), MappingMeta())


def _leave(n, a):
    return np.full_like(a, 2.0)


def _refuse(n, a):
    raise ValueError(f"T^{n} refused")


def _switching_config(scheme, k, late, rows, tol=-1.0):
    return _config(scheme, _switching(k, late, rows), None, 0.5, 0.5, k + 40, tol, x0=Vector((0.9,)))


# Steps run in blocks of 16, 32, 64, ... steps, whose points are tested at
# the end of the block: steps 1-16, 17-48, 49-112, and so on.  Step 1100 is
# past step 1024, where the trajectory array first grows.
@pytest.mark.parametrize("rows", [True, False])
@pytest.mark.parametrize("scheme", POWER_SCHEMES)
@pytest.mark.parametrize("k", [16, 17, 30, 48, 49, 1100])
def test_a_domain_exit_at_or_across_a_block_boundary(k, scheme, rows):
    config = _switching_config(scheme, k, _leave, rows)
    t = run_scheme(config)
    assert (t.stop_reason, t.steps) == ("domain_exit", k - 1)
    _assert_same(config)


@pytest.mark.parametrize("rows", [True, False])
@pytest.mark.parametrize("scheme", POWER_SCHEMES)
@pytest.mark.parametrize("k", [16, 48])
def test_a_tolerance_stop_on_the_last_step_of_a_block(k, scheme, rows):
    # T^k x = x, so step k is a step of 0.
    config = _switching_config(scheme, k, lambda n, a: a, rows, tol=0.0)
    t = run_scheme(config)
    assert (t.stop_reason, t.steps) == ("tolerance", k)
    _assert_same(config)


@pytest.mark.parametrize("rows", [True, False])
@pytest.mark.parametrize("scheme", POWER_SCHEMES)
def test_an_error_after_an_exit_in_its_block_does_not_surface(scheme, rows):
    # Step 20 leaves the box; the block of steps 17-48 goes on to T^25, which raises.
    config = _switching_config(scheme, 20, lambda n, a: _refuse(n, a) if n >= 25 else _leave(n, a), rows)
    t = run_scheme(config)
    assert (t.stop_reason, t.steps) == ("domain_exit", 19)
    _assert_same(config)


@pytest.mark.parametrize("rows", [True, False])
@pytest.mark.parametrize("scheme", POWER_SCHEMES)
def test_an_error_before_an_exit_in_its_block_surfaces(scheme, rows):
    # T^20 .. T^24 raise, and from step 25 on the steps would leave the box.
    config = _switching_config(scheme, 20, lambda n, a: _refuse(n, a) if n < 25 else _leave(n, a), rows)
    with pytest.raises(ValueError, match=r"T\^20 refused"):
        run_scheme(config)
    _assert_same(config)


def _counted(m, names):
    """m with the evaluators ``names`` counting their calls into the returned dict."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        fn = getattr(m, name)

        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    return replace(m, **{name: counting(name) for name in names}), calls


# apply_rows and power_rows calls of a 120-step run on example21: one a
# step for each T stage and each T^n stage, and one of each for the records.
EVALUATOR_CALLS = {"picard": (121, 1), "mann": (121, 1), "ishikawa": (241, 1),
                   "modified_mann": (1, 121), "pm_hybrid": (241, 1), "modified_pm_hybrid": (1, 241)}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_evaluator_calls_past_an_early_stop_are_at_most_one_block(scheme):
    powers = sum(power for _, power in _STAGES[scheme])
    stages = (len(_STAGES[scheme]) - powers, powers)  # T stages, T^n stages
    # A run to max_steps calls the evaluators as a run testing every point as
    # it is made does.
    m, calls = _counted(make_example21(0.5), ("apply_rows", "power_rows"))
    t = run_scheme(_config(scheme, m, None, 0.5, 0.5, 120, -1.0, x0=Vector((0.7,))))
    assert t.stop_reason == "max_steps"
    assert (calls["apply_rows"], calls["power_rows"]) == EVALUATOR_CALLS[scheme]
    # An early stop at step n may also run the rest of its block, which holds
    # at most n + 15 steps.
    m, calls = _counted(make_example21(0.5), ("apply_rows", "power_rows"))
    t = run_scheme(_config(scheme, m, None, 0.5, 0.5, 1000, 1e-12, x0=Vector((0.7,))))
    assert t.stop_reason == "tolerance"
    for name, k in zip(("apply_rows", "power_rows"), stages):
        assert t.steps * k + 1 <= calls[name] <= (2 * t.steps + 15) * k + 1
    if scheme in POWER_SCHEMES:  # step 30 leaves: 29 steps, one image of step 30 and the records
        m, calls = _counted(_switching(30, _leave, rows=True), ("apply_rows", "power_rows"))
        t = run_scheme(replace(_switching_config(scheme, 30, _leave, rows=True), mapping=m))
        assert (t.stop_reason, calls["apply_rows"]) == ("domain_exit", 1)
        assert 29 * powers + 2 <= calls["power_rows"] <= (29 * powers + 2) + (30 + 15) * powers


@pytest.mark.parametrize("scheme", SCHEMES)
def test_an_early_stop_without_a_closed_form_power_calls_nothing_past_it(scheme):
    # Its T^n costs n applications, so its blocks are tested step by step: a
    # tolerance stop at step n calls apply as often as a run of n steps does.
    powerless = replace(make_example21(0.5), power=None, power_rows=None)
    m, calls = _counted(powerless, ("apply",))
    t = run_scheme(_config(scheme, m, None, 0.5, 0.5, 1000, 1e-12, x0=Vector((0.7,))))
    assert t.stop_reason == "tolerance"
    stopped = calls["apply"]
    m, calls = _counted(powerless, ("apply",))
    run_scheme(_config(scheme, m, None, 0.5, 0.5, t.steps, -1.0, x0=Vector((0.7,))))
    assert calls["apply"] == stopped


def _overflow(n, a):
    return np.full_like(a, 1e308) * 10.0


def _leave_then_overflow(n, a):
    return _overflow(n, a) if n >= 25 else _leave(n, a)


@pytest.mark.parametrize("rows", [True, False])
@pytest.mark.parametrize("scheme", POWER_SCHEMES)
def test_a_block_warns_only_where_its_checked_run_warns(scheme, rows):
    # Step 20 leaves the box, and T^25 on would overflow in the same block:
    # nothing warns.  T^20 on overflowing warns as the Vector loop does, and
    # raises its error.
    for late in (_leave_then_overflow, _overflow):
        config = _switching_config(scheme, 20, late, rows)
        heard = []
        for engine in (run_scheme, _scalar_run):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _outcome(lambda: engine(config))
            heard.append([(w.category, str(w.message)) for w in caught])
        assert heard[0] == heard[1]
        assert (heard[0] == []) == (late is _leave_then_overflow)
        _assert_same(config)


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
