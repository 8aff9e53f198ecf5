"""The array engine against the step-by-step engine on Vectors it replaced.

``run_scheme`` keeps the iterates in one array and computes the step records
as array columns.  A copy of the Vector loop it replaced is kept here as the
reference: over generated schemes, maps, spaces and stopping rules, both must
give the same iterates, records and stop reason, or raise the same error.
The engine tests its points once per block of steps, so runs that stop at
and across block boundaries are held to the same loop.
"""

import csv
import gc
import io
import math
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from functools import lru_cache

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
    certify_uniform_lipschitz,
    combine,
    distance_to_fixed_set,
    get_mapping,
    make_asymptotically_nonexpansive_example,
    make_example21,
    make_identity,
    make_linear_contraction,
    run_scheme,
    trajectory_csv_rows,
    write_trajectory_csv,
)
from fixiter import mappings, schemes
from fixiter.mappings import CATALOG, _chain, _iterate
from fixiter.schemes import POWER_SCHEMES, _STAGES, _validate_config

# The overflowing maps warn on their way to the error both engines raise, and
# the dividing map warns of 1/0.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                        "ignore:divide by zero encountered:RuntimeWarning",
                                        "ignore:p = .* is not uniformly convex:UserWarning")

P_VALUES = (1.0, 1.5, 2.0, 3.0, math.inf)
TOLERANCES = (-1.0, 0.0, 1e-9, 1e-3)


def _scalar_run(config):
    """The Vector engine: (iterates, record columns, stop_reason), or its error.

    The columns are those ``_columns`` reads off a trajectory, in its order."""
    _validate_config(config)
    m = config.mapping
    space = m.space
    power_cost = (lambda n: 1) if m.has_power else (lambda n: n)
    iterates = [config.x0]
    columns = ([], [], [], [], [])
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
                if not m.domain.contains(space, y):
                    raise DomainError("auxiliary point left the domain")
                nxt = combine(config.alpha.at(n), x, apply_power(m, 1, y))
                cost = 2
            elif config.scheme == "modified_mann":
                nxt = combine(config.alpha.at(n), x, apply_power(m, n, x))
                cost = power_cost(n)
            elif config.scheme == "pm_hybrid":
                y = combine(config.alpha.at(n), x, apply_power(m, 1, x))
                if not m.domain.contains(space, y):
                    raise DomainError("auxiliary point left the domain")
                nxt = apply_power(m, 1, y)
                cost = 2
            else:  # modified_pm_hybrid
                y = combine(config.alpha.at(n), x, apply_power(m, n, x))
                if not m.domain.contains(space, y):
                    raise DomainError("auxiliary point left the domain")
                nxt = apply_power(m, n, y)
                cost = 2 * power_cost(n)
            if not m.domain.contains(space, nxt):
                raise DomainError("iterate left the domain")
        except DomainError:
            stop_reason = "domain_exit"
            break
        record = (
            space.norm(nxt - x),
            space.norm(nxt - apply_power(m, 1, nxt)),
            space.norm(nxt - apply_power(m, n, nxt)),
            distance_to_fixed_set(m, nxt),
            cost,
        )
        for column, value in zip(columns, record):
            column.append(value)
        iterates.append(nxt)
        if record[0] <= config.stop_tolerance:
            stop_reason = "tolerance"
            break
    return tuple(iterates), tuple(map(tuple, columns)), stop_reason


def _columns(t):
    """A trajectory's record columns: step_norm, residual_T, residual_Tn,
    dist_to_known_fp and applications."""
    return t.step_norm, t.residual_T, t.residual_Tn, t.dist_to_known_fp, t.applications


def _outcome(run):
    try:
        return "ok", run()
    except Exception as e:
        return "raised", type(e), str(e)


def _assert_same(config):
    # Vectors compare with ==, which takes -0.0 for 0.0, so the iterates'
    # bits are compared too.
    def array_engine():
        t = run_scheme(config)
        assert t.points.shape == (t.steps + 1, config.mapping.space.dim)
        assert not t.points.flags.writeable
        return t.iterates, _columns(t), t.stop_reason, t.points.tobytes()

    def vector_engine():
        iterates, columns, stop_reason = _scalar_run(config)
        return iterates, columns, stop_reason, np.array([x.coords for x in iterates]).tobytes()

    assert _outcome(array_engine) == _outcome(vector_engine)


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


def _kick(n, a):
    """Past k = 40: T^40 x = x + 0.25, and T^n x = 0.9^n x again after it."""
    return a + 0.25 if n == 40 else 0.9**n * a


def _flip(n, a):
    """Past k = 40: T^40 x = -x, and T^n x = 0.9^n x again after it."""
    return -a if n == 40 else 0.9**n * a


@st.composite
def catalog_maps(draw):
    """A catalog map in a generated l_p space: as built, without its row
    evaluators, or without its closed-form power."""
    mapping_id = draw(st.sampled_from(CATALOG_IDS))
    dim = 1 if mapping_id == "example21" else draw(st.integers(2 if mapping_id == "asymptotic_demo" else 1, 3))
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


def _weights(w):
    return w if isinstance(w, Schedule) else Schedule.constant(w)


def _config(scheme, m, seed, alpha, beta, steps, tol, x0=None):
    """A run from x0, or from a point drawn with ``seed``; a weight that is
    not a Schedule is a constant one."""
    return RunConfig(
        scheme, m, _start(m, seed) if x0 is None else x0,
        alpha=None if scheme == "picard" else _weights(alpha),
        beta=_weights(beta) if scheme == "ishikawa" else None,
        max_steps=steps, stop_tolerance=tol,
    )


ENGINE_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)
run_args = dict(scheme=st.sampled_from(SCHEMES), seed=st.integers(0, 2**32 - 1),
                alpha=st.floats(0.1, 0.9), beta=st.floats(0.1, 0.9),
                steps=st.integers(1, 120), tol=st.sampled_from(TOLERANCES))


def _repeating(scheme, m, seed=0, alpha=0.5, x0=None, beta=0.5):
    """An example run of 120 steps without a stop tolerance, whose iterates
    come to repeat, so that its later blocks start from a repeated iterate."""
    return example(scheme=scheme, m=m, seed=seed, alpha=alpha, beta=beta, steps=120, tol=-1.0, x0=x0)


ORIGIN = Vector((0.0,))
HARMONIC = Schedule.harmonic_tail(1.0, 1.0)


@ENGINE_SETTINGS
@example(scheme="picard", m=make_linear_contraction(0.5, 2), seed=0, alpha=0.5, beta=0.5, steps=60, tol=1e-9,
         x0=None)
# Every point is fixed; mann's mix (1 - w) x + w x moves the last bit at step 1.
@_repeating("picard", make_identity(2))
@_repeating("mann", make_identity(2), seed=4, alpha=0.3)
# The iterates reach 0 and repeat it: by step 112 on modified_mann, by step 48 on modified_pm_hybrid.
@_repeating("modified_mann", make_example21(0.05), alpha=0.999)
@_repeating("modified_pm_hybrid", make_example21(0.05))
@_repeating("modified_mann", make_linear_contraction(0.05, 2), alpha=0.999)
@_repeating("modified_pm_hybrid", make_linear_contraction(0.05, 2))
# T^n 0 = 0 up to n = 40, so the block of steps 17-48 starts from a repeated 0.
# At step 40 the run leaves the box, or moves on from 0.25 and runs on.
@_repeating("modified_mann", _switching(40, _leave, rows=True), x0=ORIGIN)
@_repeating("modified_pm_hybrid", _switching(40, _leave, rows=False), x0=ORIGIN)
@_repeating("modified_mann", _switching(40, _kick, rows=False), x0=ORIGIN)
@_repeating("modified_pm_hybrid", _switching(40, _kick, rows=True), x0=ORIGIN)
# Or T^40 0 is -0.0, equal to 0 but not a repeat: x_40 = -0.0, and the steps
# after it keep -0.0, where steps from 0 make 0.
@_repeating("modified_pm_hybrid", _switching(40, _flip, rows=True), x0=ORIGIN)
# The identity mixed by the weights 1 / (n + 1) keeps its iterate for some
# steps and moves its last bit at others; mann, pm_hybrid and ishikawa make 2,
# 3 and 4 points a step.  From (0.6, -0.3) the blocks of steps 17-48 and
# 86-120 start from a repeated iterate and move at steps 21 and 89; from
# (0.33, 0.9), ishikawa moves at step 17, the first step of its block.
@_repeating("mann", make_identity(2), alpha=HARMONIC, x0=Vector((0.6, -0.3)))
@_repeating("pm_hybrid", make_identity(2), alpha=HARMONIC, x0=Vector((0.6, -0.3)))
@_repeating("ishikawa", make_identity(2), alpha=HARMONIC, beta=HARMONIC, x0=Vector((0.6, -0.3)))
@_repeating("ishikawa", make_identity(2), alpha=HARMONIC, beta=HARMONIC, x0=Vector((0.33, 0.9)))
# x -> -x from 0 alternates between 0.0 and -0.0, which are not repeats.
@_repeating("picard", _scaling("reflection", NormedSpace(1, 2.0), -1.0, rows=True, power=True), x0=ORIGIN)
@given(m=catalog_maps(), x0=st.none(), **run_args)
def test_array_engine_equals_vector_engine(scheme, m, seed, alpha, beta, steps, tol, x0):
    _assert_same(_config(scheme, m, seed, alpha, beta, steps, tol, x0=x0))


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


def test_records_refuse_a_fixed_point_of_another_dimension():
    # A directly built map checks no dimensions, so its records meet the 1-D
    # fixed point, and refuse it as distance_to_fixed_set does.
    plane = Mapping("plane", NormedSpace(2, 2.0), Box((-1.0, -1.0), (1.0, 1.0)),
                    lambda x: 0.5 * x, None, MappingMeta(known_fixed_points=(Vector((0.5,)),)))
    config = _config("picard", plane, None, 0.5, 0.5, 3, -1.0, x0=Vector((0.9, 0.3)))
    assert _outcome(lambda: run_scheme(config)) == (
        "raised", ContractError, "dimension mismatch: vectors have dims 2 and 1")
    _assert_same(config)


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
        assert (t.step_norm, t.residual_T) == (u.step_norm, u.residual_T)
        if steps == 1:
            assert _columns(t) == _columns(u)


# Mapping applications of a 120-step run from 0.7 on example21 (q = 0.5)
# without its closed-form power: the update's own (total_applications), and
# the calls of its scalar apply.  Every stage of the checked steps calls that
# apply, not the catalog apply_rows the map kept.  The records take T x_n
# and, on a power scheme, T^n x_n from the update's chains, continue a T^n x_n
# from T x_n, and on picard read T^n x_n = x_{2n}: N applications, or
# 1 + N(N - 1)/2 on mann, ishikawa and pm_hybrid.  Built afresh, they would
# cost n + 1 applications a step.  A chain stops at the first image with its
# input's bits, while the charge stays n per T^n: only modified_pm_hybrid's
# iterates reach the fixed point 0 (x_45 = 0), and from there each of its
# chains costs one call, so its 14520 charged applications take 2217 calls.
# The others stay above 0 through step 120 and every chain runs in full.
APPLY_CALLS = {"picard": (120, 240), "mann": (120, 7261), "ishikawa": (240, 7381),
               "modified_mann": (7260, 7380), "pm_hybrid": (240, 7381), "modified_pm_hybrid": (14520, 2217)}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_records_reuse_the_updates_chains_without_a_closed_form_power(scheme):
    powerless = replace(make_example21(0.5), power=None, power_rows=None)
    calls = []
    m = replace(powerless, apply=lambda x: calls.append(x) or powerless.apply(x))
    t = run_scheme(_config(scheme, m, None, 0.5, 0.5, 120, -1.0, x0=Vector((0.7,))))
    charged, applied = APPLY_CALLS[scheme]
    assert (t.steps, t.total_applications) == (120, charged)
    assert len(calls) == applied


def test_a_20000_step_run_stops_its_chains_at_the_fixed_point_within_a_call_budget():
    # From step 45 on, each chain of a run from 0.7 starts at the fixed point
    # 0, so 20000 steps make a few calls a step, where full chains would make
    # about 4e8.  Past 10^5 calls apply raises, so a lost stop fails at once.
    powerless = replace(make_example21(0.5), power=None, power_rows=None)
    calls = 0

    def apply(x):
        nonlocal calls
        calls += 1
        if calls > 10**5:
            raise RuntimeError("more than 10^5 apply calls")
        return powerless.apply(x)

    m = replace(powerless, apply=apply)
    run = lambda steps: run_scheme(_config("modified_pm_hybrid", m, None, 0.5, 0.5, steps, -1.0, x0=Vector((0.7,))))
    long = run(20_000)
    assert (long.steps, calls) == (20_000, 41977)
    assert long.points[:241].tobytes() == run(240).points.tobytes()


# Power-less maps on [-1, 1]^2, each with a start x and the first j with
# T^{j+1} x = T^j x bit for bit (None when no chain of 17 meets one), so a
# chain of k applications makes min(k, j + 1) calls.  halving_swap nears its
# fixed point (0.5, 0.5) without reaching it; clamp reaches 0 at T^3 x, or
# starts there; negate sends -0.0 to 0.0 and back, equal by value at every
# link with other bits; signed_zero sends -0.0 to 0.0, which it fixes.
CHAIN_MAPS = {
    "halving_swap": (lambda a: 0.5 * a[::-1] + 0.25, (0.75, -0.5), None),
    "clamp": (lambda a: np.maximum(a - 0.25, 0.0), (0.6, 0.3), 3),
    "clamp_at_fixed_point": (lambda a: np.maximum(a - 0.25, 0.0), (0.0, 0.0), 0),
    "negate": (lambda a: -a, (-0.0, 0.0), None),
    "signed_zero": (lambda a: 0.5 * a + 0.0, (-0.0, -0.0), 1),
}


def _chain_cases(k):
    """For each of CHAIN_MAPS: its power-less Mapping, which records the bits
    of every input it is applied to in ``calls``, the start x, the plain
    k-fold loop's x, T x, ..., T^k x, and the calls a chain of k makes."""
    box = Box((-1.0, -1.0), (1.0, 1.0))
    for name, (fn, start, j) in CHAIN_MAPS.items():
        calls = []
        apply = lambda x, fn=fn, calls=calls: calls.append(x.array.tobytes()) or Vector.from_array(fn(x.array))
        images = [Vector(start)]
        for _ in range(k):
            images.append(Vector.from_array(fn(images[-1].array)))
        yield (name, Mapping(name, NormedSpace(2, 2.0), box, apply, None, MappingMeta()), calls, images,
               k if j is None else min(k, j + 1))


def _bits(v):
    return v.array.tobytes()


@pytest.mark.parametrize("k", [1, 2, 3, 17])
def test_a_chain_applies_k_times_and_keeps_the_first_and_the_next_to_last_image(k):
    # A chain stops at the first image with its input's bits, and still
    # returns the plain loop's T^k x and its pair (T x, T^{k-1} x).
    for name, m, calls, images, made in _chain_cases(k):
        first, last, z = _chain(m, images[0], k)
        assert calls == [_bits(x) for x in images[:made]], name
        assert _bits(z) == _bits(images[k]) and _bits(first) == _bits(images[1]), name
        # At k = 1, T^{k-1} x is x itself.
        assert _bits(last) == _bits(images[k - 1]), name


@pytest.mark.parametrize("k", [1, 2, 3, 17])
def test_iterate_and_apply_power_stop_a_chain_at_a_fixed_point(k):
    for name, m, calls, images, made in _chain_cases(k):
        for power in (_iterate, apply_power):
            calls.clear()
            assert _bits(power(m, k, images[0])) == _bits(images[k]), name
            assert calls == [_bits(x) for x in images[:made]], name
        # The row form a map without a closed-form power derives iterates each row.
        calls.clear()
        rows = m.power_rows(np.array([k, 1]), np.stack([images[0].array, images[0].array]))
        assert rows.tobytes() == _bits(images[k]) + _bits(images[1]), name
        assert len(calls) == made + 1, name


def test_picards_record_tail_stops_at_a_fixed_point():
    # clamp reaches 0 at x_3, so a 10-step picard run makes 10 update calls,
    # and the records' tail T x_10, ..., T^10 x_10 one, from the fixed point.
    (_, m, calls, x, _), = (case for case in _chain_cases(20) if case[0] == "clamp")
    t = run_scheme(_config("picard", m, None, 0.5, 0.5, 10, -1.0, x0=x[0]))
    assert t.points.tobytes() == b"".join(map(_bits, x[:11]))
    assert t.residual_T == tuple(m.space.norm(x[n] - x[n + 1]) for n in range(1, 11))
    assert t.residual_Tn == tuple(m.space.norm(x[n] - x[2 * n]) for n in range(1, 11))
    assert len(calls) == 11


def _plain_chain(m, x, k, keep=None):
    """``_chain`` as the k-fold loop that never stops early."""
    images = [x]
    for _ in range(k):
        images.append(m.apply(images[-1]))
        if keep is not None:
            keep(images[-1])
    return images[1], images[-2], images[-1]


@st.composite
def fixing_maps(draw):
    """Maps without a closed-form power whose iterates reach their fixed point
    0 exactly: example21; a clamp of each |x_i| by c towards 0, which keeps
    the sign, so a negative coordinate ends at the fixed point -0.0; and
    x -> -q x, which sends -0.0 to 0.0 and 0.0 to -0.0, equal by value but
    never with the same bits."""
    kind = draw(st.sampled_from(["example21", "clamp", "negate"]))
    q = draw(st.floats(0.05, 0.95))
    if kind == "example21":
        return replace(make_example21(q), power=None, power_rows=None)
    dim = draw(st.integers(1, 2))
    c = draw(st.floats(0.01, 0.3))
    fn = (lambda a: np.copysign(np.maximum(np.abs(a) - c, 0.0), a)) if kind == "clamp" else (lambda a: -q * a)
    return Mapping(kind, NormedSpace(dim, draw(st.sampled_from(P_VALUES))), Box((-1.0,) * dim, (1.0,) * dim),
                   lambda x: Vector.from_array(fn(x.array)), None,
                   MappingMeta(known_fixed_points=(Vector((0.0,) * dim),)))


@ENGINE_SETTINGS
@given(m=fixing_maps(), scheme=st.sampled_from(SCHEMES), seed=st.integers(0, 2**32 - 1),
       alpha=st.floats(0.1, 0.9), beta=st.floats(0.1, 0.9), steps=st.integers(1, 80),
       zero=st.sampled_from([None, 0.0, -0.0]), n_max=st.integers(1, 30))
def test_chains_that_stop_at_a_fixed_point_change_no_output(m, scheme, seed, alpha, beta, steps, zero, n_max):
    # The same run and certificate with _chain, which runs every chain of
    # apply calls (apply_power, the derived power_rows, the checked steps and
    # picard's record tail), the plain k-fold loop.
    x0 = None if zero is None else Vector((zero,) * m.space.dim)
    config = _config(scheme, m, seed, alpha, beta, steps, -1.0, x0=x0)

    def outputs():
        t = run_scheme(config)
        return (t.points.tobytes(), t.step_norm, t.residual_T, t.residual_Tn, t.dist_to_known_fp,
                t.applications, t.stop_reason, certify_uniform_lipschitz(m, 1.0, n_max, 20, seed))

    stopping = _outcome(outputs)
    assert stopping[0] == "ok", stopping
    with pytest.MonkeyPatch.context() as mp:
        # schemes binds the same function at import.
        mp.setattr(mappings, "_chain", _plain_chain)
        mp.setattr(schemes, "_chain", _plain_chain)
        assert stopping == _outcome(outputs)


def _vector_scaling(factor):
    """x -> factor * x on [0, 1], given by a scalar apply that builds its
    Vector from a float, without a closed-form power."""
    return Mapping("vector_scaling", NormedSpace(1, 2.0), Box((0.0,), (1.0,)),
                   lambda x: Vector((factor * x.coords[0],)), None, MappingMeta())


# Vector.from_array calls of a 120-step run from 0.7 on x -> 0.5 x: one per
# checked block (steps 1-16, 17-48, 49-112 and 113-120), one per combination
# and one for the records' x_N, and none per image.  Then of a run from 0.3
# on x -> 2 x: the update leaves [0, 1] at an image, which is not mixed.
# Except on modified_mann, T x_N leaves too, so the records give way to the
# step-by-step records, which box each difference and raise DomainError at
# T x_N.
FROM_ARRAY_CALLS = {"picard": (5, 3), "mann": (125, 8), "ishikawa": (245, 5),
                    "modified_mann": (125, 3), "pm_hybrid": (125, 4), "modified_pm_hybrid": (125, 4)}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_checked_steps_box_a_vector_per_block_and_per_combination(scheme, monkeypatch):
    calls, counted = [], []
    from_array = Vector.from_array
    monkeypatch.setattr(Vector, "from_array", staticmethod(lambda a: calls.append(a) or from_array(a)))
    for factor, x0 in ((0.5, 0.7), (2.0, 0.3)):
        config = _config(scheme, _vector_scaling(factor), None, 0.5, 0.5, 120, -1.0, x0=Vector((x0,)))
        calls.clear()
        _outcome(lambda: run_scheme(config))
        counted.append(len(calls))
        _assert_same(config)
    assert tuple(counted) == FROM_ARRAY_CALLS[scheme]


def _traced_peak(config):
    """The tracemalloc peak of a run of ``config``, after one untraced run.

    A full collection first empties CPython's free lists: a tuple the run
    frees into its free list stays traced, and one it takes from there was
    not, so otherwise the peak would hang on what earlier code left there.
    """
    run_scheme(config)
    gc.collect()
    tracemalloc.start()
    try:
        run_scheme(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _peak_per_step(scheme):
    """How much the traced peak of a run of x -> 0.999 x grows a step, from 150 to 300 steps."""
    peaks = [_traced_peak(_config(scheme, _vector_scaling(0.999), None, 0.5, 0.5, steps, -1.0, x0=Vector((0.7,))))
             for steps in (150, 300)]
    return (peaks[1] - peaks[0]) / 150


@pytest.mark.parametrize("scheme", ["mann", "ishikawa", "pm_hybrid"])
def test_a_run_without_a_power_holds_one_image_a_step(scheme):
    # The records read T x_n of each step and continue T^n x_n from it, so a
    # step keeps that one Vector, and each T^n x_n is stacked as it is made.
    # Beyond what a picard run's records hold a step, that is about one such
    # Vector with its array; holding (T x_n, x_n) pairs and a list of every
    # T^n x_n took near three.
    tracemalloc.start()
    held = [Vector((0.999 * i,)) for i in range(150)]
    for v in held:
        v.array
    vector_bytes = tracemalloc.get_traced_memory()[0] / len(held)
    tracemalloc.stop()
    assert _peak_per_step(scheme) - _peak_per_step("picard") < 2 * vector_bytes


# The point y_2 = (1 - w) x_1 + w T^k x_1 that the second stage of step 2
# maps, on x -> 0.5 x from 0.8 with weights 0.5.
SECOND_STAGE_POINT = {"ishikawa": 0.4125, "pm_hybrid": 0.225, "modified_pm_hybrid": 0.1875}


@pytest.mark.parametrize("scheme", SECOND_STAGE_POINT)
def test_a_step_that_fails_after_its_chain_keeps_nothing(scheme):
    # T refuses y_2, so step 2 is a domain exit after its first stage ran its
    # chain.  The records of step 1 apply T to x_1 once, and nothing more.
    y2, calls = SECOND_STAGE_POINT[scheme], []

    def halve(x):
        calls.append(x.coords[0])
        if abs(x.coords[0] - y2) < 1e-9:
            raise DomainError("refused")
        return Vector((0.5 * x.coords[0],))

    m = Mapping("refusing", NormedSpace(1, 2.0), Box((0.0,), (1.0,)), halve, None, MappingMeta())
    config = _config(scheme, m, None, 0.5, 0.5, 10, -1.0, x0=Vector((0.8,)))
    t = run_scheme(config)
    assert (t.stop_reason, t.steps) == ("domain_exit", 1)
    assert calls[-2] == pytest.approx(y2) and calls[-1] == t.points[1, 0]
    assert (t.iterates, _columns(t), t.stop_reason) == _scalar_run(config)


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
    """m with the evaluators ``names`` logging their names into the returned
    list, call by call."""
    calls = []

    def counting(name):
        fn = getattr(m, name)

        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    return replace(m, **{name: counting(name) for name in names}), calls


@pytest.mark.parametrize("scheme", POWER_SCHEMES)
def test_a_block_pass_calls_the_row_evaluators_and_its_checked_run_apply_and_power(scheme):
    # The map gives its evaluators on rows and on points, with the same bits,
    # and T^n leaves the box from n = 10 on, in the middle of the first block.
    # That block runs its 16 steps on rows, and again checked on points from
    # step 1, where T^1 is apply; the records of a map with a closed form
    # run on rows.
    rows, points = _switching(10, _leave, rows=True), _switching(10, _leave, rows=False)
    m, calls = _counted(replace(rows, apply=points.apply, power=points.power),
                        ("apply", "power", "apply_rows", "power_rows"))
    config = replace(_switching_config(scheme, 10, _leave, rows=True), mapping=m)
    t = run_scheme(config)
    assert (t.stop_reason, t.steps) == ("domain_exit", 9)
    powers = len(_STAGES[scheme])  # every stage applies T^n
    checked = ["apply"] * powers + ["power"] * (8 * powers + 1)  # steps 1 .. 9, and T^10 x_9 leaves
    assert calls == ["power_rows"] * 16 * powers + checked + ["apply_rows", "power_rows"]
    assert (t.iterates, _columns(t), t.stop_reason) == _scalar_run(config)


# apply_rows and power_rows calls of a 120-step run on example21: one a step
# for each T stage and each T^n stage until the iterate repeats, then one per
# stage per block, and one of each for the records.  Only modified_pm_hybrid
# repeats: its iterates reach 0 at step 45, so the blocks of steps 49-112 and
# 113-120 make two calls each.
EVALUATOR_CALLS = {"picard": (121, 1), "mann": (121, 1), "ishikawa": (241, 1),
                   "modified_mann": (1, 121), "pm_hybrid": (241, 1), "modified_pm_hybrid": (1, 101)}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_evaluator_calls_past_an_early_stop_are_at_most_one_block(scheme):
    powers = sum(power for _, power in _STAGES[scheme])
    stages = (len(_STAGES[scheme]) - powers, powers)  # T stages, T^n stages
    # A run to max_steps calls the evaluators once per stage per step, as a
    # run testing every point as it is made does, until the iterate repeats;
    # then once per stage per block.
    m, calls = _counted(make_example21(0.5), ("apply_rows", "power_rows"))
    t = run_scheme(_config(scheme, m, None, 0.5, 0.5, 120, -1.0, x0=Vector((0.7,))))
    assert t.stop_reason == "max_steps"
    assert (calls.count("apply_rows"), calls.count("power_rows")) == EVALUATOR_CALLS[scheme]
    # An early stop at step n may also run the rest of its block, which holds
    # at most n + 15 steps.
    m, calls = _counted(make_example21(0.5), ("apply_rows", "power_rows"))
    t = run_scheme(_config(scheme, m, None, 0.5, 0.5, 1000, 1e-12, x0=Vector((0.7,))))
    assert t.stop_reason == "tolerance"
    for name, k in zip(("apply_rows", "power_rows"), stages):
        assert t.steps * k + 1 <= calls.count(name) <= (2 * t.steps + 15) * k + 1
    if scheme in POWER_SCHEMES:  # step 30 leaves: 29 steps, one image of step 30 and the records
        m, calls = _counted(_switching(30, _leave, rows=True), ("apply_rows", "power_rows"))
        t = run_scheme(replace(_switching_config(scheme, 30, _leave, rows=True), mapping=m))
        assert (t.stop_reason, calls.count("apply_rows")) == ("domain_exit", 1)
        assert 29 * powers + 2 <= calls.count("power_rows") <= (29 * powers + 2) + (30 + 15) * powers


@pytest.mark.parametrize("scheme", SCHEMES)
def test_an_early_stop_without_a_closed_form_power_calls_nothing_past_it(scheme):
    # Its T^n costs n applications, so its blocks are tested step by step: a
    # tolerance stop at step n calls apply as often as a run of n steps does.
    powerless = replace(make_example21(0.5), power=None, power_rows=None)
    m, calls = _counted(powerless, ("apply",))
    t = run_scheme(_config(scheme, m, None, 0.5, 0.5, 1000, 1e-12, x0=Vector((0.7,))))
    assert t.stop_reason == "tolerance"
    stopped = calls.count("apply")
    m, calls = _counted(powerless, ("apply",))
    run_scheme(_config(scheme, m, None, 0.5, 0.5, t.steps, -1.0, x0=Vector((0.7,))))
    assert calls.count("apply") == stopped


def test_a_repeated_iterate_block_reads_its_weights_past_the_checked_horizon():
    # The checks read alpha(n) for n <= 10 000.  The identity keeps every
    # iterate at alpha = 0.5, so the block of steps 9224-10100 starts from a
    # repeated iterate; it reads alpha(n) past 10 000 from the schedule and
    # moves at step 10001, where alpha is 0.3.  Steps 1-16 and 10002-10100
    # make one call each, each repeated-iterate block one, and the records
    # one; a block rerun checked would make one a step.
    alpha = Schedule.formula(lambda n: 0.5 if n <= 10_000 else 0.3)
    config = RunConfig("mann", make_identity(2), Vector((0.1, 0.7)), alpha=alpha, max_steps=10_100,
                       stop_tolerance=-1.0)
    m, calls = _counted(config.mapping, ("apply_rows",))
    run_scheme(replace(config, mapping=m))
    assert len(calls) == 134
    _assert_same(config)


def _overflow(n, a):
    return np.full_like(a, 1e308) * 10.0


def _leave_then_overflow(n, a):
    return _overflow(n, a) if n >= 25 else _leave(n, a)


def _dividing(rows):
    """x -> x / (1 + 1/x) on [0, 1], without a closed-form power: finite
    everywhere, but numpy warns of 1/0 at 0.  Given as rows, or as Vectors."""
    space, box = NormedSpace(1, 2.0), Box((0.0,), (1.0,))
    meta = MappingMeta(known_fixed_points=(Vector((0.0,)),))
    if rows:
        return Mapping("dividing", space, box, None, None, meta, apply_rows=lambda X: X / (1.0 + 1.0 / X))
    return Mapping("dividing", space, box, lambda x: Vector.from_array(x.array / (1.0 + 1.0 / x.array)),
                   None, meta)


def _heard(config):
    """The warnings each engine gives on its way through ``config``."""
    heard = []
    for engine in (run_scheme, _scalar_run):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _outcome(lambda: engine(config))
        heard.append([(w.category, str(w.message)) for w in caught])
    return heard


@pytest.mark.parametrize("rows", [True, False])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_a_block_warns_only_where_its_checked_run_warns(scheme, rows):
    # Step 20 leaves the box, and T^25 on would overflow in the same block:
    # nothing warns.  T^20 on overflowing warns as the Vector loop does, and
    # raises its error.
    for late in (_leave_then_overflow, _overflow) if scheme in POWER_SCHEMES else ():
        config = _switching_config(scheme, 20, late, rows)
        heard = _heard(config)
        assert heard[0] == heard[1]
        assert (heard[0] == []) == (late is _leave_then_overflow)
        _assert_same(config)
    # Every image of 0 warns of 1/0, in the update and in the records alike;
    # from 0.3 the chains T^n x underflow to 0 and warn from there.  The
    # engine computes the records after the update, so the order may differ.
    for x0 in (0.0, 0.3):
        config = _config(scheme, _dividing(rows), None, 0.5, 0.5, 20, -1.0, x0=Vector((x0,)))
        heard = _heard(config)
        assert heard[0] and Counter(heard[0]) == Counter(heard[1])
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
        assert (t.iterates, _columns(t), t.stop_reason) == _scalar_run(config)


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
    assert a.__eq__(1) is NotImplemented and a != 1
    assert a.iterates == tuple(Vector(x) for x in a.points.tolist())
    assert a.iterates[0] == config.x0
    assert a.final == a.iterates[-1]


# ---------------------------------------------------------------------------
# row evaluators: one row as a step passes it, many as the records do

@lru_cache(maxsize=None)
def _catalog_map(mapping_id, dim, p, q):
    return get_mapping(mapping_id, {"q": q} if CATALOG[mapping_id].parameters else {}, NormedSpace(dim, p))


@st.composite
def catalog_rows(draw):
    """A catalog map in l_1, l_2 or l_inf, and rows around its domain (past
    example21's jump at 1) with power indices 1 .. 40, repeats included."""
    mapping_id = draw(st.sampled_from(CATALOG_IDS))
    dim = 1 if mapping_id == "example21" else draw(st.integers(2 if mapping_id == "asymptotic_demo" else 1, 3))
    m = _catalog_map(mapping_id, dim, draw(st.sampled_from((1.0, 2.0, math.inf))),
                     draw(st.sampled_from((0.05, 0.5, 0.95))))
    k = draw(st.integers(2, 12))
    coords = st.one_of(st.floats(-1.5, 1.5), st.sampled_from((0.0, -0.0, 1.0, -1.0)))
    X = np.array(draw(st.lists(st.lists(coords, min_size=dim, max_size=dim), min_size=k, max_size=k)))
    ns = np.array(draw(st.lists(st.integers(1, 40), min_size=k, max_size=k)))
    return m, ns, X


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=catalog_rows())
def test_one_row_of_a_catalog_evaluator_has_the_bits_of_its_row_among_many(case):
    # A step evaluates one row, and the record columns and certificates many:
    # both must give every row the same bits.
    m, ns, X = case
    powers, images = m.power_rows(ns, X).view(np.int64), m.apply_rows(X).view(np.int64)
    for i in range(len(X)):
        assert (m.power_rows(ns[i:i + 1], X[i:i + 1]).view(np.int64) == powers[i]).all()
        assert (m.apply_rows(X[i:i + 1]).view(np.int64) == images[i]).all()


def _swap_and_scale(X, lam, mu):
    """asymptotic_demo's T as it was written: scale every coordinate by mu,
    then set the first two from each other.  The reference."""
    out = mu * X
    out[:, 0] = lam * X[:, 1]
    out[:, 1] = mu * X[:, 0]
    return out


@pytest.mark.parametrize("dim", [2, 3, 5])
def test_asymptotic_demo_applies_the_swap_and_scale_it_was_written_as(dim):
    m = make_asymptotically_nonexpansive_example(dim)
    rng = np.random.default_rng(dim)
    X = np.concatenate([rng.uniform(-1.5, 1.5, (200, dim)), rng.standard_normal((200, dim)) * 1e300,
                        np.array([[np.inf, -np.inf] + [np.nan] * (dim - 2), [-0.0] * dim, [5e-324] * dim])])
    want = _swap_and_scale(X, 1.2, 0.5).view(np.int64)
    assert (m.apply_rows(X).view(np.int64) == want).all()
    for x, row in zip(X, want):
        assert (m.apply_rows(x[None]).view(np.int64) == row).all()


# ---------------------------------------------------------------------------
# record columns: the CSV, equality and schedule reads

def _record_rows(traj):
    """The CSV rows built one row at a time from the zipped record columns,
    with one repr per cell, as the writer once built them."""
    fmt = lambda value: "" if value is None else repr(float(value))
    dim = traj.config.mapping.space.dim
    rows = [["n"] + [f"x_{i}" for i in range(dim)] + [
        "step_norm", "residual_T", "residual_Tn", "dist_to_known_fp"]]
    for n, (x, *record) in enumerate(zip(traj.points[1:].tolist(), traj.step_norm, traj.residual_T,
                                         traj.residual_Tn, traj.dist_to_known_fp), 1):
        rows.append([str(n)] + [fmt(c) for c in x] + [fmt(value) for value in record])
    return rows


@st.composite
def csv_runs(draw):
    """A run on a scaling map in a generated space: one that stays in its box,
    one that leaves it at step 1 (no records), one whose records are so
    large that their l_2 norms overflow, so they are computed step by step on
    Vectors, or one of the identity from -0, whose iterates are -0.0 and whose
    records 0.0.  Each kind is drawn with and without a known fixed point, so
    with and without empty distance cells."""
    kind = draw(st.sampled_from(["inside", "exit", "huge", "zeros"]))
    p = 2.0 if kind == "huge" else draw(st.sampled_from([1.0, 2.0, 3.0, math.inf]))
    space = NormedSpace(draw(st.integers(2 if kind == "huge" else 1, 3)), p)
    rows, power, known = draw(st.booleans()), draw(st.booleans()), draw(st.booleans())
    weight = 0.5
    if kind == "huge":
        # x -> -x from the corner of a box of half-width 0.85e308: with weights
        # 0.9, every scheme's x_1 is at least 0.8 x_0 in size, so x_1 - T x_1
        # has finite coordinates of at least 1.36e308 and an l_2 norm past the
        # largest float.
        bound, weight = 0.85e308, 0.9
        m = _scaling(kind, space, -1.0, rows, power, bound=bound, known=known)
        x0 = Vector((bound,) * space.dim)
    elif kind == "zeros":
        m = _scaling(kind, space, 1.0, rows, power, known=known)
        x0 = Vector((-0.0,) * space.dim)
    else:
        factor = draw(st.floats(0.1, 0.9)) if kind == "inside" else 3.0
        m = _scaling(kind, space, factor, rows, power, known=known)
        x0 = Vector.from_array(np.linspace(0.9, 0.5, space.dim))
    scheme = draw(st.sampled_from(SCHEMES))
    steps = draw(st.integers(1, 60))
    return kind, run_scheme(_config(scheme, m, None, weight, weight, steps, -1.0, x0=x0))


@ENGINE_SETTINGS
@given(run=csv_runs())
def test_csv_is_what_csv_writer_writes_of_the_record_rows(run):
    kind, t = run
    if kind == "exit":
        assert (t.steps, t.stop_reason) == (0, "domain_exit")
    if kind == "huge":
        assert math.isinf(t.residual_T[0])
    rows = trajectory_csv_rows(t)
    if kind == "zeros":  # -0.0 and 0.0 are equal floats, written apart
        assert {"-0.0", "0.0"} <= set(rows[1])
    assert rows == _record_rows(t)
    buf, ref = io.StringIO(), io.StringIO()
    write_trajectory_csv(t, buf)
    csv.writer(ref, lineterminator="\n").writerows(rows)
    assert buf.getvalue() == ref.getvalue()


def test_trajectories_are_equal_exactly_when_their_records_are():
    m = make_linear_contraction(0.5, 2)
    config = RunConfig("mann", m, Vector((0.5, 0.25)), alpha=Schedule.constant(0.5), max_steps=20,
                       stop_tolerance=-1.0)
    t = run_scheme(config)
    bumped = lambda column, value: column[:3] + (value,) + column[4:]
    points = t.points.copy()
    points[5, 1] += 1e-3
    others = [
        run_scheme(config), replace(t), replace(t, points=points),
        run_scheme(replace(config, max_steps=19)), run_scheme(replace(config, x0=Vector((0.5, -0.25)))),
        replace(t, stop_reason="tolerance"), replace(t, config=replace(config, stop_tolerance=-2.0)),
        replace(t, step_norm=bumped(t.step_norm, 1.0)), replace(t, residual_T=bumped(t.residual_T, 1.0)),
        replace(t, residual_Tn=bumped(t.residual_Tn, 1.0)),
        replace(t, dist_to_known_fp=bumped(t.dist_to_known_fp, None)),
        replace(t, applications=bumped(t.applications, 2)),
        replace(t, step_norm=bumped(t.step_norm, t.step_norm[3] + 0.0)),
        replace(t, alpha_values=()),
    ]
    old_key = lambda u: (u.config, _columns(u), u.stop_reason)
    for u in others:
        same = old_key(u) == old_key(t) and np.array_equal(u.points, t.points)
        assert (u == t) == same
        if same:
            assert hash(u) == hash(t)
    # the rerun, the copy, the equal float and the alpha values the config's schedule decides
    assert sum(u == t for u in others) == 4
    assert t.alpha_values == (0.5,) * 20


def _counting_schedules(calls, names):
    """A formula schedule of constant value 0.5 for each name, counting its evaluations."""
    return {name: Schedule.formula(lambda n, name=name: calls.update([name]) or 0.5) for name in names}


@pytest.mark.parametrize("max_steps", [3000, 10_050])
@pytest.mark.parametrize("scheme", SCHEMES[1:])
def test_a_run_evaluates_each_schedule_once_per_step(scheme, max_steps):
    # The schedule checks read n <= min(max_steps, 10000), and the steps read
    # those values; a step past that horizon evaluates its own.
    calls = Counter()
    names = ("alpha", "beta") if scheme == "ishikawa" else ("alpha",)
    config = RunConfig(scheme, make_linear_contraction(0.5, 1), Vector((0.5,)),
                       max_steps=max_steps, stop_tolerance=-1.0, **_counting_schedules(calls, names))
    assert run_scheme(config).steps == max_steps
    assert calls == dict.fromkeys(names, max_steps)


def test_a_schedule_that_raises_past_the_horizon_raises_at_its_step():
    def alpha(n):
        if n > 10_000:
            raise ValueError(f"no alpha at n = {n}")
        return 0.5

    m, sizes = make_linear_contraction(0.5, 1), []
    counted = replace(m, apply_rows=lambda X: sizes.append(len(X)) or m.apply_rows(X))
    config = RunConfig("mann", counted, Vector((0.5,)), alpha=Schedule.formula(alpha), max_steps=10_050,
                       stop_tolerance=-1.0)
    with pytest.raises(ValueError, match="no alpha at n = 10001"):
        run_scheme(config)
    assert sizes[-1] == 10_000  # the T x_n column of the 10000 steps before it


@pytest.mark.parametrize("scheme, name", [(scheme, "alpha") for scheme in SCHEMES[1:]] + [("ishikawa", "beta")])
def test_a_schedule_that_raises_past_the_horizon_is_read_once_per_n(scheme, name):
    # The block of steps 10001 on reads w(n) in order and gives way at
    # n = 10005, which raises; its checked re-run reads w(n) for n < 10005,
    # and the error of n = 10005, from the run's reader.
    calls = Counter()

    def w(n):
        calls.update([n])
        if n == 10_005:
            raise ValueError(f"no weight at n = {n}")
        return 0.5

    weights = {"alpha": Schedule.constant(0.5), "beta": Schedule.constant(0.5) if scheme == "ishikawa" else None}
    config = RunConfig(scheme, make_linear_contraction(0.5, 1), Vector((0.5,)), max_steps=10_050,
                       stop_tolerance=-1.0, **{**weights, name: Schedule.formula(w)})
    with pytest.raises(ValueError, match="no weight at n = 10005"):
        run_scheme(config)
    assert sorted(calls) == list(range(1, 10_006)) and set(calls.values()) == {1}


def test_a_block_past_the_horizon_that_gives_way_reads_each_weight_once():
    # The array pass of a block past the 10000-step horizon reads its weights
    # and then raises; its checked run reads the same weights, not alpha(n) again.
    calls, applied = Counter(), []

    def apply_rows(X):
        applied.append(None)
        if len(applied) == 10_500:
            raise RuntimeError("one failed array pass")
        return m.apply_rows(X)

    m = make_linear_contraction(0.999)
    alpha = Schedule.formula(lambda n: calls.update([n]) or 0.5)
    config = RunConfig("mann", replace(m, apply_rows=apply_rows), Vector((0.5,)), alpha=alpha,
                       max_steps=12_000, stop_tolerance=-1.0)
    t = run_scheme(config)
    assert t.steps == 12_000 and len(applied) > 10_500
    assert sorted(calls) == list(range(1, 12_001)) and set(calls.values()) == {1}
    assert t.alpha_values == (0.5,) * 10_000
