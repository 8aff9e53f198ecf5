"""Geometry layer: vectors, l_p norms, domains, modulus of convexity."""

import copy
import dataclasses
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy import stats

from fixiter import (
    Ball,
    Box,
    ContractError,
    InfeasibleError,
    ModulusEstimate,
    TAU_DOM,
    NormedSpace,
    Vector,
    combine,
    make_asymptotically_nonexpansive_example,
    make_linear_contraction,
    modulus_of_convexity_estimate,
)
from fixiter.space import _seed_pairs

P_VALUES = [1.0, 1.5, 2.0, 3.0, math.inf]


def test_norm_hand_values():
    v = Vector((3.0, 4.0))
    assert NormedSpace(2, 2.0).norm(v) == 5.0
    assert NormedSpace(2, 1.0).norm(v) == 7.0
    assert NormedSpace(2, math.inf).norm(v) == 4.0
    assert NormedSpace(2, 3.0).norm(v) == pytest.approx(91.0 ** (1.0 / 3.0), rel=1e-15)
    assert NormedSpace(3, 2.0).norm(Vector((0.0, 0.0, 0.0))) == 0.0
    assert NormedSpace(1, 1.5).norm(Vector((-2.0,))) == 2.0


def test_norm_properties_sampled():
    # triangle inequality, absolute homogeneity, symmetry: 10^4 pairs per p
    rng = np.random.default_rng(42)
    for p in P_VALUES:
        sp = NormedSpace(4, p)
        xs = rng.uniform(-5.0, 5.0, size=(10_000, 4))
        ys = rng.uniform(-5.0, 5.0, size=(10_000, 4))
        cs = rng.uniform(-3.0, 3.0, size=10_000)
        nx = sp.norm_rows(xs)
        ny = sp.norm_rows(ys)
        nsum = sp.norm_rows(xs + ys)
        assert np.all(nsum <= nx + ny + 1e-9)
        scaled = sp.norm_rows(cs[:, None] * xs)
        assert np.allclose(scaled, np.abs(cs) * nx, rtol=1e-12, atol=1e-12)
        assert np.allclose(sp.norm_rows(-xs), nx)
        assert np.all(nx >= 0.0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from([1.0, 1.25, 1.5, 2.0, 3.0, 7.0, math.inf]), dim=st.integers(1, 40),
       rows=st.integers(1, 20), offset=st.integers(0, 3), row_step=st.integers(1, 3),
       col_step=st.integers(1, 3), fortran=st.booleans(),
       scale=st.sampled_from([1e-200, 1e-5, 1.0, 1e5, 1e150]), seed=st.integers(0, 2**32 - 1))
def test_norm_rows_equals_norm_bit_for_bit(p, dim, rows, offset, row_step, col_step, fortran, scale, seed):
    # A row's norm has the same bits alone, as the scalar norm, or anywhere in
    # a stack: rows taken at odd offsets and strides, or from Fortran-ordered
    # memory, at scales where the powers underflow or overflow.
    rng = np.random.default_rng(seed)
    big = rng.standard_normal((offset + rows * row_step, offset + dim * col_step)) * scale
    X = big[offset::row_step, offset::col_step]
    if fortran:
        X = np.asfortranarray(X)
    sp = NormedSpace(dim, p)
    split = int(rng.integers(0, rows + 1))
    with np.errstate(all="ignore"):
        got = sp.norm_rows(X)
        alone = np.array([sp.norm_rows(X[i:i + 1])[0] for i in range(rows)])
        scalar = np.array([sp.norm(Vector.from_array(x)) for x in X])
        halves = np.concatenate((sp.norm_rows(X[:split]), sp.norm_rows(X[split:])))
    assert got.shape == (rows,)
    assert got.tobytes() == alone.tobytes() == scalar.tobytes() == halves.tobytes()


# Magnitudes spread evenly over the exponents from 1e-320 to 1e308, so the
# sum of |x_i|**p underflows for some rows and overflows for others.
spread_floats = st.builds(lambda m, e, sign: sign * m * 10.0 ** e, st.floats(1.0, 9.99),
                          st.integers(-320, 307), st.sampled_from([1.0, -1.0]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(p=st.one_of(st.builds(lambda k: 1.0 + 2.0 ** -k, st.integers(1, 52)),
                   st.sampled_from([3.0, 100.0, 1e4, 1e308])),
       rows=st.lists(st.lists(spread_floats, min_size=1, max_size=4), min_size=1, max_size=4))
@example(p=1e4, rows=[[0.999999, 1e-300], [1.0, 0.5]])
@example(p=1e308, rows=[[1.0000000000000002, 0.25], [5e-324, 5e-324]])
def test_norm_rows_keep_a_row_whose_power_sum_underflows_or_overflows(p, rows):
    # The rows of each dim are stacked in a space of that dim; numpy warns of nothing.
    for dim in {len(r) for r in rows}:
        X = np.array([r for r in rows if len(r) == dim])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            norms = NormedSpace(dim, p).norm_rows(X)
        peaks = np.abs(X).max(axis=1)
        with np.errstate(over="ignore", under="ignore"):
            sums = np.add.reduce(np.abs(X) ** p, axis=1)
        rescaled = ~((sums >= np.finfo(float).tiny) & (sums < math.inf))
        # A row whose sum is a normal float keeps the bits of the unscaled root.
        assert norms[~rescaled].tolist() == [math.pow(s, 1.0 / p) for s in sums[~rescaled].tolist()]
        if dim == 1:
            # A rescaled row is |x| exactly; a kept row is math.pow(|x|**p, 1/p).
            assert np.array_equal(norms[rescaled], peaks[rescaled])
            assert np.allclose(norms, peaks, rtol=1e-12, atol=0.0)
        assert np.all(norms >= peaks * (1.0 - 1e-12))
        # The rounding of a subnormal norm is at most half of 5e-324; the bound
        # itself may overflow to inf.
        with np.errstate(over="ignore"):
            assert np.all(norms <= peaks * dim ** (1.0 / p) * (1.0 + 1e-12) + 5e-324)


def test_norm_rows_agrees_with_numpy():
    rng = np.random.default_rng(5)
    for p in (1.0, 1.25, 1.5, 2.0, 3.0, 7.0, math.inf):
        for dim in (1, 2, 3, 10, 40):
            X = rng.standard_normal((50, dim)) * rng.choice([1e-5, 1.0, 1e5], size=(50, 1))
            ref = np.array([np.linalg.norm(x, ord=p) for x in X])
            np.testing.assert_array_max_ulp(NormedSpace(dim, p).norm_rows(X), ref, maxulp=4)


def test_vector_boxing_errors():
    assert Vector([1, 2.5]).coords == (1.0, 2.5)
    assert Vector.from_array(np.array([0.5, -1.0])).coords == (0.5, -1.0)
    with pytest.raises(ContractError, match="dimension >= 1"):
        Vector(())
    with pytest.raises(ContractError, match=r"non-finite coordinates: \(1.0, inf\)"):
        Vector.from_array(np.array([1.0, np.inf]))


BOXING_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
# Finite floats reach -0.0, subnormals and the largest magnitudes.
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
finite_vectors = arrays(np.float64, st.integers(1, 8), elements=finite_floats)
EXTREMES = np.array([-0.0, 5e-324, -2.2e-308, 1.7e308, -1.7e308])
# Finite coordinates whose float sum overflows: the finiteness test falls back
# from the sum to each term and accepts them.
SUM_OVERFLOWS = [(1.7e308, 1.7e308), (-1.7e308, -1.7e308), (1e308, 1e308)]
# A non-finite term makes the sum non-finite, wherever it sits.
NON_FINITE = [(1.7e308, 1.7e308, math.nan), (math.inf, -math.inf), (math.nan,)]


def _bits(coords) -> bytes:
    return np.array(coords, dtype=np.float64).tobytes()


@pytest.mark.parametrize("box", [Vector, Vector.from_array], ids=["init", "from_array"])
@pytest.mark.parametrize("coords", NON_FINITE, ids=["overflow_then_nan", "inf_minus_inf", "nan"])
def test_every_non_finite_term_is_refused_with_its_message(box, coords):
    with pytest.raises(ContractError) as info:
        box(coords)
    assert str(info.value) == f"vector has non-finite coordinates: {coords}"


def test_vector_keeps_its_dataclass_surface():
    v = Vector(coords=(0.5,))
    assert v == Vector((0.5,)) and Vector((1, 2)).coords == (1.0, 2.0)
    assert [f.name for f in dataclasses.fields(Vector)] == ["coords"]
    assert dataclasses.asdict(v) == {"coords": (0.5,)}
    assert repr(v) == "Vector(coords=(0.5,))"
    assert dataclasses.replace(v, coords=(2.0,)) == Vector((2.0,))
    with pytest.raises(ContractError, match=r"^vector has non-finite coordinates: \(1.0, inf\)$"):
        dataclasses.replace(v, coords=(1.0, math.inf))
    with pytest.raises(dataclasses.FrozenInstanceError):
        v.coords = (1.0,)


def _float_layouts(a):
    """The coordinates of ``a`` as lists, other byte orders and strided views."""
    return [a.copy(), a.tolist(), tuple(a.tolist()), a.astype(">f8"), np.repeat(a, 2)[::2],
            np.stack([a, -a], axis=1)[:, 0], np.concatenate([a, a])[len(a):]]


def _other_dtypes(a):
    """Arrays of other dtypes with coordinates near those of ``a``: float32
    where it holds them finitely, and int64 of the values clipped to its range."""
    with np.errstate(over="ignore"):
        single = a.astype(np.float32)
    ints = np.trunc(np.clip(a, -2.0**63, 2.0**63 - 1024.0)).astype(np.int64)
    return ([single] if np.isfinite(single).all() else []) + [ints, ints.astype(">i8")]


@BOXING_SETTINGS
@given(a=finite_vectors)
@example(a=EXTREMES)
@example(a=np.array(SUM_OVERFLOWS[0]))
@example(a=np.array(SUM_OVERFLOWS[1]))
@example(a=np.array(SUM_OVERFLOWS[2]))
@example(a=np.array([2.0**53 + 1.0, -2.0**63, 3.5e38]))
def test_from_array_boxes_what_the_constructor_boxes(a):
    layouts = _float_layouts(a)
    for x in layouts + _other_dtypes(a):
        v = Vector.from_array(x)
        assert v == Vector(x)
        assert all(type(c) is float for c in v.coords)
        assert _bits(v.coords) == v.array.tobytes() == np.asarray(x, dtype=float).tobytes()
        if any(x is y for y in layouts):
            assert _bits(v.coords) == a.tobytes()
        # The array is the vector's own: read-only for good, and apart from the input.
        arr = v.array
        assert arr.dtype == np.float64 and arr.dtype.isnative and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.setflags(write=True)
        if isinstance(x, np.ndarray):
            assert not np.shares_memory(arr, x)
            before = arr.tobytes()
            x[...] = 7
            assert arr.tobytes() == _bits(v.coords) == before


def _raised(fn, x) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        fn(x)
    return type(info.value), str(info.value)


non_finite_vectors = arrays(np.float64, st.integers(1, 6), elements=st.floats()).filter(
    lambda a: not np.isfinite(a).all())
not_vectors = array_shapes(min_dims=0, max_dims=0) | array_shapes(min_dims=2, max_side=3)


@BOXING_SETTINGS
@given(x=st.one_of(
    non_finite_vectors,
    # Other byte orders, float32 (which keeps inf and nan) and strided views.
    non_finite_vectors.map(lambda a: a.astype(">f8")),
    non_finite_vectors.map(lambda a: a.astype(np.float32)),
    non_finite_vectors.map(lambda a: np.repeat(a, 3)[1::3]),
    arrays(np.float64, not_vectors, elements=finite_floats),
    arrays(np.float32, not_vectors, elements=st.floats(width=32)),
    arrays(np.int64, not_vectors),
    arrays(np.dtype(">f8"), not_vectors, elements=finite_floats),
    st.sampled_from([np.empty(0), np.empty((0, 2)), [], (), np.empty(0, np.int64), np.empty(0, np.float32),
                     np.empty(0, ">f8"), np.arange(6.0)[6:], np.arange(6.0).reshape(2, 3)[:, ::2]]),
    st.lists(st.floats(), min_size=1).filter(lambda c: not all(map(math.isfinite, c))),
    st.lists(st.lists(finite_floats, min_size=2, max_size=2), min_size=1, max_size=3),
))
@example(x=(1.0, math.nan))
@example(x=[-math.inf])
@example(x=NON_FINITE[0])
@example(x=NON_FINITE[1])
@example(x=NON_FINITE[2])
def test_from_array_refuses_what_the_constructor_refuses(x):
    assert _raised(Vector.from_array, x) == _raised(lambda y: Vector(np.asarray(y, dtype=float).tolist()), x)


@BOXING_SETTINGS
@given(coords=st.lists(finite_floats, min_size=1, max_size=8))
@example(coords=EXTREMES.tolist())
@example(coords=list(SUM_OVERFLOWS[0]))
@example(coords=list(SUM_OVERFLOWS[1]))
def test_array_is_read_only_kept_and_bit_equal_to_coords(coords):
    for v in (Vector(coords), Vector.from_array(coords)):
        arr = v.array
        assert v.array is arr and arr.dtype == np.float64 and not arr.flags.writeable
        assert arr.tobytes() == _bits(v.coords) == _bits(coords)
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_from_array_keeps_its_own_array_from_birth():
    # The input array, a row view and a strided column all stay the caller's to write.
    big = np.arange(12.0).reshape(3, 4)
    for a in (np.array([0.25, -1.5]), big[1], big[:, 2]):
        want = a.tolist()
        v = Vector.from_array(a)
        assert "_array" in vars(v) and not np.shares_memory(a, v.array)
        a[:] = 7.0
        assert list(v.coords) == v.array.tolist() == want


@BOXING_SETTINGS
@given(coords=st.lists(finite_floats, min_size=1, max_size=8), from_array=st.booleans())
def test_reading_array_leaves_equality_hash_and_repr_alone(coords, from_array):
    v, w = Vector(coords), Vector.from_array(coords) if from_array else Vector(coords)
    v.array
    assert v == w and w == v and hash(v) == hash(w) and repr(v) == repr(w)


_PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


@pytest.mark.parametrize("duplicate", [
    copy.copy, copy.deepcopy,
    *(lambda v, protocol=protocol: pickle.loads(pickle.dumps(v, protocol)) for protocol in _PROTOCOLS),
], ids=["copy", "deepcopy", *(f"pickle{protocol}" for protocol in _PROTOCOLS)])
def test_copies_of_a_vector_build_their_own_read_only_array(duplicate):
    v = Vector((0.1, -2.5, 1e300))
    v.array
    w = duplicate(v)
    assert w == v and hash(w) == hash(v) and w.coords == v.coords
    assert w.array is not v.array and not w.array.flags.writeable
    assert w.array.tobytes() == v.array.tobytes()
    with pytest.raises(ValueError):
        w.array[0] = 1.0


def test_distance_is_a_metric_pointwise():
    sp = NormedSpace(3, 2.0)
    x = Vector((1.0, -2.0, 0.5))
    y = Vector((0.0, 1.0, 1.0))
    assert sp.distance(x, x) == 0.0
    assert sp.distance(x, y) == sp.distance(y, x)
    assert sp.distance(x, y) > 0.0


def test_vector_arithmetic_and_immutability():
    x = Vector((1.0, 2.0))
    y = Vector((0.5, -1.0))
    assert (x + y).coords == (1.5, 1.0)
    assert (x - y).coords == (0.5, 3.0)
    assert (2.0 * x).coords == (2.0, 4.0)
    assert Vector.from_array(np.array([1.0, 2.0])) == x
    with pytest.raises(ValueError):
        x.array[0] = 9.0  # backing array is read-only
    with pytest.raises(ContractError):
        Vector(())
    with pytest.raises(ContractError):
        Vector((1.0, math.nan))


def test_vectors_of_different_dimensions_do_not_combine():
    # numpy would broadcast the 1-D vector across the 2-D one.
    x, y = Vector((3.0, 4.0)), Vector((1.0,))
    for op in (lambda: x + y, lambda: x - y, lambda: y - x, lambda: combine(0.5, x, y),
               lambda: NormedSpace(2, 2.0).distance(x, y)):
        with pytest.raises(ContractError, match="dimension mismatch: vectors have dims"):
            op()


def test_combine_endpoints_and_midpoint():
    x = Vector((1.0, 0.0))
    y = Vector((0.0, 2.0))
    assert combine(0.0, x, y) == x
    assert combine(1.0, x, y) == y
    assert combine(0.5, x, y).coords == (0.5, 1.0)


def test_space_validation():
    with pytest.raises(ContractError):
        NormedSpace(0, 2.0)
    with pytest.raises(ContractError):
        NormedSpace(2, 0.5)
    assert NormedSpace(2, 1.0).uniformly_convex is False
    assert NormedSpace(2, math.inf).uniformly_convex is False
    for p in (1.5, 2.0, 3.0):
        assert NormedSpace(2, p).uniformly_convex is True


def test_box_membership_clip_diameter():
    sp = NormedSpace(2, 2.0)
    box = Box((-1.0, 0.0), (1.0, 2.0))
    assert box.contains(sp, Vector((0.0, 1.0)))
    assert box.contains(sp, Vector((1.0, 2.0)))  # closed faces
    assert not box.contains(sp, Vector((1.1, 1.0)))
    # membership tolerance admits boundary roundoff
    assert box.contains(sp, Vector((1.0 + 1e-10, 1.0)))
    assert box.clip(sp, Vector((5.0, -5.0))).coords == (1.0, 0.0)
    assert box.diameter(sp) == pytest.approx(math.hypot(2.0, 2.0))
    lo, hi = box.extreme_points()
    assert (lo, hi) == (Vector((-1.0, 0.0)), Vector((1.0, 2.0)))
    with pytest.raises(ContractError):
        Box((1.0,), (0.0,))
    with pytest.raises(ContractError, match="^box needs matching, nonempty lower and upper bounds$"):
        Box((0.0,), (1.0, 1.0))
    with pytest.raises(ContractError, match="^box bounds must be finite$"):
        Box((0.0,), (math.inf,))
    with pytest.raises(ContractError, match="^dimension mismatch: box has dim 2, vector has dim 1$"):
        box.contains(sp, Vector((0.0,)))
    with pytest.raises(ContractError, match="^dimension mismatch: space has dim 2, vector has dim 1$"):
        sp.norm(Vector((0.0,)))


def test_ball_membership_clip_diameter():
    sp = NormedSpace(2, 2.0)
    ball = Ball(Vector((0.0, 0.0)), 1.0)
    assert ball.contains(sp, Vector((0.6, 0.8)))
    assert not ball.contains(sp, Vector((0.8, 0.8)))
    clipped = ball.clip(sp, Vector((3.0, 4.0)))
    assert sp.norm(clipped) == pytest.approx(1.0)
    inside = Vector((0.3, 0.4))
    assert ball.clip(sp, inside) is inside
    assert ball.diameter(sp) == 2.0
    with pytest.raises(ContractError, match="^ball radius must be finite and >= 0, got -1.0$"):
        Ball(Vector((0.0, 0.0)), -1.0)


def _face_rows(box):
    """Rows on each tolerant face of ``box`` and one float step to either side,
    the other coordinates at its middle; and whether each lies inside."""
    middle = [(lo + hi) / 2.0 for lo, hi in zip(box.lows, box.highs)]
    rows, inside = [], []
    for i, (lo, hi) in enumerate(zip(box.lows, box.highs)):
        for face, out in ((lo - TAU_DOM, -math.inf), (hi + TAU_DOM, math.inf)):
            for x, want in ((face, True), (np.nextafter(face, -out), True), (np.nextafter(face, out), False)):
                rows.append(middle[:i] + [x] + middle[i + 1:])
                inside.append(want)
    return np.array(rows), inside


# Boxes of dims 1-4, symmetric or not, one of them flat in a coordinate;
# asymptotic_demo's have the faces +-1/1.2, which no float holds exactly.
FACE_BOXES = [Box((-0.5,), (0.5,)), Box((-1.0, 0.0), (1.0, 2.0)), Box((-0.3, -2.5, 0.1), (0.7, 1e-3, 0.1)),
              *(make_asymptotically_nonexpansive_example(dim).domain for dim in (2, 3, 4))]


def test_inside_rows_equals_contains_at_the_tolerance():
    # Rows on, just inside and just outside the tolerance band of each face.
    for p in P_VALUES:
        sp = NormedSpace(1, p)
        for domain, edge in ((Box((-0.5,), (0.5,)), 0.5), (Ball(Vector((0.0,)), 0.5), 0.5)):
            at = edge + TAU_DOM
            rows = np.array([[at], [np.nextafter(at, 0.0)], [np.nextafter(at, 1.0)], [-at], [0.0]])
            expected = [domain.contains(sp, Vector.from_array(x)) for x in rows]
            assert domain.inside_rows(sp, rows).tolist() == expected == [True, True, False, True, True]
    for box in FACE_BOXES:
        sp = NormedSpace(box.dim, 2.0)
        rows, inside = _face_rows(box)
        expected = [box.contains(sp, Vector.from_array(x)) for x in rows]
        assert box.inside_rows(sp, rows).tolist() == expected == inside


@pytest.mark.filterwarnings("error")
def test_a_point_whose_norm_overflows_lies_outside_a_ball_without_a_warning():
    far = np.array([[1e308, -1e308]])
    for p in P_VALUES:
        sp, ball = NormedSpace(2, p), Ball(Vector((0.0, 0.0)), 1.0)
        assert not ball.contains(sp, Vector.from_array(far[0]))
        assert ball.inside_rows(sp, far).tolist() == [False]


def test_domain_sampling_stays_inside():
    rng = np.random.default_rng(0)
    sp = NormedSpace(3, 1.5)
    for dom in (Box((-1.0,) * 3, (1.0,) * 3), Ball(Vector((0.0,) * 3), 2.0)):
        pts = dom.sample(sp, rng, 500)
        assert pts.shape == (500, 3)
        for row in pts:
            assert dom.contains(sp, Vector.from_array(row))


HILBERT = {0.0: 0.0, 0.5: 1.0 - math.sqrt(1.0 - 0.25 / 4.0),
           1.0: 1.0 - math.sqrt(0.75), 1.5: 1.0 - math.sqrt(1.0 - 2.25 / 4.0),
           2.0: 1.0}


def test_modulus_euclidean_matches_closed_form():
    sp = NormedSpace(2, 2.0)
    for eps, want in HILBERT.items():
        est = modulus_of_convexity_estimate(sp, eps, sample_count=20_000, seed=1)
        # sampled infimum can only sit above the true value; seeds hit it exactly
        assert est.estimate >= want - 1e-12
        assert est.estimate <= want + 1e-2
        assert est.epsilon == eps
    assert modulus_of_convexity_estimate(sp, 0.0, 1000, 0).estimate == 0.0
    assert modulus_of_convexity_estimate(sp, 2.0, 1000, 0).estimate == pytest.approx(1.0)


def test_modulus_independent_random_search_cannot_beat_estimate():
    # brute-force pair sampling is an independent check on the reported infimum
    sp = NormedSpace(2, 2.0)
    eps = 1.0
    est = modulus_of_convexity_estimate(sp, eps, sample_count=50_000, seed=3)
    rng = np.random.default_rng(99)
    raw = rng.uniform(-1.0, 1.0, size=(200_000, 4))
    xs, ys = raw[:, :2], raw[:, 2:]
    keep = (sp.norm_rows(xs) <= 1.0) & (sp.norm_rows(ys) <= 1.0)
    keep &= sp.norm_rows(xs - ys) >= eps
    deficits = 1.0 - sp.norm_rows((xs[keep] + ys[keep]) / 2.0)
    assert keep.sum() > 1000
    assert deficits.min() >= est.estimate - 1e-9


def test_modulus_monotone_in_separation():
    sp = NormedSpace(2, 2.0)
    values = [modulus_of_convexity_estimate(sp, e, 5_000, 0).estimate
              for e in (0.25, 0.5, 1.0, 1.5, 1.9, 2.0)]
    assert values == sorted(values)


def test_modulus_degenerate_for_extreme_p():
    # l_1 and l_inf are not uniformly convex: flat faces give a zero estimate
    for p in (1.0, math.inf):
        sp = NormedSpace(2, p)
        est = modulus_of_convexity_estimate(sp, 1.0, 2_000, 0)
        assert est.estimate == 0.0


def _two_pass_modulus(space, epsilon, sample_count, seed):
    """The estimate in two passes, as it was first written: the seed pairs
    one at a time through the scalar norm, then the admissible samples."""
    rng = np.random.default_rng(seed)
    xs = space.unit_ball_points(rng, sample_count)
    ys = space.unit_ball_points(rng, sample_count)
    admissible = space.norm_rows(xs - ys) >= epsilon
    xs, ys = xs[admissible], ys[admissible]
    best_val, best_pair, evaluated = math.inf, None, 0
    for sx, sy in _seed_pairs(space, epsilon):
        evaluated += 1
        val = 1.0 - space.norm(Vector.from_array(sx + sy)) / 2.0
        if val < best_val:
            best_val, best_pair = val, (sx, sy)
    if len(xs):
        vals = 1.0 - space.norm_rows(xs + ys) / 2.0
        evaluated += len(vals)
        i = int(np.argmin(vals))
        if vals[i] < best_val:
            best_val, best_pair = float(vals[i]), (xs[i], ys[i])
    wx, wy = Vector.from_array(best_pair[0]), Vector.from_array(best_pair[1])
    return ModulusEstimate(float(epsilon), 1.0 - space.norm(wx + wy) / 2.0, evaluated, (wx, wy))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from(P_VALUES), dim=st.integers(min_value=1, max_value=4),
       epsilon=st.one_of(st.sampled_from((0.0, 2.0)), st.floats(min_value=0.0, max_value=2.0)),
       budget=st.integers(min_value=1, max_value=40), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_modulus_equals_the_two_pass_reference(p, dim, epsilon, budget, seed):
    # At epsilon 0 and 2 the seed pairs tie with samples, and the seeds win.
    space = NormedSpace(dim, p)
    assert (modulus_of_convexity_estimate(space, epsilon, budget, seed)
            == _two_pass_modulus(space, epsilon, budget, seed))


def test_modulus_witness_reproduces_estimate():
    sp = NormedSpace(2, 3.0)
    est = modulus_of_convexity_estimate(sp, 1.0, 5_000, 0)
    x, y = est.best_witness
    assert sp.norm(x) <= 1.0 + 1e-9
    assert sp.norm(y) <= 1.0 + 1e-9
    assert sp.distance(x, y) >= 1.0 - 1e-9
    mid = combine(0.5, x, y)
    assert 1.0 - sp.norm(mid) == pytest.approx(est.estimate, abs=1e-12)


def test_modulus_errors():
    sp = NormedSpace(2, 2.0)
    with pytest.raises(InfeasibleError):
        modulus_of_convexity_estimate(sp, 2.5, 1000, 0)
    with pytest.raises(ContractError):
        modulus_of_convexity_estimate(sp, -0.1, 1000, 0)
    with pytest.raises(ContractError):
        modulus_of_convexity_estimate(sp, 1.0, 0, 0)


def test_modulus_deterministic():
    sp = NormedSpace(3, 2.0)
    a = modulus_of_convexity_estimate(sp, 1.2, 4_000, 7)
    b = modulus_of_convexity_estimate(sp, 1.2, 4_000, 7)
    assert a == b


# ---------------------------------------------------------------------------
# unit-ball sampler

SAMPLER_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
# Both regimes: rejection serves dims 1 and 2 for every p, dim 3 for p = 2 and 3,
# dim 4 for p = 3 and p = inf everywhere; the exact sampler serves the rest.
SAMPLER_DIMS = [1, 2, 3, 4, 16, 40]


def _rejection_reference(space, rng, count):
    """The rejection loop every unit-ball stream came from before the exact sampler."""
    kept = []
    total = 0
    while total < count:
        batch = rng.uniform(-1.0, 1.0, size=(4096, space.dim))
        inside = batch[space.norm_rows(batch) <= 1.0]
        kept.append(inside)
        total += len(inside)
    return np.concatenate(kept)[:count]


class _CountingGenerator:
    """Forwards to a numpy Generator and counts every number it hands out."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.drawn = 0

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def draw(*args, **kwargs):
            out = method(*args, **kwargs)
            self.drawn += np.size(out)
            return out

        return draw


def test_ball_acceptance_closed_form():
    assert NormedSpace(2, 1.0).ball_acceptance() == 0.5  # 1 / 2! exactly, so rejection serves it
    assert NormedSpace(3, 2.0).ball_acceptance() == pytest.approx(math.pi / 6.0, rel=1e-14)
    assert NormedSpace(40, math.inf).ball_acceptance() == 1.0
    assert NormedSpace(10**6, 1.0).ball_acceptance() == 0.0  # G(1 + dim) overflows


@SAMPLER_SETTINGS
@given(p=st.sampled_from(P_VALUES), dim=st.sampled_from(SAMPLER_DIMS),
       count=st.integers(min_value=1, max_value=300), seed=st.integers(min_value=0, max_value=2**32 - 1),
       radius=st.floats(min_value=0.1, max_value=10.0))
def test_ball_sampler_properties(p, dim, count, seed, radius):
    sp = NormedSpace(dim, p)
    pts = sp.unit_ball_points(np.random.default_rng(seed), count)
    assert pts.shape == (count, dim)
    again = sp.unit_ball_points(np.random.default_rng(seed), count)
    assert pts.tobytes() == again.tobytes()
    if sp.ball_acceptance() >= 0.5:
        ref = _rejection_reference(sp, np.random.default_rng(seed), count)
        assert pts.tobytes() == ref.tobytes()
    ball = Ball(Vector((1.0,) * dim), radius)
    for row in ball.sample(sp, np.random.default_rng(seed), count):
        assert ball.contains(sp, Vector.from_array(row))


@pytest.mark.parametrize("dim", [1, 2, 16, 40])
@pytest.mark.parametrize("p", P_VALUES)
def test_ball_sampler_is_uniform(p, dim):
    # Uniform in the ball: the radius has CDF r**dim, and each coordinate's sign
    # is a fair coin.  Loose levels; the seed is fixed, so the outcome is too.
    sp = NormedSpace(dim, p)
    pts = sp.unit_ball_points(np.random.default_rng(2005), 4000)
    radial = stats.kstest(sp.norm_rows(pts) ** dim, "uniform")
    assert radial.pvalue > 1e-3, radial
    for column in pts.T:
        signs = stats.binomtest(int(np.sum(column > 0.0)), len(column))
        assert signs.pvalue > 1e-4 / dim, signs


@pytest.mark.parametrize("p,dim", [(1.0, 50), (2.0, 25)])
def test_ball_sampler_draws_grow_linearly_with_dim(p, dim):
    # Rejection from the cube would draw 1000 * dim / acceptance numbers here:
    # over 1e60 at (1, 50) and about 1e11 at (2, 25).
    rng = _CountingGenerator(0)
    pts = NormedSpace(dim, p).unit_ball_points(rng, 1000)
    assert pts.shape == (1000, dim)
    assert rng.drawn <= 3 * 1000 * dim


def test_contraction_builds_at_dim_50():
    # build_mapping draws 1100 probe points from the unit ball.
    assert make_linear_contraction(0.5, 50).space.dim == 50
