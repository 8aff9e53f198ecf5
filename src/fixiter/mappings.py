"""Self-maps of convex domains, iterate powers, and sampled class certification.

A ``Mapping`` bundles a point evaluator with its domain, the space whose norm
measures it, an optional closed-form power ``T^n``, and metadata (declared
class, known fixed points, coefficient schedules, discontinuity points).
A map may also declare row evaluators that apply it to a (k, dim) array of
points at once; they must equal the scalar ones bit for bit.  Construction
samples the map to certify that it is a self-map and that any registered
power agrees with repeated application.

Certification of a mapping class is sampling-based and one-sided: "certified"
means no violation was found at the given budget, never a proof.  Every
candidate is screened as arrays, and the ones that may hold the maximum are
evaluated again through the scalar path, so a witness reproduces its
violation exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .errors import ContractError, DomainError, FixiterError, ParameterError, ScheduleError
from .schedules import Schedule
from .space import Ball, Box, Domain, NormedSpace, Vector

# Absolute slack for all sampled inequality checks.
TAU_CERT = 1e-8

MAPPING_CLASSES = (
    "nonexpansive",
    "asymptotically_nonexpansive",
    "nearly_nonexpansive",
    "uniformly_lipschitz_only",
    "unknown",
)

_SELF_MAP_SEED = 0x5E1F
_SELF_MAP_SAMPLES = 1000
_POWER_SAMPLES = 100
_POWER_N_MAX = 20
_POWER_TOL = 1e-10
_DISCONTINUITY_OFFSETS = (1e-3, 1e-6)
# What a screen may raise on a row it cannot evaluate; the scalar path then
# runs instead and raises the same error for the same candidate.
_SCREEN_ERRORS = (FixiterError, ArithmeticError, ValueError)


@dataclass(frozen=True)
class MappingMeta:
    declared_class: str = "unknown"
    known_fixed_points: tuple[Vector, ...] | None = None
    lipschitz_L: float | None = None
    k_schedule: Schedule | None = None
    a_schedule: Schedule | None = None
    discontinuities: tuple[Vector, ...] = ()
    fixed_set_is_domain: bool = False


@dataclass(frozen=True)
class Mapping:
    mapping_id: str
    space: NormedSpace
    domain: Domain
    apply: Callable[[Vector], Vector]
    power: Callable[[int, Vector], Vector] | None
    meta: MappingMeta
    parameters: tuple[tuple[str, float], ...] = ()
    # Optional row evaluators on (k, dim) arrays: apply_rows(X), and
    # power_rows(ns, X) with one power index ns[i] >= 1 per row.
    apply_rows: Callable[[np.ndarray], np.ndarray] | None = None
    power_rows: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    @property
    def has_power(self) -> bool:
        return self.power is not None

    @property
    def has_fixed_set(self) -> bool:
        """Whether a fixed-point set is declared, so distances to it are defined."""
        return self.meta.fixed_set_is_domain or bool(self.meta.known_fixed_points)


def apply_power(m: Mapping, n: int, x: Vector) -> Vector:
    """The n-th iterate T^n x; n = 0 returns x unchanged."""
    if n < 0:
        raise ContractError(f"power index must be >= 0, got {n}")
    if not m.domain.contains(m.space, x):
        raise DomainError(f"point {x.coords} lies outside the domain of mapping '{m.mapping_id}'")
    if n == 0:
        return x
    result = _iterate(m, n, x)
    if not m.domain.contains(m.space, result):
        raise DomainError(
            f"mapping '{m.mapping_id}' left its domain: T^{n} {x.coords} = {result.coords}"
        )
    return result


def _iterate(m: Mapping, n: int, x: Vector) -> Vector:
    """T^n x for n >= 1 without domain checks: the closed-form power, or n applications."""
    if m.power is not None:
        return m.power(n, x)
    for _ in range(n):
        x = m.apply(x)
    return x


def fixed_point_residual(m: Mapping, x: Vector) -> float:
    """||x - Tx||; vanishes (up to rounding) exactly at fixed points."""
    return m.space.norm(x - apply_power(m, 1, x))


def distance_to_fixed_set(m: Mapping, x: Vector) -> Optional[float]:
    """Distance to the known fixed-point set, or None when no set is declared."""
    if m.meta.fixed_set_is_domain:
        return 0.0
    if m.meta.known_fixed_points:
        return min(m.space.distance(x, p) for p in m.meta.known_fixed_points)
    return None


def near_schedule_for(m: Mapping) -> Optional[Schedule]:
    """The mapping's near-sequence a_n: declared directly, derived from k_n
    and the domain diameter for maps declared via an asymptotic schedule, or
    identically zero for maps declared nonexpansive."""
    if m.meta.a_schedule is not None:
        return m.meta.a_schedule
    if m.meta.k_schedule is not None:
        return near_sequence_from_asymptotic(m.meta.k_schedule, m.domain.diameter(m.space))
    if m.meta.declared_class == "nonexpansive":
        return Schedule.constant(0.0)
    return None


def near_sequence_from_asymptotic(k: Schedule, diam: float) -> Schedule:
    """Turn an asymptotic schedule k_n >= 1 into the near-sequence (k_n - 1) * diam."""
    if diam < 0.0:
        raise ContractError(f"diameter must be >= 0, got {diam}")

    def fn(n: int) -> float:
        kn = k.at(n)
        if kn < 1.0:
            raise ScheduleError(f"asymptotic schedule must satisfy k(n) >= 1; k({n}) = {kn}")
        return (kn - 1.0) * diam

    return Schedule.formula(fn, label=f"near_from_{k.kind}")


# ---------------------------------------------------------------------------
# row evaluation

def _per_n(fn: Callable[[int], object], ns: np.ndarray) -> np.ndarray:
    """``fn(n)`` for each entry of ``ns``, evaluated once per distinct n in Python floats."""
    if len(ns) == 1:  # one row per step in the scheme engine, where np.unique costs most
        return np.array([fn(int(ns[0]))], dtype=float)
    distinct, index = np.unique(ns, return_inverse=True)
    return np.array([fn(int(n)) for n in distinct], dtype=float)[index]


def _stack(vectors: Iterable[Vector], shape: tuple[int, ...]) -> np.ndarray:
    return np.array([v.coords for v in vectors], dtype=float).reshape(shape)


def _apply_rows(m: Mapping, X: np.ndarray) -> np.ndarray:
    """T applied to each row of X: by the map's row evaluator, else row by row."""
    if m.apply_rows is not None:
        return m.apply_rows(X)
    return _stack((m.apply(Vector.from_array(x)) for x in X), X.shape)


def _power_rows(m: Mapping, ns: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Row i is T^ns[i] X[i], ns >= 1, as ``apply_power`` computes it but without
    its domain checks: by the map's row evaluator, else row by row."""
    if m.power_rows is not None:
        return m.power_rows(ns, X)
    return _stack((_iterate(m, int(n), Vector.from_array(x)) for n, x in zip(ns, X)), X.shape)


def _screen(fn: Callable[[], object]) -> object:
    """``fn()`` with numpy's warnings off, or None when it raises on some row."""
    try:
        with np.errstate(all="ignore"):
            return fn()
    except _SCREEN_ERRORS:
        return None


# ---------------------------------------------------------------------------
# construction


def _discontinuity_neighbors(space: NormedSpace, domain: Domain, d: Vector) -> list[Vector]:
    """Points pushed tiny offsets away from the discontinuity ``d`` along each
    axis, clipped into the domain; offsets the clip undoes are dropped."""
    neighbors = []
    for off, axis, sign in itertools.product(_DISCONTINUITY_OFFSETS, range(space.dim), (1.0, -1.0)):
        shifted = d.array.copy()
        shifted[axis] += sign * off
        neighbor = domain.clip(space, Vector.from_array(shifted))
        if neighbor.coords != d.coords:
            neighbors.append(neighbor)
    return neighbors


def special_points(space: NormedSpace, domain: Domain, meta: MappingMeta) -> list[Vector]:
    """Deterministic probe points: domain extremes, declared discontinuities,
    and points pushed tiny offsets away from each discontinuity.  Violations of
    the mapping-class inequalities concentrate there."""
    points: list[Vector] = list(domain.extreme_points())
    for d in meta.discontinuities:
        points.append(d)
        points.extend(_discontinuity_neighbors(space, domain, d))
    if meta.known_fixed_points:
        points.extend(meta.known_fixed_points)
    return points


def build_mapping(
    mapping_id: str,
    space: NormedSpace,
    domain: Domain,
    apply: Callable[[Vector], Vector],
    power: Callable[[int, Vector], Vector] | None = None,
    meta: MappingMeta = MappingMeta(),
    parameters: dict | None = None,
    *,
    apply_rows: Callable[[np.ndarray], np.ndarray] | None = None,
    power_rows: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> Mapping:
    """Assemble a Mapping and certify its construction invariants by sampling.

    ``apply_rows(X)`` and ``power_rows(ns, X)`` optionally evaluate the map on
    a (k, dim) array, one point per row and one power index ns[i] >= 1 per
    row; they must equal ``apply`` and ``power`` bit for bit.  Without them,
    every row evaluation loops over the scalar evaluators.

    Checks, each with a fixed internal seed so construction is reproducible:
    * the evaluator maps the domain into itself (uniform samples plus the
      deterministic probe points);
    * a registered closed-form power agrees with repeated application to
      within 1e-10, and returns its argument unchanged at n = 0;
    * declared metadata is coherent (schedules present and admissible for the
      declared class, listed fixed points actually fixed).
    Sampled probes are screened by the row evaluators; a probe the screen
    cannot clear is checked again through ``apply`` and ``power``.
    """
    if domain.dim != space.dim:
        raise ContractError(f"domain dim {domain.dim} != space dim {space.dim}")
    if meta.declared_class not in MAPPING_CLASSES:
        raise ContractError(f"unknown mapping class '{meta.declared_class}'")
    if power_rows is not None and power is None:
        raise ContractError(f"mapping '{mapping_id}' declares power_rows without a closed-form power")
    _check_meta(space, meta)
    m = Mapping(
        mapping_id=mapping_id,
        space=space,
        domain=domain,
        apply=apply,
        power=power,
        meta=meta,
        parameters=tuple(sorted((parameters or {}).items())),
        apply_rows=apply_rows,
        power_rows=power_rows,
    )

    rng = np.random.default_rng(_SELF_MAP_SEED)
    sampled = domain.sample(space, rng, _SELF_MAP_SAMPLES)
    inside = _screen(lambda: domain.inside_rows(space, _apply_rows(m, sampled)))
    doubtful = sampled if inside is None else sampled[~inside]
    for x in [Vector.from_array(row) for row in doubtful] + special_points(space, domain, meta):
        fx = apply(x)
        if not domain.contains(space, fx):
            raise ContractError(
                f"mapping '{mapping_id}' is not a self-map: T{x.coords} = {fx.coords} left the domain"
            )

    if power is not None:
        xs = domain.sample(space, rng, _POWER_SAMPLES)
        ns = rng.integers(1, _POWER_N_MAX + 1, size=_POWER_SAMPLES)

        def agreeing() -> np.ndarray:
            iterated = xs.copy()
            for step in range(1, int(ns.max()) + 1):
                live = ns >= step
                iterated[live] = _apply_rows(m, iterated[live])
            return space.norm_rows(_power_rows(m, ns, xs) - iterated) <= _POWER_TOL

        agree = _screen(agreeing)
        for row, n in zip(xs, ns) if agree is None else zip(xs[~agree], ns[~agree]):
            x = iterated = Vector.from_array(row)
            for _ in range(int(n)):
                iterated = apply(iterated)
            gap = space.distance(power(int(n), x), iterated)
            if gap > _POWER_TOL:
                raise ContractError(
                    f"closed-form power of '{mapping_id}' disagrees with {n}-fold application "
                    f"at {x.coords} by {gap:.3e}"
                )
        for x in map(Vector.from_array, xs[:5]):
            if power(0, x).coords != x.coords:
                raise ContractError(f"power(0, x) must return x exactly for '{mapping_id}'")

    if meta.known_fixed_points:
        for p in meta.known_fixed_points:
            res = fixed_point_residual(m, p)
            if res > 1e-10:
                raise ContractError(
                    f"declared fixed point {p.coords} of '{mapping_id}' has residual {res:.3e}"
                )
    return m


def _check_meta(space: NormedSpace, meta: MappingMeta) -> None:
    if meta.declared_class == "asymptotically_nonexpansive":
        if meta.k_schedule is None:
            raise ContractError("asymptotically nonexpansive maps must declare a k schedule")
        for n in range(1, 101):
            if meta.k_schedule.at(n) < 1.0:
                raise ScheduleError(f"k({n}) = {meta.k_schedule.at(n)} < 1")
        if meta.k_schedule.at(10_000) > 1.0 + 1e-2:
            raise ScheduleError("k schedule does not approach 1")
    if meta.declared_class == "nearly_nonexpansive":
        if meta.a_schedule is None:
            raise ContractError("nearly nonexpansive maps must declare an a schedule")
        for n in range(1, 101):
            if meta.a_schedule.at(n) < 0.0:
                raise ScheduleError(f"a({n}) = {meta.a_schedule.at(n)} < 0")
        if meta.a_schedule.at(10_000) > 1e-2:
            raise ScheduleError("a schedule does not approach 0")
    if meta.lipschitz_L is not None and meta.lipschitz_L <= 0.0:
        raise ContractError(f"Lipschitz constant must be > 0, got {meta.lipschitz_L}")
    for p in meta.known_fixed_points or ():
        if p.dim != space.dim:
            raise ContractError(f"fixed point {p.coords} has wrong dimension")


# ---------------------------------------------------------------------------
# certificates

@dataclass(frozen=True)
class Witness:
    x: Vector
    y: Vector | None = None
    n: int | None = None


@dataclass(frozen=True)
class Certificate:
    """Outcome of a sampled inequality check.

    ``max_violation`` is the largest observed excess over the checked bound
    (negative when the bound held with room to spare); the verdict is
    ``refuted`` exactly when it exceeds TAU_CERT, and ``inconclusive`` when the
    requested budget was below 10 samples.
    """

    property_name: str
    n_range: tuple[int, int]
    sample_count: int
    max_violation: float
    witness: Witness
    verdict: str

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def _certify(
    property_name: str,
    n_range: tuple[int, int],
    count: int,
    candidate: Callable[[int], Witness],
    violation: Callable[[Witness], float],
    screen: Callable[[], tuple[np.ndarray, np.ndarray] | None],
    requested: int,
) -> Certificate:
    """The certificate kernel every certifier shares: screen, then confirm.

    ``screen()`` evaluates all ``count`` candidates as arrays and returns a
    lower and an upper bound on each one's violation (equal where the array
    operations are the scalar ones), or None when some row cannot be
    evaluated (it lies outside the domain).  The
    candidates that may be the first strict maximum are then evaluated by
    ``violation(candidate(i))`` in candidate order, and the first strict
    maximum is the witness, so the result is exactly that of evaluating every
    candidate.  When the screen fails, or a bound is not finite, every
    candidate is evaluated that way, which raises any error for the same
    candidate as if the screen had never run.  The verdict judges the maximum
    against TAU_CERT unless fewer than 10 samples were requested.
    """
    bounds = _screen(screen)
    order: Iterable[int] = range(count)
    if bounds is not None:
        lower, upper = bounds
        if np.isfinite(lower).all() and np.isfinite(upper).all():
            # With L the largest lower bound, first attained at row `first`, a
            # candidate whose upper bound is below L, or is L after `first`,
            # cannot be the first strict maximum.
            first = int(np.argmax(lower))
            keep = upper > lower[first]
            keep[: first + 1] |= upper[: first + 1] == lower[first]
            order = np.flatnonzero(keep).tolist()
    best = -math.inf
    best_witness: Witness | None = None
    for i in order:
        w = candidate(i)
        v = violation(w)
        if v > best:
            best, best_witness = v, w
    assert best_witness is not None
    if requested < 10:
        verdict = "inconclusive"
    else:
        verdict = "refuted" if best > TAU_CERT else "certified"
    return Certificate(property_name, n_range, count, best, best_witness, verdict)


def _certify_pairs(
    property_name: str,
    m: Mapping,
    violation: Callable[[int, Vector, Vector], float],
    terms: Callable[[int], tuple[float, float]],
    n_max: int,
    sample_count: int,
    seed: int,
) -> Certificate:
    """Check ||T^n x - T^n y|| <= c_n ||x - y|| + b_n, where (c_n, b_n) =
    ``terms(n)`` and ``violation`` is the scalar excess, on the domain extremes
    and each (discontinuity neighbour, discontinuity) pair at every n, then on
    seeded random (n, x, y) triples."""
    if n_max < 1:
        raise ContractError(f"n_max must be >= 1, got {n_max}")
    if sample_count < 1:
        raise ContractError(f"sample_count must be >= 1, got {sample_count}")
    pairs = [m.domain.extreme_points()] + [
        (neighbor, d) for d in m.meta.discontinuities
        for neighbor in _discontinuity_neighbors(m.space, m.domain, d)
    ]
    rng = np.random.default_rng(seed)
    ns = rng.integers(1, n_max + 1, size=sample_count)
    xs = m.domain.sample(m.space, rng, sample_count)
    ys = m.domain.sample(m.space, rng, sample_count)
    special = len(pairs) * n_max

    def candidate(i: int) -> Witness:
        if i < special:
            x, y = pairs[i // n_max]
            return Witness(x=x, y=y, n=i % n_max + 1)
        i -= special
        return Witness(x=Vector.from_array(xs[i]), y=Vector.from_array(ys[i]), n=int(ns[i]))

    def screen():
        N = np.concatenate([np.tile(np.arange(1, n_max + 1), len(pairs)), ns])
        X = np.concatenate([np.repeat([x.coords for x, _ in pairs], n_max, axis=0), xs])
        Y = np.concatenate([np.repeat([y.coords for _, y in pairs], n_max, axis=0), ys])
        TX, TY = _power_rows(m, N, X), _power_rows(m, N, Y)
        if not all(m.domain.inside_rows(m.space, R).all() for R in (X, Y, TX, TY)):
            return None
        c, b = _per_n(terms, N).T
        # The scalar violations' operations on the same values, so exact.
        v = m.space.norm_rows(TX - TY) - c * m.space.norm_rows(X - Y) - b
        return v, v

    return _certify(property_name, (1, n_max), special + sample_count, candidate,
                    lambda w: violation(w.n, w.x, w.y), screen, sample_count)


def nearly_nonexpansive_violation(m: Mapping, a: Schedule, n: int, x: Vector, y: Vector) -> float:
    """Excess of ||T^n x - T^n y|| over ||x - y|| + a_n."""
    lhs = m.space.norm(apply_power(m, n, x) - apply_power(m, n, y))
    return lhs - m.space.distance(x, y) - a.at(n)


def uniform_lipschitz_violation(m: Mapping, L: float, n: int, x: Vector, y: Vector) -> float:
    """Excess of ||T^n x - T^n y|| over L * ||x - y||."""
    lhs = m.space.norm(apply_power(m, n, x) - apply_power(m, n, y))
    return lhs - L * m.space.distance(x, y)


def asymptotically_nonexpansive_violation(m: Mapping, k: Schedule, n: int, x: Vector, y: Vector) -> float:
    """Excess of ||T^n x - T^n y|| over k_n * ||x - y||."""
    lhs = m.space.norm(apply_power(m, n, x) - apply_power(m, n, y))
    return lhs - k.at(n) * m.space.distance(x, y)


def certify_nearly_nonexpansive(
    m: Mapping, a: Schedule, n_max: int, sample_count: int, seed: int
) -> Certificate:
    """Sampled check of ||T^n x - T^n y|| <= ||x - y|| + a_n for 1 <= n <= n_max."""
    for n in range(1, n_max + 1):
        if a.at(n) < 0.0:
            raise ScheduleError(f"near-sequence must be >= 0; a({n}) = {a.at(n)}")
    return _certify_pairs(
        "nearly_nonexpansive", m, lambda n, x, y: nearly_nonexpansive_violation(m, a, n, x, y),
        lambda n: (1.0, a.at(n)), n_max, sample_count, seed,
    )


def certify_uniform_lipschitz(
    m: Mapping, L: float, n_max: int, sample_count: int, seed: int
) -> Certificate:
    """Sampled check of ||T^n x - T^n y|| <= L * ||x - y|| for 1 <= n <= n_max."""
    if not 0.0 < L < math.inf:
        raise ParameterError(f"Lipschitz constant must be finite and > 0, got {L}")
    return _certify_pairs(
        "uniformly_lipschitz", m, lambda n, x, y: uniform_lipschitz_violation(m, L, n, x, y),
        lambda n: (L, 0.0), n_max, sample_count, seed,
    )


def certify_asymptotically_nonexpansive(
    m: Mapping, k: Schedule, n_max: int, sample_count: int, seed: int
) -> Certificate:
    """Sampled check of ||T^n x - T^n y|| <= k_n * ||x - y|| for 1 <= n <= n_max."""
    for n in range(1, n_max + 1):
        if k.at(n) < 1.0:
            raise ScheduleError(f"asymptotic schedule must satisfy k(n) >= 1; k({n}) = {k.at(n)}")
    return _certify_pairs(
        "asymptotically_nonexpansive", m, lambda n, x, y: asymptotically_nonexpansive_violation(m, k, n, x, y),
        lambda n: (k.at(n), 0.0), n_max, sample_count, seed,
    )


def certify_nonexpansive(m: Mapping, sample_count: int, seed: int) -> Certificate:
    """Sampled check of the single-application bound ||Tx - Ty|| <= ||x - y||."""
    return _certify_pairs(
        "nonexpansive", m, lambda n, x, y: uniform_lipschitz_violation(m, 1.0, n, x, y),
        lambda n: (1.0, 0.0), 1, sample_count, seed,
    )


# ---------------------------------------------------------------------------
# catalog

def _space_for(dim: int, space: NormedSpace | None) -> NormedSpace:
    """The given space, or the Euclidean one, after checking it has dimension ``dim``."""
    if dim < 1:
        raise ParameterError(f"dim must be >= 1, got {dim}")
    space = space or NormedSpace(dim, 2.0)
    if space.dim != dim:
        raise ParameterError(f"space dim {space.dim} != requested dim {dim}")
    return space


def make_example21(q: float, space: NormedSpace | None = None) -> Mapping:
    """Discontinuous scaling map on [0, 1]: x -> q*x below 1, with T(1) = 0.

    Not Lipschitz across the jump at x = 1, yet the iterates satisfy
    ||T^n x - T^n y|| <= ||x - y|| + q^n, so it is nearly nonexpansive with
    near-sequence q^n.  The closed-form power is q^n * x (0 beyond the jump).
    """
    if not (0.0 < q < 1.0):
        raise ParameterError(f"q must lie in (0, 1), got {q}")
    space = space or NormedSpace(1, 2.0)
    if space.dim != 1:
        raise ParameterError(f"example21 is one-dimensional; got space dim {space.dim}")
    domain = Box((0.0,), (1.0,))

    def apply(x: Vector) -> Vector:
        v = x.coords[0]
        return Vector((0.0,)) if v >= 1.0 else Vector((q * v,))

    def power(n: int, x: Vector) -> Vector:
        if n == 0:
            return x
        v = x.coords[0]
        return Vector((0.0,)) if v >= 1.0 else Vector(((q**n) * v,))

    def apply_rows(X: np.ndarray) -> np.ndarray:
        return np.where(X >= 1.0, 0.0, q * X)

    def power_rows(ns: np.ndarray, X: np.ndarray) -> np.ndarray:
        return np.where(X >= 1.0, 0.0, _per_n(lambda n: q**n, ns)[:, None] * X)

    meta = MappingMeta(
        declared_class="nearly_nonexpansive",
        known_fixed_points=(Vector((0.0,)),),
        a_schedule=Schedule.geometric(q),
        discontinuities=(Vector((1.0,)),),
    )
    return build_mapping("example21", space, domain, apply, power, meta, {"q": q},
                         apply_rows=apply_rows, power_rows=power_rows)


def make_linear_contraction(q: float, dim: int = 1, space: NormedSpace | None = None) -> Mapping:
    """x -> q*x on the unit ball; nonexpansive with fixed point 0."""
    if not (0.0 < q < 1.0):
        raise ParameterError(f"q must lie in (0, 1), got {q}")
    space = _space_for(dim, space)
    origin = Vector((0.0,) * dim)
    domain = Ball(origin, 1.0)

    def apply(x: Vector) -> Vector:
        return Vector.from_array(q * x.array)

    def power(n: int, x: Vector) -> Vector:
        return x if n == 0 else Vector.from_array((q**n) * x.array)

    meta = MappingMeta(
        declared_class="nonexpansive",
        known_fixed_points=(origin,),
        lipschitz_L=1.0,
    )
    return build_mapping("contraction", space, domain, apply, power, meta, {"q": q, "dim": dim},
                         apply_rows=lambda X: q * X,
                         power_rows=lambda ns, X: _per_n(lambda n: q**n, ns)[:, None] * X)


def make_identity(dim: int = 1, space: NormedSpace | None = None) -> Mapping:
    """The identity on the box [-1, 1]^dim; every point is fixed."""
    space = _space_for(dim, space)
    domain = Box((-1.0,) * dim, (1.0,) * dim)
    meta = MappingMeta(declared_class="nonexpansive", lipschitz_L=1.0, fixed_set_is_domain=True)
    return build_mapping(
        "identity", space, domain,
        apply=lambda x: x,
        power=lambda n, x: x,
        meta=meta,
        parameters={"dim": dim},
        apply_rows=lambda X: X,
        power_rows=lambda ns, X: X,
    )


_DEMO_EXPAND = 1.2
_DEMO_SHRINK = 0.5


def make_asymptotically_nonexpansive_example(dim: int = 2, space: NormedSpace | None = None) -> Mapping:
    """A map that expands on its first application but contracts from then on.

    For dim >= 2 the first two coordinates are swapped with scale factors
    (1.2, 0.5): one application stretches by up to 1.2, so the map is not
    nonexpansive, but every even power is a plain contraction and the iterate
    Lipschitz constants drop to at most 0.72 from n = 2 onward.  The declared
    asymptotic schedule is (1.2, 1, 1, ...).  For dim = 1 the catalog falls
    back to the halving map with the constant schedule 1.
    """
    space = _space_for(dim, space)

    if dim == 1:
        domain = Box((-1.0,), (1.0,))
        meta = MappingMeta(
            declared_class="asymptotically_nonexpansive",
            known_fixed_points=(Vector((0.0,)),),
            lipschitz_L=1.0,
            k_schedule=Schedule.constant(1.0),
        )
        return build_mapping(
            "asymptotic_demo", space, domain,
            apply=lambda x: Vector((0.5 * x.coords[0],)),
            power=lambda n, x: Vector(((0.5**n) * x.coords[0],)),
            meta=meta,
            parameters={"dim": dim},
            apply_rows=lambda X: 0.5 * X,
            power_rows=lambda ns, X: _per_n(lambda n: 0.5**n, ns)[:, None] * X,
        )

    lam, mu = _DEMO_EXPAND, _DEMO_SHRINK
    lows = [-1.0, -1.0 / lam] + [-1.0] * (dim - 2)
    highs = [1.0, 1.0 / lam] + [1.0] * (dim - 2)
    domain = Box(tuple(lows), tuple(highs))
    origin = Vector((0.0,) * dim)

    def apply(x: Vector) -> Vector:
        out = mu * x.array
        out[0] = lam * x.coords[1]
        out[1] = mu * x.coords[0]
        return Vector.from_array(out)

    def power(n: int, x: Vector) -> Vector:
        if n == 0:
            return x
        half, odd = divmod(n, 2)
        head = ((lam * mu) ** half) * np.array([x.coords[0], x.coords[1]])
        tail = (mu ** (2 * half)) * x.array[2:]
        even_part = Vector.from_array(np.concatenate((head, tail)))
        return apply(even_part) if odd else even_part

    def apply_rows(X: np.ndarray) -> np.ndarray:
        out = mu * X
        out[:, 0] = lam * X[:, 1]
        out[:, 1] = mu * X[:, 0]
        return out

    def power_rows(ns: np.ndarray, X: np.ndarray) -> np.ndarray:
        even = _per_n(lambda n: mu ** (2 * (n // 2)), ns)[:, None] * X
        even[:, :2] = _per_n(lambda n: (lam * mu) ** (n // 2), ns)[:, None] * X[:, :2]
        return np.where((ns % 2 == 1)[:, None], apply_rows(even), even)

    meta = MappingMeta(
        declared_class="asymptotically_nonexpansive",
        known_fixed_points=(origin,),
        lipschitz_L=lam,
        k_schedule=Schedule.table((lam, 1.0)),
    )
    return build_mapping("asymptotic_demo", space, domain, apply, power, meta, {"dim": dim},
                         apply_rows=apply_rows, power_rows=power_rows)


class _CatalogEntry(NamedTuple):
    factory: Callable[..., Mapping]  # (space, **required parameters) -> Mapping
    parameters: tuple[str, ...]
    default_dim: int


# The one place a catalog map is registered.
CATALOG = {
    "example21": _CatalogEntry(lambda space, q: make_example21(q, space), ("q",), 1),
    "contraction": _CatalogEntry(lambda space, q: make_linear_contraction(q, space.dim, space), ("q",), 1),
    "identity": _CatalogEntry(lambda space: make_identity(space.dim, space), (), 1),
    "asymptotic_demo": _CatalogEntry(
        lambda space: make_asymptotically_nonexpansive_example(space.dim, space), (), 2),
}
CATALOG_IDS = tuple(CATALOG)


def get_mapping(mapping_id: str, parameters: dict, space: NormedSpace) -> Mapping:
    """Resolve a catalog id and parameter dict against a space."""
    if mapping_id not in CATALOG:
        raise ParameterError(f"unknown mapping id '{mapping_id}'; known ids: {CATALOG_IDS}")
    entry = CATALOG[mapping_id]
    params = dict(parameters)
    values = {}
    for name in entry.parameters:
        value = params.pop(name, None)
        if value is None:
            raise ParameterError(f"{mapping_id} requires parameter '{name}'")
        values[name] = float(value)
    if params:
        raise ParameterError(f"{mapping_id} got unknown parameters {sorted(params)}")
    return entry.factory(space, **values)
