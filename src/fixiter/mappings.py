"""Self-maps of convex domains, iterate powers, and sampled class certification.

A ``Mapping`` bundles a point evaluator with its domain, the space whose norm
measures it, an optional closed-form power ``T^n``, and metadata (declared
class, known fixed points, coefficient schedules, discontinuity points).
A map gives its evaluators on points or on (k, dim) arrays of rows, and the
other form is derived when the map is built.  Construction samples the map to
certify that it is a self-map and that any registered power agrees with
repeated application and is T itself at n = 1.

Certification of a mapping class is sampling-based and one-sided: "certified"
means no violation was found at the given budget, never a proof.  Every
candidate's violation is computed as arrays, by the scalar operations, and the
maximum is evaluated again through the scalar path, so a witness reproduces
its violation exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Optional

import numpy as np

from .errors import ContractError, DomainError, ParameterError, ScheduleError
from .schedules import Schedule
from .space import Ball, Box, Domain, NormedSpace, Vector, _rng, _same_dim

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
    apply: Callable[[Vector], Vector] | None
    power: Callable[[int, Vector], Vector] | None
    meta: MappingMeta
    parameters: tuple[tuple[str, float], ...] = ()
    # Row evaluators on (k, dim) arrays: apply_rows(X), and power_rows(ns, X)
    # with one power index ns[i] >= 1 per row and apply_rows' bits at n = 1.
    # A map gives rows or scalars, and __post_init__ derives the other form:
    # scalars as one-row views of the rows, rows as loops over the scalars.
    # Without a closed form, power is None and power_rows iterates on Vectors.
    apply_rows: Callable[[np.ndarray], np.ndarray] | None = None
    power_rows: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        # A derived evaluator names the evaluators it was derived from, so one
        # that dataclasses.replace carries over is derived again when a field
        # it names now holds another given callable.  The per-row iteration
        # names none: it reads this map, so it is always derived again.
        fields = {name: getattr(self, name) for name in ("apply", "power", "apply_rows", "power_rows")}
        apply, power, apply_rows, power_rows = (None if _stale(fn, fields) else fn for fn in fields.values())
        if apply is None and apply_rows is None:
            raise ContractError(f"mapping '{self.mapping_id}' declares neither apply nor apply_rows")
        derived = {}
        if apply is None:
            derived["apply"] = _derived(lambda x: Vector.from_array(apply_rows(x.array[None])[0]),
                                        apply_rows=apply_rows)
        if apply_rows is None:
            derived["apply_rows"] = _derived(
                lambda X: _stack((apply(Vector.from_array(x)) for x in X), X.shape), apply=apply)
        if power is None and power_rows is not None:
            derived["power"] = _derived(lambda n, x: x if n == 0 else Vector.from_array(
                power_rows(np.array([n]), x.array[None])[0]), power_rows=power_rows)
        elif power_rows is None:
            derived["power_rows"] = _derived(lambda ns, X: _stack(
                (_iterate(self, int(n), Vector.from_array(x)) for n, x in zip(ns, X)), X.shape))
        for name, fn in derived.items():
            object.__setattr__(self, name, fn)

    @property
    def has_power(self) -> bool:
        return self.power is not None

    @property
    def has_fixed_set(self) -> bool:
        """Whether a fixed-point set is declared, so distances to it are defined."""
        return self.meta.fixed_set_is_domain or bool(self.meta.known_fixed_points)


def apply_power(m: Mapping, n: int, x: Vector) -> Vector:
    """The n-th iterate T^n x: x itself at n = 0, and ``m.apply(x)`` at n = 1."""
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
    """T^n x for n >= 1 without domain checks: n applications, or the closed form from n = 2."""
    if m.power is not None and n > 1:
        return m.power(n, x)
    apply = m.apply
    for _ in range(n):
        x = apply(x)
    return x


def fixed_point_residual(m: Mapping, x: Vector) -> float:
    """||x - Tx||; vanishes (up to rounding) exactly at fixed points."""
    return m.space.norm(x - apply_power(m, 1, x))


def distance_to_fixed_set(m: Mapping, x: Vector) -> Optional[float]:
    """Distance to the known fixed-point set, or None when no set is declared:
    the one-row view of ``_fixed_set_distances``."""
    d = _fixed_set_distances(m, x.array[None])
    return None if d is None else float(d[0])


def _fixed_set_distances(m: Mapping, X: np.ndarray) -> np.ndarray | None:
    """``distance_to_fixed_set`` of every row of the (k, dim) array X."""
    if m.meta.fixed_set_is_domain:
        return np.zeros(len(X))
    if m.meta.known_fixed_points:
        return _point_distances(m.space, X, m.meta.known_fixed_points)
    return None


def _point_distances(space: NormedSpace, X: np.ndarray, points: Iterable[Vector]) -> np.ndarray:
    """The distance from every row of the (k, dim) array X to the nearest of
    ``points``, by exact norms.  It refuses what ``space.distance`` refuses: a
    point of another dimension, or a difference that is not finite."""
    columns = []
    for p in points:
        with np.errstate(over="ignore", invalid="ignore"):
            D = X - _same_dim(X.shape[1], p).array
        finite = np.isfinite(D).all(axis=1)
        if not finite.all():
            Vector.from_array(D[np.argmin(finite)])  # raises the ContractError of ``x - p``
        space._check_dim(X.shape[1])
        columns.append(space.norm_rows(D))
    return np.min(columns, axis=0)


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
    return Schedule.formula(lambda n: (_coefficient("asymptotically_nonexpansive", k, n) - 1.0) * diam,
                            label=f"near_from_{k.kind}")


_SEQUENCES = {
    "asymptotically_nonexpansive": ("k", 1.0, "asymptotic schedule must satisfy k(n) >= 1"),
    "nearly_nonexpansive": ("a", 0.0, "near-sequence must be >= 0"),
}


def _coefficient(declared_class: str, s: Schedule, n: int) -> float:
    """``s(n)``, once it is at least the floor of the sequence that ``declared_class``
    declares.  ``_SEQUENCES`` holds each such sequence's name, floor and rule."""
    name, floor, rule = _SEQUENCES[declared_class]
    if (value := s.at(n)) < floor:
        raise ScheduleError(f"{rule}; {name}({n}) = {value}")
    return value


# ---------------------------------------------------------------------------
# row evaluation

def _per_n(fn: Callable[[int], object], ns: np.ndarray) -> float | np.ndarray:
    """The factor ``fn(n)`` of each row, evaluated once per distinct n in
    Python floats, to scale rows by: a float for one row, as the scheme
    engine's power stages pass, since a float scales a row by the same
    products as a column; for many rows, a (k, 1) column."""
    if len(ns) == 1:
        return float(fn(int(ns[0])))
    distinct, index = np.unique(ns, return_inverse=True)
    return np.array([fn(int(n)) for n in distinct], dtype=float)[index, None]


def _derived(fn: Callable, **sources: Callable) -> Callable:
    fn.derived_from = sources
    return fn


def _stale(fn: Callable | None, fields: dict) -> bool:
    """Whether ``fn`` was derived from this map, or from an evaluator that
    ``fields`` replaced by another given one."""
    sources = getattr(fn, "derived_from", None)
    if sources is None:  # given
        return False
    return not sources or any(
        fields[name] not in (None, source) and not hasattr(fields[name], "derived_from")
        for name, source in sources.items())


def _stack(vectors: Iterable[Vector], shape: tuple[int, ...]) -> np.ndarray:
    return np.array([v.coords for v in vectors], dtype=float).reshape(shape)


def _screen(fn: Callable[[], object]) -> object:
    """``fn()``, an array pass, or None when the caller must take its scalar path.

    The one rule of every array pass: a floating-point condition numpy would
    act on (warn of, as it does by default) is only noted, and when ``fn``
    raises any Exception or a condition was noted, the result is None.  The
    scalar path then raises, warns and returns exactly what it would without
    the array pass.
    """
    noted = []
    acted_on = {kind: "call" for kind, v in np.geterr().items() if v != "ignore"}
    try:
        with np.errstate(call=lambda kind, flag: noted.append(kind), **acted_on):
            result = fn()
    except Exception:  # the scalar path meets it at its own candidate, or never
        return None
    return None if noted else result


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
    apply: Callable[[Vector], Vector] | None = None,
    power: Callable[[int, Vector], Vector] | None = None,
    meta: MappingMeta = MappingMeta(),
    parameters: dict | None = None,
    *,
    apply_rows: Callable[[np.ndarray], np.ndarray] | None = None,
    power_rows: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
) -> Mapping:
    """Assemble a Mapping and certify its construction invariants by sampling.

    A map gives ``apply`` or ``apply_rows(X)`` on (k, dim) rows, or both, and
    ``power`` or ``power_rows(ns, X)`` with power indices ns[i] >= 1; the other
    form is derived (see ``Mapping``).  Given forms agree bit for bit, and T^1
    is T: a closed form at n = 1 gives ``apply``'s bits, and is read from n = 2.

    Checks, each with a fixed internal seed so construction is reproducible:
    * the evaluator maps the domain into itself (uniform samples plus the
      deterministic probe points);
    * a registered closed-form power agrees with repeated application to
      within 1e-10, returns x at n = 0, and gives apply's bits at n = 1;
    * declared metadata is coherent (schedules present and admissible for the
      declared class, listed fixed points actually fixed).
    Sampled probes are screened by the row evaluators under ``_screen``'s
    rule: a probe the screen cannot clear is checked again on Vectors, and
    every probe is when the screen raises or meets a numpy condition, so the
    probes raise and warn as they would without the screen.
    """
    if domain.dim != space.dim:
        raise ContractError(f"domain dim {domain.dim} != space dim {space.dim}")
    if meta.declared_class not in MAPPING_CLASSES:
        raise ContractError(f"unknown mapping class '{meta.declared_class}'")
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
    inside = _screen(lambda: domain.inside_rows(space, m.apply_rows(sampled)))
    doubtful = sampled if inside is None else sampled[~inside]
    for x in [Vector.from_array(row) for row in doubtful] + special_points(space, domain, meta):
        fx = m.apply(x)
        if not domain.contains(space, fx):
            raise ContractError(
                f"mapping '{mapping_id}' is not a self-map: T{x.coords} = {fx.coords} left the domain"
            )

    if m.power is not None:
        xs = domain.sample(space, rng, _POWER_SAMPLES)
        ns = rng.integers(1, _POWER_N_MAX + 1, size=_POWER_SAMPLES)

        def agreeing() -> np.ndarray:
            iterated = xs.copy()
            for step in range(1, int(ns.max()) + 1):
                live = ns >= step
                iterated[live] = m.apply_rows(iterated[live])
            return space.norm_rows(m.power_rows(ns, xs) - iterated) <= _POWER_TOL

        agree = _screen(agreeing)
        for row, n in zip(xs, ns) if agree is None else zip(xs[~agree], ns[~agree]):
            x = iterated = Vector.from_array(row)
            for _ in range(int(n)):
                iterated = m.apply(iterated)
            gap = space.distance(m.power(int(n), x), iterated)
            if gap > _POWER_TOL:
                raise ContractError(
                    f"closed-form power of '{mapping_id}' disagrees with {n}-fold application "
                    f"at {x.coords} by {gap:.3e}"
                )
        for x in map(Vector.from_array, xs[:5]):
            if m.power(0, x).coords != x.coords:
                raise ContractError(f"power(0, x) must return x exactly for '{mapping_id}'")
        same = _screen(lambda: (m.power_rows(np.ones(len(sampled), dtype=int), sampled).view(np.int64)
                                == m.apply_rows(sampled).view(np.int64)).all(axis=1))
        for x in map(Vector.from_array, sampled if same is None else sampled[~same]):
            if m.power(1, x).array.tobytes() != m.apply(x).array.tobytes():
                raise ContractError(
                    f"closed-form power of '{mapping_id}' at n = 1 differs from apply at {x.coords}")

    if meta.known_fixed_points:
        for p in meta.known_fixed_points:
            res = fixed_point_residual(m, p)
            if res > 1e-10:
                raise ContractError(
                    f"declared fixed point {p.coords} of '{mapping_id}' has residual {res:.3e}"
                )
    return m


def _check_meta(space: NormedSpace, meta: MappingMeta) -> None:
    if meta.declared_class in _SEQUENCES:
        name, floor, _ = _SEQUENCES[meta.declared_class]
        s = getattr(meta, f"{name}_schedule")
        if s is None:
            raise ContractError(f"{meta.declared_class.replace('_', ' ')} maps must declare "
                                f"{'an' if name == 'a' else 'a'} {name} schedule")
        for n in range(1, 101):
            _coefficient(meta.declared_class, s, n)
        if s.at(10_000) > floor + 1e-2:
            raise ScheduleError(f"{name} schedule does not approach {floor:g}")
    if meta.lipschitz_L is not None and meta.lipschitz_L <= 0.0:
        raise ContractError(f"Lipschitz constant must be > 0, got {meta.lipschitz_L}")
    for p in meta.known_fixed_points or ():
        if p.dim != space.dim:
            raise ContractError(f"fixed point {p.coords} has wrong dimension")
    for d in meta.discontinuities:
        if d.dim != space.dim:
            raise ContractError(f"discontinuity {d.coords} has wrong dimension")


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


def _certify(
    property_name: str,
    n_range: tuple[int, int],
    violation: Callable[[Witness], float],
    screen: Callable[[], np.ndarray | None],
    requested: int,
    X: np.ndarray,
    Y: np.ndarray | None = None,
    N: np.ndarray | None = None,
) -> Certificate:
    """The certificate kernel every certifier shares.

    Candidate i is row i of X, with row i of Y and power index N[i] where the
    certifier has them.  ``screen()`` returns every violation as one array,
    computed by the operations of ``violation`` and so exactly, or None when
    some row lies outside the domain.  Its first maximum is the witness, which
    ``violation`` evaluates again for ``max_violation``.  When ``_screen``
    gives None (the screen returned None, raised, or met a numpy condition)
    or a value is not finite, ``violation`` evaluates every candidate in
    order, which raises and warns for the same candidate as without the
    screen, and the first strict maximum is the witness.  The verdict judges
    the maximum against TAU_CERT unless fewer than 10 samples were requested.
    """
    violations = _screen(screen)
    exact = violations is not None and np.isfinite(violations).all()
    best = -math.inf
    best_witness: Witness | None = None
    for i in [int(np.argmax(violations))] if exact else range(len(X)):
        w = Witness(x=Vector.from_array(X[i]), y=None if Y is None else Vector.from_array(Y[i]),
                    n=None if N is None else int(N[i]))
        v = violation(w)
        if v > best:
            best, best_witness = v, w
    assert best_witness is not None
    verdict = "inconclusive" if requested < 10 else "refuted" if best > TAU_CERT else "certified"
    return Certificate(property_name, n_range, len(X), best, best_witness, verdict)


def _certify_pairs(
    property_name: str,
    m: Mapping,
    violation: Callable[[int, Vector, Vector], float],
    terms: Callable[[int], tuple[float, float]],
    n_max: int,
    sample_count: int,
    seed: int,
) -> Certificate:
    """Check ||T^n x - T^n y|| <= c_n ||x - y|| + b_n, where (c_n, b_n) = ``terms(n)``,
    evaluated once per n before sampling, and ``violation`` is the scalar excess, on
    the domain extremes and each (discontinuity neighbour, discontinuity) pair at
    every n, then on seeded random (n, x, y) triples."""
    if n_max < 1:
        raise ContractError(f"n_max must be >= 1, got {n_max}")
    coefficients = np.array([terms(n) for n in range(1, n_max + 1)], dtype=float)
    if sample_count < 1:
        raise ContractError(f"sample_count must be >= 1, got {sample_count}")
    pairs = [m.domain.extreme_points()] + [
        (neighbor, d) for d in m.meta.discontinuities
        for neighbor in _discontinuity_neighbors(m.space, m.domain, d)
    ]
    rng = _rng(seed)
    N = np.concatenate([np.tile(np.arange(1, n_max + 1), len(pairs)),
                        rng.integers(1, n_max + 1, size=sample_count)])
    X = np.concatenate([np.repeat([x.coords for x, _ in pairs], n_max, axis=0),
                        m.domain.sample(m.space, rng, sample_count)])
    Y = np.concatenate([np.repeat([y.coords for _, y in pairs], n_max, axis=0),
                        m.domain.sample(m.space, rng, sample_count)])

    def screen():
        TX, TY = m.power_rows(N, X), m.power_rows(N, Y)
        if not all(m.domain.inside_rows(m.space, R).all() for R in (X, Y, TX, TY)):
            return None
        c, b = coefficients[N - 1].T
        return m.space.norm_rows(TX - TY) - c * m.space.norm_rows(X - Y) - b

    return _certify(property_name, (1, n_max), lambda w: violation(w.n, w.x, w.y), screen,
                    sample_count, X, Y, N)


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
    return _certify_pairs(
        "nearly_nonexpansive", m, lambda n, x, y: nearly_nonexpansive_violation(m, a, n, x, y),
        lambda n: (1.0, _coefficient("nearly_nonexpansive", a, n)), n_max, sample_count, seed,
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
    return _certify_pairs(
        "asymptotically_nonexpansive", m, lambda n, x, y: asymptotically_nonexpansive_violation(m, k, n, x, y),
        lambda n: (_coefficient("asymptotically_nonexpansive", k, n), 0.0), n_max, sample_count, seed,
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

    def scaled_below_one(c: float | np.ndarray, X: np.ndarray) -> np.ndarray:
        out = c * X
        out[X >= 1.0] = 0.0
        return out

    def apply_rows(X: np.ndarray) -> np.ndarray:
        return scaled_below_one(q, X)

    def power_rows(ns: np.ndarray, X: np.ndarray) -> np.ndarray:
        return scaled_below_one(_per_n(lambda n: q**n, ns), X)

    meta = MappingMeta(
        declared_class="nearly_nonexpansive",
        known_fixed_points=(Vector((0.0,)),),
        a_schedule=Schedule.geometric(q),
        discontinuities=(Vector((1.0,)),),
    )
    return build_mapping("example21", space, domain, meta=meta, parameters={"q": q},
                         apply_rows=apply_rows, power_rows=power_rows)


def make_linear_contraction(q: float, dim: int = 1, space: NormedSpace | None = None) -> Mapping:
    """x -> q*x on the unit ball; nonexpansive with fixed point 0."""
    if not (0.0 < q < 1.0):
        raise ParameterError(f"q must lie in (0, 1), got {q}")
    space = _space_for(dim, space)
    origin = Vector((0.0,) * dim)
    domain = Ball(origin, 1.0)
    meta = MappingMeta(
        declared_class="nonexpansive",
        known_fixed_points=(origin,),
        lipschitz_L=1.0,
    )
    return build_mapping("contraction", space, domain, meta=meta, parameters={"q": q, "dim": dim},
                         apply_rows=lambda X: q * X,
                         power_rows=lambda ns, X: _per_n(lambda n: q**n, ns) * X)


def make_identity(dim: int = 1, space: NormedSpace | None = None) -> Mapping:
    """The identity on the box [-1, 1]^dim; every point is fixed."""
    space = _space_for(dim, space)
    domain = Box((-1.0,) * dim, (1.0,) * dim)
    meta = MappingMeta(declared_class="nonexpansive", lipschitz_L=1.0, fixed_set_is_domain=True)
    return build_mapping(
        "identity", space, domain,
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
            meta=meta,
            parameters={"dim": dim},
            apply_rows=lambda X: 0.5 * X,
            power_rows=lambda ns, X: _per_n(lambda n: 0.5**n, ns) * X,
        )

    lam, mu = _DEMO_EXPAND, _DEMO_SHRINK
    lows = [-1.0, -1.0 / lam] + [-1.0] * (dim - 2)
    highs = [1.0, 1.0 / lam] + [1.0] * (dim - 2)
    domain = Box(tuple(lows), tuple(highs))
    origin = Vector((0.0,) * dim)

    swap = np.array([1, 0] + list(range(2, dim)))
    scale = np.array([lam] + [mu] * (dim - 1))

    def apply_rows(X: np.ndarray) -> np.ndarray:
        return X.take(swap, axis=1) * scale

    def power_rows(ns: np.ndarray, X: np.ndarray) -> np.ndarray:
        even = _per_n(lambda n: mu ** (2 * (n // 2)), ns) * X
        even[:, :2] = _per_n(lambda n: (lam * mu) ** (n // 2), ns) * X[:, :2]
        return np.where((ns % 2 == 1)[:, None], apply_rows(even), even)

    meta = MappingMeta(
        declared_class="asymptotically_nonexpansive",
        known_fixed_points=(origin,),
        lipschitz_L=lam,
        k_schedule=Schedule.table((lam, 1.0)),
    )
    return build_mapping("asymptotic_demo", space, domain, meta=meta, parameters={"dim": dim},
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


def _check_catalog_id(mapping_id: str) -> None:
    if mapping_id not in CATALOG:
        raise ParameterError(f"unknown mapping '{mapping_id}'; catalog: {CATALOG_IDS}")


def get_mapping(mapping_id: str, parameters: dict, space: NormedSpace) -> Mapping:
    """Resolve a catalog id and parameter dict against a space."""
    _check_catalog_id(mapping_id)
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
