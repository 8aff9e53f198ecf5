"""The six fixed-point iteration processes and their execution engine.

Schemes
    picard                x_{n+1} = T x_n
    mann                  x_{n+1} = (1-a_n) x_n + a_n T x_n
    ishikawa              y_n = (1-b_n) x_n + b_n T x_n;  x_{n+1} = (1-a_n) x_n + a_n T y_n
    modified_mann         x_{n+1} = (1-a_n) x_n + a_n T^n x_n
    pm_hybrid             y_n = (1-a_n) x_n + a_n T x_n;  x_{n+1} = T y_n
    modified_pm_hybrid    y_n = (1-a_n) x_n + a_n T^n x_n;  x_{n+1} = T^n y_n

Steps are numbered from n = 1, so a power-based scheme never applies the
zeroth iterate (which would make the first step a no-op).  Within one step the
same n indexes both T^n occurrences.

A run stops when the step displacement drops to at most ``stop_tolerance``,
when ``max_steps`` is reached, or when an iterate leaves the domain (the
trajectory is then truncated before the offending point).  Pass a negative
``stop_tolerance`` to disable displacement-based stopping; the comparison
below is exact, so even a step of 0.0 stops a run with the default tolerance.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, ContractError, DomainError, ParameterError
from .mappings import Mapping, _fixed_set_distances, _iterate, apply_power, distance_to_fixed_set
from .schedules import Schedule
from .space import Vector

SCHEMES = (
    "picard",
    "mann",
    "ishikawa",
    "modified_mann",
    "pm_hybrid",
    "modified_pm_hybrid",
)

# Schemes whose update applies T^n rather than T.
POWER_SCHEMES = ("modified_mann", "modified_pm_hybrid")

_ALPHA_FLOOR = 1e-3
_DECAY_FACTOR = 2.0 / 3.0


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    status: str  # satisfied | violated | undetermined
    detail: str
    enforced: bool = True


@dataclass(frozen=True)
class ScheduleVerdict:
    scheme: str
    verdict: str  # satisfied | violated | undetermined
    checks: tuple[ConstraintCheck, ...]

    @property
    def ok(self) -> bool:
        return self.verdict != "violated"


def _range_check(name: str, sched: Schedule, horizon: int, lo_open: bool,
                 hi_open: bool) -> tuple[ConstraintCheck, list[float]]:
    """The range check of sched(n) for n <= horizon, and the values it read:
    all ``horizon`` of them when it is satisfied, up to the first violation
    otherwise."""
    lo_sym = "(" if lo_open else "["
    hi_sym = ")" if hi_open else "]"
    bounds = f"{lo_sym}0, 1{hi_sym}"
    values = []
    for n in range(1, horizon + 1):
        v = sched.at(n)
        values.append(v)
        below = v <= 0.0 if lo_open else v < 0.0
        above = v >= 1.0 if hi_open else v > 1.0
        if below or above:
            return ConstraintCheck(
                f"{name}_range", "violated", f"{name}({n}) = {v} outside {bounds}"
            ), values
    return ConstraintCheck(f"{name}_range", "satisfied", f"{name}(n) in {bounds} for n <= {horizon}"), values


def _divergence_check(values: list[float]) -> ConstraintCheck:
    horizon = len(values)
    floor = min(values)
    partial = math.fsum(values)
    if floor >= _ALPHA_FLOOR:
        return ConstraintCheck(
            "alpha_sum_divergent", "satisfied",
            f"alpha(n) >= {floor} for n <= {horizon}, so the partial sums grow without bound",
        )
    if partial >= 0.5 * math.log(horizon + 1.0):
        return ConstraintCheck(
            "alpha_sum_divergent", "undetermined",
            f"partial sum {partial:.6g} at horizon {horizon} grows at least logarithmically; "
            "consistent with divergence but not settled at a finite horizon",
        )
    return ConstraintCheck(
        "alpha_sum_divergent", "violated",
        f"partial sum {partial:.6g} at horizon {horizon} is below the log-growth threshold; "
        "the series appears summable",
    )


def _bounded_away_checks(values: list[float], enforced: bool) -> list[ConstraintCheck]:
    # Finite horizons cannot certify a uniform bound; a sustained decay trend
    # (halving the tail does not shrink the value) is treated as the bound failing.
    horizon = len(values)
    mid = max(1, horizon // 2)
    lo_now, lo_mid = values[horizon - 1], values[mid - 1]
    hi_now, hi_mid = 1.0 - lo_now, 1.0 - lo_mid
    checks = []
    if lo_now <= _DECAY_FACTOR * lo_mid:
        checks.append(ConstraintCheck(
            "alpha_bounded_below", "violated" if enforced else "undetermined",
            f"alpha({horizon}) = {lo_now:.6g} is trending to 0 "
            f"(vs alpha({mid}) = {lo_mid:.6g}); no positive lower bound",
            enforced,
        ))
    else:
        checks.append(ConstraintCheck(
            "alpha_bounded_below", "satisfied",
            f"alpha(n) >= {min(values):.6g} with no decay trend", enforced,
        ))
    if hi_now <= _DECAY_FACTOR * hi_mid:
        checks.append(ConstraintCheck(
            "alpha_bounded_above", "violated" if enforced else "undetermined",
            f"alpha({horizon}) = {lo_now:.6g} is trending to 1; no upper bound below 1",
            enforced,
        ))
    else:
        checks.append(ConstraintCheck(
            "alpha_bounded_above", "satisfied",
            f"alpha(n) <= {max(values):.6g} with no growth trend", enforced,
        ))
    return checks


def validate_schedule(
    scheme: str, alpha: Schedule | None, beta: Schedule | None = None, horizon: int = 500
) -> ScheduleVerdict:
    """Check the step-size constraints a scheme imposes on its schedules.

    Range constraints are checked exactly for n up to ``horizon``.  Divergence
    of the alpha series and uniform boundedness away from {0, 1} are decided
    heuristically from the horizon prefix, so those checks may come back
    ``undetermined``.  The overall verdict is ``violated`` when any enforced
    check fails; informational checks never affect it.
    """
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme '{scheme}'; known schemes: {SCHEMES}")
    if horizon < 1:
        raise ContractError(f"horizon must be >= 1, got {horizon}")
    if beta is not None and scheme != "ishikawa":
        raise ConfigurationError(f"beta schedule is only meaningful for ishikawa, not {scheme}")

    checks: list[ConstraintCheck] = []
    if scheme == "picard":
        checks.append(ConstraintCheck("no_schedule_needed", "satisfied", "picard uses no step sizes"))
    else:
        if alpha is None:
            raise ConfigurationError(f"scheme {scheme} requires an alpha schedule")
        # Each check reads the values the range check read, so each alpha(n) is evaluated once.
        lo_open = scheme in POWER_SCHEMES
        check, values = _range_check("alpha", alpha, horizon, lo_open=lo_open, hi_open=True)
        checks.append(check)
        if check.status == "satisfied":
            if not lo_open:  # mann, ishikawa, pm_hybrid
                checks.append(_divergence_check(values))
            else:
                checks.extend(_bounded_away_checks(values, enforced=scheme == "modified_mann"))
        if scheme == "ishikawa":
            if beta is None:
                raise ConfigurationError("ishikawa requires a beta schedule")
            checks.append(_range_check("beta", beta, horizon, lo_open=False, hi_open=True)[0])

    enforced = [c for c in checks if c.enforced]
    if any(c.status == "violated" for c in enforced):
        verdict = "violated"
    elif any(c.status == "undetermined" for c in enforced):
        verdict = "undetermined"
    else:
        verdict = "satisfied"
    return ScheduleVerdict(scheme=scheme, verdict=verdict, checks=tuple(checks))


@dataclass(frozen=True)
class RunConfig:
    scheme: str
    mapping: Mapping
    x0: Vector
    alpha: Schedule | None = None
    beta: Schedule | None = None
    max_steps: int = 10_000
    stop_tolerance: float = 1e-12


@dataclass(frozen=True)
class StepRecord:
    n: int
    step_norm: float
    residual_T: float
    residual_Tn: float
    dist_to_known_fp: float | None
    applications: int


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Iterates x_0 .. x_N plus one record per step n = 1 .. N.

    ``points`` holds the iterates as the rows of one read-only (N + 1, dim)
    float64 array; ``iterates`` boxes them into Vectors on first use.
    Record n describes the step that produced x_n: the displacement from
    x_{n-1}, the residuals ||x_n - T x_n|| and ||x_n - T^n x_n|| (the power
    index is the step's own n), the distance to the known fixed-point set when
    one is declared, and the number of mapping applications the scheme update
    spent (diagnostics are not counted).
    """

    config: RunConfig
    points: np.ndarray
    records: tuple[StepRecord, ...]
    stop_reason: str  # tolerance | max_steps | domain_exit

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return ((self.config, self.records, self.stop_reason)
                == (other.config, other.records, other.stop_reason)
                and np.array_equal(self.points, other.points))

    def __hash__(self):
        return hash((self.config, self.records, self.stop_reason))

    @cached_property
    def iterates(self) -> tuple[Vector, ...]:
        return tuple(Vector(x) for x in self.points.tolist())

    @property
    def scheme(self) -> str:
        return self.config.scheme

    @property
    def steps(self) -> int:
        return len(self.records)

    @property
    def final(self) -> Vector:
        return Vector.from_array(self.points[-1])

    @property
    def total_applications(self) -> int:
        return sum(r.applications for r in self.records)


def _validate_config(config: RunConfig) -> None:
    if config.scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme '{config.scheme}'; known schemes: {SCHEMES}")
    if config.max_steps < 1:
        raise ContractError(f"max_steps must be >= 1, got {config.max_steps}")
    if not math.isfinite(config.stop_tolerance):
        raise ContractError(f"stop_tolerance must be finite, got {config.stop_tolerance}")
    if (config.beta is not None) != (config.scheme == "ishikawa"):
        raise ConfigurationError("beta schedule must be present exactly for the ishikawa scheme")
    if config.scheme != "picard" and config.alpha is None:
        raise ConfigurationError(f"scheme {config.scheme} requires an alpha schedule")
    m = config.mapping
    if config.x0.dim != m.space.dim:
        raise ContractError(f"x0 has dim {config.x0.dim}, mapping space has dim {m.space.dim}")
    if not m.domain.contains(m.space, config.x0):
        raise DomainError(f"x0 = {config.x0.coords} lies outside the mapping domain")
    horizon = min(config.max_steps, 10_000)
    verdict = validate_schedule(config.scheme, config.alpha, config.beta, horizon)
    if not verdict.ok:
        failed = "; ".join(c.detail for c in verdict.checks if c.status == "violated" and c.enforced)
        raise ConfigurationError(f"schedule invalid for {config.scheme}: {failed}")


# Each scheme's update as stages run in order on z, which starts at x = x_{n-1}:
# z <- T^k z, with k = n for a power stage and 1 otherwise, then, for a stage
# with a weight schedule w, z <- (1 - w(n)) x + w(n) z.  The final z is x_n.
_STAGES = {
    "picard": ((None, False),),
    "mann": (("alpha", False),),
    "ishikawa": (("beta", False), ("alpha", False)),
    "modified_mann": (("alpha", True),),
    "pm_hybrid": (("alpha", False), (None, False)),
    "modified_pm_hybrid": (("alpha", True), (None, True)),
}
# Steps the trajectory array first has room for; it doubles when full.
_CHUNK = 1024
# Steps in the first block the update runs before testing its points; each
# block after it is twice as long, up to _CHUNK steps.
_BLOCK = 16


def _inside(m: Mapping, row: np.ndarray) -> bool:
    """Whether the domain's scalar test accepts the point in a (1, dim) row.

    ``inside_rows`` decides a row it accepts; a row it rejects is built as a
    Vector, which raises ContractError when it is not finite, and decided by
    ``contains``.
    """
    return bool(m.domain.inside_rows(m.space, row)[0]) or m.domain.contains(
        m.space, Vector.from_array(row[0]))


def _step(m: Mapping, stages: list, x: np.ndarray, n: int, kept: np.ndarray | None,
          made: list | None = None) -> np.ndarray | None:
    """x_n from the (1, dim) row x = x_{n-1}, or None when a point leaves the domain.

    A plain T stage calls ``apply_rows``, a power stage ``power_rows``.
    Schedules, evaluators and domain tests run in the order ``apply_power``,
    ``combine`` and ``domain_membership`` run them on Vectors, so an error
    comes from the same call as it would there.  Each point a stage makes,
    its image and then its combination, is tested with ``_inside`` as it is
    made, or with ``made`` appended there untested, for the caller to test
    with its block.  With ``kept``, the first stage runs ``_chain``.
    """
    z = x
    for schedule, power in stages:
        w = None if schedule is None else schedule.at(n)
        if kept is None:
            z = m.power_rows(np.array([n]), z) if power else m.apply_rows(z)
        else:  # the first stage, and only it, keeps its images
            z, kept = _chain(m, x, n if power else 1, kept), None
        if made is not None:
            made.append(z)
        elif not _inside(m, z):
            return None
        if w is not None:
            z = (1.0 - w) * x + w * z
            if made is not None:
                made.append(z)
            elif not _inside(m, z):
                return None
    return z


def _chain(m: Mapping, x: np.ndarray, k: int, kept: np.ndarray) -> np.ndarray:
    """T^k of the (1, dim) row x as k calls of ``m.apply`` on Vectors, the
    calls ``power_rows`` makes on a map without a closed-form power.  Keeps
    T x in kept[0] and T^{k-1} x in kept[1]."""
    v = Vector.from_array(x[0])
    for j in range(1, k + 1):
        v = m.apply(v)
        if j == 1:
            kept[0] = v.coords
        if j == k - 1:
            kept[1] = v.coords
    return np.array([v.coords])


def _unchecked_block(m: Mapping, stages: list, X: np.ndarray, first: int, last: int,
                     tol: float) -> tuple[int, str, None] | None:
    """Steps first .. last into X, with their points tested together at the end.

    One ``inside_rows`` call tests every point the steps made, and one
    ``norm_rows`` call takes their displacements, the first of which at most
    ``tol`` ends the run at its step.  Returns the last step kept and the
    stop reason, as ``_checked_block`` does; or None when a point is rejected
    or anything raises, for the block to be run again checked.  A
    floating-point condition numpy would act on (warn of, as it does by
    default) is only noted, and also sends the block to be run again, so a
    block warns only at the steps its checked run reaches.  The steps run
    the operations the checked steps run, on the same rows, so a block
    returned here has the bits a checked one would have.
    """
    made, noted = [], []
    acted_on = {k: "call" for k, v in np.geterr().items() if v != "ignore"}
    try:
        with np.errstate(call=lambda kind, flag: noted.append(kind), **acted_on):
            for n in range(first, last + 1):
                X[n] = _step(m, stages, X[n - 1:n], n, None, made)[0]
            if not m.domain.inside_rows(m.space, np.concatenate(made)).all():
                return None
            moves = X[first:last + 1] - X[first - 1:last]
            stops = np.flatnonzero(m.space.norm_rows(moves) <= tol) if tol >= 0.0 else ()
    except Exception:  # the checked run of the block meets it at its own step, or never
        return None
    if noted:
        return None
    if len(stops):
        return first + int(stops[0]), "tolerance", None
    return last, "max_steps", None


def _checked_block(m: Mapping, stages: list, X: np.ndarray, kept: np.ndarray | None,
                   first: int, last: int, tol: float) -> tuple[int, str, Exception | None]:
    """Steps first .. last into X, each point tested as it is made.

    Returns the last step kept, the stop reason ("max_steps" when the block
    ran to its end) and the error a step raised, if any.
    """
    for n in range(first, last + 1):
        x = X[n - 1:n]
        try:
            nxt = _step(m, stages, x, n, None if kept is None else kept[n - 1])
        except DomainError:  # raised by an evaluator: a domain exit, as in apply_power
            nxt = None
        except Exception as e:  # raised by run_scheme, once the records before it are computed
            return n - 1, "max_steps", e
        if nxt is None:
            return n - 1, "domain_exit", None
        X[n] = nxt[0]
        if tol >= 0.0 and m.space.norm_rows(nxt - x)[0] <= tol:
            return n, "tolerance", None
    return last, "max_steps", None


def run_scheme(config: RunConfig) -> Trajectory:
    """Execute the configured scheme and record the trajectory.

    The update runs step by step on rows of one float64 array, through the
    mapping's row evaluators, in blocks of steps: 16 steps first, and each
    block after it twice as long, up to 1024.  A block runs without domain
    tests, and then one ``inside_rows`` call tests every point it made and
    one ``norm_rows`` call checks the stop tolerance.  When a point is
    rejected, or anything in the block raises or would make numpy warn, the
    block runs again from its first step, each point tested as it is made;
    only that checked run ends a trajectory at a domain exit or an error.
    So an evaluator may be called on points past an early stop in its block,
    and the results are dropped.  A map without a closed-form power, whose
    T^n costs n applications, runs every block checked.

    The step records are computed afterwards as array columns.  On a map
    without a closed-form power, step n + 1 keeps the images of x_n that its
    first stage passes, T x_n and, on a power scheme, T^n x_n, and the
    records read them (see ``_chained_images``).  Both give exactly what
    evaluating every step on Vectors gives, errors included: an error the
    update raises is held until the records of the steps before it are
    computed, since those were computed, and could raise, first.
    """
    _validate_config(config)
    m = config.mapping
    space = m.space
    if config.scheme == "modified_pm_hybrid" and not space.uniformly_convex:
        warnings.warn(
            f"p = {space.p} is not uniformly convex; convergence guarantees for "
            "modified_pm_hybrid assume 1 < p < inf",
            UserWarning,
            stacklevel=2,
        )

    stages = [(None if w is None else getattr(config, w), power) for w, power in _STAGES[config.scheme]]
    X = np.empty((min(config.max_steps, _CHUNK) + 1, space.dim))
    X[0] = config.x0.coords
    kept = None if m.has_power else np.empty((len(X), 2, space.dim))  # kept[n]: T x_n, T^n x_n
    steps, stop_reason, error, size = 0, "max_steps", None, _BLOCK
    while steps < config.max_steps and stop_reason == "max_steps" and error is None:
        if steps == len(X) - 1:  # X is full: it doubles, up to max_steps
            more = min(steps + 1, config.max_steps - steps)
            X, kept = (A if A is None else np.concatenate((A, np.empty((more,) + A.shape[1:])))
                       for A in (X, kept))
        last = min(steps + size, config.max_steps, len(X) - 1)  # a block ends where X is full
        first, tol = steps + 1, config.stop_tolerance
        # Without a closed-form power, a step past an early stop costs n applications.
        ran = _unchecked_block(m, stages, X, first, last, tol) if kept is None else None
        steps, stop_reason, error = ran or _checked_block(m, stages, X, kept, first, last, tol)
        size = min(2 * size, _CHUNK)

    points = X[: steps + 1]
    points.flags.writeable = False
    fixed = sum(not power for _, power in stages)
    powered = len(stages) - fixed
    costs = [fixed + powered * (1 if m.has_power else n) for n in range(1, steps + 1)]
    records = _records(m, points, costs, config.scheme, kept)
    if error is not None:
        raise error
    return Trajectory(config=config, points=points, records=records, stop_reason=stop_reason)


def _records(m: Mapping, points: np.ndarray, costs: list[int], scheme: str,
             kept: np.ndarray | None) -> tuple[StepRecord, ...]:
    """The step records of a trajectory, as array columns; when a column
    cannot be computed that way, step by step on Vectors, which raises the
    first error in step order."""
    try:
        with np.errstate(all="ignore"):
            columns = _record_columns(m, points, scheme, kept)
    except Exception:  # the step-by-step path raises it, in step order
        columns = None
    if columns is None:
        return tuple(_scalar_records(m, points, costs))
    return tuple(
        StepRecord(n=n, step_norm=s, residual_T=r1, residual_Tn=rn, dist_to_known_fp=d, applications=c)
        for n, s, r1, rn, d, c in zip(range(1, len(points)), *columns, costs)
    )


def _record_columns(m: Mapping, points: np.ndarray, scheme: str,
                    kept: np.ndarray | None) -> list[list] | None:
    """step_norm, residual_T, residual_Tn and dist_to_known_fp of every step,
    or None when an image leaves the domain or a value is not finite.

    The images come from ``apply_rows`` and ``power_rows`` on a map with a
    closed form, else from ``_chained_images``, reusing the update's chains.
    """
    space, prev, cur = m.space, points[:-1], points[1:]
    ns = np.arange(1, len(points))
    if m.has_power or not len(cur):
        images = [m.apply_rows(cur), m.power_rows(ns, cur)]
    else:
        images = _chained_images(m, points, scheme, kept)
    if not all(m.domain.inside_rows(space, T).all() for T in images):
        return None
    columns = [space.norm_rows(cur - prev)] + [space.norm_rows(cur - T) for T in images]
    distances = _fixed_set_distances(m, cur)
    if distances is not None:
        columns.append(distances)
    if not all(np.isfinite(c).all() for c in columns):
        return None
    columns = [c.tolist() for c in columns]
    if distances is None:  # as distance_to_fixed_set when no set is declared
        columns.append([None] * len(cur))
    return columns


def _chained_images(m: Mapping, points: np.ndarray, scheme: str, kept: np.ndarray) -> list[np.ndarray]:
    """T x_n and T^n x_n for n = 1 .. N >= 1 on a map without a closed-form power.

    Each image is a chain of ``m.apply`` calls on Vectors from x_n, as
    ``power_rows`` iterates it, so it has the same bits; a chain the update
    already ran is not run again.  Step n + 1 kept T x_n, and on a power
    scheme T^n x_n, in kept[n] (see ``_chain``); T x_N is applied afresh.  A
    T^n x_n not kept continues the chain from T x_n with n - 1 applications.
    On picard T^j x_n is x_{n+j}: the iterates are extended N applications
    past x_N, and both images are read off them.
    """
    N, v = len(points) - 1, Vector.from_array(points[-1])
    if scheme == "picard":
        tail = []
        for _ in range(N):
            v = m.apply(v)
            tail.append(v.coords)
        X = np.concatenate((points, tail))
        return [X[2:N + 2], X[2::2]]
    T = np.concatenate((kept[1:N, 0], [m.apply(v).coords]))
    first = N if scheme in POWER_SCHEMES else 1  # the first n whose T^n x_n was not kept
    rest = [_iterate(m, n - 1, Vector.from_array(T[n - 1])).coords for n in range(first, N + 1)]
    return [T, np.concatenate((kept[1:first, 1], rest))]


def _scalar_records(m: Mapping, points: np.ndarray, costs: list[int]):
    """The step records evaluated one step at a time on Vectors."""
    space = m.space
    xs = [Vector(x) for x in points.tolist()]
    for n, (prev, x, cost) in enumerate(zip(xs, xs[1:], costs), start=1):
        yield StepRecord(
            n=n,
            step_norm=space.norm(x - prev),
            residual_T=space.norm(x - apply_power(m, 1, x)),
            residual_Tn=space.norm(x - apply_power(m, n, x)),
            dist_to_known_fp=distance_to_fixed_set(m, x),
            applications=cost,
        )


def linear_rate_oracle(scheme: str, q: float, alpha: float, n: int = 1) -> float:
    """Exact per-step contraction factor for the linear map x -> q x.

    Independent of the engine: for a constant step size the schemes act on a
    scalar linear map by plain multiplication, so the step-n multiplier has a
    closed form.  ``n`` only matters for modified_pm_hybrid.
    """
    if not (0.0 < q < 1.0):
        raise ParameterError(f"q must lie in (0, 1), got {q}")
    if not (0.0 < alpha < 1.0):
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if n < 1:
        raise ContractError(f"step index must be >= 1, got {n}")
    if scheme == "picard":
        return q
    if scheme == "mann":
        return 1.0 - alpha * (1.0 - q)
    if scheme == "pm_hybrid":
        return q * (1.0 - alpha * (1.0 - q))
    if scheme == "modified_pm_hybrid":
        qn = q**n
        return qn * (1.0 - alpha * (1.0 - qn))
    raise ParameterError(f"no closed-form factor for scheme '{scheme}'")


# ---------------------------------------------------------------------------
# serialization

def _fmt(value: float | None) -> str:
    # repr gives the shortest decimal that round-trips, stable across platforms
    return "" if value is None else repr(float(value))


def trajectory_csv_rows(traj: Trajectory) -> list[list[str]]:
    dim = traj.config.mapping.space.dim
    header = ["n"] + [f"x_{i}" for i in range(dim)] + [
        "step_norm", "residual_T", "residual_Tn", "dist_to_known_fp",
    ]
    rows = [header]
    for rec, x in zip(traj.records, traj.points[1:].tolist()):
        rows.append(
            [str(rec.n)] + [_fmt(c) for c in x]
            + [_fmt(rec.step_norm), _fmt(rec.residual_T), _fmt(rec.residual_Tn),
               _fmt(rec.dist_to_known_fp)]
        )
    return rows


def write_trajectory_csv(traj: Trajectory, fileobj) -> None:
    writer = csv.writer(fileobj, lineterminator="\n")
    writer.writerows(trajectory_csv_rows(traj))


def _p_token(p: float) -> float | str:
    return "inf" if math.isinf(p) else p


def trajectory_header(traj: Trajectory) -> dict:
    """Config echo serialized alongside the CSV."""
    cfg = traj.config
    m = cfg.mapping
    return {
        "scheme": cfg.scheme,
        "mapping": {"id": m.mapping_id, "parameters": dict(m.parameters)},
        "space": {"dim": m.space.dim, "p": _p_token(m.space.p)},
        "x0": list(cfg.x0.coords),
        "alpha": cfg.alpha.to_dict() if cfg.alpha is not None else None,
        "beta": cfg.beta.to_dict() if cfg.beta is not None else None,
        "max_steps": cfg.max_steps,
        "stop_tolerance": cfg.stop_tolerance,
        "stop_reason": traj.stop_reason,
        "steps": traj.steps,
    }
