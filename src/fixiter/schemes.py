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

import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import ConfigurationError, ContractError, DomainError, ParameterError
from .mappings import (Mapping, _fixed_set_distances, _iterate, _screen, _stack, apply_power,
                       distance_to_fixed_set, fixed_point_residual)
from .schedules import Schedule
from .space import Vector, combine

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
SCHEMES = tuple(_STAGES)
# Schemes whose update applies T^n rather than T.
POWER_SCHEMES = tuple(scheme for scheme, stages in _STAGES.items() if any(power for _, power in stages))

_ALPHA_FLOOR = 1e-3
_DECAY_FACTOR = 2.0 / 3.0


def _check_scheme(scheme: str) -> None:
    if scheme not in SCHEMES:
        raise ConfigurationError(f"unknown scheme '{scheme}'; known schemes: {SCHEMES}")


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
    now, then = values[horizon - 1], values[mid - 1]
    # Each side: its name, its gap to the bound now and at mid-horizon, the
    # wording of a trend to the bound and of the bound that held.
    sides = (
        ("below", now, then,
         f"trending to 0 (vs alpha({mid}) = {then:.6g}); no positive lower bound",
         f">= {min(values):.6g} with no decay trend"),
        ("above", 1.0 - now, 1.0 - then,
         "trending to 1; no upper bound below 1",
         f"<= {max(values):.6g} with no growth trend"),
    )
    checks = []
    for side, gap_now, gap_mid, trend, bound in sides:
        if gap_now <= _DECAY_FACTOR * gap_mid:
            checks.append(ConstraintCheck(
                f"alpha_bounded_{side}", "violated" if enforced else "undetermined",
                f"alpha({horizon}) = {now:.6g} is {trend}", enforced,
            ))
        else:
            checks.append(ConstraintCheck(f"alpha_bounded_{side}", "satisfied", f"alpha(n) {bound}", enforced))
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
    return _schedule_verdict(scheme, alpha, beta, horizon)[0]


def _schedule_verdict(scheme: str, alpha: Schedule | None, beta: Schedule | None,
                      horizon: int) -> tuple[ScheduleVerdict, dict[str, list[float]]]:
    """``validate_schedule``'s verdict, and the values of each schedule its
    range checks read, by the schedule's name."""
    _check_scheme(scheme)
    if horizon < 1:
        raise ContractError(f"horizon must be >= 1, got {horizon}")
    if beta is not None and scheme != "ishikawa":
        raise ConfigurationError(f"beta schedule is only meaningful for ishikawa, not {scheme}")

    checks: list[ConstraintCheck] = []
    read: dict[str, list[float]] = {}
    if scheme == "picard":
        checks.append(ConstraintCheck("no_schedule_needed", "satisfied", "picard uses no step sizes"))
    else:
        if alpha is None:
            raise ConfigurationError(f"scheme {scheme} requires an alpha schedule")
        # Each check reads the values the range check read, so each alpha(n) is evaluated once.
        lo_open = scheme in POWER_SCHEMES
        check, read["alpha"] = _range_check("alpha", alpha, horizon, lo_open=lo_open, hi_open=True)
        checks.append(check)
        if check.status == "satisfied":
            if not lo_open:  # mann, ishikawa, pm_hybrid
                checks.append(_divergence_check(read["alpha"]))
            else:
                checks.extend(_bounded_away_checks(read["alpha"], enforced=scheme == "modified_mann"))
        if scheme == "ishikawa":
            if beta is None:
                raise ConfigurationError("ishikawa requires a beta schedule")
            check, read["beta"] = _range_check("beta", beta, horizon, lo_open=False, hi_open=True)
            checks.append(check)

    enforced = [c for c in checks if c.enforced]
    if any(c.status == "violated" for c in enforced):
        verdict = "violated"
    elif any(c.status == "undetermined" for c in enforced):
        verdict = "undetermined"
    else:
        verdict = "satisfied"
    return ScheduleVerdict(scheme=scheme, verdict=verdict, checks=tuple(checks)), read


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
    """Iterates x_0 .. x_N plus the record columns of steps n = 1 .. N.

    ``points`` holds the iterates as the rows of one read-only (N + 1, dim)
    float64 array; ``iterates`` boxes them into Vectors on first use.  Entry
    n - 1 of each column describes the step that produced x_n: the
    displacement from x_{n-1} (``step_norm``), the residuals ||x_n - T x_n||
    and ||x_n - T^n x_n|| (the power index is the step's own n), the distance
    to the known fixed-point set, None when no set is declared, and the
    number of mapping applications the scheme update spent (diagnostics are
    not counted).  ``records`` boxes the columns into StepRecords on first use.
    """

    config: RunConfig
    points: np.ndarray
    step_norm: tuple[float, ...]
    residual_T: tuple[float, ...]
    residual_Tn: tuple[float, ...]
    dist_to_known_fp: tuple[float | None, ...]
    applications: tuple[int, ...]
    stop_reason: str  # tolerance | max_steps | domain_exit
    # alpha(n) for n = 1 .. min(max_steps, 10 000), the values the schedule
    # checks read and the steps used, or () without an alpha schedule.  The
    # config's schedule decides them, so == and hash do not read them.
    alpha_values: tuple[float, ...] = field(default=(), repr=False)

    def _key(self) -> tuple:
        return (self.config, self.step_norm, self.residual_T, self.residual_Tn, self.dist_to_known_fp,
                self.applications, self.stop_reason)

    def __eq__(self, other):
        if not isinstance(other, Trajectory):
            return NotImplemented
        return self._key() == other._key() and np.array_equal(self.points, other.points)

    def __hash__(self):
        return hash(self._key())

    @cached_property
    def iterates(self) -> tuple[Vector, ...]:
        return tuple(Vector(x) for x in self.points.tolist())

    @cached_property
    def records(self) -> tuple[StepRecord, ...]:
        return tuple(StepRecord(n, *fields) for n, fields in enumerate(zip(
            self.step_norm, self.residual_T, self.residual_Tn, self.dist_to_known_fp, self.applications), 1))

    @property
    def scheme(self) -> str:
        return self.config.scheme

    @property
    def steps(self) -> int:
        return len(self.step_norm)

    @property
    def final(self) -> Vector:
        return Vector.from_array(self.points[-1])

    @property
    def total_applications(self) -> int:
        return sum(self.applications)


def _validate_config(config: RunConfig) -> dict[str, list[float]]:
    """Refuse a configuration ``run_scheme`` cannot run; return the values of
    each schedule the schedule checks read, for n <= min(max_steps, 10 000)."""
    _check_scheme(config.scheme)
    if config.max_steps < 1:
        raise ContractError(f"max_steps must be >= 1, got {config.max_steps}")
    if not math.isfinite(config.stop_tolerance):
        raise ContractError(f"stop_tolerance must be finite, got {config.stop_tolerance}")
    m = config.mapping
    if config.x0.dim != m.space.dim:
        raise ContractError(f"x0 has dim {config.x0.dim}, mapping space has dim {m.space.dim}")
    if not m.domain.contains(m.space, config.x0):
        raise DomainError(f"x0 = {config.x0.coords} lies outside the mapping domain")
    horizon = min(config.max_steps, 10_000)
    verdict, read = _schedule_verdict(config.scheme, config.alpha, config.beta, horizon)
    if not verdict.ok:
        failed = "; ".join(c.detail for c in verdict.checks if c.status == "violated" and c.enforced)
        raise ConfigurationError(f"schedule invalid for {config.scheme}: {failed}")
    return read


# Steps the trajectory array first has room for; it doubles when full.
_CHUNK = 1024
# Steps in the first block the update runs before testing its points; each
# block after it is twice as long, up to _CHUNK steps.
_BLOCK = 16


def _weight(schedule: Schedule | None, values: list[float], n: int) -> float | None:
    """w(n) of a stage's weight schedule, read from the values the checks read
    for n up to their length, or None for a stage without one."""
    return None if schedule is None else values[n - 1] if n <= len(values) else schedule.at(n)


def _step(m: Mapping, stages: list, x: np.ndarray, n: int, ns: np.ndarray, made: list) -> np.ndarray:
    """x_n from the (1, dim) row x = x_{n-1}, with no point tested.

    A plain T stage calls ``apply_rows``, a power stage ``power_rows`` with
    ns, the index row [n].  Each point a stage makes, its image and then its
    combination, is appended to ``made``, for the caller to test with its
    block.
    """
    z = x
    for schedule, values, power in stages:
        w = _weight(schedule, values, n)
        z = m.power_rows(ns, z) if power else m.apply_rows(z)
        made.append(z)
        if w is not None:
            z = (1.0 - w) * x + w * z
            made.append(z)
    return z


def _chain(m: Mapping, x: Vector, k: int) -> tuple[Vector, tuple[Vector, Vector]]:
    """T^k x as k calls of ``m.apply``, the calls ``_iterate`` makes on a map
    without a closed-form power, and the pair (T x, T^{k-1} x) it passes."""
    apply = m.apply
    first = v = apply(x)
    last = x
    for _ in range(k - 1):
        last, v = v, apply(v)
    return v, (first, last)


def _unchecked_block(m: Mapping, stages: list, X: np.ndarray, first: int, last: int,
                     tol: float) -> tuple[int, str, None] | None:
    """Steps first .. last into X, with their points tested together at the end.

    Each step's row is carried straight into the next step, and the block's
    iterates are written into X once, as every k-th of the points the steps
    made, k being the points one step makes.  One ``inside_rows`` call tests
    every point the steps made, and one ``norm_rows`` call takes their
    displacements, the first of which at most ``tol`` ends the run at its
    step.  Returns the last step kept and the stop reason, as
    ``_checked_block`` does, or None when a point is rejected.  The caller
    runs it under ``_screen``, so a block that raises or meets a numpy
    condition is also run again checked, and warns only at the steps its
    checked run reaches.  The row evaluators give the bits of their one-row
    views, and a combination runs the ufuncs ``combine`` runs, so a block
    returned here has the bits its checked run would have.
    """
    made = []
    k = sum(1 + (schedule is not None) for schedule, _, _ in stages)  # points per step
    x = X[first - 1:first]
    for n, ns in zip(range(first, last + 1), np.arange(first, last + 1)[:, None]):
        x = _step(m, stages, x, n, ns, made)
    P = np.concatenate(made)
    if not m.domain.inside_rows(m.space, P).all():
        return None
    X[first:last + 1] = P[k - 1::k]
    moves = X[first:last + 1] - X[first - 1:last]
    stops = np.flatnonzero(m.space.norm_rows(moves) <= tol) if tol >= 0.0 else ()
    if len(stops):
        return first + int(stops[0]), "tolerance", None
    return last, "max_steps", None


def _checked_block(m: Mapping, stages: list, X: np.ndarray, kept: list | None, first: int, last: int,
                   tol: float) -> tuple[int, str, Exception | None]:
    """Steps first .. last into X on Vectors, each point tested as it is made.

    Each stage maps z with ``_iterate``, k = n on a power stage and 1
    otherwise, or with ``_chain`` on the first stage of a run that keeps its
    images, tests the image with ``contains``, and then mixes it with x by
    ``combine`` and tests the mix: the calls a step on Vectors makes, in its
    order.  A step kept appends its chain's pair to ``kept``.  The stop
    tolerance reads ``norm_rows`` of the row difference, inf where it
    overflows.  Returns the last step kept, the stop reason ("max_steps"
    when the block ran to its end) and the error a step raised, if any.
    """
    space, contains = m.space, m.domain.contains
    x = Vector.from_array(X[first - 1])
    for n in range(first, last + 1):
        z, pair = x, None
        try:
            for schedule, values, power in stages:
                w = _weight(schedule, values, n)
                if kept is not None and pair is None:  # the first stage keeps the images its chain passes
                    z, pair = _chain(m, x, n if power else 1)
                else:
                    z = _iterate(m, n if power else 1, z)
                if not contains(space, z):
                    return n - 1, "domain_exit", None
                if w is not None:
                    z = combine(w, x, z)
                    if not contains(space, z):
                        return n - 1, "domain_exit", None
        except DomainError:  # raised by an evaluator: a domain exit, as in apply_power
            return n - 1, "domain_exit", None
        except Exception as e:  # raised by run_scheme, once the records before it are computed
            return n - 1, "max_steps", e
        if kept is not None:
            kept.append(pair)
        X[n] = z.array
        if tol >= 0.0 and space.norm_rows(X[n:n + 1] - X[n - 1:n])[0] <= tol:
            return n, "tolerance", None
        x = z
    return last, "max_steps", None


def run_scheme(config: RunConfig) -> Trajectory:
    """Execute the configured scheme and record the trajectory.

    Each schedule is evaluated once per n: the weights of steps n <=
    min(max_steps, 10 000) are the values the schedule checks read.  The
    iterates are the rows of one float64 array, written in blocks of steps:
    16 steps first, and each block after it twice as long, up to 1024.  A
    block first runs through the mapping's row evaluators without domain
    tests, each step's row carried straight into the next, and then one
    ``inside_rows`` call tests every point it made, its iterates are written
    into the array once and one ``norm_rows`` call checks the stop
    tolerance.  The trajectory keeps the alpha values the checks read in
    ``alpha_values``.  Both the block and the record columns below are array
    passes under ``_screen``'s rule: when a point is rejected, anything
    raises, or numpy meets a condition it would act on, the pass gives way to
    its scalar path.  A block then runs again from its first step on
    Vectors, through ``apply``, the closed form and ``combine``, each point
    tested as it is made; only that checked run ends a trajectory at a
    domain exit or an error.  So an evaluator may be called on points past
    an early stop in its block, and the results are dropped.  A map without
    a closed-form power, whose T^n costs n applications, runs every block
    checked.

    The step records are computed afterwards as array columns, or else step
    by step on Vectors.  On a map without a closed-form power, step n + 1
    keeps the images of x_n that its first stage passes as Vectors, T x_n
    and, on a power scheme, T^n x_n, and the records read them (see
    ``_chained_images``).  Both give exactly what evaluating every step on
    Vectors gives, errors and warnings included: an error the update raises
    is held until the records of the steps before it are computed, since
    those were computed, and could raise, first.
    """
    read = _validate_config(config)
    m = config.mapping
    space = m.space
    if config.scheme == "modified_pm_hybrid" and not space.uniformly_convex:
        warnings.warn(
            f"p = {space.p} is not uniformly convex; convergence guarantees for "
            "modified_pm_hybrid assume 1 < p < inf",
            UserWarning,
            stacklevel=2,
        )

    # Each stage: its weight schedule, the values of it the checks read, and whether it applies T^n.
    stages = [(None, (), power) if w is None else (getattr(config, w), read[w], power)
              for w, power in _STAGES[config.scheme]]
    X = np.empty((min(config.max_steps, _CHUNK) + 1, space.dim))
    X[0] = config.x0.coords
    # kept[n]: the pair step n + 1's chain passed, for the records; picard's read the iterates instead.
    kept = None if m.has_power or config.scheme == "picard" else []
    steps, stop_reason, error, size = 0, "max_steps", None, _BLOCK
    while steps < config.max_steps and stop_reason == "max_steps" and error is None:
        if steps == len(X) - 1:  # X is full: it doubles, up to max_steps
            X = np.concatenate((X, np.empty((min(steps + 1, config.max_steps - steps), space.dim))))
        last = min(steps + size, config.max_steps, len(X) - 1)  # a block ends where X is full
        first, tol = steps + 1, config.stop_tolerance
        # Without a closed-form power, a step past an early stop costs n applications.
        ran = _screen(lambda: _unchecked_block(m, stages, X, first, last, tol)) if m.has_power else None
        steps, stop_reason, error = ran or _checked_block(m, stages, X, kept, first, last, tol)
        size = min(2 * size, _CHUNK)

    points = X[: steps + 1]
    points.flags.writeable = False
    fixed = sum(not power for _, _, power in stages)
    powered = len(stages) - fixed
    costs = [fixed + powered] * steps if m.has_power else [fixed + powered * n for n in range(1, steps + 1)]
    columns = _screen(lambda: _record_columns(m, points, config.scheme, kept)) or _scalar_records(m, points)
    if error is not None:
        raise error
    return Trajectory(config, points, *map(tuple, columns), tuple(costs), stop_reason,
                      tuple(read.get("alpha", ())))


def _record_columns(m: Mapping, points: np.ndarray, scheme: str, kept: list | None) -> list[list] | None:
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


def _chained_images(m: Mapping, points: np.ndarray, scheme: str, kept: list | None) -> list[np.ndarray]:
    """T x_n and T^n x_n for n = 1 .. N >= 1 on a map without a closed-form power.

    Each image is a chain of ``m.apply`` calls on Vectors from x_n, as
    ``_iterate`` runs it, so it has the same bits; a chain the update already
    ran is not run again.  Step n + 1 kept the pair its chain passed in
    kept[n], T x_n and, on a power scheme, T^n x_n (see ``_chain``); T x_N is
    applied afresh.  A T^n x_n not kept continues the chain from T x_n with
    n - 1 applications.  On picard T^j x_n is x_{n+j}: the iterates are
    extended N applications past x_N, and both images are read off them.
    """
    N, v = len(points) - 1, Vector.from_array(points[-1])
    if scheme == "picard":
        tail = []
        for _ in range(N):
            v = m.apply(v)
            tail.append(v.coords)
        X = np.concatenate((points, tail))
        return [X[2:N + 2], X[2::2]]
    T = [image for image, _ in kept[1:]] + [m.apply(v)]
    first = N if scheme in POWER_SCHEMES else 1  # the first n whose T^n x_n was not kept
    Tn = [image for _, image in kept[1:first]] + [_iterate(m, n - 1, T[n - 1]) for n in range(first, N + 1)]
    return [_stack(T, points[1:].shape), _stack(Tn, points[1:].shape)]


def _scalar_records(m: Mapping, points: np.ndarray) -> list[list]:
    """The record columns evaluated one step at a time on Vectors."""
    space = m.space
    xs = [Vector(x) for x in points.tolist()]
    columns = [[], [], [], []]
    for n, (prev, x) in enumerate(zip(xs, xs[1:]), start=1):
        row = (space.norm(x - prev), fixed_point_residual(m, x), space.norm(x - apply_power(m, n, x)),
               distance_to_fixed_set(m, x))
        for column, value in zip(columns, row):
            column.append(value)
    return columns


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

def _csv_columns(traj: Trajectory) -> list:
    """Each CSV column: its header cell, then one cell per step.  Floats are
    written with repr, the shortest decimal that round-trips, stable across
    platforms; an unknown distance is an empty cell."""
    xs = traj.points[1:]
    cells = {"n": map(str, range(1, traj.steps + 1))}
    cells.update((f"x_{i}", map(repr, xs[:, i].tolist())) for i in range(xs.shape[1]))
    cells.update((name, map(repr, getattr(traj, name))) for name in ("step_norm", "residual_T", "residual_Tn"))
    cells["dist_to_known_fp"] = ("" if d is None else repr(d) for d in traj.dist_to_known_fp)
    return [chain((name,), column) for name, column in cells.items()]


def trajectory_csv_rows(traj: Trajectory) -> list[list[str]]:
    return [list(row) for row in zip(*_csv_columns(traj))]


def write_trajectory_csv(traj: Trajectory, fileobj) -> None:
    """Write the rows of ``trajectory_csv_rows`` as ``csv.writer`` writes them
    with Unix line endings: no cell needs quoting, so each row is its cells
    joined by commas."""
    fileobj.write("\n".join(map(",".join, zip(*_csv_columns(traj)))) + "\n")


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
