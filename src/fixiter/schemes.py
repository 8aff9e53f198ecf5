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
from .mappings import (Mapping, _chain, _fixed_set_distances, _iterate, _screen, _stack, apply_power,
                       distance_to_fixed_set, fixed_point_residual)
from .schedules import Schedule, _Memo
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


def _range_check(name: str, sched: Schedule, horizon: int,
                 lo_open: bool) -> tuple[ConstraintCheck, list[float]]:
    """The range check of sched(n) for n <= horizon, open at 1, and the values
    it read: all ``horizon`` of them when it is satisfied, up to the first
    violation otherwise."""
    lo_sym = "(" if lo_open else "["
    bounds = f"{lo_sym}0, 1)"

    def outside(v):  # of a value, or elementwise of an array of them
        return (v <= 0.0 if lo_open else v < 0.0) | (v >= 1.0)

    values = sched.values(1, horizon, until=outside).tolist()
    if outside(values[-1]):
        return ConstraintCheck(
            f"{name}_range", "violated", f"{name}({len(values)}) = {values[-1]} outside {bounds}"
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
    _check_scheme(scheme)
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
        check, values = _range_check("alpha", alpha, horizon, lo_open=lo_open)
        checks.append(check)
        if check.status == "satisfied":
            if not lo_open:  # mann, ishikawa, pm_hybrid
                checks.append(_divergence_check(values))
            else:
                checks.extend(_bounded_away_checks(values, enforced=scheme == "modified_mann"))
        if scheme == "ishikawa":
            if beta is None:
                raise ConfigurationError("ishikawa requires a beta schedule")
            checks.append(_range_check("beta", beta, horizon, lo_open=False)[0])

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


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Iterates x_0 .. x_N plus the record columns of steps n = 1 .. N.

    ``points`` holds the iterates as the rows of one read-only (N + 1, dim)
    float64 array; ``iterates`` boxes them into Vectors on first use.  Entry
    n - 1 of each column describes the step that produced x_n: the
    displacement from x_{n-1} (``step_norm``), the residuals ||x_n - T x_n||
    and ||x_n - T^n x_n|| (the power index is the step's own n), the distance
    to the known fixed-point set, None when no set is declared, and the
    mapping applications the scheme charges for the update, n for each T^n
    without a closed form: not the ``apply`` calls made, as a chain stops
    at a fixed point (diagnostics are not counted).
    """

    config: RunConfig
    points: np.ndarray
    step_norm: tuple[float, ...]
    residual_T: tuple[float, ...]
    residual_Tn: tuple[float, ...]
    dist_to_known_fp: tuple[float | None, ...]
    applications: tuple[int, ...]
    stop_reason: str  # tolerance | max_steps | domain_exit
    # alpha(n) for n <= min(max_steps, 10 000), or () where no check reads alpha, and the run's reader
    # of alpha, holding every alpha(n) read.  The config's schedule decides both: == and hash skip them.
    alpha_values: tuple[float, ...] = field(default=(), repr=False)
    _alpha: _Memo | None = field(default=None, repr=False)

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

    @property
    def steps(self) -> int:
        return len(self.step_norm)

    @property
    def final(self) -> Vector:
        return Vector.from_array(self.points[-1])

    @property
    def total_applications(self) -> int:
        return sum(self.applications)


def _check_start(config: RunConfig) -> None:
    """Refuse a start point of another dim than the mapping's space, or outside its domain."""
    m = config.mapping
    if config.x0.dim != m.space.dim:
        raise ContractError(f"x0 has dim {config.x0.dim}, mapping space has dim {m.space.dim}")
    if not m.domain.contains(m.space, config.x0):
        raise DomainError(f"x0 = {config.x0.coords} lies outside the mapping domain")


def _validate_config(config: RunConfig) -> tuple[_Memo | None, _Memo | None]:
    """Refuse a configuration ``run_scheme`` cannot run; return the run's readers of alpha and
    beta, or None, through which the schedule checks read n <= min(max_steps, 10 000)."""
    _check_scheme(config.scheme)
    if config.max_steps < 1:
        raise ContractError(f"max_steps must be >= 1, got {config.max_steps}")
    if not math.isfinite(config.stop_tolerance):
        raise ContractError(f"stop_tolerance must be finite, got {config.stop_tolerance}")
    _check_start(config)
    alpha, beta = (None if s is None else _Memo(s) for s in (config.alpha, config.beta))
    verdict = validate_schedule(config.scheme, alpha, beta, min(config.max_steps, 10_000))
    if not verdict.ok:
        failed = "; ".join(c.detail for c in verdict.checks if c.status == "violated" and c.enforced)
        raise ConfigurationError(f"schedule invalid for {config.scheme}: {failed}")
    return alpha, beta


# Steps the trajectory array first has room for; it doubles when full.
_CHUNK = 1024
# Steps in the first block the update runs before testing its points; each
# block after it is twice as long, up to _CHUNK steps.
_BLOCK = 16


def _unchecked_block(m: Mapping, stages: list, X: np.ndarray, first: int, last: int,
                     tol: float) -> tuple[int, str, None] | None:
    """Steps first .. last into X, with their points tested together at the end.

    Each weighted stage's weights w(n) and 1 - w(n) are read once for the
    block.  Each step's (1, dim) row is carried straight into the next step:
    a plain T stage calls ``apply_rows``, a power stage ``power_rows`` with
    the index row [n], and a weighted stage then forms (1 - w(n)) x + w(n) z
    with both weights as 0-d arrays, which hold the floats ``combine`` is
    given and so round as it does.  The block's iterates are written into X
    once, as every k-th of the points the steps made, k being the points one
    step makes.  One ``inside_rows`` call tests every point the steps made,
    and one ``norm_rows`` call takes their displacements, the first of which
    at most ``tol`` ends the run at its step.  Returns the last step kept and
    the stop reason, as ``_checked_block`` does, or None when a point is
    rejected.  The caller runs it under ``_screen``, so a block that raises
    or meets a numpy condition is also run again checked, and warns only at
    the steps its checked run reaches.  The row evaluators give the bits of
    their one-row views, and a combination runs the ufuncs ``combine`` runs,
    so a block returned here has the bits its checked run would have.

    Without a stop tolerance, a block whose start x* = x_{first-1} repeats
    x_{first-2} bit for bit is a repeated-iterate block: the same loop makes
    one pass, on as many copies of x* as the block has steps, with the index
    row first .. last and the weights as columns, so that row r is step
    first + r taken from x*.  The steps whose rows keep x*'s bits, and the
    first one that does not, had x* as their input, so the block keeps them
    and ends there; the rows after that are dropped, as the steps past an
    early stop are, and the next block reads their weights from the run's reader.
    """
    x = X[first - 1:first]
    ns = np.arange(first, last + 1)
    repeated = tol < 0.0 and first > 1 and np.array_equal(x.view(np.int64), X[first - 2:first - 1].view(np.int64))
    # Indexed by the pass r: one pass of every step on copies of x*, or one pass a step.
    rows, shape = (ns[None], (1, -1, 1)) if repeated else (ns[:, None], (-1,))
    stage_weights = []  # each stage: whether it applies T^n, and its 1 - w(n) and w(n), or None
    for reader, power in stages:
        w = None if reader is None else reader.values(first, last).reshape(shape)
        stage_weights.append((power, None if w is None else 1.0 - w, w))
    if repeated:
        x = np.repeat(x, len(ns), 0)
    made = []
    for r, row in enumerate(rows):
        z = x
        for power, v, w in stage_weights:
            z = m.power_rows(row, z) if power else m.apply_rows(z)
            made.append(z)
            if w is not None:
                z = np.add(np.multiply(v[r, ...], x), np.multiply(w[r, ...], z))
                made.append(z)
        x = z
    k = sum(1 + (reader is not None) for reader, _ in stages)  # points per step
    if repeated:
        moved = np.flatnonzero((x.view(np.int64) != X[first - 1:first].view(np.int64)).any(axis=1))
        last = first + int(moved[0]) if len(moved) else last
        P = np.stack(made, axis=1)[:last - first + 1].reshape(-1, X.shape[1])  # step-major, as row steps append them
    else:
        P = np.concatenate(made)
    if not m.domain.inside_rows(m.space, P).all():
        return None
    X[first:last + 1] = P[k - 1::k]
    moves = X[first:last + 1] - X[first - 1:last]
    stops = np.flatnonzero(m.space.norm_rows(moves) <= tol) if tol >= 0.0 else ()
    if len(stops):
        return first + int(stops[0]), "tolerance", None
    return last, "max_steps", None


def _checked_block(m: Mapping, stages: list, X: np.ndarray, kept: tuple[list, list] | None, first: int,
                   last: int, tol: float) -> tuple[int, str, Exception | None]:
    """Steps first .. last into X on Vectors, each point tested as it is made.

    Each stage maps z with ``_iterate``, k = n on a power stage and 1
    otherwise, or with ``_chain`` on the first stage of a run that keeps its
    images, tests the image with ``contains``, and then mixes it with x by
    ``combine`` and tests the mix: the calls a step on Vectors makes, in its
    order.  A step kept appends the T x its chain passed to ``kept[0]`` and,
    when the first stage is a power stage, the chain's T^{k-1} x to
    ``kept[1]``; elsewhere that is x itself.  The stop tolerance reads
    ``norm_rows`` of the row difference, inf where it overflows.  Returns
    the last step kept, the stop reason ("max_steps" when the block ran to
    its end) and the error a step raised, if any.
    """
    space, contains = m.space, m.domain.contains
    x = Vector.from_array(X[first - 1])
    for n in range(first, last + 1):
        z, pair = x, None
        try:
            for reader, power in stages:
                w = None if reader is None else reader[n]
                if kept is not None and pair is None:  # the first stage keeps the images its chain passes
                    *pair, z = _chain(m, x, n if power else 1)
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
            kept[0].append(pair[0])
            if stages[0][1]:
                kept[1].append(pair[1])
        X[n] = z.array
        if tol >= 0.0 and space.norm_rows(X[n:n + 1] - X[n - 1:n])[0] <= tol:
            return n, "tolerance", None
        x = z
    return last, "max_steps", None


def run_scheme(config: RunConfig) -> Trajectory:
    """Execute the configured scheme and record the trajectory.

    Each schedule is evaluated at most once per n: the checks and the steps
    read it through a run's ``_Memo``, alpha's kept on the trajectory.  The
    iterates are the rows of one float64 array, written in blocks of steps:
    16 steps first, and each block after it twice as long, up to 1024.  A
    block first runs through the mapping's row evaluators without domain
    tests, each step's row carried straight into the next, and then one
    ``inside_rows`` call tests every point it made, its iterates are written
    into the array once and one ``norm_rows`` call checks the stop
    tolerance.  ``alpha_values`` holds alpha(n) for n <= min(max_steps,
    10 000).  Both the block and the record columns below are array
    passes under ``_screen``'s rule: when a point is rejected, anything
    raises, or numpy meets a condition it would act on, the pass gives way to
    its scalar path.  A block then runs again from its first step on
    Vectors, through ``apply``, the closed form and ``combine``, each point
    tested as it is made; only that checked run ends a trajectory at a
    domain exit or an error.  So an evaluator may be called on points past
    an early stop in its block, and the results are dropped.  Without a stop
    tolerance, a block that starts from an iterate repeating the one before
    it bit for bit, as a converged run's usually does, is a repeated-iterate
    block (see ``_unchecked_block``).  A map without a closed-form power,
    whose T^n costs n applications, runs every block checked.

    The step records are computed afterwards as array columns, or else step
    by step on Vectors.  On a map without a closed-form power, step n + 1
    keeps the images of x_n that its first stage passes as Vectors, T x_n
    and, on a power scheme, T^n x_n, and the records read them (see
    ``_chained_images``).  Both give exactly what evaluating every step on
    Vectors gives, errors and warnings included: an error the update raises
    is held until the records of the steps before it are computed, since
    those were computed, and could raise, first.
    """
    alpha, beta = _validate_config(config)
    m = config.mapping
    space = m.space
    if config.scheme == "modified_pm_hybrid" and not space.uniformly_convex:
        warnings.warn(
            f"p = {space.p} is not uniformly convex; convergence guarantees for "
            "modified_pm_hybrid assume 1 < p < inf",
            UserWarning,
            stacklevel=2,
        )

    alpha_values = () if alpha is None else tuple(alpha.read)  # the values the checks read
    # Each stage: the run's reader of its weight schedule, or None, and whether it applies T^n.
    stages = [({"alpha": alpha, "beta": beta}.get(w), power) for w, power in _STAGES[config.scheme]]
    X = np.empty((min(config.max_steps, _CHUNK) + 1, space.dim))
    X[0] = config.x0.coords
    # kept[0][n], kept[1][n]: T x_n and, on a power scheme, T^n x_n, as step n + 1's
    # chain passed them, for the records; picard's read the iterates instead.
    kept = None if m.has_power or config.scheme == "picard" else ([], [])
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
    fixed = sum(not power for _, power in stages)
    powered = len(stages) - fixed
    costs = [fixed + powered] * steps if m.has_power else [fixed + powered * n for n in range(1, steps + 1)]
    columns = _screen(lambda: _record_columns(m, points, config.scheme, kept)) or _scalar_records(m, points)
    if error is not None:
        raise error
    return Trajectory(config, points, *map(tuple, columns), tuple(costs), stop_reason, alpha_values, alpha)


def _record_columns(m: Mapping, points: np.ndarray, scheme: str,
                    kept: tuple[list, list] | None) -> list[list] | None:
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


def _chained_images(m: Mapping, points: np.ndarray, scheme: str,
                    kept: tuple[list, list] | None) -> list[np.ndarray]:
    """T x_n and T^n x_n for n = 1 .. N >= 1 on a map without a closed-form power.

    Each image is a chain of ``m.apply`` calls on Vectors from x_n, as
    ``_iterate`` runs it, so it has the same bits; a chain the update already
    ran is not run again.  Step n + 1 kept in kept[0][n] the T x_n its chain
    passed and, on a power scheme, in kept[1][n] its T^n x_n (see
    ``_chain``); T x_N is applied afresh.  A T^n x_n not kept continues the
    chain from T x_n with n - 1 applications, and is stacked as it is made,
    not held.  On picard T^j x_n is x_{n+j}: the iterates are extended N
    steps past x_N by one ``_chain``, and both images are read off them.
    """
    N, v = len(points) - 1, Vector.from_array(points[-1])
    if scheme == "picard":
        tail = []
        _chain(m, v, N, lambda image: tail.append(image.coords))
        tail += tail[-1:] * (N - len(tail))  # a chain stopped at a fixed point, which the rest repeats
        X = np.concatenate((points, tail))
        return [X[2:N + 2], X[2::2]]
    T, held = kept[0][1:] + [m.apply(v)], kept[1][1:]
    Tn = chain(held, (_chain(m, T[n - 1], n - 1)[2] if n > 1 else T[0] for n in range(len(held) + 1, N + 1)))
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

def _float_texts(a: np.ndarray) -> list[str]:
    """repr of each float in the 1-D float64 array ``a``, in order, from one
    orjson pass, with the values where the two notations may part written by
    repr itself."""
    import orjson

    if not a.size:
        return []
    texts = orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    # orjson writes repr's shortest round-trip digits (Ryu), but as null where
    # a value is not finite, and in another notation where repr's is
    # scientific with a sign or a padded exponent: "1e16" and "1.5e-7", or
    # positional digits down to 1e-5, against "1e+16" and "1.5e-07".  The
    # band edges keep a margin round 1e-9 and 1e16, where the exponent gains
    # or loses a digit.
    mag = np.abs(a)
    with np.errstate(invalid="ignore"):
        back = np.flatnonzero(~(mag < 5e15) | ((mag >= 5e-10) & (mag < 2e-4)))
    for i, value in zip(back.tolist(), a[back].tolist()):
        texts[i] = repr(value)
    return texts


def _csv_columns(traj: Trajectory) -> list:
    """Each CSV column: its header cell, then one cell per step.  Floats are
    written with repr, the shortest decimal that round-trips, stable across
    platforms; an unknown distance is an empty cell."""
    names = [f"x_{i}" for i in range(traj.points.shape[1])] + ["step_norm", "residual_T", "residual_Tn"]
    floats = [*traj.points[1:].T, traj.step_norm, traj.residual_T, traj.residual_Tn]
    dist = traj.dist_to_known_fp
    known = None not in dist
    if known:
        names.append("dist_to_known_fp")
        floats.append(dist)
    steps = traj.steps
    texts = _float_texts(np.array(floats, dtype=float).ravel())
    cells = {"n": map(str, range(1, steps + 1)),
             **{name: texts[i * steps:(i + 1) * steps] for i, name in enumerate(names)}}
    if not known:
        cells["dist_to_known_fp"] = ("" if d is None else repr(d) for d in dist)
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
