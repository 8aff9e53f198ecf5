"""Convergence diagnostics over finite trajectories and sequences.

A finite run can never certify a limit, only a Cauchy-flat tail, so every
"converged" verdict here means: over the final window (last 25% of entries,
at least 50 when available) the values oscillate by at most a tolerance.
Checkers either confirm a property on the recorded data, flag the exact index
where it fails, or report that the data cannot decide (hypothesis failures
are kept distinct from conclusion failures throughout).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import ContractError, ScopeError
from .mappings import (
    TAU_CERT,
    Certificate,
    Mapping,
    _certify,
    _fixed_set_distances,
    distance_to_fixed_set,
    fixed_point_residual,
    special_points,
)
from .schemes import ConstraintCheck, RunConfig, Trajectory, run_scheme
from .space import NormedSpace, Vector, _point_distances, _rng, _same_dim, combine

TAU_LIM = 1e-8
TAU_REG = 1e-8
TAU_LEM22 = 1e-6
TAU_SUM = 1e-6
TAU_FP = 1e-8

_BLOWUP = 1e12
_TAIL_FRACTION, _TAIL_MIN_ENTRIES = 0.25, 50


def tail_window_start(length: int) -> int:
    """First index of the tail window: the last 25% of entries, widened to at
    least 50 when the record is long enough, else the whole record."""
    if length < 1:
        raise ContractError(f"window needs at least one entry, got length {length}")
    span = max(math.ceil(_TAIL_FRACTION * length), _TAIL_MIN_ENTRIES)
    return max(length - span, 0)


@dataclass(frozen=True)
class LimitVerdict:
    verdict: str  # converged | diverged | undetermined
    last_value: float
    tail_oscillation: float
    estimated_limit: float | None
    window_start: int

    def to_dict(self) -> dict:
        return asdict(self)


def limit_verdict(values: Sequence[float]) -> LimitVerdict:
    """Decide convergence of a recorded sequence by tail-window oscillation."""
    arr = np.asarray(list(values), dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ContractError("limit_verdict needs a nonempty one-dimensional sequence")
    if not np.isfinite(arr).all():
        raise ContractError("sequence entries must be finite")
    start = tail_window_start(arr.size)
    window = arr[start:]
    osc = float(window.max() - window.min())
    last = float(arr[-1])
    if osc <= TAU_LIM:
        est = 0.0 if float(window.min()) <= TAU_LIM else float(window[-1])
        return LimitVerdict("converged", last, osc, est, start)
    if last > _BLOWUP and window[-1] >= 2.0 * window[0]:
        return LimitVerdict("diverged", last, osc, None, start)
    return LimitVerdict("undetermined", last, osc, None, start)


# ---------------------------------------------------------------------------
# perturbed-recurrence checker

@dataclass(frozen=True)
class Lemma21Report:
    """Outcome of checking a_{n+1} <= (1 + delta_n) a_n + b_n with summable
    perturbations, plus a convergence verdict on the a sequence.

    ``first_violation_index`` is the 0-based index of the first a entry that
    breaks the inequality against its predecessor, or None.  When a hypothesis
    fails the verdict is undetermined: the recurrence then asserts nothing.
    """

    limit: LimitVerdict
    recurrence_ok: bool
    first_violation_index: int | None
    delta_tail_sum: float
    b_tail_sum: float
    summable: bool

    @property
    def hypothesis_ok(self) -> bool:
        return self.recurrence_ok and self.summable

    @property
    def verdict(self) -> str:
        return self.limit.verdict if self.hypothesis_ok else "undetermined"

    @property
    def estimated_limit(self) -> float | None:
        return self.limit.estimated_limit if self.hypothesis_ok else None

    def to_dict(self) -> dict:
        return {"verdict": self.verdict, **asdict(self), "estimated_limit": self.estimated_limit}


def check_lemma21(
    a: Sequence[float], b: Sequence[float], delta: Sequence[float], N: int
) -> Lemma21Report:
    """Check the perturbed monotonicity recurrence on the first N entries."""
    if N < 2:
        raise ContractError(f"N must be >= 2, got {N}")
    aa = np.asarray(list(a), dtype=float)[:N]
    bb = np.asarray(list(b), dtype=float)[:N]
    dd = np.asarray(list(delta), dtype=float)[:N]
    if aa.size < N or bb.size < N or dd.size < N:
        raise ContractError(f"all sequences must have length >= N = {N}")
    for name, arr in (("a", aa), ("b", bb), ("delta", dd)):
        if not np.isfinite(arr).all():
            raise ContractError(f"sequence {name} contains non-finite entries")
        if (arr < 0.0).any():
            raise ContractError(f"sequence {name} contains negative entries")

    violations = np.flatnonzero(aa[1:] > (1.0 + dd[:-1]) * aa[:-1] + bb[:-1] + 1e-12)
    first_violation = int(violations[0]) + 1 if len(violations) else None
    recurrence_ok = first_violation is None

    start = tail_window_start(N)
    delta_tail = float(dd[start:].sum())
    b_tail = float(bb[start:].sum())
    summable = delta_tail <= TAU_SUM and b_tail <= TAU_SUM

    lv = limit_verdict(aa)
    if recurrence_ok and summable and float(aa[start:].min()) <= TAU_LIM:
        # a subsequence inside the window already sits at zero, which under
        # the recurrence hypotheses pins the whole limit to zero
        lv = replace(lv, estimated_limit=0.0)
    return Lemma21Report(
        limit=lv,
        recurrence_ok=recurrence_ok,
        first_violation_index=first_violation,
        delta_tail_sum=delta_tail,
        b_tail_sum=b_tail,
        summable=summable,
    )


# ---------------------------------------------------------------------------
# uniform-convexity collapse checker

@dataclass(frozen=True)
class Lemma22Report:
    hypothesis_checks: tuple[ConstraintCheck, ...]
    conclusion_tail_max: float
    conclusion_ok: bool | None
    verdict: str  # confirmed | conclusion_failure | hypothesis_failure

    @property
    def hypothesis_ok(self) -> bool:
        return all(c.status == "satisfied" for c in self.hypothesis_checks)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "hypothesis_checks": [
                {"name": c.name, "status": c.status, "detail": c.detail}
                for c in self.hypothesis_checks
            ],
            "conclusion_tail_max": self.conclusion_tail_max,
            "conclusion_ok": self.conclusion_ok,
        }


def check_lemma22_witness(
    t: Sequence[float],
    xs: Sequence[Vector],
    ys: Sequence[Vector],
    r: float,
    space: NormedSpace,
    N: int,
    a_bound: float,
    b_bound: float,
) -> Lemma22Report:
    """Check the two-sequence collapse property in a uniformly convex space.

    Hypotheses checked over the tail window: both sequences stay norm-bounded
    by r, and the t-mixture (1 - t_n) x_n + t_n y_n has norm approaching r.
    When all hold, the gap ||x_n - y_n|| must die out; its tail max is
    compared against ``TAU_LEM22``.  A failed hypothesis yields verdict
    hypothesis_failure and no claim about the conclusion.
    """
    if not space.uniformly_convex:
        raise ContractError(f"p = {space.p} is not uniformly convex (need 1 < p < inf)")
    if not (0.0 < a_bound <= b_bound < 1.0):
        raise ContractError(f"need 0 < a <= b < 1, got a = {a_bound}, b = {b_bound}")
    if r <= 0.0:
        raise ContractError(f"r must be > 0, got {r}")
    if N < 1:
        raise ContractError(f"N must be >= 1, got {N}")
    if len(t) < N or len(xs) < N or len(ys) < N:
        raise ContractError(f"t, x, y must each have length >= N = {N}")
    for i in range(N):
        if not (a_bound <= t[i] <= b_bound):
            raise ContractError(f"t[{i}] = {t[i]} outside [{a_bound}, {b_bound}]")

    x_norms = np.array([space.norm(xs[i]) for i in range(N)])
    y_norms = np.array([space.norm(ys[i]) for i in range(N)])
    mix_norms = np.array([space.norm(combine(t[i], xs[i], ys[i])) for i in range(N)])
    gaps = np.array([space.distance(xs[i], ys[i]) for i in range(N)])
    start = tail_window_start(N)

    def bound_check(name: str, excess: float, tol: float, desc: str) -> ConstraintCheck:
        status = "satisfied" if excess <= tol else "violated"
        return ConstraintCheck(name, status, f"{desc}: {excess:.6g} vs tolerance {tol:.6g}")

    checks = (
        bound_check("limsup_x", float(x_norms[start:].max()) - r, TAU_LIM,
                    "tail excess of ||x_n|| over r"),
        bound_check("limsup_y", float(y_norms[start:].max()) - r, TAU_LIM,
                    "tail excess of ||y_n|| over r"),
        bound_check("mixture_norm_to_r", float(np.abs(mix_norms[start:] - r).max()), TAU_LEM22,
                    "tail deviation of ||(1-t_n) x_n + t_n y_n|| from r"),
    )
    tail_max_gap = float(gaps[start:].max())
    report = Lemma22Report(checks, tail_max_gap, None, "hypothesis_failure")
    if not report.hypothesis_ok:
        return report
    ok = tail_max_gap <= TAU_LEM22
    return replace(report, conclusion_ok=ok, verdict="confirmed" if ok else "conclusion_failure")


# ---------------------------------------------------------------------------
# structured theorem reports

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TheoremReport:
    name: str
    passed: bool
    checks: tuple[CheckResult, ...]
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "passed": self.passed,
            "checks": [c.to_dict() for c in self.checks],
        }
        out.update(self.extra)
        return out


def _at_most(name: str, value: float, threshold: float, detail: str) -> CheckResult:
    """The check that ``value`` is at most ``threshold``: every theorem check's pass rule."""
    return CheckResult(name, value <= threshold, value, threshold, detail)


def _report(name: str, checks: Sequence[CheckResult], **extra) -> TheoremReport:
    """The report over ``checks``, which passes when every one of them does."""
    return TheoremReport(name, all(c.passed for c in checks), tuple(checks), extra)


def _tail_max_check(name: str, values: Sequence[float], tol: float, desc: str) -> CheckResult:
    arr = np.asarray(list(values), dtype=float)
    start = tail_window_start(arr.size)
    return _at_most(name, float(arr[start:].max()), tol, f"{desc} over entries {start}..{arr.size - 1}")


def verify_theorem31(traj: Trajectory, m: Mapping) -> TheoremReport:
    """Power-scheme convergence diagnostics on a modified_pm_hybrid run:
    the distance to each known fixed point settles, the power residual
    ||x_n - T^n x_n|| dies out, and the iterates go Cauchy onto a point that
    is numerically fixed."""
    if traj.scheme != "modified_pm_hybrid":
        raise ScopeError(
            f"theorem31 diagnostics apply to modified_pm_hybrid trajectories, got {traj.scheme}"
        )
    if not m.meta.known_fixed_points:
        raise ContractError("theorem31 diagnostics need at least one known fixed point")

    checks: list[CheckResult] = []
    limits: dict[str, dict] = {}
    for p in m.meta.known_fixed_points:
        dists = _point_distances(traj.config.mapping.space, traj.points, [p])
        lv = limit_verdict(dists)
        limits[str(list(p.coords))] = lv.to_dict()
        # limit_verdict says converged exactly when this check passes
        checks.append(_at_most(f"limit_exists_at_{p.coords}", lv.tail_oscillation, TAU_LIM,
                               f"tail oscillation of the distance to {p.coords}; verdict {lv.verdict}"))

    checks += [
        _tail_max_check("power_residual_vanishes", traj.residual_Tn, TAU_REG, "max ||x_n - T^n x_n||"),
        _tail_max_check("residual_vanishes", traj.residual_T, TAU_REG, "max ||x_n - T x_n||"),
        _tail_max_check("iterates_cauchy", traj.step_norm, TAU_LIM, "max step displacement"),
        _at_most("final_point_fixed", traj.residual_T[-1], TAU_FP, f"||x_N - T x_N|| at x_N = {traj.final.coords}"),
    ]
    return _report("theorem31", checks, limits=limits)


def verify_theorem32(traj: Trajectory, fixed_set: Sequence[Vector]) -> TheoremReport:
    """Consistency of convergence with vanishing liminf distance to the
    fixed-point set: a window-minimum near zero must come with the whole tail
    near zero; a window-minimum away from zero is reported as absence of
    evidence, not refutation."""
    if not fixed_set:
        raise ContractError("theorem32 diagnostics need a nonempty fixed set")
    dists = _point_distances(traj.config.mapping.space, traj.points, fixed_set)
    start = tail_window_start(dists.size)
    liminf_est = float(dists[start:].min())
    tail_max = float(dists[start:].max())
    if liminf_est <= TAU_LIM:
        follows = tail_max <= TAU_LIM
        verdict = "consistent" if follows else "inconsistent"
        checks = (
            _at_most("liminf_vanishes", liminf_est, TAU_LIM,
                     f"window minimum of d(x_n, F) over entries {start}..{dists.size - 1}"),
            _at_most("distance_tail_vanishes", tail_max, TAU_LIM,
                     "liminf d(x_n, F) vanishes " + ("and the full tail follows" if follows
                                                     else "but the tail does not")),
        )
    else:
        verdict = "no_evidence"
        checks = (
            _at_most("liminf_vanishes", liminf_est, TAU_LIM,
                     "window minimum of d(x_n, F) stays away from zero; "
                     "no convergence evidence at this horizon (not a refutation)"),
        )
    return _report("theorem32", checks, verdict=verdict, liminf_estimate=liminf_est, tail_max=tail_max)


# ---------------------------------------------------------------------------
# coercivity condition

# The parameters each gauge kind takes, in the order it serializes them.
_GAUGE_PARAMETERS = {"linear": ("lam",), "power": ("lam", "gamma"), "table": ("grid",)}


@dataclass(frozen=True)
class PhiSpec:
    """Gauge function for the coercivity condition: zero at zero, positive and
    nondecreasing beyond.  Catalog: linear lam*t, power lam*t**gamma; arbitrary
    shapes only via an explicit table, interpolated linearly and held flat past
    its last knot."""

    kind: str  # linear | power | table
    lam: float = 1.0
    gamma: float = 1.0
    grid: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        if self.kind not in _GAUGE_PARAMETERS:
            raise ContractError(f"unknown gauge kind '{self.kind}'")
        if "lam" in _GAUGE_PARAMETERS[self.kind] and not (0.0 < self.lam < math.inf):
            raise ContractError(f"{self.kind} gauge needs a finite lam > 0, got {self.lam}")
        if self.kind == "power" and not (1.0 <= self.gamma < math.inf):
            raise ContractError(f"power gauge needs a finite gamma >= 1, got {self.gamma}")
        if self.kind == "table":
            if len(self.grid) < 2:
                raise ContractError("table gauge needs at least two (t, value) knots")
            if not all(math.isfinite(c) for knot in self.grid for c in knot):
                raise ContractError(f"table gauge knots must be finite, got {self.grid}")
            ts = [g[0] for g in self.grid]
            vs = [g[1] for g in self.grid]
            if ts[0] != 0.0 or vs[0] != 0.0:
                raise ContractError("table gauge must start at the knot (0, 0)")
            if any(t1 >= t2 for t1, t2 in zip(ts, ts[1:])):
                raise ContractError("table gauge knots must be strictly increasing in t")
            if any(v1 > v2 for v1, v2 in zip(vs, vs[1:])):
                raise ContractError("table gauge values must be nondecreasing")

    def __call__(self, t: float) -> float:
        if t < 0.0:
            raise ContractError(f"gauge argument must be >= 0, got {t}")
        try:
            value = float(self._value(t))
        except OverflowError:
            raise ContractError(f"{self.kind} gauge overflows at t = {t}") from None
        if not math.isfinite(value):
            raise ContractError(f"{self.kind} gauge is not finite at t = {t}: {value}")
        return value

    def rows(self, t: np.ndarray) -> np.ndarray:
        """The gauge at every entry of ``t`` by the operations of ``__call__``, so
        exactly: a power gauge takes Python's ``**`` per entry, which may raise
        OverflowError."""
        if self.kind == "power":
            return np.array([self._value(s) for s in t.tolist()], dtype=float)
        return self._value(t)

    def _value(self, t):
        if self.kind == "linear":
            return self.lam * t
        if self.kind == "power":
            return self.lam * t**self.gamma
        ts = [g[0] for g in self.grid]
        vs = [g[1] for g in self.grid]
        return np.interp(t, ts, vs)

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in ("kind", *_GAUGE_PARAMETERS[self.kind])}
        if "grid" in out:
            out["grid"] = [list(g) for g in self.grid]
        return out


@dataclass(frozen=True)
class ConditionIWitness:
    phi: PhiSpec
    certificate: Certificate | None = None


def certify_condition_I(m: Mapping, w: PhiSpec, sample_count: int, seed: int) -> Certificate:
    """Sampled check of the coercivity bound ||x - Tx|| >= phi(d(x, F(T))) for the gauge ``w``.

    max_violation is the largest observed excess of phi(d(x, F)) over the
    residual; the verdict follows the usual certificate thresholds.
    """
    if sample_count < 1:
        raise ContractError(f"sample_count must be >= 1, got {sample_count}")
    if not m.has_fixed_set:
        raise ContractError(
            f"mapping '{m.mapping_id}' declares no fixed-point set; the coercivity "
            "bound has no distance to measure"
        )
    space = m.space
    specials = [_same_dim(space.dim, p).coords for p in special_points(space, m.domain, m.meta)]
    X = np.concatenate([np.reshape(specials, (-1, space.dim)),
                        m.domain.sample(space, _rng(seed), sample_count)])

    def screen():
        TX = m.apply_rows(X)
        if not (m.domain.inside_rows(space, X).all() and m.domain.inside_rows(space, TX).all()):
            return None
        return w.rows(_fixed_set_distances(m, X)) - space.norm_rows(X - TX)

    return _certify(
        "condition_I", (1, 1),
        lambda c: w(distance_to_fixed_set(m, c.x)) - fixed_point_residual(m, c.x),
        screen, sample_count, X,
    )


def verify_theorem33(traj: Trajectory, m: Mapping, w: ConditionIWitness) -> TheoremReport:
    """Chain from vanishing residuals to convergence into the fixed-point set,
    valid only under a certified coercivity witness: the residual tail dies,
    the gauge of the distance is dominated by the residual at every step, and
    the distance tail dies."""
    if w.certificate is None or w.certificate.verdict != "certified":
        raise ScopeError(
            "theorem33 diagnostics need a certified coercivity witness; "
            f"got {'no certificate' if w.certificate is None else w.certificate.verdict}"
        )
    residuals, dists = traj.residual_T, traj.dist_to_known_fp
    if None in dists:
        raise ContractError("trajectory records carry no distance to the fixed-point set")

    checks = [_tail_max_check("residual_tail_vanishes", residuals, TAU_REG, "max ||x_n - T x_n||")]
    worst_gap = -math.inf
    worst_n = None
    for n, (res, d) in enumerate(zip(residuals, dists), start=1):
        gap = w.phi(d) - res
        if gap > worst_gap:
            worst_gap = gap
            worst_n = n
    checks.append(_at_most("gauge_dominated_by_residual", worst_gap, TAU_CERT,
                           f"max over steps of phi(d(x_n, F)) - ||x_n - T x_n||, worst at step {worst_n}"))
    checks.append(_tail_max_check("distance_tail_vanishes", dists, TAU_LIM, "max d(x_n, F)"))
    return _report("theorem33", checks)


# ---------------------------------------------------------------------------
# multi-scheme comparison

@dataclass(frozen=True)
class RateRow:
    scheme: str
    steps_to_target: int | None
    applications_to_target: int | None
    total_applications: int
    final_error: float


@dataclass(frozen=True)
class RateReport:
    """Per-scheme speed summary.  Steps count iterations; applications count
    mapping evaluations, where an un-registered T^n evaluation costs n, so
    power schemes reveal their quadratic work."""

    target_error: float
    rows: tuple[RateRow, ...]

    def to_dict(self) -> dict:
        return asdict(self)

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["scheme", "steps_to_target", "applications_to_target",
                 "total_applications", "final_error"]]
        for r in self.rows:
            rows.append([
                r.scheme,
                "" if r.steps_to_target is None else str(r.steps_to_target),
                "" if r.applications_to_target is None else str(r.applications_to_target),
                str(r.total_applications),
                repr(float(r.final_error)),
            ])
        return rows

    def to_text(self) -> str:
        rows = self.to_csv_rows()
        widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
        lines = [f"target error: {self.target_error}"]
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        return "\n".join(lines)


def compare_schemes(base: RunConfig, schemes: Sequence[str], target_error: float) -> RateReport:
    """Run each scheme from the base configuration and tabulate speed.

    steps_to_target is the first iterate index (0 = the start point) whose
    distance to the known fixed-point set is at most the target.
    """
    if not 0.0 < target_error < math.inf:
        raise ContractError(f"target_error must be finite and > 0, got {target_error}")
    if not base.mapping.has_fixed_set:
        raise ContractError("compare_schemes needs a mapping with a known fixed-point set")

    rows = []
    for scheme in schemes:
        cfg = replace(base, scheme=scheme, beta=base.beta if scheme == "ishikawa" else None)
        traj = run_scheme(cfg)
        dists = [distance_to_fixed_set(base.mapping, cfg.x0), *traj.dist_to_known_fp]
        steps = next((i for i, d in enumerate(dists) if d <= target_error), None)
        apps_to_target = None if steps is None else sum(traj.applications[:steps])
        rows.append(RateRow(
            scheme=scheme,
            steps_to_target=steps,
            applications_to_target=apps_to_target,
            total_applications=traj.total_applications,
            final_error=dists[-1],
        ))
    return RateReport(target_error=target_error, rows=tuple(rows))
