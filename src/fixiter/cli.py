"""Command-line front end: scenario files in, trajectories and reports out.

A scenario is a JSON document that names a space, a catalog mapping, a scheme
with its schedules, a start point, and a list of checks to run on the
resulting trajectory.  ``run`` executes it and writes
``<name>.trajectory.csv``, ``<name>.trajectory.json`` (config echo) and
``<name>.report.json``; ``compare`` reuses the scenario as a base
configuration for several schemes and writes ``<name>.rates.{csv,json}``.
``certify`` and ``modulus`` are scenario-free one-shots printing JSON.

Exit codes: 0 success (all checks pass / certified), 1 validation or
configuration failure (with a path-qualified message, nothing written),
2 check failure or refuted certificate, 3 inconclusive certificate.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import (
    ConditionIWitness,
    PhiSpec,
    certify_condition_I,
    check_lemma21,
    compare_schemes,
    verify_theorem31,
    verify_theorem32,
    verify_theorem33,
)
from .errors import FixiterError, ScenarioError
from .mappings import (
    CATALOG,
    CATALOG_IDS,
    Certificate,
    Mapping,
    certify_asymptotically_nonexpansive,
    certify_nearly_nonexpansive,
    certify_nonexpansive,
    certify_uniform_lipschitz,
    distance_to_fixed_set,
    get_mapping,
    near_schedule_for,
)
from .schedules import Schedule
from .schemes import (
    SCHEMES,
    RunConfig,
    Trajectory,
    _p_token,
    run_scheme,
    trajectory_header,
    write_trajectory_csv,
)
from .space import ModulusEstimate, NormedSpace, Vector, modulus_of_convexity_estimate

SCHEMA_VERSION = 1
CHECK_NAMES = ("lemma21", "theorem31", "theorem32", "theorem33", "condition_I", "certify")
# Certifier call per mapping class, given the mapping, a certify CheckSpec and the seed.
_CERTIFIERS = {
    "nonexpansive": lambda m, c, seed: certify_nonexpansive(m, c.samples, seed),
    "asymptotically_nonexpansive": lambda m, c, seed: certify_asymptotically_nonexpansive(
        m, c.schedule, c.n_max, c.samples, seed),
    "nearly_nonexpansive": lambda m, c, seed: certify_nearly_nonexpansive(
        m, c.schedule, c.n_max, c.samples, seed),
    "uniformly_lipschitz": lambda m, c, seed: certify_uniform_lipschitz(
        m, c.lipschitz_L, c.n_max, c.samples, seed),
}
CERT_CLASSES = tuple(_CERTIFIERS)
_SCHEDULE_KINDS = ("constant", "geometric", "harmonic_tail", "table")
_NAME_RE = re.compile(r"^[A-Za-z0-9._-]+$")
_DEFAULT_CHECK_SAMPLES = 10_000
_DEFAULT_CERT_SAMPLES = 1_000
_DEFAULT_CERT_N_MAX = 20
_CERT_EXIT = {"certified": 0, "refuted": 2, "inconclusive": 3}


# ---------------------------------------------------------------------------
# scenario schema

@dataclass(frozen=True)
class CheckSpec:
    name: str
    phi: PhiSpec | None = None
    samples: int | None = None
    cert_class: str | None = None
    schedule: Schedule | None = None
    lipschitz_L: float | None = None
    n_max: int | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    space_dim: int
    space_p: float
    mapping_id: str
    mapping_parameters: tuple[tuple[str, float], ...]
    scheme: str
    alpha: Schedule | None
    beta: Schedule | None
    x0: tuple[float, ...]
    max_steps: int
    stop_tolerance: float
    checks: tuple[CheckSpec, ...] = field(default_factory=tuple)


def _join(path: str, key: str) -> str:
    return f"{path}.{key}" if path else key


def _require_dict(obj, path: str) -> dict:
    if not isinstance(obj, dict):
        raise ScenarioError(path or "<root>", f"expected an object, got {type(obj).__name__}")
    return obj


def _reject_unknown(d: dict, allowed: set[str], path: str) -> None:
    for key in d:
        if key not in allowed:
            raise ScenarioError(_join(path, str(key)), "unknown key")


def _get(d: dict, key: str, path: str, required: bool = True, default=None):
    if key in d:
        return d[key]
    if required:
        raise ScenarioError(_join(path, key), "missing required key")
    return default


def _expect_str(v, path: str) -> str:
    if not isinstance(v, str):
        raise ScenarioError(path, f"expected a string, got {type(v).__name__}")
    return v


def _expect_int(v, path: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ScenarioError(path, f"expected an integer, got {type(v).__name__}")
    if minimum is not None and v < minimum:
        raise ScenarioError(path, f"must be >= {minimum}, got {v}")
    return v


def _expect_real(v, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ScenarioError(path, f"expected a number, got {type(v).__name__}")
    if not math.isfinite(float(v)):
        raise ScenarioError(path, f"must be finite, got {v}")
    return float(v)


def _expect_list(v, path: str) -> list:
    if not isinstance(v, list):
        raise ScenarioError(path, f"expected a list, got {type(v).__name__}")
    return v


def _parse_p(v, path: str) -> float:
    if v == "inf":
        return math.inf
    p = _expect_real(v, path)
    if p < 1.0:
        raise ScenarioError(path, f"norm exponent must be >= 1 or \"inf\", got {p}")
    return p


def _cli_p(v, flag: str) -> float:
    # command-line values arrive as strings; scenario files use JSON numbers
    if isinstance(v, str):
        if v == "inf":
            return math.inf
        try:
            v = float(v)
        except ValueError as e:
            raise ScenarioError(flag, f"expected a number or 'inf', got '{v}'") from e
    return _parse_p(v, flag)


def schedule_from_dict(obj, path: str) -> Schedule:
    d = _require_dict(obj, path)
    _reject_unknown(d, {"kind", "parameters"}, path)
    kind = _expect_str(_get(d, "kind", path), _join(path, "kind"))
    if kind not in _SCHEDULE_KINDS:
        raise ScenarioError(
            _join(path, "kind"),
            f"unknown schedule kind '{kind}'; scenario files accept {_SCHEDULE_KINDS}",
        )
    params = _require_dict(_get(d, "parameters", path), _join(path, "parameters"))
    ppath = _join(path, "parameters")
    try:
        if kind == "constant":
            _reject_unknown(params, {"value"}, ppath)
            return Schedule.constant(_expect_real(_get(params, "value", ppath), _join(ppath, "value")))
        if kind == "geometric":
            _reject_unknown(params, {"ratio"}, ppath)
            return Schedule.geometric(_expect_real(_get(params, "ratio", ppath), _join(ppath, "ratio")))
        if kind == "harmonic_tail":
            _reject_unknown(params, {"scale", "offset"}, ppath)
            scale = _expect_real(_get(params, "scale", ppath, required=False, default=1.0),
                                 _join(ppath, "scale"))
            offset = _expect_real(_get(params, "offset", ppath, required=False, default=0.0),
                                  _join(ppath, "offset"))
            return Schedule.harmonic_tail(scale, offset)
        values = _expect_list(_get(params, "values", ppath), _join(ppath, "values"))
        _reject_unknown(params, {"values"}, ppath)
        return Schedule.table([
            _expect_real(v, f"{ppath}.values[{i}]") for i, v in enumerate(values)
        ])
    except FixiterError as e:
        if isinstance(e, ScenarioError):
            raise
        raise ScenarioError(path, str(e)) from e


def phi_from_dict(obj, path: str) -> PhiSpec:
    d = _require_dict(obj, path)
    kind = _expect_str(_get(d, "kind", path), _join(path, "kind"))
    try:
        if kind == "linear":
            _reject_unknown(d, {"kind", "lam"}, path)
            return PhiSpec("linear", lam=_expect_real(_get(d, "lam", path), _join(path, "lam")))
        if kind == "power":
            _reject_unknown(d, {"kind", "lam", "gamma"}, path)
            return PhiSpec(
                "power",
                lam=_expect_real(_get(d, "lam", path), _join(path, "lam")),
                gamma=_expect_real(_get(d, "gamma", path), _join(path, "gamma")),
            )
        if kind == "table":
            _reject_unknown(d, {"kind", "grid"}, path)
            grid = _expect_list(_get(d, "grid", path), _join(path, "grid"))
            knots = []
            for i, pair in enumerate(grid):
                pair = _expect_list(pair, f"{path}.grid[{i}]")
                if len(pair) != 2:
                    raise ScenarioError(f"{path}.grid[{i}]", "expected a [t, value] pair")
                knots.append((
                    _expect_real(pair[0], f"{path}.grid[{i}][0]"),
                    _expect_real(pair[1], f"{path}.grid[{i}][1]"),
                ))
            return PhiSpec("table", grid=tuple(knots))
        raise ScenarioError(_join(path, "kind"), f"unknown gauge kind '{kind}'")
    except FixiterError as e:
        if isinstance(e, ScenarioError):
            raise
        raise ScenarioError(path, str(e)) from e


def check_from_dict(obj, path: str) -> CheckSpec:
    d = _require_dict(obj, path)
    name = _expect_str(_get(d, "name", path), _join(path, "name"))
    if name not in CHECK_NAMES:
        raise ScenarioError(_join(path, "name"), f"unknown check '{name}'; known checks: {CHECK_NAMES}")
    if name in ("lemma21", "theorem31", "theorem32"):
        _reject_unknown(d, {"name"}, path)
        return CheckSpec(name=name)
    if name in ("theorem33", "condition_I"):
        _reject_unknown(d, {"name", "phi", "samples"}, path)
        phi = phi_from_dict(_get(d, "phi", path), _join(path, "phi"))
        samples = _expect_int(
            _get(d, "samples", path, required=False, default=_DEFAULT_CHECK_SAMPLES),
            _join(path, "samples"), minimum=1,
        )
        return CheckSpec(name=name, phi=phi, samples=samples)

    # certify
    cert_class = _expect_str(_get(d, "class", path), _join(path, "class"))
    if cert_class not in CERT_CLASSES:
        raise ScenarioError(_join(path, "class"),
                            f"unknown mapping class '{cert_class}'; known classes: {CERT_CLASSES}")
    allowed = {"name", "class", "samples"}
    schedule = None
    lipschitz = None
    n_max = None
    if cert_class in ("nearly_nonexpansive", "asymptotically_nonexpansive"):
        allowed |= {"schedule", "n_max"}
        schedule = schedule_from_dict(_get(d, "schedule", path), _join(path, "schedule"))
    elif cert_class == "uniformly_lipschitz":
        allowed |= {"L", "n_max"}
        lipschitz = _expect_real(_get(d, "L", path), _join(path, "L"))
        if lipschitz <= 0.0:
            raise ScenarioError(_join(path, "L"), f"must be > 0, got {lipschitz}")
    _reject_unknown(d, allowed, path)
    if cert_class != "nonexpansive":
        n_max = _expect_int(
            _get(d, "n_max", path, required=False, default=_DEFAULT_CERT_N_MAX),
            _join(path, "n_max"), minimum=1,
        )
    samples = _expect_int(
        _get(d, "samples", path, required=False, default=_DEFAULT_CERT_SAMPLES),
        _join(path, "samples"), minimum=1,
    )
    return CheckSpec(
        name=name, samples=samples, cert_class=cert_class,
        schedule=schedule, lipschitz_L=lipschitz, n_max=n_max,
    )


def scenario_from_dict(doc) -> Scenario:
    root = _require_dict(doc, "")
    _reject_unknown(root, {
        "schema_version", "name", "space", "mapping", "scheme", "schedules",
        "x0", "max_steps", "stop_tolerance", "checks",
    }, "")
    version = _expect_int(_get(root, "schema_version", ""), "schema_version")
    if version != SCHEMA_VERSION:
        raise ScenarioError("schema_version", f"unsupported version {version}; expected {SCHEMA_VERSION}")
    name = _expect_str(_get(root, "name", ""), "name")
    if not _NAME_RE.match(name):
        raise ScenarioError("name", "must be nonempty and use only letters, digits, '.', '_', '-'")

    space = _require_dict(_get(root, "space", ""), "space")
    _reject_unknown(space, {"dim", "p"}, "space")
    dim = _expect_int(_get(space, "dim", "space"), "space.dim", minimum=1)
    p = _parse_p(_get(space, "p", "space"), "space.p")

    mapping = _require_dict(_get(root, "mapping", ""), "mapping")
    _reject_unknown(mapping, {"id", "parameters"}, "mapping")
    mapping_id = _expect_str(_get(mapping, "id", "mapping"), "mapping.id")
    if mapping_id not in CATALOG_IDS:
        raise ScenarioError("mapping.id", f"unknown mapping '{mapping_id}'; catalog: {CATALOG_IDS}")
    raw_params = _require_dict(
        _get(mapping, "parameters", "mapping", required=False, default={}), "mapping.parameters"
    )
    params = tuple(sorted(
        (str(k), _expect_real(v, f"mapping.parameters.{k}")) for k, v in raw_params.items()
    ))

    scheme = _expect_str(_get(root, "scheme", ""), "scheme")
    if scheme not in SCHEMES:
        raise ScenarioError("scheme", f"unknown scheme '{scheme}'; known schemes: {SCHEMES}")

    schedules = _require_dict(_get(root, "schedules", "", required=False, default={}), "schedules")
    _reject_unknown(schedules, {"alpha", "beta"}, "schedules")
    alpha = None
    if "alpha" in schedules:
        alpha = schedule_from_dict(schedules["alpha"], "schedules.alpha")
    elif scheme != "picard":
        raise ScenarioError("schedules.alpha", f"scheme {scheme} requires an alpha schedule")
    beta = None
    if scheme == "ishikawa":
        beta = schedule_from_dict(_get(schedules, "beta", "schedules"), "schedules.beta")
    elif "beta" in schedules:
        raise ScenarioError("schedules.beta", "only meaningful for the ishikawa scheme")

    x0_list = _expect_list(_get(root, "x0", ""), "x0")
    x0 = tuple(_expect_real(v, f"x0[{i}]") for i, v in enumerate(x0_list))
    if len(x0) != dim:
        raise ScenarioError("x0", f"has {len(x0)} coordinates but space.dim = {dim}")

    max_steps = _expect_int(
        _get(root, "max_steps", "", required=False, default=10_000), "max_steps", minimum=1
    )
    stop_tolerance = _expect_real(
        _get(root, "stop_tolerance", "", required=False, default=1e-12), "stop_tolerance"
    )

    checks = tuple(
        check_from_dict(c, f"checks[{i}]")
        for i, c in enumerate(_expect_list(_get(root, "checks", "", required=False, default=[]), "checks"))
    )
    return Scenario(
        name=name, space_dim=dim, space_p=p, mapping_id=mapping_id,
        mapping_parameters=params, scheme=scheme, alpha=alpha, beta=beta,
        x0=x0, max_steps=max_steps, stop_tolerance=stop_tolerance, checks=checks,
    )


def parse_scenario(path) -> Scenario:
    try:
        raw = Path(path).read_text()
    except OSError as e:
        raise ScenarioError(str(path), f"cannot read scenario file: {e}") from e
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ScenarioError(str(path), f"not valid JSON: {e}") from e
    return scenario_from_dict(doc)


def check_spec_to_dict(c: CheckSpec) -> dict:
    out: dict = {"name": c.name}
    if c.name in ("theorem33", "condition_I"):
        out["phi"] = c.phi.to_dict()
        out["samples"] = c.samples
    elif c.name == "certify":
        out["class"] = c.cert_class
        if c.schedule is not None:
            out["schedule"] = c.schedule.to_dict()
        if c.lipschitz_L is not None:
            out["L"] = c.lipschitz_L
        if c.n_max is not None:
            out["n_max"] = c.n_max
        out["samples"] = c.samples
    return out


def scenario_to_dict(s: Scenario) -> dict:
    schedules: dict = {}
    if s.alpha is not None:
        schedules["alpha"] = s.alpha.to_dict()
    if s.beta is not None:
        schedules["beta"] = s.beta.to_dict()
    return {
        "schema_version": SCHEMA_VERSION,
        "name": s.name,
        "space": {"dim": s.space_dim, "p": _p_token(s.space_p)},
        "mapping": {"id": s.mapping_id, "parameters": dict(s.mapping_parameters)},
        "scheme": s.scheme,
        "schedules": schedules,
        "x0": list(s.x0),
        "max_steps": s.max_steps,
        "stop_tolerance": s.stop_tolerance,
        "checks": [check_spec_to_dict(c) for c in s.checks],
    }


# ---------------------------------------------------------------------------
# scenario execution

def build_mapping_for(s: Scenario) -> Mapping:
    try:
        space = NormedSpace(s.space_dim, s.space_p)
    except FixiterError as e:
        raise ScenarioError("space", str(e)) from e
    try:
        return get_mapping(s.mapping_id, dict(s.mapping_parameters), space)
    except FixiterError as e:
        raise ScenarioError("mapping", str(e)) from e


def build_run_config(s: Scenario, m: Mapping) -> RunConfig:
    return RunConfig(
        scheme=s.scheme,
        mapping=m,
        x0=Vector(s.x0),
        alpha=s.alpha,
        beta=s.beta,
        max_steps=s.max_steps,
        stop_tolerance=s.stop_tolerance,
    )


def preflight_checks(s: Scenario, m: Mapping) -> None:
    """Reject checks whose preconditions the scenario cannot meet, before any
    work happens, so validation failures never leave partial outputs."""
    for i, c in enumerate(s.checks):
        path = f"checks[{i}]"
        if c.name == "theorem31":
            if s.scheme != "modified_pm_hybrid":
                raise ScenarioError(path, "theorem31 applies to the modified_pm_hybrid scheme only")
            if not m.meta.known_fixed_points:
                raise ScenarioError(path, "theorem31 requires a mapping with known fixed points")
        elif c.name == "theorem32":
            if not m.meta.known_fixed_points:
                raise ScenarioError(path, "theorem32 requires a mapping with known fixed points")
        elif c.name in ("theorem33", "condition_I", "lemma21"):
            if not m.has_fixed_set:
                raise ScenarioError(path, f"{c.name} requires fixed-point information on the mapping")
            if c.name == "lemma21" and near_schedule_for(m) is None:
                raise ScenarioError(
                    path, "lemma21 requires a near-sequence (a declared a or k schedule, "
                    "or a nonexpansive mapping)"
                )


def certificate_to_dict(cert: Certificate) -> dict:
    w = cert.witness
    return {
        "property": cert.property_name,
        "n_range": list(cert.n_range),
        "sample_count": cert.sample_count,
        "max_violation": cert.max_violation,
        "witness": {
            "x": list(w.x.coords),
            "y": None if w.y is None else list(w.y.coords),
            "n": w.n,
        },
        "verdict": cert.verdict,
    }


def _lemma21_on_trajectory(m: Mapping, traj: Trajectory) -> tuple[bool, dict]:
    near = near_schedule_for(m)
    alpha = traj.config.alpha
    a = [distance_to_fixed_set(m, traj.config.x0)]
    a.extend(rec.dist_to_known_fp for rec in traj.records)
    b = [(1.0 + (alpha.at(rec.n) if alpha is not None else 0.0)) * near.at(rec.n)
         for rec in traj.records]
    b.append(0.0)
    delta = [0.0] * len(a)
    report = check_lemma21(a, b, delta, len(a))
    passed = report.hypothesis_ok and report.verdict == "converged"
    return passed, report.to_dict()


def run_checks(
    s: Scenario, m: Mapping, traj: Trajectory, seed: int
) -> tuple[list[dict], list[dict]]:
    results = []
    timings = []
    for c in s.checks:
        t0 = time.perf_counter()
        if c.name == "lemma21":
            passed, details = _lemma21_on_trajectory(m, traj)
        elif c.name == "theorem31":
            report = verify_theorem31(traj, m)
            passed, details = report.passed, report.to_dict()
        elif c.name == "theorem32":
            report = verify_theorem32(traj, m.meta.known_fixed_points)
            passed, details = report.passed, report.to_dict()
        elif c.name == "condition_I":
            cert = certify_condition_I(m, c.phi, c.samples, seed)
            passed, details = cert.verdict == "certified", certificate_to_dict(cert)
        elif c.name == "theorem33":
            cert = certify_condition_I(m, c.phi, c.samples, seed)
            if cert.verdict != "certified":
                passed = False
                details = {
                    "note": "coercivity witness not certified; the chain does not apply",
                    "condition_certificate": certificate_to_dict(cert),
                }
            else:
                report = verify_theorem33(traj, m, ConditionIWitness(phi=c.phi, certificate=cert))
                passed = report.passed
                details = report.to_dict()
                details["condition_certificate"] = certificate_to_dict(cert)
        else:
            cert = _CERTIFIERS[c.cert_class](m, c, seed)
            passed, details = cert.verdict == "certified", certificate_to_dict(cert)
        results.append({
            "name": c.name,
            "verdict": "pass" if passed else "fail",
            "details": details,
        })
        timings.append({"name": c.name, "seconds": time.perf_counter() - t0})
    return results, timings


# ---------------------------------------------------------------------------
# output plumbing

def _err(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _claim_outputs(paths: list[Path], force: bool) -> None:
    for p in paths:
        if p.exists() and not force:
            raise ScenarioError(str(p), "output file exists; pass --force to overwrite")


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(args) -> int:
    try:
        scenario = parse_scenario(args.scenario)
        mapping = build_mapping_for(scenario)
        preflight_checks(scenario, mapping)
        config = build_run_config(scenario, mapping)

        out_dir = Path(args.output)
        csv_path = out_dir / f"{scenario.name}.trajectory.csv"
        header_path = out_dir / f"{scenario.name}.trajectory.json"
        report_path = out_dir / f"{scenario.name}.report.json"
        _claim_outputs([csv_path, header_path, report_path], args.force)

        t0 = time.perf_counter()
        traj = run_scheme(config)
        run_seconds = time.perf_counter() - t0
        results, check_timings = run_checks(scenario, mapping, traj, args.seed)
    except FixiterError as e:
        _err(f"{args.scenario}: {e}" if isinstance(e, ScenarioError) else str(e))
        return 1

    report = {
        "scenario": scenario_to_dict(scenario),
        "checks": results,
        "timings": {"run_seconds": run_seconds, "checks": check_timings},
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="") as f:
        write_trajectory_csv(traj, f)
    _write_json(header_path, trajectory_header(traj))
    _write_json(report_path, report)

    _say(args, f"{scenario.name}: {traj.steps} steps, stop_reason={traj.stop_reason}")
    for r in results:
        _say(args, f"  [{r['verdict']}] {r['name']}")
    _say(args, f"wrote {csv_path}, {header_path}, {report_path}")
    return 0 if all(r["verdict"] == "pass" for r in results) else 2


def cmd_compare(args) -> int:
    schemes = [tok.strip() for tok in args.schemes.split(",") if tok.strip()]
    try:
        if not schemes:
            raise ScenarioError("--schemes", "needs at least one scheme")
        for scheme in schemes:
            if scheme not in SCHEMES:
                raise ScenarioError("--schemes", f"unknown scheme '{scheme}'; known schemes: {SCHEMES}")
        if args.target <= 0.0:
            raise ScenarioError("--target", f"must be > 0, got {args.target}")
        scenario = parse_scenario(args.scenario)
        mapping = build_mapping_for(scenario)
        base = build_run_config(scenario, mapping)

        out_dir = Path(args.output)
        csv_path = out_dir / f"{scenario.name}.rates.csv"
        json_path = out_dir / f"{scenario.name}.rates.json"
        _claim_outputs([csv_path, json_path], args.force)

        report = compare_schemes(base, schemes, args.target)
    except FixiterError as e:
        _err(f"{args.scenario}: {e}" if isinstance(e, ScenarioError) else str(e))
        return 1

    out_dir.mkdir(parents=True, exist_ok=True)
    with open(csv_path, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(report.to_csv_rows())
    _write_json(json_path, {"scenario": scenario_to_dict(scenario), **report.to_dict()})
    _say(args, report.to_text())
    _say(args, f"wrote {csv_path}, {json_path}")
    return 0


def _parse_cli_params(pairs: list[str]) -> dict:
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise ScenarioError("--param", f"expected name=value, got '{pair}'")
        try:
            params[key] = float(value)
        except ValueError as e:
            raise ScenarioError("--param", f"value of '{key}' must be a number, got '{value}'") from e
    return params


def _parse_schedule_spec(spec: str) -> Schedule:
    kind, sep, rest = spec.partition(":")
    argv = [tok for tok in rest.split(",") if tok != ""] if sep else []
    try:
        values = [float(tok) for tok in argv]
    except ValueError as e:
        raise ScenarioError("--schedule", f"non-numeric argument in '{spec}'") from e
    if kind == "constant" and len(values) == 1:
        return Schedule.constant(values[0])
    if kind == "geometric" and len(values) == 1:
        return Schedule.geometric(values[0])
    if kind == "harmonic_tail" and 1 <= len(values) <= 2:
        return Schedule.harmonic_tail(*values)
    if kind == "table" and values:
        return Schedule.table(values)
    raise ScenarioError(
        "--schedule",
        f"cannot parse '{spec}'; expected kind:args like constant:0.5, geometric:0.5, "
        "harmonic_tail:scale[,offset], or table:v1,v2,...",
    )


def cmd_certify(args) -> int:
    try:
        if args.mapping not in CATALOG_IDS:
            raise ScenarioError("mapping", f"unknown mapping '{args.mapping}'; catalog: {CATALOG_IDS}")
        if args.class_name not in CERT_CLASSES:
            raise ScenarioError("--class",
                                f"unknown mapping class '{args.class_name}'; known classes: {CERT_CLASSES}")
        dim = args.dim if args.dim is not None else CATALOG[args.mapping].default_dim
        space = NormedSpace(dim, _cli_p(args.p, "--p"))
        mapping = get_mapping(args.mapping, _parse_cli_params(args.param), space)

        schedule = None
        if args.class_name in ("nearly_nonexpansive", "asymptotically_nonexpansive"):
            if args.schedule is None:
                raise ScenarioError("--schedule", f"{args.class_name} needs a coefficient schedule")
            schedule = _parse_schedule_spec(args.schedule)
        elif args.class_name == "uniformly_lipschitz" and args.lipschitz is None:
            raise ScenarioError("--lipschitz", "uniformly_lipschitz needs a constant L")
        spec = CheckSpec(name="certify", samples=args.samples, cert_class=args.class_name,
                         schedule=schedule, lipschitz_L=args.lipschitz, n_max=args.n_max)
        cert = _CERTIFIERS[args.class_name](mapping, spec, args.seed)
    except FixiterError as e:
        _err(str(e))
        return 1

    print(json.dumps(certificate_to_dict(cert), indent=2))
    return _CERT_EXIT[cert.verdict]


def _modulus_to_dict(est: ModulusEstimate) -> dict:
    x, y = est.best_witness
    return {
        "epsilon": est.epsilon,
        "estimate": est.estimate,
        "sample_count": est.sample_count,
        "best_witness": {"x": list(x.coords), "y": list(y.coords)},
    }


def cmd_modulus(args) -> int:
    try:
        space = NormedSpace(args.dim, _cli_p(args.p, "--p"))
        est = modulus_of_convexity_estimate(space, args.epsilon, args.samples, args.seed)
    except FixiterError as e:
        _err(str(e))
        return 1
    print(json.dumps(_modulus_to_dict(est), indent=2))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="seed for every sampler (default 0)")
    sub.add_argument("--quiet", action="store_true", help="suppress informational output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixiter",
        description="Fixed-point iteration runner, certifier, and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file and its checks")
    p_run.add_argument("scenario", help="path to a scenario JSON file")
    p_run.add_argument("--output", default=".", help="directory for output files (default .)")
    p_run.add_argument("--force", action="store_true", help="overwrite existing output files")
    _add_common(p_run)
    p_run.set_defaults(handler=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several schemes from one scenario and tabulate speed")
    p_cmp.add_argument("scenario", help="path to a scenario JSON file (used as the base configuration)")
    p_cmp.add_argument("--schemes", required=True,
                       help="comma-separated scheme list, e.g. picard,mann,pm_hybrid")
    p_cmp.add_argument("--target", type=float, required=True,
                       help="error target for steps-to-target accounting")
    p_cmp.add_argument("--output", default=".", help="directory for output files (default .)")
    p_cmp.add_argument("--force", action="store_true", help="overwrite existing output files")
    _add_common(p_cmp)
    p_cmp.set_defaults(handler=cmd_compare)

    p_cert = sub.add_parser("certify", help="certify a catalog mapping against a mapping class")
    p_cert.add_argument("mapping", help=f"catalog mapping id, one of {CATALOG_IDS}")
    p_cert.add_argument("--class", dest="class_name", required=True,
                        help=f"mapping class, one of {CERT_CLASSES}")
    p_cert.add_argument("--param", action="append", default=[],
                        help="mapping parameter as name=value (repeatable)")
    p_cert.add_argument("--schedule", default=None,
                        help="coefficient schedule as kind:args, e.g. geometric:0.5")
    p_cert.add_argument("--lipschitz", type=float, default=None, help="uniform Lipschitz constant L")
    p_cert.add_argument("--n-max", type=int, default=_DEFAULT_CERT_N_MAX,
                        help="largest iterate power checked (default 20)")
    p_cert.add_argument("--samples", type=int, default=_DEFAULT_CERT_SAMPLES,
                        help="sampled pair budget (default 1000)")
    p_cert.add_argument("--dim", type=int, default=None, help="space dimension (default per mapping)")
    p_cert.add_argument("--p", default=2.0, help="norm exponent, a number or 'inf' (default 2)")
    _add_common(p_cert)
    p_cert.set_defaults(handler=cmd_certify)

    p_mod = sub.add_parser("modulus", help="estimate the modulus of convexity of an l_p space")
    p_mod.add_argument("--p", default=2.0, help="norm exponent, a number or 'inf' (default 2)")
    p_mod.add_argument("--dim", type=int, default=2, help="space dimension (default 2)")
    p_mod.add_argument("--epsilon", type=float, required=True, help="separation parameter in [0, 2]")
    p_mod.add_argument("--samples", type=int, default=100_000,
                       help="sampled pair budget (default 100000)")
    _add_common(p_mod)
    p_mod.set_defaults(handler=cmd_modulus)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
