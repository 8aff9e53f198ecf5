"""Command-line front end: scenario files in, trajectories and reports out.

A scenario is a JSON document that names a space, a catalog mapping, a scheme
with its schedules, a start point, and a list of checks to run on the
resulting trajectory.  ``run`` executes it and writes
``<name>.trajectory.csv``, ``<name>.trajectory.json`` (config echo) and
``<name>.report.json``; ``compare`` reuses the scenario as a base
configuration for several schemes and writes ``<name>.rates.{csv,json}``.
``certify`` and ``modulus`` are scenario-free one-shots printing JSON.

Exit codes: 0 success (all checks pass / certified), 1 validation or
configuration failure (with a path-qualified message, nothing written) or an
output directory or file that cannot be written (one message naming it),
2 check failure or refuted certificate, 3 inconclusive certificate.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

from .analysis import (
    _GAUGE_PARAMETERS,
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
    _check_catalog_id,
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
    _check_scheme,
    _p_token,
    run_scheme,
    trajectory_header,
    write_trajectory_csv,
)
from .space import ModulusEstimate, NormedSpace, Vector, modulus_of_convexity_estimate

SCHEMA_VERSION = 1
CHECK_NAMES = ("lemma21", "theorem31", "theorem32", "theorem33", "condition_I", "certify")
# Per mapping class: the key of the bound it is checked against ("schedule" for
# a_n or k_n, "L" for a constant, None for no bound), which is also the key in
# a scenario's certify check, and the name of its certifier in this module.
# ``_certify`` looks the name up on each call, so a wrapper put on a certifier
# after import sees every certificate.  A class with a bound also takes n_max.
_CERTIFIERS = {
    "nonexpansive": (None, "certify_nonexpansive"),
    "asymptotically_nonexpansive": ("schedule", "certify_asymptotically_nonexpansive"),
    "nearly_nonexpansive": ("schedule", "certify_nearly_nonexpansive"),
    "uniformly_lipschitz": ("L", "certify_uniform_lipschitz"),
}
CERT_CLASSES = tuple(_CERTIFIERS)
# Per schedule kind: its parameter names, in the order ``--schedule`` takes
# them, and the defaults of the trailing optional ones.  A table's one
# parameter is its list of values.
_SCHEDULE_KINDS = {
    "constant": (("value",), {}),
    "geometric": (("ratio",), {}),
    "harmonic_tail": (("scale", "offset"), {"scale": 1.0, "offset": 0.0}),
    "table": (("values",), {}),
}
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
    bound: Schedule | float | None = None
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


def _at(path: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a library error it raises re-raised as a ScenarioError at ``path``."""
    try:
        return fn(*args, **kwargs)
    except FixiterError as e:
        raise ScenarioError(path, str(e)) from e


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


_REQUIRED = object()


def _field(d: dict, path: str, key: str, read, default=_REQUIRED, **kw):
    """``read(d[key], "<path>.<key>", **kw)``, reading ``default`` for a missing key;
    a missing key without a default is an error at its path."""
    at = _join(path, key)
    if key not in d and default is _REQUIRED:
        raise ScenarioError(at, "missing required key")
    return read(d.get(key, default), at, **kw)


def _entries(v, path: str, entry) -> tuple:
    """The entries of the list ``v``, entry i read by ``entry`` at ``<path>[i]``."""
    return tuple(entry(x, f"{path}[{i}]") for i, x in enumerate(_expect_list(v, path)))


def _expect_str(v, path: str) -> str:
    if not isinstance(v, str):
        raise ScenarioError(path, f"expected a string, got {type(v).__name__}")
    return v


def _known(v, path: str, known, unknown) -> str:
    """``v``, once it is a string in ``known``; ``unknown(v)`` is the message for one that is not."""
    if _expect_str(v, path) not in known:
        raise ScenarioError(path, unknown(v))
    return v


def _cert_class(name, path: str) -> str:
    """``name``, once it names a mapping class."""
    return _known(name, path, CERT_CLASSES,
                  lambda n: f"unknown mapping class '{n}'; known classes: {CERT_CLASSES}")


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
    if isinstance(v, str) and v != "inf":
        try:
            v = float(v)
        except ValueError as e:
            raise ScenarioError(flag, f"expected a number or 'inf', got '{v}'") from e
    return _parse_p(v, flag)


def schedule_from_dict(obj, path: str) -> Schedule:
    d = _require_dict(obj, path)
    _reject_unknown(d, {"kind", "parameters"}, path)
    kind = _field(d, path, "kind", _known, known=_SCHEDULE_KINDS, unknown=lambda k: (
        f"unknown schedule kind '{k}'; scenario files accept {tuple(_SCHEDULE_KINDS)}"))
    names, defaults = _SCHEDULE_KINDS[kind]
    params = _field(d, path, "parameters", _require_dict)
    ppath = _join(path, "parameters")
    _reject_unknown(params, set(names), ppath)
    if kind == "table":
        return _at(path, Schedule.table, _field(params, ppath, "values", _entries, entry=_expect_real))
    return _at(path, getattr(Schedule, kind), *[
        _field(params, ppath, n, _expect_real, defaults.get(n, _REQUIRED)) for n in names
    ])


def _knot(v, path: str) -> tuple[float, float]:
    """One ``[t, value]`` knot of a table gauge."""
    if len(_expect_list(v, path)) != 2:
        raise ScenarioError(path, "expected a [t, value] pair")
    return _entries(v, path, _expect_real)


def phi_from_dict(obj, path: str) -> PhiSpec:
    d = _require_dict(obj, path)
    kind = _field(d, path, "kind", _known, known=_GAUGE_PARAMETERS, unknown=lambda k: f"unknown gauge kind '{k}'")
    names = _GAUGE_PARAMETERS[kind]
    _reject_unknown(d, {"kind", *names}, path)
    if kind == "table":
        params = {"grid": _field(d, path, "grid", _entries, entry=_knot)}
    else:
        params = {n: _field(d, path, n, _expect_real) for n in names}
    return _at(path, PhiSpec, kind, **params)


def check_from_dict(obj, path: str) -> CheckSpec:
    d = _require_dict(obj, path)
    name = _field(d, path, "name", _known, known=CHECK_NAMES,
                  unknown=lambda n: f"unknown check '{n}'; known checks: {CHECK_NAMES}")
    if name in ("lemma21", "theorem31", "theorem32"):
        _reject_unknown(d, {"name"}, path)
        return CheckSpec(name=name)
    if name in ("theorem33", "condition_I"):
        _reject_unknown(d, {"name", "phi", "samples"}, path)
        return CheckSpec(name=name, phi=_field(d, path, "phi", phi_from_dict),
                         samples=_field(d, path, "samples", _expect_int, _DEFAULT_CHECK_SAMPLES, minimum=1))

    # certify
    cert_class = _field(d, path, "class", _cert_class)
    key = _CERTIFIERS[cert_class][0]
    bound = n_max = None
    if key == "schedule":
        bound = _field(d, path, key, schedule_from_dict)
    elif key == "L":
        bound = _field(d, path, key, _expect_real)
        if bound <= 0.0:
            raise ScenarioError(_join(path, key), f"must be > 0, got {bound}")
    _reject_unknown(d, {"name", "class", "samples"} | ({key, "n_max"} if key else set()), path)
    if key is not None:
        n_max = _field(d, path, "n_max", _expect_int, _DEFAULT_CERT_N_MAX, minimum=1)
    samples = _field(d, path, "samples", _expect_int, _DEFAULT_CERT_SAMPLES, minimum=1)
    return CheckSpec(name=name, samples=samples, cert_class=cert_class, bound=bound, n_max=n_max)


def scenario_from_dict(doc) -> Scenario:
    root = _require_dict(doc, "")
    _reject_unknown(root, {
        "schema_version", "name", "space", "mapping", "scheme", "schedules",
        "x0", "max_steps", "stop_tolerance", "checks",
    }, "")
    version = _field(root, "", "schema_version", _expect_int)
    if version != SCHEMA_VERSION:
        raise ScenarioError("schema_version", f"unsupported version {version}; expected {SCHEMA_VERSION}")
    name = _field(root, "", "name", _expect_str)
    if not _NAME_RE.match(name):
        raise ScenarioError("name", "must be nonempty and use only letters, digits, '.', '_', '-'")

    space = _field(root, "", "space", _require_dict)
    _reject_unknown(space, {"dim", "p"}, "space")
    dim = _field(space, "space", "dim", _expect_int, minimum=1)
    p = _field(space, "space", "p", _parse_p)

    mapping = _field(root, "", "mapping", _require_dict)
    _reject_unknown(mapping, {"id", "parameters"}, "mapping")
    mapping_id = _field(mapping, "mapping", "id", _expect_str)
    _at("mapping.id", _check_catalog_id, mapping_id)
    raw_params = _field(mapping, "mapping", "parameters", _require_dict, {})
    params = tuple(sorted(
        (str(k), _field(raw_params, "mapping.parameters", k, _expect_real)) for k in raw_params
    ))

    scheme = _field(root, "", "scheme", _expect_str)
    _at("scheme", _check_scheme, scheme)

    schedules = _field(root, "", "schedules", _require_dict, {})
    _reject_unknown(schedules, {"alpha", "beta"}, "schedules")
    alpha = None
    if "alpha" in schedules:
        alpha = _field(schedules, "schedules", "alpha", schedule_from_dict)
    elif scheme != "picard":
        raise ScenarioError("schedules.alpha", f"scheme {scheme} requires an alpha schedule")
    beta = None
    if scheme == "ishikawa":
        beta = _field(schedules, "schedules", "beta", schedule_from_dict)
    elif "beta" in schedules:
        raise ScenarioError("schedules.beta", "only meaningful for the ishikawa scheme")

    x0 = _field(root, "", "x0", _entries, entry=_expect_real)
    if len(x0) != dim:
        raise ScenarioError("x0", f"has {len(x0)} coordinates but space.dim = {dim}")

    return Scenario(
        name=name, space_dim=dim, space_p=p, mapping_id=mapping_id,
        mapping_parameters=params, scheme=scheme, alpha=alpha, beta=beta, x0=x0,
        max_steps=_field(root, "", "max_steps", _expect_int, RunConfig.max_steps, minimum=1),
        stop_tolerance=_field(root, "", "stop_tolerance", _expect_real, RunConfig.stop_tolerance),
        checks=_field(root, "", "checks", _entries, [], entry=check_from_dict),
    )


class _UnreadableScenario(ScenarioError):
    """A scenario file that cannot be read or decoded: its path is the file's own."""


def parse_scenario(path) -> Scenario:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as e:
        reason = getattr(e, "strerror", None) or e
        raise _UnreadableScenario(str(path), f"cannot read scenario file: {reason}") from e
    except json.JSONDecodeError as e:
        raise _UnreadableScenario(str(path), f"not valid JSON: {e}") from e
    return scenario_from_dict(doc)


def check_spec_to_dict(c: CheckSpec) -> dict:
    key = c.cert_class and _CERTIFIERS[c.cert_class][0]
    out = {"name": c.name, "phi": c.phi, "class": c.cert_class, key: c.bound,
           "n_max": c.n_max, "samples": c.samples}
    return {k: v.to_dict() if hasattr(v, "to_dict") else v for k, v in out.items() if v is not None}


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
    space = _at("space", NormedSpace, s.space_dim, s.space_p)
    return _at("mapping", get_mapping, s.mapping_id, dict(s.mapping_parameters), space)


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
    alpha, read = traj.config.alpha, traj.alpha_values  # alpha(n) is read again only past the run's reads
    a = [distance_to_fixed_set(m, traj.config.x0), *traj.dist_to_known_fp]
    b = [(1.0 + (0.0 if alpha is None else read[n - 1] if n <= len(read) else alpha.at(n))) * near.at(n)
         for n in range(1, traj.steps + 1)]
    b.append(0.0)
    delta = [0.0] * len(a)
    report = check_lemma21(a, b, delta, len(a))
    passed = report.hypothesis_ok and report.verdict == "converged"
    return passed, report.to_dict()


def _certify(cert_class: str, m: Mapping, bound, n_max: int | None, samples: int, seed: int) -> Certificate:
    key, name = _CERTIFIERS[cert_class]
    certifier = globals()[name]
    return certifier(m, samples, seed) if key is None else certifier(m, bound, n_max, samples, seed)


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
            cert = _certify(c.cert_class, m, c.bound, c.n_max, c.samples, seed)
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

def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _claim_outputs(args, name: str, suffixes: tuple[str, ...]) -> list[Path]:
    """The paths ``<--output>/<name>.<suffix>``; an existing one is refused unless --force."""
    paths = [Path(args.output) / f"{name}.{suffix}" for suffix in suffixes]
    for p in paths:
        if p.exists() and not args.force:
            raise ScenarioError(str(p), "output file exists; pass --force to overwrite")
    return paths


def _write_outputs(paths: list[Path], writers) -> None:
    """Make the output directory, then call each path's writer on the open file, one file at a
    time; a file system error becomes a ScenarioError at the path it failed on."""
    where = paths[0].parent
    try:
        where.mkdir(parents=True, exist_ok=True)
        for where, write in zip(paths, writers):
            with open(where, "w", newline="") as f:
                write(f)
    except OSError as e:
        raise ScenarioError(str(where), f"cannot write output file: {e.strerror}") from e


# ---------------------------------------------------------------------------
# subcommands

def cmd_run(args) -> int:
    scenario = parse_scenario(args.scenario)
    mapping = build_mapping_for(scenario)
    preflight_checks(scenario, mapping)
    config = build_run_config(scenario, mapping)

    paths = _claim_outputs(args, scenario.name, ("trajectory.csv", "trajectory.json", "report.json"))

    t0 = time.perf_counter()
    traj = run_scheme(config)
    run_seconds = time.perf_counter() - t0
    results, check_timings = run_checks(scenario, mapping, traj, args.seed)

    report = {
        "scenario": scenario_to_dict(scenario),
        "checks": results,
        "timings": {"run_seconds": run_seconds, "checks": check_timings},
    }
    _write_outputs(paths, (
        lambda f: write_trajectory_csv(traj, f),
        lambda f: print(json.dumps(trajectory_header(traj), indent=2), file=f),
        lambda f: print(json.dumps(report, indent=2), file=f),
    ))

    _say(args, f"{scenario.name}: {traj.steps} steps, stop_reason={traj.stop_reason}")
    for r in results:
        _say(args, f"  [{r['verdict']}] {r['name']}")
    _say(args, f"wrote {', '.join(map(str, paths))}")
    return 0 if all(r["verdict"] == "pass" for r in results) else 2


def cmd_compare(args) -> int:
    schemes = [tok.strip() for tok in args.schemes.split(",") if tok.strip()]
    if not schemes:
        raise ScenarioError("--schemes", "needs at least one scheme")
    for scheme in schemes:
        _at("--schemes", _check_scheme, scheme)
    if not 0.0 < args.target < math.inf:
        raise ScenarioError("--target", f"must be finite and > 0, got {args.target}")
    scenario = parse_scenario(args.scenario)
    mapping = build_mapping_for(scenario)
    base = build_run_config(scenario, mapping)

    paths = _claim_outputs(args, scenario.name, ("rates.csv", "rates.json"))

    report = compare_schemes(base, schemes, args.target)
    _write_outputs(paths, (
        lambda f: f.write("\n".join(map(",".join, report.to_csv_rows())) + "\n"),
        lambda f: print(json.dumps({"scenario": scenario_to_dict(scenario), **report.to_dict()}, indent=2),
                        file=f),
    ))
    _say(args, report.to_text())
    _say(args, f"wrote {', '.join(map(str, paths))}")
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
    names, defaults = _SCHEDULE_KINDS.get(kind, ((), {}))
    if kind == "table" and values:
        return Schedule.table(values)
    if kind != "table" and names and len(names) - len(defaults) <= len(values) <= len(names):
        return getattr(Schedule, kind)(*values, *[defaults[n] for n in names[len(values):]])
    raise ScenarioError(
        "--schedule",
        f"cannot parse '{spec}'; expected kind:args like constant:0.5, geometric:0.5, "
        "harmonic_tail:scale[,offset], or table:v1,v2,...",
    )


def cmd_certify(args) -> int:
    _at("mapping", _check_catalog_id, args.mapping)
    _cert_class(args.class_name, "--class")
    dim = args.dim if args.dim is not None else CATALOG[args.mapping].default_dim
    space = NormedSpace(dim, _cli_p(args.p, "--p"))
    mapping = get_mapping(args.mapping, _parse_cli_params(args.param), space)

    key = _CERTIFIERS[args.class_name][0]
    flags = {"schedule": ("--schedule", args.schedule, "coefficient schedule"),
             "L": ("--lipschitz", args.lipschitz, "constant L")}
    for flag_key, (flag, value, noun) in flags.items():
        if (value is None) == (flag_key == key):
            verb = "needs a" if value is None else "takes no"
            raise ScenarioError(flag, f"{args.class_name} {verb} {noun}")
    bound = None if key is None else flags[key][1]
    if key == "schedule":
        bound = _parse_schedule_spec(bound)
    cert = _certify(args.class_name, mapping, bound, args.n_max, args.samples, args.seed)

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
    space = NormedSpace(args.dim, _cli_p(args.p, "--p"))
    est = modulus_of_convexity_estimate(space, args.epsilon, args.samples, args.seed)
    print(json.dumps(_modulus_to_dict(est), indent=2))
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=0, help="seed for every sampler (default 0)")
    sub.add_argument("--quiet", action="store_true", help="suppress informational output")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one ``error:`` line and exits 1, where
    argparse prints its usage and exits 2, the code of a refuted property."""

    def error(self, message: str):
        self.exit(1, f"error: {message}\n")


def _run_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="path to a scenario JSON file")
    p.add_argument("--output", default=".", help="directory for output files (default .)")
    p.add_argument("--force", action="store_true", help="overwrite existing output files")
    _add_common(p)
    p.set_defaults(handler=cmd_run)


def _compare_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario", help="path to a scenario JSON file (used as the base configuration)")
    p.add_argument("--schemes", required=True,
                   help="comma-separated scheme list, e.g. picard,mann,pm_hybrid")
    p.add_argument("--target", type=float, required=True,
                   help="error target for steps-to-target accounting")
    p.add_argument("--output", default=".", help="directory for output files (default .)")
    p.add_argument("--force", action="store_true", help="overwrite existing output files")
    _add_common(p)
    p.set_defaults(handler=cmd_compare)


def _certify_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("mapping", help=f"catalog mapping id, one of {CATALOG_IDS}")
    p.add_argument("--class", dest="class_name", required=True,
                   help=f"mapping class, one of {CERT_CLASSES}")
    p.add_argument("--param", action="append", default=[],
                   help="mapping parameter as name=value (repeatable)")
    p.add_argument("--schedule", default=None,
                   help="coefficient schedule as kind:args, e.g. geometric:0.5")
    p.add_argument("--lipschitz", type=float, default=None, help="uniform Lipschitz constant L")
    p.add_argument("--n-max", type=int, default=_DEFAULT_CERT_N_MAX,
                   help="largest iterate power checked (default 20)")
    p.add_argument("--samples", type=int, default=_DEFAULT_CERT_SAMPLES,
                   help="sampled pair budget (default 1000)")
    p.add_argument("--dim", type=int, default=None, help="space dimension (default per mapping)")
    p.add_argument("--p", default=2.0, help="norm exponent, a number or 'inf' (default 2)")
    _add_common(p)
    p.set_defaults(handler=cmd_certify)


def _modulus_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", default=2.0, help="norm exponent, a number or 'inf' (default 2)")
    p.add_argument("--dim", type=int, default=2, help="space dimension (default 2)")
    p.add_argument("--epsilon", type=float, required=True, help="separation parameter in [0, 2]")
    p.add_argument("--samples", type=int, default=100_000,
                   help="sampled pair budget (default 100000)")
    _add_common(p)
    p.set_defaults(handler=cmd_modulus)


# Per subcommand: its line in the top-level help and the function that adds its arguments.
_COMMANDS = {
    "run": ("execute a scenario file and its checks", _run_arguments),
    "compare": ("run several schemes from one scenario and tabulate speed", _compare_arguments),
    "certify": ("certify a catalog mapping against a mapping class", _certify_arguments),
    "modulus": ("estimate the modulus of convexity of an l_p space", _modulus_arguments),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fixiter",
        description="Fixed-point iteration runner, certifier, and diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, building only the parser of the command that
    ``argv`` starts with: ``build_parser()`` hands that command's parser, named
    ``fixiter <command>``, the rest of ``argv``, so it parses, helps and errs the same."""
    if argv and argv[0] in _COMMANDS:
        parser = _Parser(prog=f"fixiter {argv[0]}")
        _COMMANDS[argv[0]][1](parser)
        parser.set_defaults(command=argv[0])
        return parser.parse_args(argv[1:])
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.seed < 0:
            raise FixiterError(f"--seed: must be >= 0, got {args.seed}")
        # each warning is one stderr line, without the source line that raised it
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.handler(args)
    except (FixiterError, Warning) as e:  # a warning is raised under an interpreter filter of "error"
        # run and compare put an error inside their scenario at its file
        scenario = (isinstance(e, ScenarioError) and not isinstance(e, _UnreadableScenario)
                    and getattr(args, "scenario", None))
        print(f"error: {scenario}: {e}" if scenario else f"error: {e}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
