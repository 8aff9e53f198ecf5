"""Seeded inputs for the four benchmark workloads.

``generate(workload, seed)`` returns plain data: a list of op specs and, for
the library workload, the specs of the custom maps it builds.  Nothing here
imports fixiter, so the same seed gives the same inputs whatever the program
under test does, and the self-tests can check that without running it.

Sizes that set how much work a round does (sample budgets, step counts) are
fixed, or drawn as seeded permutations of fixed multisets, so every seed does
about the same work per round and mainly the values fed to the program change.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("scenario_checks", "long_iteration", "powerless_maps", "ball_geometry")
SHIPPED = ("example21_hybrid", "asymptotic_mann", "contraction_compare", "ishikawa_contraction")
SCHEMES = ("picard", "mann", "ishikawa", "modified_mann", "pm_hybrid", "modified_pm_hybrid")
# Schemes that linear_rate_oracle has a closed-form step factor for.
ORACLE_SCHEMES = ("picard", "mann", "pm_hybrid", "modified_pm_hybrid")

# Every op runs under a deadline.  Ops whose rejection-sampler cost is
# predicted to be at least SAMPLER_COLLAPSE_COORDS coordinate draws (about
# 25 s at 13 ns a coordinate on a 2-core x86 VM, 50x the deadline) get the
# short one; every other op finishes in well under a second untraced, 10x
# below the long one.  So each op lands on the same side of its deadline in
# every run, traced or not.
DEADLINE_S = 10.0
COLLAPSE_DEADLINE_S = 0.5
SAMPLER_FINISH_COORDS = 2e6
SAMPLER_COLLAPSE_COORDS = 2e9
# Points build_mapping draws from a domain: 1000 self-map probes plus 100
# closed-form power probes.
BUILD_PROBE_POINTS = 1100

# How long one round of each workload takes on a 2-core Xeon VM (Python
# 3.11, numpy 2.4).  ``--seconds`` is turned into a fixed round count with
# these, so every run of a workload does the same work whatever the commit.
ROUND_SECONDS = {"scenario_checks": 4.5, "long_iteration": 4.0, "powerless_maps": 3.5,
                 "ball_geometry": 2.7}
MIN_ROUNDS = 4

BALL_P = (1.0, 1.5, 2.0, 3.0, "inf")
MODULUS_SAMPLES = 2000
BALL_CERT_SAMPLES = 300
BALL_CHECK_SAMPLES = 300


def rounds_for(workload: str, seconds: float) -> int:
    """Rounds that fill about ``seconds`` on the reference machine."""
    return max(MIN_ROUNDS, round(seconds / ROUND_SECONDS[workload]))


def generate(workload: str, seed: int) -> dict:
    """Inputs of one workload run: ``{"workload", "seed", "ops", "maps"}``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload '{workload}'; known: {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    ops, maps = _GENERATORS[workload](rng)
    for i, op in enumerate(ops):
        op["id"] = f"{i:02d}-{op['kind']}"
        op.setdefault("deadline_s", DEADLINE_S)
    return {"workload": workload, "seed": seed, "ops": ops, "maps": maps}


# ---------------------------------------------------------------------------
# building blocks


def _r(x: float) -> float:
    return round(x, 6)


def _p_token(p):
    return p if p == "inf" else float(p)


def _const(value: float) -> dict:
    return {"kind": "constant", "parameters": {"value": _r(value)}}


def _phi(lam: float) -> dict:
    return {"kind": "linear", "lam": _r(lam)}


def _scenario(name, mapping_id, params, dim, p, scheme, x0, steps, checks, alpha=0.5, beta=None):
    schedules = {}
    if scheme != "picard":
        schedules["alpha"] = _const(alpha)
    if beta is not None:
        schedules["beta"] = _const(beta)
    return {
        "schema_version": 1,
        "name": name,
        "space": {"dim": dim, "p": _p_token(p)},
        "mapping": {"id": mapping_id, "parameters": {k: _r(v) for k, v in params.items()}},
        "scheme": scheme,
        "schedules": schedules,
        "x0": [_r(v) for v in x0],
        "max_steps": steps,
        "stop_tolerance": -1.0,
        "checks": checks,
    }


def _run(scenario: dict, seed: int, oracle: bool = False) -> dict:
    """``fixiter run`` on a generated scenario; every check is expected to pass."""
    return {"kind": "cli_run", "scenario": scenario, "seed": seed, "oracle": oracle}


def _certify(mapping, cls, expect, seed, *, dim, params=None, p=2.0, schedule=None,
             lipschitz=None, n_max=20, samples=1000) -> dict:
    """``fixiter certify``; ``expect`` is the verdict the map's declared class implies."""
    return {
        "kind": "cli_certify", "mapping": mapping, "class": cls,
        "params": {k: _r(v) for k, v in (params or {}).items()},
        "dim": dim, "p": _p_token(p), "schedule": schedule,
        "lipschitz": None if lipschitz is None else _r(lipschitz),
        "n_max": n_max, "samples": samples, "seed": seed, "expect": expect,
    }


def _seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


def _ball_point(rng: random.Random, dim: int, p, radius: float) -> list[float]:
    v = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
    if p == "inf":
        n = max(abs(c) for c in v)
    else:
        n = sum(abs(c) ** p for c in v) ** (1.0 / p)
    return [radius * c / n for c in v]


def _demo_box_point(rng: random.Random, dim: int) -> list[float]:
    # asymptotic_demo's box is [-1, 1] x [-1/1.2, 1/1.2] x [-1, 1]^(dim-2)
    x = [rng.uniform(-0.95, 0.95) for _ in range(dim)]
    x[1] /= 1.2
    return x


def ball_acceptance(p, dim: int) -> float:
    """Share of cube draws that land in the unit l_p ball: G(1+1/p)^d / G(1+d/p)."""
    if p == "inf":
        return 1.0
    return math.exp(dim * math.lgamma(1.0 + 1.0 / p) - math.lgamma(1.0 + dim / p))


def sampler_coords(p, dim: int, points: int) -> float:
    """Predicted coordinates drawn to keep ``points`` unit-ball points by rejection."""
    return points / ball_acceptance(p, dim) * dim


def _max_finishing_dim(p, points: int, cap: int) -> int:
    return max(d for d in range(1, cap + 1) if sampler_coords(p, d, points) <= SAMPLER_FINISH_COORDS)


# ---------------------------------------------------------------------------
# workloads


def _scenario_checks(rng: random.Random):
    ops = [{"kind": "cli_run", "shipped": name, "seed": 0} for name in SHIPPED]

    # Seeded variants of the check-heavy shipped scenarios.
    e21_samples = rng.sample([3000, 5000], 2)
    e21_nmax = rng.sample([20, 40], 2)
    for i in range(2):
        q = rng.uniform(0.3, 0.7)
        lam = rng.uniform(0.3, 1.0) * (1.0 - q)
        s = e21_samples[i]
        checks = [
            {"name": "theorem31"}, {"name": "theorem32"}, {"name": "lemma21"},
            {"name": "theorem33", "phi": _phi(lam), "samples": s},
            {"name": "condition_I", "phi": _phi(lam), "samples": s},
            {"name": "certify", "class": "nearly_nonexpansive",
             "schedule": {"kind": "geometric", "parameters": {"ratio": _r(q)}},
             "n_max": e21_nmax[i], "samples": s},
        ]
        sc = _scenario(f"example21-variant{i}", "example21", {"q": q}, 1, 2.0,
                       "modified_pm_hybrid", [rng.uniform(0.1, 0.95)], 200, checks)
        ops.append(_run(sc, _seed(rng)))

    asym_samples = rng.sample([2000, 3000], 2)
    asym_nmax = rng.sample([10, 30], 2)
    for i in range(2):
        s = asym_samples[i]
        checks = [
            {"name": "theorem32"}, {"name": "lemma21"},
            {"name": "condition_I", "phi": _phi(rng.uniform(0.1, 0.2)), "samples": s},
            {"name": "certify", "class": "asymptotically_nonexpansive",
             "schedule": {"kind": "table", "parameters": {"values": [_r(rng.uniform(1.2, 1.5)), 1.0]}},
             "n_max": asym_nmax[i], "samples": s},
        ]
        sc = _scenario(f"asymptotic-variant{i}", "asymptotic_demo", {}, 3, 2.0, "mann",
                       _demo_box_point(rng, 3), 400, checks)
        ops.append(_run(sc, _seed(rng)))

    contraction_samples = rng.sample([3000, 5000], 2)
    for i in range(2):
        q = rng.uniform(0.3, 0.8)
        checks = [
            {"name": "theorem32"}, {"name": "lemma21"},
            {"name": "condition_I", "phi": _phi(rng.uniform(0.3, 1.0) * (1.0 - q)),
             "samples": contraction_samples[i]},
        ]
        x0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 0.95)
        sc = _scenario(f"contraction-variant{i}", "contraction", {"q": q}, 1, 2.0, "picard",
                       [x0], 200, checks)
        ops.append(_run(sc, _seed(rng), oracle=True))

    # One-shot certificates over the catalog classes on box domains.  The
    # expected verdict follows from each map's declared class: example21 is
    # nearly nonexpansive with a_n = q^n and jumps at 1, asymptotic_demo is
    # asymptotically nonexpansive with k = (1.2, 1, 1, ...) and Lipschitz 1.2,
    # identity is nonexpansive.
    q = rng.uniform(0.3, 0.7)
    q_hi = rng.uniform(0.5, 0.8)
    demo_dims = rng.sample([2, 3], 2)
    ops += [
        _certify("example21", "nearly_nonexpansive", "certified", _seed(rng), dim=1, params={"q": q},
                 schedule=f"geometric:{_r(q + rng.uniform(0.0, 0.2) * (1.0 - q))}"),
        _certify("example21", "nearly_nonexpansive", "refuted", _seed(rng), dim=1, params={"q": q_hi},
                 schedule=f"geometric:{_r(q_hi - rng.uniform(0.15, 0.3))}"),
        _certify("example21", "nonexpansive", "refuted", _seed(rng), dim=1, params={"q": q}),
        _certify("example21", "uniformly_lipschitz", "refuted", _seed(rng), dim=1, params={"q": q},
                 lipschitz=rng.uniform(1.0, 4.0)),
        _certify("example21", "asymptotically_nonexpansive", "refuted", _seed(rng), dim=1,
                 params={"q": q}, schedule=f"table:{_r(rng.uniform(1.0, 2.0))},1.0"),
        _certify("asymptotic_demo", "asymptotically_nonexpansive", "certified", _seed(rng),
                 dim=demo_dims[0], schedule=f"table:{_r(rng.uniform(1.2, 1.5))},1.0"),
        _certify("asymptotic_demo", "nonexpansive", "refuted", _seed(rng), dim=demo_dims[1]),
        _certify("asymptotic_demo", "uniformly_lipschitz", "certified", _seed(rng), dim=demo_dims[0],
                 lipschitz=rng.uniform(1.2, 2.0), n_max=10),
        _certify("identity", "nonexpansive", "certified", _seed(rng), dim=rng.randint(1, 3)),
        _certify("identity", "nearly_nonexpansive", "certified", _seed(rng), dim=rng.randint(1, 3),
                 schedule=f"geometric:{_r(rng.uniform(0.2, 0.8))}"),
    ]
    return ops, {}


def _long_iteration(rng: random.Random):
    # Each run keeps its map, scheme and step count from seed to seed, so the
    # round's latency profile does too; the seed moves the values.
    trajectory_checks = [{"name": "theorem32"}, {"name": "lemma21"}]
    ops = []
    for steps in (2000, 3000):
        q = rng.uniform(0.3, 0.8)
        ops.append(_run(_scenario("long-example21", "example21", {"q": q}, 1, 2.0, "modified_pm_hybrid",
                                  [rng.uniform(0.1, 0.95)], steps,
                                  [{"name": "theorem31"}] + trajectory_checks), _seed(rng)))
    for scheme, steps in zip(ORACLE_SCHEMES, (3000, 2500, 2000, 1500)):
        dim = rng.randint(1, 3)
        sc = _scenario("long-contraction", "contraction", {"q": rng.uniform(0.3, 0.9)}, dim, 2.0,
                       scheme, _ball_point(rng, dim, 2.0, rng.uniform(0.3, 0.9)), steps,
                       trajectory_checks, alpha=rng.uniform(0.3, 0.7))
        ops.append(_run(sc, _seed(rng), oracle=True))
    for dim, steps in ((2, 3000), (3, 2000)):
        ops.append(_run(_scenario("long-asymptotic", "asymptotic_demo", {}, dim, 2.0, "mann",
                                  _demo_box_point(rng, dim), steps, trajectory_checks,
                                  alpha=rng.uniform(0.3, 0.7)), _seed(rng)))

    # compare: the base scenario is ishikawa so that it carries a beta schedule.
    compare_base = [
        _scenario("compare-asymptotic", "asymptotic_demo", {}, 3, 2.0, "ishikawa",
                  _demo_box_point(rng, 3), 600, [], alpha=rng.uniform(0.3, 0.7),
                  beta=rng.uniform(0.3, 0.7)),
        _scenario("compare-contraction", "contraction", {"q": rng.uniform(0.8, 0.95)}, 2, 2.0,
                  "ishikawa", _ball_point(rng, 2, 2.0, rng.uniform(0.3, 0.9)), 600, [],
                  alpha=rng.uniform(0.3, 0.7), beta=rng.uniform(0.3, 0.7)),
    ]
    for i, sc in enumerate(compare_base):
        ops.append({"kind": "cli_compare", "scenario": sc, "seed": _seed(rng),
                    "schemes": list(SCHEMES), "target": 1e-6, "oracle": i == 1})
    return ops, {}


def _powerless_maps(rng: random.Random):
    maps = {
        "example21": {"kind": "example21", "q": _r(rng.uniform(0.3, 0.8))},
        "swap_scale": {"kind": "swap_scale", "dim": 3},
    }
    ops = []
    for key, spec in maps.items():
        for steps in (120, 240):
            if spec["kind"] == "example21":
                x0 = [_r(rng.uniform(0.1, 0.95))]
            else:
                x0 = [_r(v) for v in _demo_box_point(rng, spec["dim"])]
            alpha, beta = _r(rng.uniform(0.3, 0.7)), _r(rng.uniform(0.3, 0.7))
            for scheme in SCHEMES:
                ops.append({"kind": "lib_run", "map": key, "scheme": scheme, "x0": x0,
                            "alpha": alpha, "beta": beta, "steps": steps})
    q = maps["example21"]["q"]
    ops += [
        {"kind": "lib_certify", "map": "example21", "class": "nearly_nonexpansive",
         "schedule": f"geometric:{_r(q + rng.uniform(0.0, 0.2) * (1.0 - q))}",
         "n_max": 20, "samples": 800, "seed": _seed(rng), "expect": "certified"},
        {"kind": "lib_certify", "map": "swap_scale", "class": "asymptotically_nonexpansive",
         "schedule": f"table:{_r(rng.uniform(1.2, 1.5))},1.0",
         "n_max": 20, "samples": 800, "seed": _seed(rng), "expect": "certified"},
        {"kind": "lib_certify", "map": "swap_scale", "class": "uniformly_lipschitz",
         "lipschitz": _r(rng.uniform(1.2, 2.0)),
         "n_max": 10, "samples": 800, "seed": _seed(rng), "expect": "certified"},
    ]
    return ops, maps


def _modulus(rng, p, dim):
    points = 2 * MODULUS_SAMPLES
    op = {"kind": "cli_modulus", "p": _p_token(p), "dim": dim, "epsilon": _r(rng.uniform(0.2, 1.6)),
          "samples": MODULUS_SAMPLES, "seed": _seed(rng)}
    return _with_deadline(op, p, dim, points)


def _with_deadline(op, p, dim, points):
    coords = sampler_coords(p, dim, points)
    if coords >= SAMPLER_COLLAPSE_COORDS:
        op["deadline_s"] = COLLAPSE_DEADLINE_S
    elif coords > SAMPLER_FINISH_COORDS:
        raise AssertionError(f"op {op} has no deadline far from its predicted cost")
    return op


def _ball_certify(rng, p, dim):
    op = _certify("contraction", "nonexpansive", "certified", _seed(rng), dim=dim, p=p,
                  params={"q": rng.uniform(0.3, 0.9)}, samples=BALL_CERT_SAMPLES)
    return _with_deadline(op, p, dim, BUILD_PROBE_POINTS + 2 * BALL_CERT_SAMPLES)


def _ball_run(rng, p, dim):
    # q and alpha keep the slowest step factor at 0.8, so 200 steps reach the
    # fixed point within theorem32's 1e-8.
    q = rng.uniform(0.3, 0.6)
    schemes = ORACLE_SCHEMES if p not in (1.0, "inf") else ORACLE_SCHEMES[:3]
    checks = [
        {"name": "theorem32"}, {"name": "lemma21"},
        {"name": "condition_I", "phi": _phi(rng.uniform(0.3, 1.0) * (1.0 - q)),
         "samples": BALL_CHECK_SAMPLES},
    ]
    sc = _scenario(f"ball-p{p}-d{dim}", "contraction", {"q": q}, dim, p, rng.choice(schemes),
                   _ball_point(rng, dim, p, rng.uniform(0.3, 0.9)), 200, checks,
                   alpha=rng.uniform(0.5, 0.7))
    return _with_deadline(_run(sc, _seed(rng), oracle=True), p, dim,
                          BUILD_PROBE_POINTS + BALL_CHECK_SAMPLES)


def _ball_geometry(rng: random.Random):
    ops = []
    # The sweep below the collapse: every p at dims where rejection keeps up.
    for p in BALL_P:
        ops.append(_modulus(rng, p, rng.randint(2, _max_finishing_dim(p, 2 * MODULUS_SAMPLES, 12))))
        cap = _max_finishing_dim(p, BUILD_PROBE_POINTS + 2 * BALL_CERT_SAMPLES, 12)
        ops.append(_ball_certify(rng, p, rng.randint(1, cap)))
    for p in rng.sample(BALL_P, 3):
        cap = _max_finishing_dim(p, BUILD_PROBE_POINTS + BALL_CHECK_SAMPLES, 4)
        ops.append(_ball_run(rng, p, rng.randint(1, cap)))
    # p = inf keeps up at any dim: the cube is its ball.
    ops.append(_modulus(rng, "inf", rng.randint(15, 24)))
    # ... and through the collapse: dim 15 and above for p <= 2, 30 and above for p = 3.
    grid = [(p, d) for p in (1.0, 1.5, 2.0) for d in range(15, 25)]
    grid += [(3.0, d) for d in range(30, 41)]

    def collapsed(points):
        return rng.choice([pd for pd in grid if sampler_coords(*pd, points) >= SAMPLER_COLLAPSE_COORDS])

    ops.append(_modulus(rng, *collapsed(2 * MODULUS_SAMPLES)))
    ops.append(_modulus(rng, *collapsed(2 * MODULUS_SAMPLES)))
    ops.append(_ball_certify(rng, *collapsed(BUILD_PROBE_POINTS + 2 * BALL_CERT_SAMPLES)))
    ops.append(_ball_run(rng, *collapsed(BUILD_PROBE_POINTS + BALL_CHECK_SAMPLES)))
    return ops, {}


_GENERATORS = {
    "scenario_checks": _scenario_checks,
    "long_iteration": _long_iteration,
    "powerless_maps": _powerless_maps,
    "ball_geometry": _ball_geometry,
}
