"""Running one benchmark op against fixiter and checking what it output.

An op is one in-process ``fixiter.cli.main(argv)`` call or one top-level
library call (``run_scheme``, ``certify_*``).  ``Runner.run`` times only that
call, under the op's deadline, and checks the outputs afterwards:

* exit codes and verdicts match what each catalog map's declared class
  implies (a refuted certificate with exit 2 can be the expected outcome);
* every certificate witness, re-evaluated through the public violation
  functions, reproduces ``max_violation`` exactly;
* contraction trajectories follow ``linear_rate_oracle`` to relative 1e-10;
* modulus witnesses reproduce the estimate, which for p = 2 is at least the
  closed form;
* trajectories of maps without a closed-form power match the catalog twin
  within 1e-10;
* repeating an op gives byte-identical outputs, ``timings`` stripped.

fixiter's functions are looked up on their modules at call time, so the
tracer's wrappers take effect while it is installed.
"""

from __future__ import annotations

import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import fixiter
import fixiter.cli
from maps import build_maps, build_twins

CERT_EXIT = {"certified": 0, "refuted": 2}
CERT_CHECKS = ("theorem33", "condition_I", "certify")
# Mapping applications one step charges on a map with a closed-form power.
STEP_COST = {"picard": 1, "mann": 1, "ishikawa": 2, "modified_mann": 1, "pm_hybrid": 2,
             "modified_pm_hybrid": 2}
ORACLE_RTOL = 1e-10
TWIN_ATOL = 1e-10
MODULUS_TOL = 1e-12
# Below this the linear iterates are subnormal or zero and carry no relative precision.
NORMAL_FLOOR = 1e-250
# The calibration loop, and its time on the reference machine when no
# neighbour interferes (the fastest of 8000 runs on a 2-core Xeon VM).
CALIBRATION_LOOP = 800
REFERENCE_SPIN_S = 2.6e-3
_CALIBRATION_ARRAY = np.arange(3.0)
_ALLOWED_CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []


class DeadlineMissed(BaseException):
    """Raised from SIGALRM inside an op that ran past its deadline.

    A BaseException, so no ``except Exception`` in the program swallows it.
    """


def _on_alarm(signum, frame):
    raise DeadlineMissed


def spin() -> float:
    """Time a fixed loop that boxes small arrays into float tuples and back, as fixiter does.

    The loop is the benchmark's own, so a change to fixiter never changes it.
    """
    start = time.perf_counter()
    for _ in range(CALIBRATION_LOOP):
        v = tuple(float(c) for c in _CALIBRATION_ARRAY * 0.5)
        np.linalg.norm(np.asarray(v))
    return time.perf_counter() - start


def pin_fastest_cpu() -> float:
    """Move this process to the allowed CPU that runs ``spin`` fastest; return that time.

    On a shared VM a neighbour can slow one vCPU for seconds to minutes; the
    scheduler does not see that, so a single-threaded run would otherwise
    keep paying it.  Children started afterwards inherit the choice.
    """
    if not _ALLOWED_CPUS:
        return spin()
    timings = {}
    for cpu in _ALLOWED_CPUS:
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = spin()
    fastest = min(timings, key=timings.get)
    os.sched_setaffinity(0, {fastest})
    return timings[fastest]


@dataclass
class Outcome:
    op_id: str
    latency_s: float
    status: str = "ok"  # ok | deadline | error
    problems: list = field(default_factory=list)
    cert_pairs: int = 0
    scheme_steps: int = 0
    modulus_pairs: int = 0
    output_bytes: int = 0
    csv_bytes: int = 0
    slowdown: float = 1.0  # calibration loop time around the op / REFERENCE_SPIN_S

    @property
    def failed(self) -> bool:
        return self.status != "ok" or bool(self.problems)

    @property
    def scaled_s(self) -> float:
        """Latency on the reference machine: measured latency / slowdown.

        A deadline miss keeps its wall-clock latency.
        """
        return self.latency_s / self.slowdown if self.status != "deadline" else self.latency_s


def _p_value(p):
    return math.inf if p == "inf" else float(p)


def _schedule(text: str):
    kind, _, args = text.partition(":")
    values = [float(v) for v in args.split(",")]
    if kind == "table":
        return fixiter.Schedule.table(values)
    return getattr(fixiter.Schedule, kind)(*values)


def _schedule_text(d: dict) -> str:
    values = d["parameters"].get("values") or list(d["parameters"].values())
    return f"{d['kind']}:{','.join(repr(float(v)) for v in values)}"


class Runner:
    """Prepares a workload's ops in ``work`` and runs them one at a time."""

    def __init__(self, spec: dict, work: Path):
        self.work = work
        self.maps = build_maps(spec["maps"])
        self.twins = build_twins(spec["maps"])
        self.tracer = None
        self.scenarios: dict[str, dict] = {}
        self.argv: dict[str, list] = {}
        self.digests: dict[str, str] = {}
        self._catalog: dict = {}
        for op in spec["ops"]:
            self._prepare(op)
        signal.signal(signal.SIGALRM, _on_alarm)

    def flags(self, op: dict) -> tuple[bool, bool, bool]:
        """(runs a scheme, certifies, estimates a modulus) for an op."""
        kind = op["kind"]
        certifies = kind in ("cli_certify", "lib_certify") or (
            kind == "cli_run" and any(c["name"] in CERT_CHECKS for c in self.scenarios[op["id"]]["checks"]))
        return kind in ("cli_run", "cli_compare", "lib_run"), certifies, kind == "cli_modulus"

    # -- preparation -------------------------------------------------------

    def _prepare(self, op: dict) -> None:
        kind, out = op["kind"], self.work / op["id"]
        if kind in ("cli_run", "cli_compare"):
            if "shipped" in op:
                path = Path("scenarios") / f"{op['shipped']}.json"
                self.scenarios[op["id"]] = json.loads(path.read_text())
            else:
                path = self.work / "scenarios" / f"{op['id']}.json"
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_text(json.dumps(op["scenario"], indent=2))
                self.scenarios[op["id"]] = op["scenario"]
            argv = [kind[4:], str(path), "--output", str(out), "--force", "--seed", str(op["seed"])]
            if kind == "cli_compare":
                argv += ["--schemes", ",".join(op["schemes"]), "--target", repr(op["target"])]
        elif kind == "cli_certify":
            argv = ["certify", op["mapping"], "--class", op["class"], "--dim", str(op["dim"]),
                    "--p", str(op["p"]), "--n-max", str(op["n_max"]),
                    "--samples", str(op["samples"]), "--seed", str(op["seed"])]
            for k, v in op["params"].items():
                argv += ["--param", f"{k}={v!r}"]
            if op["schedule"] is not None:
                argv += ["--schedule", op["schedule"]]
            if op["lipschitz"] is not None:
                argv += ["--lipschitz", repr(op["lipschitz"])]
        elif kind == "cli_modulus":
            argv = ["modulus", "--p", str(op["p"]), "--dim", str(op["dim"]),
                    "--epsilon", repr(op["epsilon"]), "--samples", str(op["samples"]),
                    "--seed", str(op["seed"])]
        else:
            return
        self.argv[op["id"]] = argv

    def _call(self, op: dict):
        """A zero-argument callable that performs the op and returns its raw result."""
        if op["id"] in self.argv:
            argv = self.argv[op["id"]]

            def cli():
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = fixiter.cli.main(argv)
                    except SystemExit as e:
                        code = e.code if isinstance(e.code, int) else 1
                return code, out.getvalue(), err.getvalue()

            return cli
        m = self.maps[op["map"]]
        if op["kind"] == "lib_run":
            cfg = self._run_config(op, m)
            return lambda: fixiter.run_scheme(cfg)
        if op["class"] == "uniformly_lipschitz":
            bound = op["lipschitz"]
        else:
            bound = _schedule(op["schedule"])
        certify = {
            "nearly_nonexpansive": "certify_nearly_nonexpansive",
            "asymptotically_nonexpansive": "certify_asymptotically_nonexpansive",
            "uniformly_lipschitz": "certify_uniform_lipschitz",
        }[op["class"]]
        return lambda: getattr(fixiter, certify)(m, bound, op["n_max"], op["samples"], op["seed"])

    @staticmethod
    def _run_config(op: dict, m):
        s = op["scheme"]
        return fixiter.RunConfig(
            scheme=s, mapping=m, x0=fixiter.Vector(op["x0"]),
            alpha=None if s == "picard" else fixiter.Schedule.constant(op["alpha"]),
            beta=fixiter.Schedule.constant(op["beta"]) if s == "ishikawa" else None,
            max_steps=op["steps"], stop_tolerance=-1.0,
        )

    # -- running -----------------------------------------------------------

    def run(self, op: dict) -> Outcome:
        call = self._call(op)
        gc.collect()  # so garbage left by earlier ops is not collected on this op's time
        before = pin_fastest_cpu()
        outcome, value = self._timed(op, call)
        outcome.slowdown = (before + spin()) / (2.0 * REFERENCE_SPIN_S)
        if outcome.status == "ok":
            try:
                getattr(self, f"_check_{op['kind']}")(op, value, outcome)
            except Exception as e:  # a malformed output must not stop the benchmark
                outcome.problems.append(f"output check raised {type(e).__name__}: {e}")
        return outcome

    def _timed(self, op: dict, call) -> tuple[Outcome, object]:
        """Run ``call`` under the op's deadline and, when installed, the tracer."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(op["id"])
        completed = False
        start = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, op["deadline_s"])
            try:
                value = call()
                elapsed = time.perf_counter() - start
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            completed = True
        except DeadlineMissed:
            return Outcome(op["id"], time.perf_counter() - start, "deadline",
                           [f"missed its {op['deadline_s']} s deadline"]), None
        except Exception as e:  # any traceback out of an op is a failure
            return Outcome(op["id"], time.perf_counter() - start, "error",
                           [f"raised {type(e).__name__}: {e}"]), None
        finally:
            if tracer is not None:
                tracer.end_op(completed)
        return Outcome(op["id"], elapsed), value

    def _expect(self, outcome: Outcome, ok: bool, message: str) -> None:
        if not ok:
            outcome.problems.append(message)

    def _repeat(self, op: dict, payload: bytes, outcome: Outcome) -> None:
        digest = hashlib.sha256(payload).hexdigest()
        first = self.digests.setdefault(op["id"], digest)
        self._expect(outcome, digest == first, "output differs from an earlier run of the same inputs")

    def _cli_outputs(self, op: dict, value, outcome: Outcome) -> dict:
        """Output files by suffix, with ``timings`` stripped from the report."""
        code, out, err = value
        files = {}
        if op["kind"] in ("cli_run", "cli_compare"):
            prefix = len(self.scenarios[op["id"]]["name"]) + 1
            for path in sorted((self.work / op["id"]).iterdir()):
                data = path.read_bytes()
                if path.name.endswith(".report.json"):
                    doc = json.loads(data)
                    doc.pop("timings", None)
                    data = json.dumps(doc, indent=2).encode()
                files[path.name[prefix:]] = data
        payload = f"{code}\n{out}".encode() + b"".join(files.values())
        outcome.output_bytes = len(payload) - len(f"{code}\n")
        self._repeat(op, payload, outcome)
        return files

    # -- checks ------------------------------------------------------------

    def _catalog_map(self, mapping_id: str, params: dict, dim: int, p):
        key = (mapping_id, tuple(sorted(params.items())), dim, p)
        if key not in self._catalog:
            space = fixiter.NormedSpace(dim, _p_value(p))
            self._catalog[key] = fixiter.get_mapping(mapping_id, params, space)
        return self._catalog[key]

    def _reevaluate(self, m, cert: dict, phi=None, schedule=None, lipschitz=None) -> float:
        w = cert["witness"]
        x = fixiter.Vector(w["x"])
        prop = cert["property"]
        if prop == "condition_I":
            gauge = fixiter.PhiSpec(**phi)
            return gauge(fixiter.distance_to_fixed_set(m, x)) - m.space.norm(
                x - fixiter.apply_power(m, 1, x))
        y, n = fixiter.Vector(w["y"]), w["n"]
        fm = fixiter.mappings
        if prop == "nonexpansive":
            return fm.uniform_lipschitz_violation(m, 1.0, n, x, y)
        if prop == "uniformly_lipschitz":
            return fm.uniform_lipschitz_violation(m, lipschitz, n, x, y)
        violation = getattr(fm, f"{prop}_violation")
        return violation(m, _schedule(schedule), n, x, y)

    def _check_witness(self, m, cert: dict, outcome: Outcome, **bound) -> None:
        again = self._reevaluate(m, cert, **bound)
        self._expect(outcome, again == cert["max_violation"],
                     f"{cert['property']} witness re-evaluates to {again!r}, "
                     f"not max_violation {cert['max_violation']!r}")

    def _check_cli_run(self, op, value, outcome):
        code, _, err = value
        files = self._cli_outputs(op, value, outcome)
        self._expect(outcome, code == 0, f"exit {code}, expected 0: {err.strip()[:200]}")
        sc = self.scenarios[op["id"]]
        space = sc["space"]
        m = self._catalog_map(sc["mapping"]["id"], sc["mapping"]["parameters"], space["dim"], space["p"])
        report = json.loads(files["report.json"])
        for spec, result in zip(sc["checks"], report["checks"]):
            self._expect(outcome, result["verdict"] == "pass", f"check {spec['name']} failed")
            details = result["details"]
            cert = details.get("condition_certificate", details)
            if "sample_count" not in cert:
                continue
            outcome.cert_pairs += cert["sample_count"]
            if spec["name"] == "certify":
                self._check_witness(m, cert, outcome, schedule=_schedule_text(spec["schedule"]))
            else:
                self._check_witness(m, cert, outcome, phi=spec["phi"])
        rows = list(csv.reader(io.StringIO(files["trajectory.csv"].decode())))[1:]
        outcome.scheme_steps = len(rows)
        outcome.csv_bytes = len(files["trajectory.csv"])
        self._expect(outcome, len(rows) == sc["max_steps"],
                     f"{len(rows)} CSV rows, expected {sc['max_steps']} steps")
        if op.get("oracle"):
            self._check_oracle(sc, rows, outcome)

    def _oracle_args(self, sc: dict):
        alpha = sc["schedules"]["alpha"]["parameters"]["value"] if "alpha" in sc["schedules"] else 0.5
        return sc["mapping"]["parameters"]["q"], alpha

    def _check_oracle(self, sc, rows, outcome):
        q, alpha = self._oracle_args(sc)
        dim = sc["space"]["dim"]
        prev = np.array(sc["x0"], dtype=float)
        for row in rows:
            n = int(row[0])
            x = np.array([float(v) for v in row[1:1 + dim]])
            expect = fixiter.linear_rate_oracle(sc["scheme"], q, alpha, n) * prev
            normal = np.abs(expect) >= NORMAL_FLOOR
            if np.any(np.abs(x[normal] - expect[normal]) > ORACLE_RTOL * np.abs(expect[normal])):
                outcome.problems.append(f"step {n} departs from linear_rate_oracle: {x} vs {expect}")
                return
            prev = x

    def _check_cli_compare(self, op, value, outcome):
        code, _, err = value
        files = self._cli_outputs(op, value, outcome)
        self._expect(outcome, code == 0, f"exit {code}, expected 0: {err.strip()[:200]}")
        sc = self.scenarios[op["id"]]
        rates = json.loads(files["rates.json"])["rows"]
        self._expect(outcome, [r["scheme"] for r in rates] == op["schemes"], "rate rows do not match --schemes")
        for r in rates:
            steps, rest = divmod(r["total_applications"], STEP_COST[r["scheme"]])
            self._expect(outcome, rest == 0 and steps == sc["max_steps"],
                         f"{r['scheme']} charged {r['total_applications']} applications "
                         f"for {sc['max_steps']} steps")
            outcome.scheme_steps += steps
        if not op.get("oracle"):
            return
        q, alpha = self._oracle_args(sc)
        space = fixiter.NormedSpace(sc["space"]["dim"], _p_value(sc["space"]["p"]))
        for r in rates:
            if r["scheme"] not in ("picard", "mann", "pm_hybrid", "modified_pm_hybrid"):
                continue
            expect = space.norm(fixiter.Vector(sc["x0"]))
            for n in range(1, sc["max_steps"] + 1):
                expect *= fixiter.linear_rate_oracle(r["scheme"], q, alpha, n)
            if expect >= NORMAL_FLOOR:
                self._expect(outcome, abs(r["final_error"] - expect) <= ORACLE_RTOL * expect,
                             f"{r['scheme']} final error {r['final_error']!r} vs oracle {expect!r}")

    def _check_cli_certify(self, op, value, outcome):
        code, out, err = value
        self._cli_outputs(op, value, outcome)
        expect = op["expect"]
        self._expect(outcome, code == CERT_EXIT[expect],
                     f"exit {code}, expected {CERT_EXIT[expect]}: {err.strip()[:200]}")
        cert = json.loads(out)
        self._expect(outcome, cert["verdict"] == expect, f"verdict {cert['verdict']}, expected {expect}")
        outcome.cert_pairs = cert["sample_count"]
        m = self._catalog_map(op["mapping"], op["params"], op["dim"], op["p"])
        self._check_witness(m, cert, outcome, schedule=op["schedule"], lipschitz=op["lipschitz"])

    def _check_cli_modulus(self, op, value, outcome):
        code, out, err = value
        self._cli_outputs(op, value, outcome)
        self._expect(outcome, code == 0, f"exit {code}, expected 0: {err.strip()[:200]}")
        est = json.loads(out)
        outcome.modulus_pairs = est["sample_count"]
        space = fixiter.NormedSpace(op["dim"], _p_value(op["p"]))
        x = fixiter.Vector(est["best_witness"]["x"])
        y = fixiter.Vector(est["best_witness"]["y"])
        again = 1.0 - space.norm(x + y) / 2.0
        self._expect(outcome, again == est["estimate"],
                     f"modulus witness gives {again!r}, not the estimate {est['estimate']!r}")
        eps = op["epsilon"]
        admissible = (space.norm(x) <= 1.0 + MODULUS_TOL and space.norm(y) <= 1.0 + MODULUS_TOL
                      and space.distance(x, y) >= eps - MODULUS_TOL)
        self._expect(outcome, admissible, "modulus witness is not an admissible unit-ball pair")
        if op["p"] == 2.0:
            closed = 1.0 - math.sqrt(1.0 - eps * eps / 4.0)
            self._expect(outcome, est["estimate"] >= closed - MODULUS_TOL,
                         f"estimate {est['estimate']!r} below the closed form {closed!r}")

    def _check_lib_run(self, op, traj, outcome):
        rows = fixiter.trajectory_csv_rows(traj)
        self._repeat(op, "\n".join(",".join(r) for r in rows).encode(), outcome)
        outcome.scheme_steps = traj.steps
        self._expect(outcome, traj.steps == op["steps"], f"{traj.steps} steps, expected {op['steps']}")
        twin = fixiter.run_scheme(self._run_config(op, self.twins[op["map"]]))
        got = np.array([x.coords for x in traj.iterates])
        ref = np.array([x.coords for x in twin.iterates])
        self._expect(outcome, got.shape == ref.shape and np.all(np.abs(got - ref) <= TWIN_ATOL),
                     "trajectory departs from its closed-form twin by more than 1e-10")

    def _check_lib_certify(self, op, cert, outcome):
        w = cert.witness
        doc = {
            "property": cert.property_name, "sample_count": cert.sample_count,
            "max_violation": cert.max_violation, "verdict": cert.verdict,
            "witness": {"x": list(w.x.coords), "y": None if w.y is None else list(w.y.coords), "n": w.n},
        }
        self._repeat(op, json.dumps(doc).encode(), outcome)
        outcome.cert_pairs = cert.sample_count
        self._expect(outcome, cert.verdict == op["expect"], f"verdict {cert.verdict}, expected {op['expect']}")
        self._check_witness(self.maps[op["map"]], doc, outcome,
                            schedule=op.get("schedule"), lipschitz=op.get("lipschitz"))
