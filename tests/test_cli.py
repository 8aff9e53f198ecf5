"""Command-line interface: scenario parsing, exit codes, files, determinism."""

import contextlib
import copy
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixiter import (NormedSpace, RunConfig, Schedule, Vector, check_lemma21, cli, distance_to_fixed_set,
                     get_mapping, make_asymptotically_nonexpansive_example, make_linear_contraction,
                     near_schedule_for, run_scheme)
from fixiter.errors import ParameterError, ScenarioError

GOOD = {
    "schema_version": 1,
    "name": "hybrid-demo",
    "space": {"dim": 1, "p": 2},
    "mapping": {"id": "example21", "parameters": {"q": 0.5}},
    "scheme": "modified_pm_hybrid",
    "schedules": {"alpha": {"kind": "constant", "parameters": {"value": 0.5}}},
    "x0": [0.9],
    "max_steps": 200,
    "stop_tolerance": -1.0,
    "checks": [
        {"name": "theorem31"},
        {"name": "theorem32"},
        {"name": "lemma21"},
        {"name": "theorem33", "phi": {"kind": "linear", "lam": 0.5}, "samples": 500},
        {"name": "condition_I", "phi": {"kind": "linear", "lam": 0.5}, "samples": 500},
        {"name": "certify", "class": "nearly_nonexpansive",
         "schedule": {"kind": "geometric", "parameters": {"ratio": 0.5}},
         "n_max": 20, "samples": 500},
    ],
}


def _write(tmp_path, doc, fname="scenario.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(doc))
    return str(path)


def _variant(**edits):
    doc = copy.deepcopy(GOOD)
    for key, value in edits.items():
        if value is _DROP:
            doc.pop(key)
        else:
            doc[key] = value
    return doc


_DROP = object()
# The error of a certificate on which L * ||x - y|| overflows for every candidate.
_NO_WITNESS = "uniformly_lipschitz: every sampled violation is -inf or nan, so no candidate is a witness"


# ---------------------------------------------------------------------------
# scenario parsing

reals = st.floats(allow_nan=False, allow_infinity=False, width=64)
positive = st.floats(min_value=1e-3, max_value=1e3)


def _schedule_docs():
    return st.one_of(
        st.builds(lambda v: {"kind": "constant", "parameters": {"value": v}}, reals),
        st.builds(lambda r: {"kind": "geometric", "parameters": {"ratio": r}}, reals),
        st.builds(lambda s, o: {"kind": "harmonic_tail", "parameters": {"scale": s, "offset": o}},
                  reals, st.floats(min_value=-0.999, max_value=1e6)),
        st.builds(lambda vs: {"kind": "table", "parameters": {"values": vs}}, st.lists(reals, min_size=1, max_size=4)),
    )


def _table_grid(steps):
    t = v = 0.0
    grid = [[t, v]]
    for dt, dv in steps:
        t, v = t + dt, v + dv
        grid.append([t, v])
    return grid


def _check_docs():
    phi = st.one_of(
        st.builds(lambda lam: {"kind": "linear", "lam": lam}, positive),
        st.builds(lambda lam, g: {"kind": "power", "lam": lam, "gamma": g}, positive,
                  st.floats(min_value=1.0, max_value=10.0)),
        st.builds(lambda steps: {"kind": "table", "grid": _table_grid(steps)},
                  st.lists(st.tuples(positive, st.floats(min_value=0.0, max_value=1e3)), min_size=1, max_size=4)),
    )
    samples = st.integers(min_value=1, max_value=10**6)
    n_max = st.integers(min_value=1, max_value=100)
    return st.one_of(
        st.builds(lambda name: {"name": name}, st.sampled_from(["lemma21", "theorem31", "theorem32"])),
        st.builds(lambda name, g, k: {"name": name, "phi": g, "samples": k},
                  st.sampled_from(["theorem33", "condition_I"]), phi, samples),
        st.builds(lambda k: {"name": "certify", "class": "nonexpansive", "samples": k}, samples),
        st.builds(lambda c, sch, n, k: {"name": "certify", "class": c, "schedule": sch, "n_max": n, "samples": k},
                  st.sampled_from(["nearly_nonexpansive", "asymptotically_nonexpansive"]),
                  _schedule_docs(), n_max, samples),
        st.builds(lambda L, n, k: {"name": "certify", "class": "uniformly_lipschitz", "L": L, "n_max": n, "samples": k},
                  positive, n_max, samples),
    )


@st.composite
def scenario_docs(draw):
    dim = draw(st.integers(min_value=1, max_value=4))
    scheme = draw(st.sampled_from(cli.SCHEMES))
    schedules = {}
    if scheme != "picard" or draw(st.booleans()):
        schedules["alpha"] = draw(_schedule_docs())
    if scheme == "ishikawa":
        schedules["beta"] = draw(_schedule_docs())
    doc = {
        "schema_version": cli.SCHEMA_VERSION,
        "name": draw(st.from_regex(r"[A-Za-z0-9._-]{1,12}", fullmatch=True)),
        "space": {"dim": dim, "p": draw(st.one_of(st.just("inf"), st.floats(min_value=1.0, max_value=64.0)))},
        "mapping": {"id": draw(st.sampled_from(cli.CATALOG_IDS)),
                    "parameters": draw(st.dictionaries(st.sampled_from(["q", "a", "b"]), reals, max_size=3))},
        "scheme": scheme,
        "schedules": schedules,
        "x0": draw(st.lists(reals, min_size=dim, max_size=dim)),
        "checks": draw(st.lists(_check_docs(), max_size=4)),
    }
    if draw(st.booleans()):
        doc["max_steps"] = draw(st.integers(min_value=1, max_value=10**6))
        doc["stop_tolerance"] = draw(reals)
    return doc


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(doc=scenario_docs())
@example(doc=GOOD)
@example(doc=_variant(checks=[{"name": "condition_I", "phi": {"kind": "power", "lam": 0.25, "gamma": 2.0},
                               "samples": 500}]))
@example(doc=_variant(checks=[{"name": "theorem33", "phi": {"kind": "table", "grid": [[0.0, 0.0], [1.0, 0.4]]},
                               "samples": 500}]))
def test_scenario_round_trip(doc):
    # Every scenario the parser accepts survives a dump/parse cycle, in memory and through JSON.
    s = cli.scenario_from_dict(doc)
    assert cli.scenario_from_dict(cli.scenario_to_dict(s)) == s
    assert cli.scenario_from_dict(json.loads(json.dumps(cli.scenario_to_dict(s)))) == s
    for c in s.checks:
        if c.phi is not None:
            assert list(cli.check_spec_to_dict(c)["phi"]) == GAUGE_KEYS[c.phi.kind]


# The keys of each gauge kind as a scenario writes them, in order.
GAUGE_KEYS = {"linear": ["kind", "lam"], "power": ["kind", "lam", "gamma"], "table": ["kind", "grid"]}


def test_scenario_defaults_applied_at_parse():
    doc = _variant(max_steps=_DROP, stop_tolerance=_DROP, checks=_DROP)
    s = cli.scenario_from_dict(doc)
    assert s.max_steps == 10_000
    assert s.stop_tolerance == 1e-12
    assert s.checks == ()
    # defaults survive a dump/parse cycle unchanged
    assert cli.scenario_from_dict(cli.scenario_to_dict(s)) == s


def test_scenario_parse_failures_cite_the_offending_path():
    bad = [
        (_variant(schema_version=_DROP), "schema_version"),
        (_variant(schema_version=2), "schema_version"),
        (_variant(name="bad name!"), "name"),
        (_variant(extra_key=1), "extra_key"),
        (_variant(space={"dim": 0, "p": 2}), "space.dim"),
        (_variant(space={"dim": 1, "p": 0.5}), "space.p"),
        (_variant(mapping={"id": "no_such", "parameters": {}}), "mapping.id"),
        (_variant(scheme="newton"), "scheme"),
        (_variant(schedules={}), "schedules.alpha"),
        (_variant(schedules={"alpha": {"kind": "constant", "parameters": {"value": 0.5}},
                             "beta": {"kind": "constant", "parameters": {"value": 0.5}}}),
         "schedules.beta"),
        (_variant(x0=["near one"]), "x0[0]"),
        (_variant(max_steps=True), "max_steps"),
        (_variant(max_steps=0), "max_steps"),
        (_variant(stop_tolerance="tight"), "stop_tolerance"),
        (_variant(checks=[{"name": "lemma99"}]), "checks[0]"),
        (_variant(checks=[{"name": "theorem31", "surprise": 1}]), "checks[0]"),
        (_variant(checks=[{"name": "certify"}]), "checks[0]"),
    ]
    for doc, needle in bad:
        with pytest.raises(ScenarioError) as err:
            cli.scenario_from_dict(doc)
        assert needle in str(err.value), needle


def test_an_x0_of_another_dim_is_refused_at_x0_when_the_run_is_built():
    s = cli.scenario_from_dict(_variant(x0=[0.9, 0.1]))
    with pytest.raises(ScenarioError) as err:
        cli.build_run_config(s, cli.build_mapping_for(s))
    assert str(err.value) == "x0: x0 has dim 2, mapping space has dim 1"


def test_schedule_from_dict_rejects_unknown_kind():
    with pytest.raises(ScenarioError):
        cli.schedule_from_dict({"kind": "formula", "parameters": {}}, "s")
    with pytest.raises(ScenarioError):
        cli.schedule_from_dict({"kind": "constant"}, "s")


# ---------------------------------------------------------------------------
# run command

def test_run_writes_outputs_and_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, GOOD)
    out = tmp_path / "out"
    assert cli.main(["run", path, "--output", str(out), "--seed", "0"]) == 0
    stdout = capsys.readouterr().out
    assert "pass" in stdout
    report = json.loads((out / "hybrid-demo.report.json").read_text())
    assert [c["verdict"] for c in report["checks"]] == ["pass"] * 6
    csv_text = (out / "hybrid-demo.trajectory.csv").read_text()
    header, first = csv_text.splitlines()[:2]
    assert header == "n,x_0,step_norm,residual_T,residual_Tn,dist_to_known_fp"
    assert first == "1,0.3375,0.5625,0.16875,0.16875,0.3375"
    meta = json.loads((out / "hybrid-demo.trajectory.json").read_text())
    assert meta["steps"] == 200
    assert meta["stop_reason"] == "max_steps"


def test_run_report_times_every_phase_but_its_own_write(tmp_path):
    path = _write(tmp_path, GOOD)
    assert cli.main(["run", path, "--output", str(tmp_path / "out"), "--quiet"]) == 0
    timings = json.loads((tmp_path / "out" / "hybrid-demo.report.json").read_text())["timings"]
    assert list(timings) == ["parse_seconds", "build_seconds", "run_seconds", "checks", "write_seconds"]
    seconds = [v for k, v in timings.items() if k != "checks"] + [c["seconds"] for c in timings["checks"]]
    assert all(math.isfinite(v) and v >= 0.0 for v in seconds)
    assert [c["name"] for c in timings["checks"]] == [c["name"] for c in GOOD["checks"]]


def test_run_is_deterministic_byte_for_byte(tmp_path):
    path = _write(tmp_path, GOOD)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", path, "--output", str(out1), "--quiet"]) == 0
    assert cli.main(["run", path, "--output", str(out2), "--quiet"]) == 0
    for fname in ("hybrid-demo.trajectory.csv", "hybrid-demo.trajectory.json"):
        b1 = (out1 / fname).read_bytes()
        b2 = (out2 / fname).read_bytes()
        assert b1 == b2, fname
    # report content is deterministic too; only the wall-clock timings vary
    r1 = json.loads((out1 / "hybrid-demo.report.json").read_text())
    r2 = json.loads((out2 / "hybrid-demo.report.json").read_text())
    r1.pop("timings")
    r2.pop("timings")
    assert r1 == r2


def test_run_refuses_to_overwrite_without_force(tmp_path, capsys):
    path = _write(tmp_path, GOOD)
    out = tmp_path / "out"
    assert cli.main(["run", path, "--output", str(out), "--quiet"]) == 0
    assert cli.main(["run", path, "--output", str(out), "--quiet"]) == 1
    assert "--force" in capsys.readouterr().err
    assert cli.main(["run", path, "--output", str(out), "--quiet", "--force"]) == 0


def test_run_quiet_silences_stdout(tmp_path, capsys):
    path = _write(tmp_path, GOOD)
    assert cli.main(["run", path, "--output", str(tmp_path / "o"), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_run_exit_two_on_failed_check_still_writes_outputs(tmp_path):
    doc = _variant(name="refuted", checks=[{"name": "certify", "class": "nonexpansive",
                                            "samples": 500}])
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    assert cli.main(["run", path, "--output", str(out), "--quiet"]) == 2
    report = json.loads((out / "refuted.report.json").read_text())
    assert report["checks"][0]["verdict"] == "fail"
    assert (out / "refuted.trajectory.csv").exists()


def test_an_uncertified_gauge_fails_theorem33_without_the_chain(tmp_path):
    doc = json.loads((SCENARIO_DIR / "example21_hybrid.json").read_text())
    for check in doc["checks"]:
        if "phi" in check:
            check["phi"] = {"kind": "linear", "lam": 2.0}
    out = tmp_path / "out"
    assert cli.main(["run", _write(tmp_path, doc), "--output", str(out), "--quiet"]) == 2
    report = json.loads((out / f"{doc['name']}.report.json").read_text())
    theorem33 = next(c for c in report["checks"] if c["name"] == "theorem33")
    assert theorem33["verdict"] == "fail"
    assert set(theorem33["details"]) == {"note", "condition_certificate"}


# Scenarios that parse but whose first check raises, by the message it raises.
_CHECK_ERRORS = {
    # d(x, F) > 1 on this box, so the gauge t**1e6 overflows
    "power gauge overflows at t = 1.6414763002993509": _variant(
        mapping={"id": "asymptotic_demo", "parameters": {}}, space={"dim": 3, "p": 2}, x0=[0.8, 0.5, -0.6],
        scheme="mann", checks=[{"name": "condition_I", "phi": {"kind": "power", "lam": 1, "gamma": 1e6},
                                "samples": 500}]),
    _NO_WITNESS: _variant(
        mapping={"id": "asymptotic_demo", "parameters": {}}, space={"dim": 40, "p": 2}, x0=[0.5] + [0.0] * 39,
        scheme="mann", max_steps=20,
        checks=[{"name": "certify", "class": "uniformly_lipschitz", "L": 1e308, "n_max": 5, "samples": 10}]),
}


def test_run_invalid_scenarios_exit_one_without_outputs(tmp_path, capsys):
    bad = [
        _variant(schema_version=99),
        _variant(schedules={"alpha": {"kind": "constant", "parameters": {"value": 1.5}}}),
        _variant(x0=[2.5]),
        _variant(scheme="mann"),  # theorem31 check demands the power hybrid
        _variant(checks=[{"name": "theorem33", "phi": {"kind": "linear", "lam": 0.5},
                          "samples": 500, "n_max": 3}]),
    ]
    # Non-finite gauges, written as the Infinity and NaN tokens JSON readers accept.
    gauges = {
        "checks[0].phi.lam": {"kind": "linear", "lam": math.inf},
        "checks[0].phi.gamma": {"kind": "power", "lam": 1.0, "gamma": math.nan},
        "checks[0].phi.grid[1][0]": {"kind": "table", "grid": [[0.0, 0.0], [math.inf, 0.5]]},
    }
    bad = [(doc, "") for doc in bad] + [
        (_variant(checks=[{"name": "condition_I", "phi": phi, "samples": 500}]), f": {where}: must be finite")
        for where, phi in gauges.items()
    ] + [(doc, f": checks[0]: {message}") for message, doc in _CHECK_ERRORS.items()]
    for i, (doc, where) in enumerate(bad):
        out = tmp_path / f"out{i}"
        path = _write(tmp_path, doc, f"bad{i}.json")
        code = cli.main(["run", path, "--output", str(out), "--quiet"])
        assert code == 1, i
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err, (i, err)
        assert not out.exists() or list(out.iterdir()) == [], i


@pytest.mark.parametrize("message", _CHECK_ERRORS, ids=["condition_I", "certify"])
def test_an_error_inside_a_check_is_placed_at_its_file_and_check(tmp_path, capsys, message):
    path = _write(tmp_path, _CHECK_ERRORS[message])
    assert cli.main(["run", path, "--output", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: checks[0]: {message}\n")


@pytest.mark.parametrize("command", [
    ["run", "{path}"],
    ["compare", "{path}", "--schemes", "mann", "--target", "1e-6"],
])
def test_an_output_directory_under_a_regular_file_exits_one_with_one_line(tmp_path, capsys, command):
    path, afile = _write(tmp_path, GOOD), tmp_path / "afile"
    afile.write_text("")
    out = afile / "out"
    assert cli.main([a.format(path=path) for a in command] + ["--output", str(out), "--quiet"]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: {out}: cannot write output file: Not a directory\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "scenario.json"]
    assert afile.read_text() == ""


def test_run_missing_file_exits_one(tmp_path, capsys):
    path = tmp_path / "absent.json"
    assert cli.main(["run", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {path}: cannot read scenario file: No such file or directory\n"
    with pytest.raises(ScenarioError) as info:  # a library caller is told which file
        cli.parse_scenario(path)
    assert str(info.value) == f"{path}: cannot read scenario file: No such file or directory"


def test_run_a_scenario_file_that_is_not_text_exits_one_with_one_line(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff{}")
    assert cli.main(["run", str(path), "--quiet"]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: cannot read scenario file: 'utf-8' codec can't "
                                       "decode byte 0xff in position 0: invalid start byte\n")


def test_run_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err == (f"error: {path}: not valid JSON: Expecting property name "
                                       "enclosed in double quotes: line 1 column 2 (char 1)\n")
    path.write_text("[]")
    assert cli.main(["run", str(path), "--quiet"]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: <root>: expected an object, got list\n")


# ---------------------------------------------------------------------------
# compare command

def test_compare_writes_rate_table(tmp_path):
    doc = _variant(checks=_DROP)
    path = _write(tmp_path, doc)
    out = tmp_path / "out"
    code = cli.main(["compare", path, "--schemes",
                     "picard,mann,pm_hybrid,modified_pm_hybrid",
                     "--target", "1e-6", "--output", str(out), "--quiet"])
    assert code == 0
    rows = (out / "hybrid-demo.rates.csv").read_text().splitlines()
    assert rows[0].startswith("scheme,")
    assert len(rows) == 5
    data = json.loads((out / "hybrid-demo.rates.json").read_text())
    assert data["target_error"] == 1e-6
    assert [r["scheme"] for r in data["rows"]] == [
        "picard", "mann", "pm_hybrid", "modified_pm_hybrid"]


def test_compare_rejects_unknown_scheme(tmp_path, capsys):
    path = _write(tmp_path, _variant(checks=_DROP))
    code = cli.main(["compare", path, "--schemes", "picard,newton",
                     "--target", "1e-6", "--output", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err == f"error: {path}: --schemes: unknown scheme 'newton'; {_KNOWN_SCHEMES}\n"
    code = cli.main(["compare", path, "--schemes", ",", "--target", "1e-6", "--output", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {path}: --schemes: needs at least one scheme\n")


def test_compare_names_its_scenario_file_on_a_library_error(tmp_path, capsys):
    # An error that names no place in the scenario file still names the file.
    path = SCENARIO_DIR / "contraction_compare.json"
    code = cli.main(["compare", str(path), "--schemes", "ishikawa",
                     "--target", "1e-6", "--output", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    assert capsys.readouterr() == ("", f"error: {path}: ishikawa requires a beta schedule\n")


@pytest.mark.parametrize("target", ["nan", "inf", "0", "-1"])
def test_compare_rejects_a_target_that_is_not_finite_and_positive(tmp_path, capsys, target):
    # A non-finite target would be written to rates.json as NaN or Infinity,
    # which is not JSON.
    path = _write(tmp_path, _variant(checks=_DROP))
    out = tmp_path / "o"
    code = cli.main(["compare", path, "--schemes", "mann", "--target", target,
                     "--output", str(out), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {path}: --target: must be finite and > 0, got {float(target)}\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# certify command

def test_certify_exit_codes(capsys):
    assert cli.main(["certify", "contraction", "--class", "nonexpansive",
                     "--param", "q=0.5", "--samples", "500"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "certified"

    assert cli.main(["certify", "example21", "--class", "nonexpansive",
                     "--param", "q=0.5", "--samples", "500"]) == 2
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "refuted"
    assert cert["witness"]["x"] == [pytest.approx(1.0 - 1e-6)]

    assert cli.main(["certify", "example21", "--class", "nonexpansive",
                     "--param", "q=0.5", "--samples", "5"]) == 3
    cert = json.loads(capsys.readouterr().out)
    assert cert["verdict"] == "inconclusive"


def test_certify_sees_a_violation_whose_power_sums_underflow(capsys):
    # At p = 1e4 every |x|**p below 1 underflows; the scaled norm still sees
    # |Tx - Ty| = 0.5 against |x - y| = 1e-6 at the discontinuity.
    assert cli.main(["certify", "example21", "--param", "q=0.5", "--p", "1e4", "--class", "nonexpansive",
                     "--samples", "1000"]) == 2
    cert = json.loads(capsys.readouterr().out)
    assert (cert["verdict"], cert["max_violation"]) == ("refuted", 0.49999849999999996)


def test_certify_with_schedule_spec(capsys):
    code = cli.main(["certify", "example21", "--class", "nearly_nonexpansive",
                     "--param", "q=0.5", "--schedule", "geometric:0.5",
                     "--n-max", "20", "--samples", "500"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "certified"


@pytest.mark.parametrize("argv, error", [
    (["example21", "--class", "nonexpansive", "--param", "q=0.5", "--schedule", "geometric:0.5"],
     "--schedule: nonexpansive takes no coefficient schedule"),
    (["example21", "--class", "nonexpansive", "--param", "q=0.5", "--lipschitz", "2"],
     "--lipschitz: nonexpansive takes no constant L"),
    (["contraction", "--class", "uniformly_lipschitz", "--param", "q=0.5", "--lipschitz", "2",
      "--schedule", "geometric:0.5"], "--schedule: uniformly_lipschitz takes no coefficient schedule"),
    (["example21", "--class", "nearly_nonexpansive", "--param", "q=0.5", "--schedule", "geometric:0.5",
      "--lipschitz", "2"], "--lipschitz: nearly_nonexpansive takes no constant L"),
])
def test_certify_refuses_a_bound_its_class_does_not_take(capsys, argv, error):
    # A scenario file refuses the same key; the command line used to drop it.
    assert cli.main(["certify"] + argv) == 1
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.parametrize("argv, error", [
    (["certify", "example21", "--param", "q=0.5"],"the following arguments are required: --class"),
    (["certify", "example21", "--class", "nonexpansive", "--param", "q=0.5", "--samples", "x"],
     "argument --samples: invalid int value: 'x'"),
    (["certify", "identity", "--class", "nonexpansive", "a\u2028b"], "unrecognized arguments: a\\u2028b"),
])
def test_usage_errors_exit_one_with_one_error_line(monkeypatch, capsys, argv, error):
    # argparse alone prints its usage and exits 2, the code of a refuted property.
    monkeypatch.setattr(sys, "argv", ["fixiter"] + argv)
    for run in (lambda: cli.main(argv), cli.entrypoint):
        with pytest.raises(SystemExit) as exited:
            run()
        assert exited.value.code == 1
        assert capsys.readouterr() == ("", f"error: {error}\n")


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exited:
        cli.main(["certify", "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fixiter certify")


def test_certify_takes_n_max_for_every_class(capsys):
    assert cli.main(["certify", "identity", "--class", "nonexpansive", "--n-max", "3",
                     "--samples", "20"]) == 0
    assert json.loads(capsys.readouterr().out)["n_range"] == [1, 1]


@pytest.mark.parametrize("command", [
    ["certify", "identity", "--class", "nonexpansive"],
    ["modulus", "--epsilon", "1"],
    ["run", "{path}", "--output", "{out}"],
    ["compare", "{path}", "--schemes", "mann", "--target", "1e-6", "--output", "{out}"],
])
def test_every_subcommand_refuses_a_negative_seed(tmp_path, capsys, command):
    path, out = _write(tmp_path, GOOD), tmp_path / "out"
    assert cli.main([a.format(path=path, out=out) for a in command] + ["--seed", "-1"]) == 1
    scenario = f"{path}: " if command[0] in ("run", "compare") else ""
    assert capsys.readouterr() == ("", f"error: {scenario}--seed: must be >= 0, got -1\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# pinned error lines: one fault per input, exact exit code 1 and stderr line

_LIN = {"kind": "linear", "lam": 0.5}
_GEO = {"kind": "geometric", "parameters": {"ratio": 0.5}}
_KNOWN_CLASSES = ("known classes: ('nonexpansive', 'asymptotically_nonexpansive', "
                  "'nearly_nonexpansive', 'uniformly_lipschitz')")
_KNOWN_SCHEMES = ("known schemes: ('picard', 'mann', 'ishikawa', 'modified_mann', 'pm_hybrid', "
                  "'modified_pm_hybrid')")


def _check(**spec):
    return {"checks": [spec]}


def _cert(cert_class, **spec):
    return _check(name="certify", **{"class": cert_class}, **spec)


def _alpha(kind, **params):
    return {"schedules": {"alpha": {"kind": kind, "parameters": params}}}


_SCENARIO_FAULTS = [
    (_check(name="lemma99"),
     "checks[0].name: unknown check 'lemma99'; known checks: ('lemma21', 'theorem31', "
     "'theorem32', 'theorem33', 'condition_I', 'certify')"),
    (_check(name="theorem31", surprise=1), "checks[0].surprise: unknown key"),
    (_check(name="theorem33", samples=500), "checks[0].phi: missing required key"),
    (_check(name="theorem33", phi=_LIN, samples=500, n_max=3), "checks[0].n_max: unknown key"),
    (_check(name="condition_I", phi=_LIN, samples=1.5),
     "checks[0].samples: expected an integer, got float"),
    (_check(name="certify"), "checks[0].class: missing required key"),
    (_cert("bogus"), f"checks[0].class: unknown mapping class 'bogus'; {_KNOWN_CLASSES}"),
    (_cert(3), "checks[0].class: expected a string, got int"),
    (_cert("nonexpansive", schedule=_GEO), "checks[0].schedule: unknown key"),
    (_cert("nonexpansive", n_max=3), "checks[0].n_max: unknown key"),
    (_cert("nonexpansive", samples=0), "checks[0].samples: must be >= 1, got 0"),
    (_cert("nearly_nonexpansive"), "checks[0].schedule: missing required key"),
    (_cert("nearly_nonexpansive", schedule=_GEO, L=2.0), "checks[0].L: unknown key"),
    (_cert("asymptotically_nonexpansive", schedule={"kind": "geometric"}),
     "checks[0].schedule.parameters: missing required key"),
    (_cert("uniformly_lipschitz"), "checks[0].L: missing required key"),
    (_cert("uniformly_lipschitz", L=0), "checks[0].L: must be > 0, got 0.0"),
    (_cert("uniformly_lipschitz", L=2.0, schedule=_GEO), "checks[0].schedule: unknown key"),
    (_cert("uniformly_lipschitz", L=2.0, n_max=1.5),
     "checks[0].n_max: expected an integer, got float"),
    ({"schedules": {"alpha": {"parameters": {"value": 0.5}}}},
     "schedules.alpha.kind: missing required key"),
    (_alpha("formula"),
     "schedules.alpha.kind: unknown schedule kind 'formula'; scenario files accept "
     "('constant', 'geometric', 'harmonic_tail', 'table')"),
    ({"schedules": {"alpha": {"kind": "constant"}}}, "schedules.alpha.parameters: missing required key"),
    (_alpha("constant"), "schedules.alpha.parameters.value: missing required key"),
    (_alpha("constant", value=0.5, ratio=0.5), "schedules.alpha.parameters.ratio: unknown key"),
    (_alpha("geometric"), "schedules.alpha.parameters.ratio: missing required key"),
    (_alpha("geometric", ratio=0.5, value=0.5), "schedules.alpha.parameters.value: unknown key"),
    (_alpha("harmonic_tail", offset=-1.0),
     "schedules.alpha: harmonic_tail offset must be > -1 so at(1) is defined, got -1.0"),
    (_alpha("harmonic_tail", value=1.0), "schedules.alpha.parameters.value: unknown key"),
    (_alpha("table"), "schedules.alpha.parameters.values: missing required key"),
    (_alpha("table", values=[]), "schedules.alpha: table schedule needs at least one value"),
    (_alpha("table", values=[0.5], value=0.5), "schedules.alpha.parameters.value: unknown key"),
    (_check(name="condition_I", phi={"kind": "cubic"}, samples=500),
     "checks[0].phi.kind: unknown gauge kind 'cubic'"),
    (_check(name="condition_I", phi={"kind": "linear", "lam": 0.5, "gamma": 2}, samples=500),
     "checks[0].phi.gamma: unknown key"),
    (_check(name="condition_I", phi={"kind": "linear", "lam": -1.0}, samples=500),
     "checks[0].phi: linear gauge needs a finite lam > 0, got -1.0"),
    (_check(name="condition_I", phi={"kind": "power", "lam": 0.5}, samples=500),
     "checks[0].phi.gamma: missing required key"),
    ({"scheme": "mann"}, "checks[0]: theorem31 applies to the modified_pm_hybrid scheme only"),
    ({"mapping": {"id": "identity"}, "checks": [{"name": "theorem32"}]},
     "checks[0]: theorem32 requires a mapping with known fixed points"),
    ({"scheme": "newton"}, f"scheme: unknown scheme 'newton'; {_KNOWN_SCHEMES}"),
    ({"mapping": {"id": "example21", "parameters": {}}}, "mapping: example21 requires parameter 'q'"),
    ({"mapping": {"id": "example21", "parameters": {"q": 2}}}, "mapping: q must lie in (0, 1), got 2.0"),
    ({"mapping": {"id": "identity"}, "checks": [{"name": "theorem31"}]},
     "checks[0]: theorem31 requires a mapping with known fixed points"),
    ({"x0": 0.5}, "x0: expected a list, got float"),
    (_check(name="condition_I", phi={"kind": "table", "grid": [[0, 0, 1]]}, samples=500),
     "checks[0].phi.grid[0]: expected a [t, value] pair"),
    ({"mapping": {"id": "mystery"}},
     "mapping.id: unknown mapping 'mystery'; catalog: "
     "('example21', 'contraction', 'identity', 'asymptotic_demo')"),
    ({"scheme": "mann\nishikawa"}, f"scheme: unknown scheme 'mann\\nishikawa'; {_KNOWN_SCHEMES}"),
    ({"x0": [0.9, 0.1]}, "x0: x0 has dim 2, mapping space has dim 1"),
    ({"scheme": "mann", "checks": [], **_alpha("constant", value=-0.5)},
     "schedule invalid for mann: alpha(1) = -0.5 outside [0, 1)"),
    ({"mapping": {"id": "asymptotic_demo", "parameters": {}}},
     "mapping: asymptotic_demo swaps two coordinates, so it needs dim >= 2; got space dim 1"),
]


@pytest.mark.parametrize("edits, message", _SCENARIO_FAULTS)
def test_scenario_error_lines_are_pinned(tmp_path, capsys, edits, message):
    path = _write(tmp_path, {**copy.deepcopy(GOOD), **edits})
    out = tmp_path / "out"
    assert cli.main(["run", path, "--output", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["run"], ["compare", "--schemes", "mann", "--target", "1e-6"]])
def test_an_x0_outside_the_domain_is_refused_at_x0_before_any_work(tmp_path, capsys, command):
    path, out = _write(tmp_path, _variant(x0=[5.0])), tmp_path / "out"
    assert cli.main([command[0], path, "--output", str(out), *command[1:]]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: x0: x0 = (5.0,) lies outside the mapping domain\n")
    assert not out.exists()


@pytest.mark.parametrize("mapping_id", cli.CATALOG_IDS)
def test_every_catalog_map_declares_a_fixed_set_and_a_near_sequence(mapping_id):
    # lemma21, theorem33 and condition_I read both, and preflight does not check them.
    entry = cli.CATALOG[mapping_id]
    built = []
    for dim in (1, 2, 3):
        try:
            m = get_mapping(mapping_id, dict.fromkeys(entry.parameters, 0.5), NormedSpace(dim, 2.0))
        except ParameterError:  # example21 is one-dimensional; asymptotic_demo needs dim >= 2
            continue
        built.append(dim)
        assert m.has_fixed_set and near_schedule_for(m) is not None, dim
    assert entry.default_dim in built


_NEARLY = ["example21", "--class", "nearly_nonexpansive", "--param", "q=0.5"]
_CANNOT_PARSE = ("expected kind:args like constant:0.5, geometric:0.5, "
                 "harmonic_tail:scale[,offset], or table:v1,v2,...")
_CERTIFY_FAULTS = [
    (["mystery", "--class", "nonexpansive"],
     "mapping: unknown mapping 'mystery'; catalog: "
     "('example21', 'contraction', 'identity', 'asymptotic_demo')"),
    (["example21", "--class", "bogus", "--param", "q=0.5"],
     f"--class: unknown mapping class 'bogus'; {_KNOWN_CLASSES}"),
    (_NEARLY, "--schedule: nearly_nonexpansive needs a coefficient schedule"),
    (["example21", "--class", "asymptotically_nonexpansive", "--param", "q=0.5"],
     "--schedule: asymptotically_nonexpansive needs a coefficient schedule"),
    (["example21", "--class", "uniformly_lipschitz", "--param", "q=0.5"],
     "--lipschitz: uniformly_lipschitz needs a constant L"),
    (["example21", "--class", "nonexpansive", "--param", "q=oops"],
     "--param: value of 'q' must be a number, got 'oops'"),
    (_NEARLY + ["--schedule", "cubic:1"], f"--schedule: cannot parse 'cubic:1'; {_CANNOT_PARSE}"),
    (_NEARLY + ["--schedule", "geometric"], f"--schedule: cannot parse 'geometric'; {_CANNOT_PARSE}"),
    (_NEARLY + ["--schedule", "geometric:0.5,0.2"],
     f"--schedule: cannot parse 'geometric:0.5,0.2'; {_CANNOT_PARSE}"),
    (_NEARLY + ["--schedule", "harmonic_tail:1,2,3"],
     f"--schedule: cannot parse 'harmonic_tail:1,2,3'; {_CANNOT_PARSE}"),
    (_NEARLY + ["--schedule", "table:"], f"--schedule: cannot parse 'table:'; {_CANNOT_PARSE}"),
    (_NEARLY + ["--schedule", "geometric:x"], "--schedule: non-numeric argument in 'geometric:x'"),
    (_NEARLY + ["--schedule", "harmonic_tail:1,-1"],
     "--schedule: harmonic_tail offset must be > -1 so at(1) is defined, got -1.0"),
    (["contraction", "--class", "uniformly_lipschitz", "--param", "q=0.5", "--lipschitz", "inf"],
     "--lipschitz: must be finite, got inf"),
    (["example21", "--class", "nonexpansive", "--param", "q"], "--param: expected name=value, got 'q'"),
    (["example21", "--class", "nonexpansive", "--param", "q=0.5", "--p", "abc"],
     "--p: expected a number or 'inf', got 'abc'"),
    (_NEARLY + ["--schedule", "harmonic_tail:inf"],
     "--schedule: harmonic_tail schedule needs a finite scale and offset, got inf, 0.0"),
    (_NEARLY + ["--schedule", "harmonic_tail:nan"],
     "--schedule: harmonic_tail schedule needs a finite scale and offset, got nan, 0.0"),
    (_NEARLY + ["--schedule", "geometric:2", "--n-max", "1100"], "geometric schedule overflows at n = 1024"),
    # Each coefficient floor has one message, whichever check meets it first.
    (["asymptotic_demo", "--class", "asymptotically_nonexpansive", "--schedule", "constant:0.5"],
     "asymptotic schedule must satisfy k(n) >= 1; k(1) = 0.5"),
    (["asymptotic_demo", "--class", "uniformly_lipschitz", "--lipschitz", "1e308", "--samples", "10",
      "--dim", "40"], _NO_WITNESS),
    # A line break in the input is written as its escape, so the error stays one line.
    (["x\ny", "--class", "nonexpansive"],
     "mapping: unknown mapping 'x\\ny'; catalog: ('example21', 'contraction', 'identity', 'asymptotic_demo')"),
    (["identity", "--class", "nonexpansive", "--p", "1\x1e"], "--p: expected a number or 'inf', got '1\\x1e'"),
    # A value one flag alone feeds to the library is refused at that flag.
    (["identity", "--class", "nonexpansive", "--dim", "0"], "--dim: space dimension must be >= 1, got 0"),
    (_NEARLY + ["--schedule", "geometric:inf"], "--schedule: geometric schedule needs a finite ratio, got inf"),
    # The mapping's parameters and its space both feed the catalog, so its errors are at the mapping.
    (["example21", "--class", "nonexpansive", "--param", "q=2"], "mapping: q must lie in (0, 1), got 2.0"),
    (["example21", "--class", "nonexpansive", "--param", "q=0.5", "--dim", "2"],
     "mapping: example21 is one-dimensional; got space dim 2"),
    # Each value of --lipschitz, --n-max and --samples is refused at its flag,
    # before the mapping is built, by the readers of the scenario's keys.
    (["contraction", "--class", "uniformly_lipschitz", "--param", "q=0.5", "--lipschitz", "0"],
     "--lipschitz: must be > 0, got 0.0"),
    (["contraction", "--class", "uniformly_lipschitz", "--param", "q=0.5", "--lipschitz", "-2"],
     "--lipschitz: must be > 0, got -2.0"),
    (["contraction", "--class", "uniformly_lipschitz", "--param", "q=0.5", "--lipschitz", "nan"],
     "--lipschitz: must be finite, got nan"),
    (_NEARLY + ["--schedule", "geometric:0.5", "--n-max", "0"], "--n-max: must be >= 1, got 0"),
    (["identity", "--class", "uniformly_lipschitz", "--lipschitz", "1", "--n-max", "-3"],
     "--n-max: must be >= 1, got -3"),
    (["example21", "--class", "nonexpansive", "--param", "q=0.5", "--samples", "0"], "--samples: must be >= 1, got 0"),
    (_NEARLY + ["--schedule", "geometric:0.5", "--samples", "-1"], "--samples: must be >= 1, got -1"),
    (["example21", "--class", "nonexpansive", "--param", "q=2", "--samples", "0"], "--samples: must be >= 1, got 0"),
    # The space is refused at the mapping when the catalog map cannot live in it.
    (["asymptotic_demo", "--class", "nonexpansive", "--dim", "1"],
     "mapping: asymptotic_demo swaps two coordinates, so it needs dim >= 2; got space dim 1"),
]


@pytest.mark.parametrize("argv, message", _CERTIFY_FAULTS)
def test_certify_error_lines_are_pinned(capsys, argv, message):
    assert cli.main(["certify"] + argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_certify_reads_no_n_max_for_a_class_without_a_bound(capsys):
    argv = ["certify", "example21", "--class", "nonexpansive", "--param", "q=0.5", "--samples", "50"]
    assert cli.main(argv) == 2
    refuted = capsys.readouterr()
    assert cli.main(argv + ["--n-max", "0"]) == 2
    assert capsys.readouterr() == refuted


# ---------------------------------------------------------------------------
# modulus command

def test_modulus_reports_estimate(capsys):
    assert cli.main(["modulus", "--p", "2", "--dim", "2", "--epsilon", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimate"] == pytest.approx(1.0 - (0.75 ** 0.5), abs=1e-6)
    assert cli.main(["modulus", "--p", "inf", "--dim", "2", "--epsilon", "1.0"]) == 0
    capsys.readouterr()
    # Rejection from the cube would keep 1 draw in 3.5e10 here.
    assert cli.main(["modulus", "--p", "2", "--dim", "25", "--epsilon", "1.0", "--samples", "10"]) == 0
    assert len(json.loads(capsys.readouterr().out)["best_witness"]["x"]) == 25


def test_modulus_at_a_huge_p_reads_its_flat_faces_without_a_warning(capsys):
    assert cli.main(["modulus", "--epsilon", "0.5", "--p", "1e308", "--samples", "1000"]) == 0
    out, err = capsys.readouterr()
    assert (json.loads(out)["estimate"], err) == (0.0, "")


# numpy raises MemoryError with the first message for a sample array it cannot
# allocate; the interpreter raises one without a message.
@pytest.mark.parametrize("message, line", [
    ("Unable to allocate 1.49 GiB for an array with shape (100000000, 2) and data type float64", None),
    ("", "out of memory"),
])
@pytest.mark.parametrize("argv", [["modulus", "--epsilon", "0.5"],
                                  ["certify", "contraction", "--param", "q=0.5", "--class", "nonexpansive"]])
def test_an_allocation_that_fails_is_one_error_line(monkeypatch, capsys, argv, message, line):
    def unit_ball_points(self, rng, count):
        raise MemoryError(message)

    monkeypatch.setattr(NormedSpace, "unit_ball_points", unit_ball_points)
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {line or message}\n")


def test_an_array_pass_that_runs_out_of_memory_is_one_error_line(monkeypatch, capsys):
    # The certificate screen's norms fail to allocate.  The scalar path would
    # redo the pass one candidate at a time, so the error ends the command.
    norm_rows = NormedSpace.norm_rows

    def failing_past_100_rows(self, points):
        if len(points) > 100:
            raise MemoryError()
        return norm_rows(self, points)

    monkeypatch.setattr(NormedSpace, "norm_rows", failing_past_100_rows)
    argv = ["certify", "example21", "--class", "nonexpansive", "--param", "q=0.5", "--samples", "5000"]
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")


def test_modulus_refuses_a_dim_at_its_flag(capsys):
    assert cli.main(["modulus", "--epsilon", "1", "--dim", "0"]) == 1
    assert capsys.readouterr() == ("", "error: --dim: space dimension must be >= 1, got 0\n")


def test_modulus_infeasible_epsilon_exits_one(capsys):
    assert cli.main(["modulus", "--p", "2", "--dim", "2", "--epsilon", "2.5"]) == 1
    assert "2.5" in capsys.readouterr().err
    for epsilon in ("nan", "inf"):
        assert cli.main(["modulus", "--p", "2", "--dim", "2", "--epsilon", epsilon, "--samples", "10"]) == 1
        assert capsys.readouterr().err == f"error: --epsilon: epsilon must be finite, got {epsilon}\n"


# Each value of --epsilon and --samples is refused at its flag; the library's
# modulus_of_convexity_estimate refuses the same values with the same rules.
_MODULUS_FAULTS = [
    (["--epsilon", "-1"], "--epsilon: epsilon must be >= 0, got -1.0"),
    (["--epsilon", "3"], "--epsilon: no unit-ball pair has separation 3.0 > 2; the constraint set is empty"),
    (["--epsilon", "nan"], "--epsilon: epsilon must be finite, got nan"),
    (["--epsilon=-inf", "--dim", "3"], "--epsilon: epsilon must be finite, got -inf"),
    (["--epsilon", "0.5", "--samples", "0"], "--samples: must be >= 1, got 0"),
    (["--epsilon", "3", "--samples", "-1"], "--samples: must be >= 1, got -1"),
]


@pytest.mark.parametrize("argv, message", _MODULUS_FAULTS)
def test_modulus_error_lines_are_pinned(capsys, argv, message):
    assert cli.main(["modulus"] + argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


# ---------------------------------------------------------------------------
# shipped scenario files

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.mark.parametrize("scenario", sorted(SCENARIO_DIR.glob("*.json")),
                         ids=lambda p: p.stem)
def test_shipped_scenarios_pass(scenario, tmp_path):
    code = cli.main(["run", str(scenario), "--output", str(tmp_path), "--quiet"])
    assert code == 0
    assert list(tmp_path.glob("*.report.json"))


def test_an_x0_whose_norm_overflows_lies_outside_a_ball_without_a_warning(tmp_path, capsys):
    doc = json.loads((SCENARIO_DIR / "ishikawa_contraction.json").read_text())
    doc["x0"] = [0.6, -1e308]
    path = _write(tmp_path, doc)
    assert cli.main(["run", path, "--output", str(tmp_path / "out")]) == 1
    assert capsys.readouterr() == ("", f"error: {path}: x0: x0 = (0.6, -1e+308) lies outside the mapping domain\n")


_NOT_UNIFORMLY_CONVEX = ("warning: p = {} is not uniformly convex; convergence guarantees for "
                         "modified_pm_hybrid assume 1 < p < inf\n")


@pytest.mark.filterwarnings("default")
@pytest.mark.parametrize("scenario, p, command", [
    ("example21_hybrid", "inf", ["run"]),
    ("contraction_compare", 1, ["compare", "--schemes", "picard,modified_pm_hybrid", "--target", "1e-6"]),
])
def test_a_warning_is_one_stderr_line_and_changes_no_output(tmp_path, capsys, scenario, p, command):
    doc = json.loads((SCENARIO_DIR / f"{scenario}.json").read_text())
    doc["space"]["p"] = p
    argv = [command[0], _write(tmp_path, doc), "--output", str(tmp_path / "out"), "--force", *command[1:]]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        silenced = _outcome(capsys, argv)
    assert silenced[0] == 0 and silenced[2] == ""
    code, out, err, files = _outcome(capsys, argv)
    assert (code, out, files) == (silenced[0], silenced[1], silenced[3])
    assert err == _NOT_UNIFORMLY_CONVEX.format(float(p))


def _python(*args, stdout=subprocess.PIPE):
    """Exit code and stderr of ``python *args`` in a new interpreter that imports this fixiter."""
    paths = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, *args], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env)
    return done.returncode, done.stderr


def test_a_warning_raised_under_an_error_filter_is_one_error_line(tmp_path, capsys):
    doc = json.loads((SCENARIO_DIR / "example21_hybrid.json").read_text())
    doc["space"]["p"] = "inf"
    path, out = _write(tmp_path, doc), str(tmp_path / "out")
    error = _NOT_UNIFORMLY_CONVEX.format("inf").replace("warning:", f"error: {path}:", 1)
    # pytest's filter of "error" (pyproject.toml), and then the interpreter's flag
    assert cli.main(["run", path, "--output", out]) == 1
    assert capsys.readouterr() == ("", error)
    assert not (tmp_path / "out").exists()
    assert _python("-W", "error", "-m", "fixiter.cli", "run", path, "--output", out) == (1, error)
    assert not (tmp_path / "out").exists()


def test_the_module_runs_as_a_script_through_its_main_guard():
    assert _python("-m", "fixiter.cli", "certify", "identity", "--class", "nonexpansive", "--samples", "5") == (3, "")


def test_importing_the_cli_leaves_orjson_to_the_first_csv_write():
    assert _python("-c", "import sys, fixiter.cli; sys.exit('orjson' in sys.modules)") == (0, "")


def test_a_closed_stdout_is_one_error_line():
    read, write = os.pipe()
    os.close(read)  # closed before the command writes, so its first write meets a broken pipe
    try:
        code, err = _python("-m", "fixiter.cli", "certify", "identity", "--class", "nonexpansive", "--samples", "5",
                            stdout=write)
    finally:
        os.close(write)
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


# An array pass that meets a numpy condition gives way to the scalar path, which
# warns; no shipped input pays for that path.  So under the error filter each of
# these runs exits 0: the six-scheme compare, every norm path past l_2 and l_inf
# (p = 1, p near 1 and a generic p), and the power and table gauges.
_GAUGES = {"power": {"kind": "power", "lam": 0.25, "gamma": 2}, "table": {"kind": "table", "grid": [[0, 0], [1, 0.4]]}}
_QUIET_RUNS = {
    "compare_six": ["compare", "{scenarios}/ishikawa_contraction.json", "--schemes", ",".join(cli.SCHEMES),
                    "--target", "1e-6", "--output", "{out}"],
    "certify_p1": ["certify", "contraction", "--param", "q=0.5", "--class", "nonexpansive", "--p", "1", "--dim", "3"],
    "certify_p3": ["certify", "contraction", "--param", "q=0.5", "--class", "uniformly_lipschitz", "--lipschitz", "1",
                   "--p", "3", "--dim", "2"],
    "modulus_p1": ["modulus", "--epsilon", "0.5", "--p", "1", "--dim", "4", "--samples", "2000"],
    "modulus_p1.0001": ["modulus", "--epsilon", "0.5", "--p", "1.0001", "--dim", "3", "--samples", "2000"],
    "power_gauge": ["run", "{power}", "--output", "{out}"],
    "table_gauge": ["run", "{table}", "--output", "{out}"],
}


@pytest.mark.parametrize("argv", _QUIET_RUNS.values(), ids=_QUIET_RUNS)
def test_each_norm_path_and_gauge_exits_zero_with_an_empty_stderr(tmp_path, capsys, argv):
    paths = {"scenarios": SCENARIO_DIR, "out": tmp_path / "out"}
    doc = json.loads((SCENARIO_DIR / "example21_hybrid.json").read_text())
    for kind, phi in _GAUGES.items():
        checks = [{**c, "phi": phi} if "phi" in c else c for c in doc["checks"]]
        paths[kind] = _write(tmp_path, {**doc, "checks": checks}, f"{kind}.json")
    assert cli.main([a.format(**paths) for a in argv]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("scenario", ["example21_hybrid", "ishikawa_contraction"])
def test_a_5000_step_run_begins_with_the_200_step_runs_csv(tmp_path, scenario):
    # example21_hybrid's iterates reach 0 at step 45 and repeat it, and
    # ishikawa_contraction's long run takes 1927 steps in blocks from a
    # repeated iterate, at 4 points a step.
    doc = json.loads((SCENARIO_DIR / f"{scenario}.json").read_text())
    csv = {}
    for steps in (200, 5000):
        out = tmp_path / str(steps)
        assert cli.main(["run", _write(tmp_path, {**doc, "max_steps": steps}), "--output", str(out), "--quiet"]) == 0
        csv[steps], = (path.read_bytes() for path in out.glob("*.trajectory.csv"))
    assert b"".join(csv[5000].splitlines(keepends=True)[:201]) == csv[200]


# Per-n schedule reads of ``fixiter run`` on each shipped scenario, one per
# value that Schedule.at or Schedule.values returns to a caller outside
# schedules.py: the schedule checks read each alpha(n) once, and the lemma21
# check reads them from the run.  asymptotic_mann also reads k(n) for n <= 100
# and k(10 000) in build_mapping, its near-sequence for lemma21 and the
# certificate's k(n) for n <= 20.
SCHEDULE_READS = {"asymptotic_mann": 921, "contraction_compare": 400, "example21_hybrid": 551,
                  "ishikawa_contraction": 600}


def _counted_reads(monkeypatch, schedule=None):
    """The per-n reads made from here on, as SCHEDULE_READS counts them: of
    every schedule, or of those equal to ``schedule``."""
    reads, depth = [], [0]

    def counted(method, size):
        def read(self, *args, **kwargs):
            depth[0] += 1
            try:
                got = method(self, *args, **kwargs)
            finally:
                depth[0] -= 1
            # not a read that values, or a derived schedule, makes for its caller
            if depth[0] == 0 and schedule in (None, self):
                reads.append(size(got))
            return got
        return read

    monkeypatch.setattr(Schedule, "at", counted(Schedule.at, lambda got: 1))
    monkeypatch.setattr(Schedule, "values", counted(Schedule.values, len))
    return reads


@pytest.mark.parametrize("scenario", sorted(SCHEDULE_READS))
def test_run_reads_each_alpha_value_once(tmp_path, monkeypatch, scenario):
    reads = _counted_reads(monkeypatch)
    assert cli.main(["run", str(SCENARIO_DIR / f"{scenario}.json"), "--output", str(tmp_path), "--quiet"]) == 0
    assert sum(reads) == SCHEDULE_READS[scenario]


def test_a_run_past_10000_steps_reads_each_alpha_value_once(tmp_path, monkeypatch):
    # The checks read alpha(n) for n <= 10 000 and the steps past them read the
    # rest; the lemma21 check reads all 10 100 from the run's reader.
    doc = json.loads((SCENARIO_DIR / "contraction_compare.json").read_text())
    doc.update(scheme="mann", max_steps=10_100, checks=[{"name": "lemma21"}])
    reads = _counted_reads(monkeypatch, Schedule.constant(0.5))
    assert cli.main(["run", _write(tmp_path, doc), "--output", str(tmp_path), "--quiet"]) == 0
    assert sum(reads) == 10_100


def test_compare_reads_each_schedule_value_once_per_run(tmp_path, monkeypatch):
    # Each of the five weighted schemes reads alpha(n) for its 200 steps, and
    # ishikawa beta(n); picard reads neither.
    path = str(SCENARIO_DIR / "ishikawa_contraction.json")
    alpha, beta = Schedule.constant(0.5), Schedule.harmonic_tail(1.0, 1.0)
    for schedule, count in ((alpha, 5 * 200), (beta, 200)):
        with monkeypatch.context() as patched:
            reads = _counted_reads(patched, schedule)
            assert cli.main(["compare", path, "--schemes", ",".join(cli.SCHEMES), "--target", "1e-6",
                             "--output", str(tmp_path / schedule.kind), "--quiet"]) == 0
        assert sum(reads) == count


def _lemma21_reading_alpha(m, traj):
    """The lemma21 check reading alpha(n) from the schedule at every record: the reference."""
    near, alpha = near_schedule_for(m), traj.config.alpha
    a = [distance_to_fixed_set(m, traj.config.x0), *traj.dist_to_known_fp]
    b = [(1.0 + (alpha.at(n) if alpha is not None else 0.0)) * near.at(n) for n in range(1, traj.steps + 1)]
    report = check_lemma21(a, b + [0.0], [0.0] * len(a), len(a))
    return report.hypothesis_ok and report.verdict == "converged", report.to_dict()


def _long_mann_run():
    """A mann run past the 10 000 alpha values the schedule checks read, on a map whose
    near-sequence 1/n keeps every alpha(n) in the lemma21 sums."""
    m = make_linear_contraction(0.5)
    m = replace(m, meta=replace(m.meta, declared_class="nearly_nonexpansive",
                                a_schedule=Schedule.harmonic_tail(1.0)))
    config = RunConfig("mann", m, Vector((0.5,)), alpha=Schedule.harmonic_tail(1.0, 1.0), max_steps=10_050,
                       stop_tolerance=-1.0)
    return m, run_scheme(config)


@pytest.mark.parametrize("scenario", sorted(SCHEDULE_READS) + ["mann_past_10000"]
                         + [f"asymptotic_demo_dim{dim}" for dim in (2, 3)])
def test_lemma21_reads_the_alpha_values_the_schedule_gives(scenario):
    if scenario in SCHEDULE_READS:
        s = cli.parse_scenario(SCENARIO_DIR / f"{scenario}.json")
        m = cli.build_mapping_for(s)
        traj = run_scheme(cli.build_run_config(s, m))
    elif scenario.startswith("asymptotic_demo"):
        # The near-sequence (k(n) - 1) * diam, read as one array, against near.at(n).
        dim = int(scenario[-1])
        m = make_asymptotically_nonexpansive_example(dim)
        traj = run_scheme(RunConfig("mann", m, Vector((0.5,) * dim), alpha=Schedule.harmonic_tail(1.0, 1.0),
                                    max_steps=300, stop_tolerance=-1.0))
    else:
        m, traj = _long_mann_run()
        assert traj.steps > len(traj.alpha_values) == 10_000
    assert cli._lemma21_on_trajectory(m, traj) == _lemma21_reading_alpha(m, traj)


def _trails(node, trail=()):
    """Each object key and list entry under ``node``, as the keys and indices that reach it."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield trail + (key,)
        yield from _trails(value, trail + (key,))


def _key_path(trail):
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in trail).lstrip(".")


def _node(doc, trail):
    for key in trail:
        doc = doc[key]
    return doc


def _error_path(doc, trail, edit):
    """The path of the ScenarioError that parsing ``doc`` raises once ``edit`` has changed the
    node at ``trail`` in a copy, or None when the copy parses."""
    doc = copy.deepcopy(doc)
    edit(_node(doc, trail))
    try:
        cli.scenario_from_dict(doc)
    except ScenarioError as e:
        return e.path
    return None


@pytest.mark.parametrize("scenario", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_each_key_of_a_shipped_scenario_is_read_at_its_own_path(scenario):
    doc = json.loads(scenario.read_text())
    for trail in _trails(doc):
        path, parent, key = _key_path(trail), trail[:-1], trail[-1]
        # a value of the wrong type fails at exactly its own path
        assert _error_path(doc, parent, lambda node: node.__setitem__(key, True)) == path, path
        if isinstance(key, str):
            # a missing key parses to its default, or fails at or under its own path
            missing = _error_path(doc, parent, lambda node: node.pop(key))
            assert missing is None or missing == path or missing.startswith((f"{path}.", f"{path}[")), path
    for trail in [(), *_trails(doc)]:
        # an unknown key fails at its own path, except in mapping.parameters, which is
        # free-form here: get_mapping refuses a parameter its mapping does not take
        if isinstance(_node(doc, trail), dict) and trail != ("mapping", "parameters"):
            surprise = _key_path(trail + ("surprise",))
            assert _error_path(doc, trail, lambda node: node.__setitem__("surprise", 1)) == surprise


# ---------------------------------------------------------------------------
# parsing and dispatch

def _parsed(capsys, parse, argv):
    """The namespace ``parse(argv)`` returns, or its exit code, with what it printed."""
    try:
        result = vars(parse(argv))
    except SystemExit as exited:
        result = exited.code
    return result, *capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["run", "s.json"],
    ["run", "s.json", "--output", "out", "--force", "--seed", "3", "--quiet"],
    ["compare", "s.json", "--schemes", "picard,mann", "--target", "1e-6"],
    ["certify", "example21", "--class", "nearly_nonexpansive", "--param", "q=0.5", "--param", "r=1",
     "--schedule", "geometric:0.5", "--n-max", "5", "--samples", "200", "--dim", "1", "--p", "inf"],
    ["certify", "identity", "--cl", "nonexpansive", "--lipschitz", "1.5"],
    ["modulus", "--epsilon", "1", "--dim", "3"],
    ["run", "--", "-s.json"], ["certify", "identity", "--class=nonexpansive", "--param=a=1"],
    # usage errors
    ["run"], ["run", "s.json", "extra"], ["run", "s.json", "--bogus", "1"], ["compare", "s.json"],
    ["certify", "example21"], ["certify", "example21", "--class"], ["modulus", "--epsilon", "x"],
    ["modulus", "--epsilon", "1", "--seed", "-"], [], ["bogus"], ["--seed", "1", "run", "s.json"],
    # help
    ["run", "--help"], ["compare", "-h"], ["certify", "--help"], ["modulus", "-h"], ["--help"],
    ["-h", "run"],
])
def test_main_parses_each_command_line_as_build_parser_does(capsys, argv):
    expected = _parsed(capsys, cli.build_parser().parse_args, argv)
    assert _parsed(capsys, cli._parse_args, argv) == expected
    assert expected[0] != 2  # a usage error exits 1, as every other error does


def _outcome(capsys, argv):
    """Exit code, stdout, stderr and every file in the ``--output`` directory after one ``main``
    call; a report's wall-clock timings are the only bytes that may differ from call to call."""
    code = cli.main(argv)
    files = {}
    out = Path(argv[argv.index("--output") + 1]) if "--output" in argv else None
    for path in sorted(out.glob("*")) if out else ():
        if path.name.endswith(".report.json"):
            files[path.name] = {**json.loads(path.read_text()), "timings": None}
        else:
            files[path.name] = path.read_bytes()
    return code, *capsys.readouterr(), files


def test_a_certify_without_param_reads_the_same_after_one_with_param(capsys):
    plain = ["certify", "identity", "--class", "nonexpansive", "--samples", "20"]
    first = _outcome(capsys, plain)
    _outcome(capsys, ["certify", "example21", "--class", "nearly_nonexpansive", "--param", "q=0.5",
                      "--schedule", "geometric:0.5", "--n-max", "5", "--samples", "200"])
    assert _outcome(capsys, plain) == first


def _counting(monkeypatch, name, calls):
    inner = getattr(cli, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)


@pytest.mark.parametrize("command, handler", [
    (["certify", "example21", "--class", "nearly_nonexpansive", "--param", "q=0.5",
      "--schedule", "geometric:0.5", "--samples", "200"], "cmd_certify"),
    (["run", "{path}", "--output", "{out}", "--force"], "cmd_run"),
])
def test_main_finds_the_handler_and_certifier_when_it_is_called(tmp_path, capsys, monkeypatch, command, handler):
    # GOOD's last check certifies nearly_nonexpansive, as the certify command does.
    argv = [a.format(path=_write(tmp_path, GOOD), out=tmp_path / "out") for a in command]
    before = _outcome(capsys, argv)
    calls = []
    _counting(monkeypatch, handler, calls)
    _counting(monkeypatch, "certify_nearly_nonexpansive", calls)
    assert _outcome(capsys, argv) == before
    assert calls == [handler, "certify_nearly_nonexpansive"]


# ---------------------------------------------------------------------------
# the console contract under fuzzed input: every command line ends in a known
# exit code, an error is one stderr line and anything else there is a warning

def _console(argv):
    """Exit code and stderr of one ``main`` call, usage errors included."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exited:
            code = exited.code
    return code, err.getvalue()


# The library's own phrases for a value that certify and modulus read from one flag.
_UNPLACED = tuple(f"error: {phrase}" for phrase in (
    "n_max must", "sample_count must", "Lipschitz constant", "epsilon must", "no unit-ball pair"))


def _assert_console_contract(argv):
    code, err = _console(argv)
    assert code in (0, 1, 2, 3), (argv, code, err)
    lines = err.splitlines()
    if code == 1:  # any warnings the command raised first, each on its line, then one error line, last
        assert lines and lines[-1].startswith("error:") and err.endswith("\n"), (argv, err)
        assert all(line.startswith("warning:") for line in lines[:-1]), (argv, err)
        if argv[0] in ("run", "compare"):  # every error of a scenario command names its file
            assert lines[-1].startswith(f"error: {argv[1]}: "), (argv, err)
        if argv[0] in ("certify", "modulus"):  # a flag's refused value is placed at the flag
            assert not lines[-1].startswith(_UNPLACED), (argv, err)
    else:
        assert all(line.startswith("warning:") for line in lines), (argv, err)


@pytest.mark.filterwarnings("default")
def test_a_warning_raised_before_an_error_keeps_its_own_line(tmp_path):
    # modified_pm_hybrid warns at p = 1 as the run starts; the check that follows
    # then finds no finite violation of L = 1e308 and refuses.
    doc = json.loads((SCENARIO_DIR / "example21_hybrid.json").read_text())
    doc.update(space={"dim": 40, "p": 1}, mapping={"id": "asymptotic_demo", "parameters": {}}, x0=[0.1] * 40,
               checks=[{"name": "certify", "class": "uniformly_lipschitz", "L": 1e308, "n_max": 2, "samples": 50}])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    argv = ["run", str(path), "--output", str(tmp_path / "results")]
    assert _console(argv) == (1, (
        "warning: p = 1.0 is not uniformly convex; convergence guarantees for modified_pm_hybrid assume 1 < p < inf\n"
        f"error: {path}: checks[0]: uniformly_lipschitz: every sampled violation is -inf or nan, "
        "so no candidate is a witness\n"))
    _assert_console_contract(argv)


def test_a_scenario_path_with_a_line_break_is_one_error_line():
    # Each character str.splitlines breaks at is written as its escape.
    assert _console(["run", "no\rsuch.json"]) == (
        1, "error: no\\rsuch.json: cannot read scenario file: No such file or directory\n")


# The largest size each key of a fuzzed input may take, so that every run stays small;
# unbounded work is a separate matter.
_SIZE_BOUNDS = {"max_steps": 300, "samples": 10_000, "n_max": 50, "dim": 50}
_SHIPPED = {path.stem: json.loads(path.read_text()) for path in sorted(SCENARIO_DIR.glob("*.json"))}
_ODD_VALUES = st.one_of(
    st.floats(width=64),  # nan, infinities and magnitudes up to the largest float
    st.integers(min_value=-2**70, max_value=2**70),
    st.sampled_from([None, True, False, "", "inf", "-inf", "nan", "0.5", [], {}]),
    st.text(max_size=4),
    st.lists(st.floats(width=64), max_size=3),
    st.dictionaries(st.sampled_from(["q", "value", "kind", "name"]), st.floats(width=64), max_size=2),
)
# Names a scenario may hold, each group the names one key takes.
_NAME_GROUPS = (cli.SCHEMES, cli.CATALOG_IDS, cli.CERT_CLASSES, ("constant", "geometric", "harmonic_tail", "table"),
                ("linear", "power", "table"), ("lemma21", "theorem31", "theorem32", "theorem33", "condition_I", "certify"))
_NUMBERS = st.one_of(st.integers(min_value=-2, max_value=60), st.floats(min_value=-2.0, max_value=2.0),
                     st.floats(width=64))


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _values_like(value):
    """Values to put in place of ``value``: mostly of its own kind, else anything."""
    if _is_number(value):
        return st.one_of(_NUMBERS, _ODD_VALUES)
    names = next((group for group in _NAME_GROUPS if value in group), ())
    return st.one_of(st.sampled_from(names), _ODD_VALUES) if names else _ODD_VALUES


def _bounded(node):
    """``node`` with every number under a key of ``_SIZE_BOUNDS`` cut to its bound."""
    if isinstance(node, list):
        return [_bounded(v) for v in node]
    if not isinstance(node, dict):
        return node
    return {k: _SIZE_BOUNDS[k] if k in _SIZE_BOUNDS and _is_number(v) and v > _SIZE_BOUNDS[k] else _bounded(v)
            for k, v in node.items()}


@st.composite
def mutated_scenarios(draw):
    doc = copy.deepcopy(_SHIPPED[draw(st.sampled_from(sorted(_SHIPPED)))])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        # most edits scale a number, which often leaves a scenario that runs
        action = draw(st.sampled_from(["scale"] * 3 + ["leaf", "any", "drop", "add"]))
        # checks first and schema_version last, as hypothesis favours the first entries
        trails = [trail for trail in reversed(list(_trails(doc)))
                  if action == "any" or not isinstance(_node(doc, trail), (dict, list))]
        if action == "scale":
            trails = [trail for trail in trails if _is_number(_node(doc, trail))]
        trail = draw(st.sampled_from(trails))
        node, key = _node(doc, trail[:-1]), trail[-1]
        if action == "scale":
            node[key] *= draw(st.sampled_from([0, -1, 0.5, 1.5, 2, 1e3, 1e-300, 1e300]))
        elif action == "drop" and trail != ("max_steps",):  # the default, 10 000 steps, passes the bound
            del node[key]
        elif action == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(["surprise", "p", "dim", "radius", "samples", "beta"]))] = draw(_ODD_VALUES)
        else:
            node[key] = draw(_values_like(node[key]))
    return _bounded(doc)


@pytest.mark.filterwarnings("default")
@settings(max_examples=150, deadline=5_000, derandomize=True, database=None)
@given(doc=mutated_scenarios())
def test_a_mutated_shipped_scenario_keeps_the_console_contract(doc):
    with tempfile.TemporaryDirectory() as out:
        path = Path(out) / "scenario.json"
        path.write_text(json.dumps(doc))
        _assert_console_contract(["run", str(path), "--output", str(Path(out) / "results")])


# Command lines that exit 0, 2 or 3 as they stand, to be mutated.
_COMMAND_LINES = [
    ["certify", "contraction", "--class", "nonexpansive", "--param", "q=0.5", "--samples", "500"],
    ["certify", "example21", "--class", "nearly_nonexpansive", "--param", "q=0.5", "--schedule", "geometric:0.5",
     "--n-max", "20", "--samples", "500"],
    ["certify", "asymptotic_demo", "--class", "asymptotically_nonexpansive", "--schedule", "table:1.2,1",
     "--n-max", "20", "--samples", "500"],
    ["certify", "identity", "--class", "uniformly_lipschitz", "--lipschitz", "1", "--dim", "3", "--samples", "500"],
    ["modulus", "--epsilon", "0.5", "--p", "3", "--dim", "3", "--samples", "1000"],
]
_NUMBER_TEXTS = st.one_of(_NUMBERS.map(str), st.sampled_from(["inf", "-inf", "nan", "x", "", "1e308", "-0.0"]))


def _count_texts(bound):
    return st.one_of(st.integers(min_value=-2, max_value=bound).map(str), st.sampled_from(["x", "1.5", ""]))


_OPTION_TEXTS = {
    "--class": st.sampled_from([*cli.CERT_CLASSES, "bogus"]),
    "--param": st.builds("{}={}".format, st.sampled_from(["q", "a", "z"]), _NUMBER_TEXTS),
    "--schedule": st.builds(lambda kind, args: f"{kind}:{','.join(args)}",
                            st.sampled_from(["constant", "geometric", "harmonic_tail", "table", "cubic", ""]),
                            st.lists(_NUMBER_TEXTS, max_size=3)),
    "--lipschitz": _NUMBER_TEXTS,
    "--n-max": _count_texts(_SIZE_BOUNDS["n_max"]),
    "--dim": _count_texts(_SIZE_BOUNDS["dim"]),
    "--samples": _count_texts(_SIZE_BOUNDS["samples"]),
    "--p": st.one_of(_NUMBER_TEXTS, st.just("abc")),
    "--epsilon": _NUMBER_TEXTS,
    "--seed": _count_texts(10),
}


@st.composite
def mutated_command_lines(draw):
    argv = list(draw(st.sampled_from(_COMMAND_LINES)))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        flags = [i for i, arg in enumerate(argv) if arg.startswith("--")]
        action = draw(st.sampled_from(["set", "set", "drop", "add", "mapping"]))
        at = draw(st.sampled_from(flags))
        if action == "set" and argv[at] in _OPTION_TEXTS:
            argv[at + 1] = draw(_OPTION_TEXTS[argv[at]])
        elif action == "drop" and argv[at] != "--samples":  # modulus's default, 100 000, passes the bound
            del argv[at:at + 2]
        elif action == "add":
            flag = draw(st.sampled_from(sorted(_OPTION_TEXTS)))
            argv += [flag, draw(_OPTION_TEXTS[flag])]
        elif action == "mapping" and argv[0] == "certify":
            argv[1] = draw(st.sampled_from([*cli.CATALOG_IDS, "mystery", "--class"]))
    return argv


@pytest.mark.filterwarnings("default")
@settings(max_examples=150, deadline=5_000, derandomize=True, database=None)
@given(argv=mutated_command_lines())
# A value each flag refuses, which the library would refuse in its own terms.
@example(argv=["certify", "contraction", "--class", "nonexpansive", "--param", "q=0.5", "--samples", "0"])
@example(argv=["certify", "example21", "--class", "nearly_nonexpansive", "--param", "q=0.5", "--schedule",
               "geometric:0.5", "--n-max", "0", "--samples", "500"])
@example(argv=["certify", "identity", "--class", "uniformly_lipschitz", "--lipschitz", "0", "--dim", "3",
               "--samples", "500"])
@example(argv=["certify", "identity", "--class", "uniformly_lipschitz", "--lipschitz", "nan", "--dim", "3",
               "--samples", "500"])
@example(argv=["modulus", "--epsilon", "0.5", "--p", "3", "--dim", "3", "--samples", "0"])
@example(argv=["modulus", "--epsilon", "nan", "--p", "3", "--dim", "3", "--samples", "1000"])
@example(argv=["modulus", "--epsilon", "-1", "--p", "3", "--dim", "3", "--samples", "1000"])
def test_a_mutated_certify_or_modulus_command_line_keeps_the_console_contract(argv):
    _assert_console_contract(argv)
