"""Command-line interface: scenario parsing, exit codes, files, determinism."""

import copy
import json
import math
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixiter import (Box, MappingMeta, NormedSpace, RunConfig, Schedule, Vector, build_mapping, check_lemma21,
                     cli, distance_to_fixed_set, make_linear_contraction, near_schedule_for, run_scheme)
from fixiter.errors import ScenarioError

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
        (_variant(x0=[0.9, 0.1]), "x0"),
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


def test_run_invalid_scenarios_exit_one_without_outputs(tmp_path, capsys):
    bad = [
        _variant(schema_version=99),
        _variant(schedules={"alpha": {"kind": "constant", "parameters": {"value": 1.5}}}),
        _variant(x0=[2.5]),
        _variant(scheme="mann"),  # theorem31 check demands the power hybrid
        _variant(checks=[{"name": "theorem33", "phi": {"kind": "linear", "lam": 0.5},
                          "samples": 500, "n_max": 3}]),
        # d(x, F) > 1 on this box, so the gauge t**1e6 overflows
        _variant(mapping={"id": "asymptotic_demo", "parameters": {}}, space={"dim": 3, "p": 2},
                 x0=[0.8, 0.5, -0.6], scheme="mann",
                 checks=[{"name": "condition_I", "phi": {"kind": "power", "lam": 1, "gamma": 1e6},
                          "samples": 500}]),
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
    ]
    for i, (doc, where) in enumerate(bad):
        out = tmp_path / f"out{i}"
        path = _write(tmp_path, doc, f"bad{i}.json")
        code = cli.main(["run", path, "--output", str(out), "--quiet"])
        assert code == 1, i
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err, (i, err)
        assert not out.exists() or list(out.iterdir()) == [], i


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


def test_compare_reports_a_library_error_without_the_scenario_path(tmp_path, capsys):
    # Only a ScenarioError names a place in the scenario file.
    code = cli.main(["compare", str(SCENARIO_DIR / "contraction_compare.json"), "--schemes", "ishikawa",
                     "--target", "1e-6", "--output", str(tmp_path / "o"), "--quiet"])
    assert code == 1
    assert capsys.readouterr() == ("", "error: ishikawa requires a beta schedule\n")


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


def test_certify_argument_errors(capsys):
    assert cli.main(["certify", "mystery", "--class", "nonexpansive"]) == 1
    assert cli.main(["certify", "example21", "--class", "bogus",
                     "--param", "q=0.5"]) == 1
    assert cli.main(["certify", "example21", "--class", "nearly_nonexpansive",
                     "--param", "q=0.5"]) == 1  # schedule missing
    assert cli.main(["certify", "example21", "--class", "nonexpansive",
                     "--param", "q=oops"]) == 1
    capsys.readouterr()
    nearly = ["certify", "example21", "--class", "nearly_nonexpansive", "--param", "q=0.5"]
    for argv in (
        nearly + ["--schedule", "geometric:2", "--n-max", "1100"],  # overflows
        nearly + ["--schedule", "harmonic_tail:inf"],
        nearly + ["--schedule", "harmonic_tail:nan"],
        ["certify", "contraction", "--class", "uniformly_lipschitz", "--param", "q=0.5",
         "--lipschitz", "inf"],
    ):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")


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
    (["certify", "example21", "--param", "q=0.5"], "the following arguments are required: --class"),
    (["certify", "example21", "--class", "nonexpansive", "--param", "q=0.5", "--samples", "x"],
     "argument --samples: invalid int value: 'x'"),
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
    assert capsys.readouterr() == ("", "error: --seed: must be >= 0, got -1\n")
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
]


@pytest.mark.parametrize("edits, message", _SCENARIO_FAULTS)
def test_scenario_error_lines_are_pinned(tmp_path, capsys, edits, message):
    path = _write(tmp_path, {**copy.deepcopy(GOOD), **edits})
    out = tmp_path / "out"
    assert cli.main(["run", path, "--output", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("check, fixed_points, message", [
    ("condition_I", None, "checks[0]: condition_I requires fixed-point information on the mapping"),
    ("lemma21", (Vector((0.0,)),), "checks[0]: lemma21 requires a near-sequence (a declared a or k "
                                  "schedule, or a nonexpansive mapping)"),
])
def test_preflight_refuses_a_map_without_what_the_check_needs(check, fixed_points, message):
    halving = build_mapping("halving", NormedSpace(1, 2.0), Box((0.0,), (1.0,)),
                            lambda x: Vector((0.5 * x.coords[0],)),
                            meta=MappingMeta(known_fixed_points=fixed_points))
    s = replace(cli.scenario_from_dict(GOOD), checks=(cli.CheckSpec(name=check),))
    with pytest.raises(ScenarioError) as raised:
        cli.preflight_checks(s, halving)
    assert str(raised.value) == message


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
     "harmonic_tail offset must be > -1 so at(1) is defined, got -1.0"),
    (["contraction", "--class", "uniformly_lipschitz", "--param", "q=0.5", "--lipschitz", "inf"],
     "Lipschitz constant must be finite and > 0, got inf"),
    (["example21", "--class", "nonexpansive", "--param", "q"], "--param: expected name=value, got 'q'"),
    (["example21", "--class", "nonexpansive", "--param", "q=0.5", "--p", "abc"],
     "--p: expected a number or 'inf', got 'abc'"),
]


@pytest.mark.parametrize("argv, message", _CERTIFY_FAULTS)
def test_certify_error_lines_are_pinned(capsys, argv, message):
    assert cli.main(["certify"] + argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["modulus", "--epsilon", "0.5", "--p", "1e308", "--samples", "1000"]) == 0
    out, err = capsys.readouterr()
    assert (json.loads(out)["estimate"], err) == (0.0, "")


def test_modulus_infeasible_epsilon_exits_one(capsys):
    assert cli.main(["modulus", "--p", "2", "--dim", "2", "--epsilon", "2.5"]) == 1
    assert "2.5" in capsys.readouterr().err
    for epsilon in ("nan", "inf"):
        assert cli.main(["modulus", "--p", "2", "--dim", "2", "--epsilon", epsilon, "--samples", "10"]) == 1
        assert capsys.readouterr().err == f"error: epsilon must be finite, got {epsilon}\n"


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", _write(tmp_path, doc), "--output", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr() == ("", "error: x0 = (0.6, -1e+308) lies outside the mapping domain\n")


_NOT_UNIFORMLY_CONVEX = ("warning: p = {} is not uniformly convex; convergence guarantees for "
                         "modified_pm_hybrid assume 1 < p < inf\n")


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


def test_a_warning_raised_under_an_error_filter_is_one_error_line(tmp_path, capsys):
    doc = json.loads((SCENARIO_DIR / "example21_hybrid.json").read_text())
    doc["space"]["p"] = "inf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", _write(tmp_path, doc), "--output", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr() == ("", _NOT_UNIFORMLY_CONVEX.format("inf").replace("warning:", "error:", 1))
    assert not (tmp_path / "out").exists()


# Schedule.at calls of ``fixiter run`` on each shipped scenario: the schedule
# checks read each alpha(n) once, and the lemma21 check reads them from the run.
SCHEDULE_READS = {"asymptotic_mann": 1322, "contraction_compare": 400, "example21_hybrid": 552,
                  "ishikawa_contraction": 600}


@pytest.mark.parametrize("scenario", sorted(SCHEDULE_READS))
def test_run_reads_each_alpha_value_once(tmp_path, monkeypatch, scenario):
    calls = []
    at = Schedule.at
    monkeypatch.setattr(Schedule, "at", lambda self, n: calls.append(n) or at(self, n))
    assert cli.main(["run", str(SCENARIO_DIR / f"{scenario}.json"), "--output", str(tmp_path), "--quiet"]) == 0
    assert len(calls) == SCHEDULE_READS[scenario]


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


@pytest.mark.parametrize("scenario", sorted(SCHEDULE_READS) + ["mann_past_10000"])
def test_lemma21_reads_the_alpha_values_the_schedule_gives(scenario):
    if scenario in SCHEDULE_READS:
        s = cli.parse_scenario(SCENARIO_DIR / f"{scenario}.json")
        m = cli.build_mapping_for(s)
        traj = run_scheme(cli.build_run_config(s, m))
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
