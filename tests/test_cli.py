"""Command-line interface: scenario parsing, exit codes, files, determinism."""

import copy
import json
import math
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixiter import cli
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
def test_scenario_round_trip(doc):
    # Every scenario the parser accepts survives a dump/parse cycle, in memory and through JSON.
    s = cli.scenario_from_dict(doc)
    assert cli.scenario_from_dict(cli.scenario_to_dict(s)) == s
    assert cli.scenario_from_dict(json.loads(json.dumps(cli.scenario_to_dict(s)))) == s


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


def test_run_missing_file_exits_one(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.json"), "--quiet"]) == 1
    assert "absent.json" in capsys.readouterr().err


def test_run_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["run", str(path), "--quiet"]) == 1
    assert capsys.readouterr().err != ""


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
    assert "newton" in capsys.readouterr().err


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
]


@pytest.mark.parametrize("edits, message", _SCENARIO_FAULTS)
def test_scenario_error_lines_are_pinned(tmp_path, capsys, edits, message):
    path = _write(tmp_path, {**copy.deepcopy(GOOD), **edits})
    out = tmp_path / "out"
    assert cli.main(["run", path, "--output", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
    assert not out.exists()


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
