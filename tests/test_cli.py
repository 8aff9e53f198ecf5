"""Command-line interface: scenario parsing, exit codes, files, determinism."""

import copy
import json
from pathlib import Path

import pytest

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

def test_scenario_round_trip():
    s = cli.scenario_from_dict(GOOD)
    again = cli.scenario_from_dict(cli.scenario_to_dict(s))
    assert again == s


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
    for i, doc in enumerate(bad):
        out = tmp_path / f"out{i}"
        path = _write(tmp_path, doc, f"bad{i}.json")
        code = cli.main(["run", path, "--output", str(out), "--quiet"])
        assert code == 1, i
        assert capsys.readouterr().err.startswith("error: "), i
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


# ---------------------------------------------------------------------------
# modulus command

def test_modulus_reports_estimate(capsys):
    assert cli.main(["modulus", "--p", "2", "--dim", "2", "--epsilon", "1.0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["estimate"] == pytest.approx(1.0 - (0.75 ** 0.5), abs=1e-6)
    assert cli.main(["modulus", "--p", "inf", "--dim", "2", "--epsilon", "1.0"]) == 0
    capsys.readouterr()


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
