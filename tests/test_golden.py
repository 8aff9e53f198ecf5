"""Golden digests of every shipped output.

Each entry is the sha256 of one output of the command line: the files `run`
writes for each shipped scenario (``timings`` stripped from the report, since
wall-clock times never repeat), the rate tables `compare` writes, and the JSON
five `certify` one-shots print.  Any change to a seeded sample stream, a
certificate loop or a serializer shows up here as a digest mismatch.

Run this file as a script to print the digests of the current code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from fixiter import cli

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

COMPARE_SCHEMES = "picard,mann,modified_mann,pm_hybrid,modified_pm_hybrid"

CERTIFY_ONE_SHOTS = {
    "example21_nonexpansive": ["example21", "--class", "nonexpansive", "--param", "q=0.5"],
    "example21_nearly": ["example21", "--class", "nearly_nonexpansive", "--param", "q=0.5",
                         "--schedule", "geometric:0.5", "--n-max", "50"],
    "asymptotic_demo_table": ["asymptotic_demo", "--class", "asymptotically_nonexpansive",
                              "--schedule", "table:1.2,1", "--dim", "3"],
    "contraction_lipschitz_pinf": ["contraction", "--class", "uniformly_lipschitz",
                                   "--param", "q=0.5", "--lipschitz", "1", "--p", "inf"],
    "identity_inconclusive": ["identity", "--class", "nonexpansive", "--samples", "5"],
}

GOLDEN = {
    "run/asymptotic_mann/asymptotic-mann.report.json":
        (0, "6ccadb6617fea20a1f8ac5e0d7ab3d765a5749ea0e2f09ec7d9048e34b357d41"),
    "run/asymptotic_mann/asymptotic-mann.trajectory.csv":
        (0, "c253322815b32fc52cc1e0de5cab9be2038eb67880d63597db80f4117c95c7dd"),
    "run/asymptotic_mann/asymptotic-mann.trajectory.json":
        (0, "f2420778a02b330227a7d0be5e31226ba876e63e58e6e28dceca8d93fad42e2c"),
    "run/contraction_compare/contraction-base.report.json":
        (0, "bb1a30d349c4741845d89c9e016ace89a9bd96b18aba7570c891c1863536aedc"),
    "run/contraction_compare/contraction-base.trajectory.csv":
        (0, "1e6d8d73eb8732631387969942f7a14ceab161ab5b5e3145f8552d92f986facf"),
    "run/contraction_compare/contraction-base.trajectory.json":
        (0, "f24abb584c8e69e8dcc2688d27a11a36962ba6383f76dcc0006373c1cb78fe41"),
    "run/example21_hybrid/example21-hybrid.report.json":
        (0, "3ae419ce993eed64bf2c82efe2a62a400d3f27b70ba24d96e52b1310e65e7269"),
    "run/example21_hybrid/example21-hybrid.trajectory.csv":
        (0, "2f96ed6bc14898dc9c29c4dcdce55f4df6d1ce9f1a4486c732b2e6b2b8774be1"),
    "run/example21_hybrid/example21-hybrid.trajectory.json":
        (0, "236a3e81fee89025941e3d8984c0a213f19c80b8a26fbad7bb420417578396ac"),
    "run/ishikawa_contraction/ishikawa-contraction.report.json":
        (0, "685b2ffdd42259937bc1603314e9ad95b95a2ceac20b6e5786aa433622ec4c11"),
    "run/ishikawa_contraction/ishikawa-contraction.trajectory.csv":
        (0, "eabc608e4666ff9a3157b2ef90de2b1b812dfe95d5e0b3289118da8ada70ddf8"),
    "run/ishikawa_contraction/ishikawa-contraction.trajectory.json":
        (0, "cf4148fd78ef3972d88835e5bbc5c1489ba43f2ef6aa3e09e4b94401edc01931"),
    "compare/contraction-base.rates.csv":
        (0, "485907d2d1ab5f2bd9dbfde9b0087a14465e55b877d08f21dc467512ff8ad368"),
    "compare/contraction-base.rates.json":
        (0, "bdf2517815582a6e34fd8f22ab98db15b542e4607dc467ec9403f795b7938081"),
    "certify/example21_nonexpansive":
        (2, "b9293badfb2f5971a53346ca47705cd6d5dfb02c9658e836eff5c49d8c465e5f"),
    "certify/example21_nearly":
        (0, "73f45e49928f1a2d0e44d683b22adff142f303ecb3c099eafa8a37bf78ab569d"),
    "certify/asymptotic_demo_table":
        (0, "1c8bf188a17490375afa366fc0dc52d11ea1321bdb6ee4b59a02f66ad91f8451"),
    "certify/contraction_lipschitz_pinf":
        (0, "72d7fb496fc8ac1288a483f7e357dd72fcd864b5190c2539886a2bbb3fa2061d"),
    "certify/identity_inconclusive":
        (3, "b1ab1224e1d2ac1c4b7455c1a468d8498e8da65db45ac8f960fea4adac6e1634"),
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: Path) -> str:
    if path.name.endswith(".report.json"):
        doc = json.loads(path.read_text())
        doc.pop("timings")
        return _digest((json.dumps(doc, indent=2) + "\n").encode())
    return _digest(path.read_bytes())


def _main(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def current_digests(work: Path) -> dict[str, tuple[int, str]]:
    """(exit code, sha256) of every pinned output, computed under ``work``."""
    digests = {}
    for scenario in sorted(SCENARIO_DIR.glob("*.json")):
        out_dir = work / "run" / scenario.stem
        code, _ = _main(["run", str(scenario), "--output", str(out_dir), "--quiet"])
        for path in sorted(out_dir.iterdir()):
            digests[f"run/{scenario.stem}/{path.name}"] = (code, _file_digest(path))
    out_dir = work / "compare"
    code, _ = _main(["compare", str(SCENARIO_DIR / "contraction_compare.json"),
                     "--schemes", COMPARE_SCHEMES, "--target", "1e-6",
                     "--output", str(out_dir), "--quiet"])
    for path in sorted(out_dir.iterdir()):
        digests[f"compare/{path.name}"] = (code, _file_digest(path))
    for name, argv in CERTIFY_ONE_SHOTS.items():
        code, text = _main(["certify", *argv])
        digests[f"certify/{name}"] = (code, _digest(text.encode()))
    return digests


def test_outputs_match_golden_digests(tmp_path):
    assert current_digests(tmp_path) == GOLDEN


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        json.dump(current_digests(Path(tmp)), sys.stdout, indent=4)
        print()
