"""fixiter benchmark: one seeded workload run, end-to-end or traced.

    python3 perfbench/run.py --workload scenario_checks --seed 1 --seconds 15 --trace 0

Run from the root of a fixiter checkout; the program is imported from its
``src``.  One process, one client, ops one after another (a closed loop).
The run measures set-up in fresh interpreters, runs one untimed warm-up op
per op kind, then repeats the workload's op list for a fixed number of
rounds, set from ``--seconds`` so that the timed phase lasts about that long
on the reference machine and every run does the same work.  Times are
scaled by the machine's slowdown, measured with a calibration loop around
each op (see README.md).  Every op's output is checked.  With ``--trace 1``
one more round runs under the tracer and the per-layer metrics are reported
instead of the end-to-end ones.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import tail
from workloads import COLLAPSE_DEADLINE_S, WORKLOADS, generate, rounds_for

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = Path(".perfbench_work")
OUT_DIR = Path(".perfbench_out")
SETUP_PROBES = 10
SETUP_GROUP = 2
SETUP_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# End-to-end metrics of an untraced run: (name, unit).
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("scheme_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
]


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="about how long the timed phase lasts; sets the round count")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be > 0")
    return args


def setup_group(spec: dict) -> list[float]:
    """Reference-machine times of fresh interpreters that import fixiter and build the workload's maps."""
    from ops import REFERENCE_SPIN_S, pin_fastest_cpu, spin

    arg = json.dumps({"src": "src", "cli": not spec["maps"], "maps": spec["maps"]})
    times = []
    for _ in range(SETUP_GROUP):
        before = pin_fastest_cpu()
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "setup_probe.py"), arg], check=True,
                       capture_output=True, timeout=SETUP_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        times.append(elapsed * 2.0 * REFERENCE_SPIN_S / (before + spin()))
    return times


def run_record(args) -> dict:
    """Where and on what the run happened."""
    import numpy

    sha = None
    if Path(".git").exists():  # else git would report a repository above the checkout
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(Path("src/fixiter").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in _read_lines("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor() or None)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform(),
        "threads_env": {k: os.environ[k] for k in THREAD_VARS},
    }


def _read_lines(path: str) -> list[str]:
    try:
        return Path(path).read_text().splitlines()
    except OSError:
        return []


def _rate(numerator: float, seconds: float) -> float:
    return numerator / seconds if seconds > 0 else 0.0


def run_workload(spec: dict, args, work: Path) -> dict:
    from ops import Runner

    # Set-up is probed in groups before and between rounds, so the probes
    # sample the machine over the whole run, not one burst of interference.
    setup = setup_group(spec)
    runner = Runner(spec, work)
    ops = spec["ops"]
    
    warmup, kinds = [], set()
    for op in ops:
        if op["kind"] not in kinds and op["deadline_s"] > COLLAPSE_DEADLINE_S:
            kinds.add(op["kind"])
            warmup.append(runner.run(op))

    rounds = []
    for _ in range(rounds_for(args.workload, args.seconds)):
        rounds.append([runner.run(op) for op in ops])
        if len(setup) < SETUP_PROBES:
            setup += setup_group(spec)
    while len(setup) < SETUP_PROBES:
        setup += setup_group(spec)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Times are scaled to the reference machine by the calibration loop run
    # around each op, and each op counts at its median over the rounds.
    timed = [o for r in rounds for o in r]
    typical = [statistics.median(o.scaled_s for o in column) for column in zip(*rounds)]
    busy = {"scheme": 0.0, "cert": 0.0, "modulus": 0.0}
    for op, seconds in zip(ops, typical):
        for key, flag in zip(busy, runner.flags(op)):
            busy[key] += seconds if flag else 0.0
    first = rounds[0]  # every round does the same work
    latencies = [1e3 * o.scaled_s for o in timed]
    tail_ms, tail_pct, tail_beyond = tail(latencies)
    walls = [sum(o.latency_s for o in r) for r in rounds]
    end_to_end = {
        "setup_s": statistics.median(setup),
        "wall_s": sum(typical),
        "scheme_steps_per_s": _rate(sum(o.scheme_steps for o in first), busy["scheme"]),
        "peak_rss_mb": peak_rss_mb,
    }
    executed = warmup + timed
    extra = {
        "cert_pairs_per_s": _rate(sum(o.cert_pairs for o in first), busy["cert"]),
        "modulus_pairs_per_s": _rate(sum(o.modulus_pairs for o in first), busy["modulus"]),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "op_tail_percentile": tail_pct,
        "op_tail_samples_beyond": tail_beyond,
        "op_samples": len(latencies),
        "rounds": len(rounds),
        "deadline_misses": sum(o.status == "deadline" for o in timed),
        "median_slowdown": statistics.median(o.slowdown for o in timed),
        "setup_probes_s": setup,
        "round_walls_s": walls,
    }

    per_layer, reconcile = None, []
    if args.trace:
        from maps import build_maps
        from tracing import Tracer

        tracer = Tracer()
        try:
            tracer.install()
            runner.tracer = tracer
            tracer.begin_op("build-maps")
            runner.maps = build_maps(spec["maps"])
            tracer.end_op(True)
            traced = [runner.run(op) for op in ops]
        finally:
            runner.tracer = None
            tracer.uninstall()
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.npz")
        done = [o for o in traced if o.status == "ok"]
        per_layer, reconcile = tracer.layer_metrics(
            cert_pairs_out=sum(o.cert_pairs for o in done), steps_out=sum(o.scheme_steps for o in done),
            csv_bytes=sum(o.csv_bytes for o in done), output_bytes=sum(o.output_bytes for o in done),
            overhead=sum(o.latency_s for o in traced) / statistics.median(walls),
        )
        executed += traced

    failed = [o for o in executed if o.failed]
    extra["fail_ratio"] = len(failed) / len(executed)
    return {
        "correct": not any(o.status == "error" or (o.status == "ok" and o.problems) for o in executed),
        "attempted": len(executed),
        "failed": len(failed),
        "end_to_end": end_to_end,
        "extra": extra,
        "per_layer": per_layer,
        "reconcile_problems": reconcile,
        "failures": sorted({f"{o.op_id}: {p}" for o in failed for p in o.problems})[:50],
    }


def _print_metrics(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:36s} {value:16.6g} {units.get(name, '')}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "fixiter" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print(f"perfbench: {ROOT} is not a fixiter checkout (needs src/fixiter and scenarios/)",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    # Pin BLAS/OpenMP pools to one thread before numpy loads, here and in the
    # set-up probes, which inherit the environment.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    import fixiter

    if Path(fixiter.__file__).resolve().parent != (ROOT / "src" / "fixiter").resolve():
        print(f"perfbench: imported fixiter from {fixiter.__file__}, not this checkout", file=sys.stderr)
        return 2

    spec = generate(args.workload, args.seed)
    work = WORK_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run_workload(spec, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    record = run_record(args)

    from tracing import PER_LAYER

    e2e_units = dict(END_TO_END)
    layer_units = {name: unit for name, unit, _ in PER_LAYER}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{result['extra']['rounds']} rounds, {result['attempted']} ops, {result['failed']} failed, "
          f"correct={result['correct']}")
    _print_metrics("end to end", result["end_to_end"], e2e_units)
    extra_units = {"cert_pairs_per_s": "1/s", "modulus_pairs_per_s": "1/s", "fail_ratio": "ratio",
                   "median_slowdown": "ratio", "op_p50_ms": "ms", "op_tail_ms": "ms",
                   "op_tail_percentile": "%", "op_tail_samples_beyond": "count",
                   "op_samples": "count", "rounds": "count", "deadline_misses": "count"}
    _print_metrics("also reported", {k: result["extra"][k] for k in extra_units}, extra_units)
    if result["per_layer"] is not None:
        _print_metrics("per layer (traced round)", result["per_layer"], layer_units)
    for line in result["reconcile_problems"]:
        print(f"reconcile: {line}", file=sys.stderr)
    for line in result["failures"]:
        print(f"failed: {line}", file=sys.stderr)

    report = {"record": record, **result}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2) + "\n")
    print("report " + json.dumps(report))

    if args.trace:
        metrics = {name: {"value": result["per_layer"][name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": result["end_to_end"][name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
