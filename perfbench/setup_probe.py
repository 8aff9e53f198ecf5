"""Set-up probe: what a fresh interpreter pays before a workload's first op.

Run by run.py in a child process and timed from outside, so the figure
includes interpreter start.  It imports fixiter (and the CLI module for the
CLI workloads) and builds the workload's maps for the library workload.

    python3 perfbench/setup_probe.py '{"src": "src", "cli": true, "maps": {}}'
"""

import json
import sys


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import fixiter  # noqa: F401

    if spec["cli"]:
        import fixiter.cli  # noqa: F401
    if spec["maps"]:
        from maps import build_maps

        build_maps(spec["maps"])


if __name__ == "__main__":
    main()
