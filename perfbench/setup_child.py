"""Set-up of one workload in a fresh interpreter, timed by ``harness.py``.

Usage: python3 perfbench/setup_child.py WORKLOAD SEED WORKDIR

Imports apmads and builds the workload's inputs (for profile-logs, it
generates the run logs into WORKDIR), exactly what a fresh process pays
before its first op.
"""

import sys
from pathlib import Path

import env


def main(argv) -> int:
    try:
        env.prepare()
    except env.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import apmads
    import workloads

    env.check_imported(apmads)
    workloads.WORKLOADS[argv[0]].setup(int(argv[1]), Path(argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
