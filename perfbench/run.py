"""Benchmark of apmads: end-to-end metrics per workload, or a per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py [--workload norm2-n20|profile-logs|all]
                             [--seed N] [--seconds S] [--trace 0|1]

``--trace 0`` prints every end-to-end metric of ``metrics.END_TO_END``,
``--trace 1`` every per-layer metric of ``metrics.PER_LAYER``. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (named ``<workload>/<metric>``
under ``--workload all``); details, fingerprints and the trace spans go
to ``.perfbench_out/``. Exit status: 0 when every output
check passed, 1 when one failed (the report is still printed), 2 when the
benchmark cannot run at all (no ``src/apmads`` in this checkout).
"""

import sys

import env


def main() -> int:
    try:
        env.prepare()
    except env.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness  # imports apmads, so only after prepare()

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
