"""Process environment shared by the benchmark's entry scripts.

``prepare()`` must run before anything imports numpy or apmads: it pins
the BLAS/OpenMP pools to one thread and puts the checkout's ``src`` first
on ``sys.path``, so the package under test is always the one built from
this checkout's source, never an installed copy.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class MissingSource(Exception):
    pass


def prepare() -> None:
    if not (SRC / "apmads" / "__init__.py").is_file():
        raise MissingSource(f"no apmads package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def check_imported(module) -> None:
    """Refuse a package that was not loaded from this checkout's source."""
    path = Path(module.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise MissingSource(f"apmads was imported from {path}, not from {SRC}")
