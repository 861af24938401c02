"""Process set-up shared by the benchmark's entry points.

Pins every BLAS/OpenMP pool to one thread *before* numpy is imported
(two BLAS threads on a two-core machine shared with other work ran the
same sweep about four times slower, so the benchmark would measure its
neighbours) and puts the checkout's ``src/`` on the import path.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "REPRO_NUM_THREADS",
)


class CheckoutError(RuntimeError):
    """The program under test is not in this checkout."""


def prepare() -> None:
    """Pin thread pools and make ``import repro`` resolve to ``src/``.

    The pin only takes effect before numpy loads BLAS, so it is skipped
    when numpy is already imported (a test process); the provenance
    record reports the variables as they are.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise CheckoutError(f"no DQMC sources at {SRC / 'repro'}")
    if "numpy" not in sys.modules:
        for var in THREAD_VARS:
            os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
