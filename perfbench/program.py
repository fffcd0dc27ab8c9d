"""Locate and import the program under test from the checkout's ``src``.

The benchmark runs from the root of a source checkout, so it imports the
package from ``src/haptosim`` next to it and refuses to fall back to any
other copy on the path.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# one BLAS thread: the timings must not depend on how many cores are idle
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class MissingProgram(RuntimeError):
    """The checkout holds no importable ``src/haptosim`` package."""


def pin_blas() -> None:
    """Pin BLAS to one thread; must run before numpy is first imported."""
    os.environ.update(BLAS_ENV)


def load():
    """Import ``haptosim`` from ``src``; returns the package."""
    init = SRC / "haptosim" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no program to benchmark: {init} does not exist")
    pin_blas()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import haptosim
    import haptosim.config  # noqa: F401  (loads every module of the package)

    if Path(haptosim.__file__).resolve() != init.resolve():
        raise MissingProgram(f"imported haptosim from {haptosim.__file__}, "
                             f"not from {init}")
    return haptosim
