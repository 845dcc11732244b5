"""Import guard and provenance for the fleet-simulator benchmark.

The benchmark must measure the ``repro`` package of the checkout it lives
in.  A stray ``PYTHONPATH`` or an installed copy of the package would make a
parent-versus-change comparison silently measure one tree twice, so the
package is imported from ``<checkout>/src`` (resolved from this file) and
the import is refused when ``repro.__file__`` resolves anywhere else.
"""

from __future__ import annotations

import importlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckoutError(RuntimeError):
    """The checkout does not hold the program this benchmark measures."""


def import_repro():
    """Import ``repro`` from this checkout's ``src/`` or raise CheckoutError."""
    package_dir = SRC / "repro"
    if not (package_dir / "__init__.py").is_file():
        raise CheckoutError(f"no repro package under {SRC}")
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))
    repro = importlib.import_module("repro")
    location = Path(repro.__file__).resolve().parent
    if location != package_dir.resolve():
        raise CheckoutError(
            f"repro was imported from {location}, not from {package_dir}; "
            "clear PYTHONPATH or the installed package"
        )
    return repro


def _git_sha() -> str:
    """HEAD of the checkout read from ``.git`` without running git.

    The benchmark may run from an export that is not a git repository;
    then the SHA is ``"unknown"``.
    """
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> dict:
    """Machine and code identity of a benchmark run."""
    import numpy

    try:
        importlib.import_module("numba")
        numba = True
    except ImportError:
        numba = False
    return {
        "git_sha": _git_sha(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": numba,
    }
