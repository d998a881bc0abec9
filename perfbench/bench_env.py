"""Interpreter set-up shared by the benchmark's entry points.

:func:`bootstrap` must run before numpy is imported: it pins every BLAS
thread pool to one thread and puts the checkout's own ``src`` first on the
import path. It imports nothing heavy itself.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


class MissingProgramError(Exception):
    """The checkout does not hold the koopmpc sources."""


def bootstrap():
    if not (SRC / "koopmpc" / "__init__.py").is_file():
        raise MissingProgramError(f"no koopmpc package under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import koopmpc

    if Path(koopmpc.__file__).resolve().parent != SRC / "koopmpc":
        raise MissingProgramError(f"imported koopmpc from {koopmpc.__file__}, not from {SRC}")


def _git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "koopmpc").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment():
    """Machine and library facts recorded beside every result."""
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": BLAS_THREADS,
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
