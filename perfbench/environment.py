"""What a run was measured on, recorded with every run's result."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform
import subprocess
import sys
import time
from pathlib import Path


def describe(root: Path) -> dict:
    """Commit, source digest, interpreter and library versions, BLAS and cores."""
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _commit(root),
        "src_sha256": _source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": _openblas_threads(numpy),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_digest(src: Path) -> str:
    """sha256 over the package sources, so runs from a plain export are identifiable."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _openblas_threads(numpy) -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it is OpenBLAS."""
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


# what each calibration loop and probe_seconds() take on a quiet core of the
# host the baseline was recorded on (a 2-core x86_64 VM): the units of the
# rescaled timings
REFERENCE_S = {"python": 0.03, "blas": 0.02}
PROBE_REFERENCE_S = 0.12
CALIBRATION_REPEATS = 4


def calibration_seconds(loops: tuple[str, ...]) -> float:
    """Mean time of fixed loops that run no icfcluster code: "python" parses
    100,000 floats from text, "blas" makes ten small matrix products and
    their argmins.

    Timed around every measured operation: on a shared host the machine's own
    speed drifts by half from one few-second stretch to the next, and these
    loops slow down with it, each by as much as the work it stands for.  The
    mean, not the best, of the repeats, since the operation it rescales is
    slowed by the host's average speed over its length.
    """
    import numpy as np

    a = np.random.default_rng(0).normal(size=(20_000, 50))
    tokens = [repr(v) for v in a[:2_000].ravel().tolist()]
    t0 = time.perf_counter()
    for _ in range(CALIBRATION_REPEATS):
        if "python" in loops:
            np.array([float(t) for t in tokens])
        if "blas" in loops:
            for _ in range(10):
                np.argmin(a @ a[:10].T, axis=1)
    return (time.perf_counter() - t0) / CALIBRATION_REPEATS


def probe_seconds() -> float:
    """Wall time of a fresh interpreter that imports numpy and exits.

    The reference for set-up timings, which are mostly process start-up and
    imports, and slow down with the host unlike calibration_seconds() does.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return time.perf_counter() - t0


def rescale(seconds: float, measured: float, reference: float) -> float:
    """A timing taken while a reference read ``measured``, in seconds of a
    host on which it reads ``reference``."""
    return seconds * reference / measured
