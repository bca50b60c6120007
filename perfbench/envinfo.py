"""Environment block written into every result.

Two results are comparable only when their machine blocks agree; the
commit and source digest are expected to differ between a parent and a
change. The BLAS thread count is recorded as shipped, never changed: on
a 2-CPU machine OpenBLAS helper threads roughly double CPU time.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import os
import platform

# Keys that identify the code rather than the machine.
CODE_KEYS = ("commit", "source_sha256")


def _openblas_threads(pkg):
    """(library file, configuration, threads) of a wheel's bundled OpenBLAS."""
    libdir = os.path.join(os.path.dirname(pkg.__file__), os.pardir,
                          pkg.__name__ + ".libs")
    for lib in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        info = {"library": os.path.basename(lib)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(
                    handle, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(
                    handle, f"{prefix}_get_config{suffix}", None)
                if get_threads is None:
                    continue
                get_threads.restype, get_threads.argtypes = ctypes.c_int, []
                info["threads"] = get_threads()
                if get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    get_config.argtypes = []
                    info["config"] = get_config().decode().strip()
                return info
    return None


def _commit(root):
    """HEAD of a git checkout at root, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256(root):
    """Digest of every file under src/, so a non-git checkout is identified."""
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def collect(root):
    """Machine and code identity; call after numpy and scipy are imported."""
    import numpy
    import scipy
    import yaml
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": affinity,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "blas_numpy": _openblas_threads(numpy),
        "blas_scipy": _openblas_threads(scipy),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "omp_num_threads_env": os.environ.get("OMP_NUM_THREADS"),
        "commit": _commit(root),
        "source_sha256": source_sha256(root),
    }


def machine_differences(a, b):
    """Keys outside CODE_KEYS whose values differ between two blocks."""
    keys = sorted((set(a) | set(b)) - set(CODE_KEYS))
    return [k for k in keys if a.get(k) != b.get(k)]
