"""The environment block recorded with every result."""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform

# BLAS runs on one thread in every benchmark process; run.py exports these.
BLAS_THREADS = 1
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({name: str(BLAS_THREADS) for name in THREAD_VARIABLES})
    return env


def source_fingerprint(root: str = ".") -> str:
    """sha256 over the package's and the benchmark's code and reference outputs."""
    digest = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for top in (os.path.join(root, "src"), here):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py") or name == "reference.json":
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, root).encode() + b"\0")
                    with open(path, "rb") as fh:
                        digest.update(fh.read())
    return digest.hexdigest()


def git_commit(root: str = ".") -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def _openblas_runtime() -> list[dict]:
    """Each OpenBLAS loaded in this process: its build string and thread count."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    entry["config"] = config().decode()
                    entry["threads"] = int(threads())
        found.append(entry)
    return found


def describe() -> dict:
    """Versions, BLAS and thread settings, cores and commit of this process."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own BLAS)

    def blas(module):
        try:
            info = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{info.get('name')} {info.get('version')}"
        except (TypeError, KeyError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "blas_threads_pinned": BLAS_THREADS,
        "blas_runtime": _openblas_runtime(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "source_sha256": source_fingerprint(),
    }
