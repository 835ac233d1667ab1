"""Process timing, the percentile rules and the environment record."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# The reported tail percentile is the highest one with this many jobs beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Proc:
    wall_s: float  # from spawn to exit
    maxrss_kb: int  # the child's peak resident set, from its rusage
    code: int


def spawn(argv: list[str], cwd: Path, env: dict, stderr_path: Path) -> Proc:
    """Run one process to completion and time it from spawn to exit."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_maxrss, proc.returncode)


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile that still
    has at least TAIL_BEYOND samples above it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    rank = n - TAIL_BEYOND
    return sorted(values)[rank - 1], 100.0 * rank / n


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> list[str]:
    out = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        out.append(f"L{level} {kind} {size}")
    return out


def _blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, as the library itself reports."""
    import numpy

    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {
            k: {f: deps[k].get(f) for f in ("name", "version", "openblas configuration")}
            for k in ("blas", "lapack") if k in deps
        }
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas_config": blas,
        "blas_threads": _blas_threads(),
        "env": {
            k: os.environ.get(k)
            for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "PYTHONDONTWRITEBYTECODE",
            )
        },
    }
