"""Per-process measurement: child rusage, cold-import time, and a record of
the machine and library versions a result was taken on."""

from __future__ import annotations

import ctypes
import importlib.util
import os
import platform
import signal
import subprocess
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# Run in a fresh interpreter: import time of calibkit, then where it came from.
IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import calibkit\n"
    "print(time.perf_counter() - t)\n"
    "print(calibkit.__file__)\n"
    "print(getattr(calibkit, '__version__', ''))\n"
)


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    timed_out: bool
    stdout: str
    stderr: str


def run_child(cmd: list[str], cwd: Path, env: dict, timeout: float) -> Child:
    """Run ``cmd`` to completion and measure it alone.

    CPU time and peak RSS come from ``wait4`` on this one child;
    ``RUSAGE_CHILDREN`` would give a running maximum over all children.
    The child is killed after ``timeout`` seconds. Output goes through
    files in ``cwd`` so no pipe can fill and stall the child.
    """
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def kill() -> None:
            with lock:
                # The child is not reaped before "exited" is set, so its pid
                # cannot have been reused yet.
                if not state["exited"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            os.kill(proc.pid, signal.SIGKILL)  # still unreaped, so the pid is ours
            raise
        finally:
            with lock:
                state["exited"] = True
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # KiB on Linux
        code=proc.returncode,
        timed_out=state["killed"],
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, or None if it cannot be asked."""
    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            func = getattr(handle, name, None)
            if func is not None:
                func.restype = ctypes.c_int
                return int(func())
    return None


def git_commit(root: Path) -> str | None:
    """HEAD of ``root`` when it is the top of a git work tree, else None."""
    try:
        done = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def environment(root: Path) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "numba": importlib.util.find_spec("numba") is not None,
        "git_commit": git_commit(root),
    }
