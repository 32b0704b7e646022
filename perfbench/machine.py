"""Environment record and the reference kernel that tracks machine speed.

The benchmark runs on shared machines whose speed drifts in phases: the same
call can take 70% longer a minute later, in CPU time as much as in wall
time. A fixed reference kernel, timed during and between the program's
calls, slows in the same phases. Every timing the benchmark reports is
therefore divided by the speed factor (reference time then) / REF_NOMINAL_S,
which reads as the time the call would take on a machine where the kernel
takes REF_NOMINAL_S. The raw times and the reference times are printed next
to the results.
"""

import contextlib
import os
import platform
import signal
import sys
from time import perf_counter

import numpy as np

REF_NOMINAL_S = 0.001
SAMPLE_INTERVAL_S = 0.05

# Small-array numpy work with Python overhead, like the program's own calls.
_R = np.random.default_rng(1)
_A = _R.standard_normal((64, 6, 6))
_S = _A + np.swapaxes(_A, 1, 2)
_Z = _R.standard_normal(2000)


def reference_kernel():
    s = 0.0
    for _ in range(2):
        B = np.einsum("kij,kjl->kil", _A, _A)
        w, _ = np.linalg.eigh(_S)
        s += float(np.sin(_Z).sum() + np.cos(_Z * 0.5).sum() + B[0, 0, 0] + w[0, 0])
        for _ in range(30):
            s += float(np.abs(_Z[:8]).max())
    return s


class SpeedClock:
    """Reference-kernel samples over a run and the speed factor they give.

    ``sampling()`` also takes a sample every ``interval`` seconds from a
    SIGALRM handler, which the interpreter runs between bytecodes of the
    main thread, so long calls are sampled while they run. ``busy`` adds up
    the time spent in the handler, which the runner takes off the calls.
    """

    def __init__(self):
        self.mid = []
        self.took = []
        self.busy = 0.0

    def sample(self):
        reference_kernel()  # warm its caches, whatever the program left there
        t0 = perf_counter()
        reference_kernel()
        t1 = perf_counter()
        self.mid.append(0.5 * (t0 + t1))
        self.took.append(t1 - t0)
        return t1 - t0

    def _on_alarm(self, signum, frame):
        t0 = perf_counter()
        self.sample()
        self.busy += perf_counter() - t0

    @contextlib.contextmanager
    def sampling(self, interval=SAMPLE_INTERVAL_S):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, t0, t1, k=5):
        """Machine slowness over [t0, t1].

        The samples come at even intervals of wall time, so their mean is
        the time average of the slowness that stretched the call; the
        fastest and slowest tenth are dropped first. Calls shorter than k
        intervals use the k samples nearest to their centre.
        """
        mid = np.asarray(self.mid)
        took = np.asarray(self.took)
        inside = (mid >= t0) & (mid <= t1)
        if inside.sum() < k:
            inside = np.argsort(np.abs(mid - 0.5 * (t0 + t1)), kind="stable")[:k]
        near = np.sort(took[inside])
        cut = len(near) // 10
        return float(near[cut : len(near) - cut].mean()) / REF_NOMINAL_S

    def overall(self):
        return float(np.median(self.took)) / REF_NOMINAL_S


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(root, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def environment(root):
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "")),
        "blas_threads": threads,
        "commit": _git_commit(root),
        "ref_nominal_s": REF_NOMINAL_S,
    }
