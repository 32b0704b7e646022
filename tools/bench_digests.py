"""Hash the benchmark's output digests, and measure how far a change moves them.

Runs the first ROUNDS rounds of each workload and each seed of SEEDS through
``perfbench/workloads.py``, judges every operation with ``run.judge`` and
prints, per workload, seed and kind of operation, the first 16 hex digits of
a sha256 over the operations' digests in order, and how many verdicts were
not "ok":

    python3 tools/bench_digests.py
    python3 tools/bench_digests.py --root ../parent

With ``--root`` the checkout named there (a copy of the parent commit, say)
runs first, then the one holding this script, and each line also gives the
largest |difference| between the two of every array the digest covers, in
the digest's order: P0, T, residual for distance_point; T, P0, residual,
converged for distance_batch; times, xs, ps for integrate_normal; and so on
(see the ``_digest`` calls in ``perfbench/workloads.py``). For the cli the
arrays are the numbers in each command's output text. "=" marks outputs
that are bit-identical; "n/a" an array whose shape, or a number count, differs
between the two, or an operation that raised in either.

Nothing under ``perfbench/`` is changed; the cli workload writes and
removes its ``--out`` file in ``<root>/.perfbench-out/`` as the benchmark
does.
"""

import argparse
import hashlib
import os
import re
import sys

# as perfbench/run.py: single-threaded BLAS, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROUNDS = 2
SEEDS = (1, 9001)
_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:nan|inf)")


def _numeric(a):
    """A digested array as floats; the numbers in it for output text."""
    if isinstance(a, bytes):
        return np.array([float(s) for s in _NUMBER.findall(a)])
    return np.asarray(a, dtype=float)


def digests(wl, seed, judge, captured):
    """{kind: [hash prefix, non-ok count, per-op digested arrays]}, in first-seen order.

    ``captured`` is the list the wrapped ``workloads._digest`` appends each
    call's arrays to.
    """
    out = {}
    gen = wl.rounds(wl.setup(seed))
    for _ in range(ROUNDS):
        for op in next(gen):
            res = err = None
            try:
                res = op.run()
            except Exception as exc:  # judged as the operation's verdict
                err = exc
            del captured[:]
            verdicts, digest = judge(op, res, err)
            entry = out.setdefault(op.kind, [hashlib.sha256(), 0, []])
            entry[0].update(digest.encode())
            entry[1] += sum(v != "ok" for v in verdicts)
            entry[2].append([_numeric(a) for a in captured[0]] if captured else None)
    return {k: (h.hexdigest()[:16], bad, arrays) for k, (h, bad, arrays) in out.items()}


def collect(root):
    """Digests of every workload, seed and kind with ``root``'s carnot and perfbench."""
    paths = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    sys.path[:0] = paths
    try:
        import run
        import workloads

        captured = []
        digest = workloads._digest

        def capture(*arrays):
            captured.append(arrays)
            return digest(*arrays)

        workloads._digest = capture
        return {
            (name, seed): digests(wl, seed, run.judge, captured)
            for name, wl in workloads.workloads(root).items()
            for seed in SEEDS
        }
    finally:
        # forget root's modules, so a second checkout imports its own
        for p in paths:
            sys.path.remove(p)
        for mod in list(sys.modules):
            f = getattr(sys.modules[mod], "__file__", None) or ""
            if os.path.abspath(f).startswith(tuple(p + os.sep for p in paths)):
                del sys.modules[mod]


def max_dev(ours, theirs):
    """Largest |difference| per digested array, over a kind's operations."""
    if len(ours) != len(theirs):
        return "n/a"
    devs = None
    for a, b in zip(ours, theirs):
        if a is None or b is None or len(a) != len(b):
            return "n/a"
        if devs is None:
            devs = [0.0] * len(a)
        for i, (x, y) in enumerate(zip(a, b)):
            if x.shape != y.shape:
                return "n/a"
            same = np.array_equal(x, y, equal_nan=True)
            d = 0.0 if same or not x.size else float(np.nanmax(np.abs(x - y)))
            devs[i] = max(devs[i], d)
    return " ".join("%.2g" % d for d in devs or [])


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", help="checkout to compare with (default: none)")
    args = p.parse_args(argv)

    parent = collect(os.path.abspath(args.root)) if args.root else None
    nonok = 0
    for (name, seed), kinds in collect(here).items():
        for kind, (prefix, bad, arrays) in kinds.items():
            line = "%-14s %5d %-16s %s non-ok=%d" % (name, seed, kind, prefix, bad)
            if parent is not None:
                theirs = parent.get((name, seed), {}).get(kind)
                if theirs is None:
                    line += " max|d| n/a"
                elif theirs[0] == prefix:
                    line += " max|d| ="
                else:
                    line += " max|d| " + max_dev(arrays, theirs[2])
            print(line)
            nonok += bad
    print("non-ok verdicts: %d" % nonok)
    return 0


if __name__ == "__main__":
    sys.exit(main())
