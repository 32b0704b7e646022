"""Hash the benchmark's output digests, and measure how far a change moves them.

Runs the first ROUNDS rounds of each workload and each seed of SEEDS through
``perfbench/workloads.py``, judges every operation with ``run.judge`` and
prints, per workload, seed and kind of operation, the first 16 hex digits of
a sha256 over the operations' digests in order, and how many verdicts were
not "ok"; then one line per verdict that was not "ok", giving its round, the
operation's place among the round's operations and the target's (or
command's) place within the operation, each counted from 0:

    python3 tools/bench_digests.py
    python3 tools/bench_digests.py --root ../parent
    python3 tools/bench_digests.py --workload shoot-corank3 --rounds 24 --seeds 1 2 9001

``--workload``, ``--rounds`` and ``--seeds`` pick what runs (default: every
workload, ROUNDS rounds, the seeds SEEDS), so a faster change can be checked
on the rounds that its 20-second run reaches.

With ``--root`` the checkout named there (a copy of the parent commit, say)
runs first, then the one holding this script, and each line also gives the
largest |difference| between the two of every array the digest covers, in
the digest's order: P0, T, residual for distance_point; T, P0, residual,
converged for distance_batch; times, xs, ps for integrate_normal; and so on
(see the ``_digest`` calls in ``perfbench/workloads.py``). For the cli the
arrays are the numbers in each command's output text. "=" marks outputs
that are bit-identical; "n/a" an array whose shape, or a number count, differs
between the two, or an operation that raised in either.

The exit status is 1 when any verdict was not "ok", 0 otherwise.

Nothing under ``perfbench/`` is changed; the cli workload writes and
removes its ``--out`` file in ``<root>/.perfbench-out/`` as the benchmark
does.
"""

import argparse
import hashlib
import json
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


def digests(wl, seed, judge, captured, rounds, bad_ops):
    """{kind: [hash prefix, non-ok count, per-op digested arrays]}, in first-seen order.

    ``captured`` is the list the wrapped ``workloads._digest`` appends each
    call's arrays to; (round, op, target, kind, verdict) of every verdict
    that is not "ok" is appended to ``bad_ops``.
    """
    out = {}
    gen = wl.rounds(wl.setup(seed))
    for rnd in range(rounds):
        for i, op in enumerate(next(gen)):
            res = err = None
            try:
                res = op.run()
            except Exception as exc:  # judged as the operation's verdict
                err = exc
            del captured[:]
            verdicts, digest = judge(op, res, err)
            entry = out.setdefault(op.kind, [hashlib.sha256(), 0, []])
            entry[0].update(digest.encode())
            failed = [(rnd, i, j, op.kind, v) for j, v in enumerate(verdicts) if v != "ok"]
            entry[1] += len(failed)
            bad_ops += failed
            entry[2].append([_numeric(a) for a in captured[0]] if captured else None)
    return {k: (h.hexdigest()[:16], bad, arrays) for k, (h, bad, arrays) in out.items()}


def collect(root, names, seeds, rounds):
    """Digests of the workloads ``names`` (None: all), per seed and kind, with
    ``root``'s carnot and perfbench: {(name, seed): (kinds, non-ok verdicts)}."""
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
        out = {}
        for name, wl in workloads.workloads(root).items():
            if names and name not in names:
                continue
            for seed in seeds:
                bad = []
                out[name, seed] = digests(wl, seed, run.judge, captured, rounds, bad), bad
        return out
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
    with open(os.path.join(here, "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    p.add_argument("--workload", nargs="+", choices=names, help="workloads to run (default: all)")
    p.add_argument("--rounds", type=int, default=ROUNDS, help="rounds per workload and seed (default: %(default)s)")
    p.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS), help="seeds (default: %(default)s)")
    args = p.parse_args(argv)
    if args.rounds < 1:
        p.error("--rounds must be at least 1")

    picked = (args.workload, args.seeds, args.rounds)
    parent = collect(os.path.abspath(args.root), *picked) if args.root else None
    nonok = 0
    bad_lines = []
    for (name, seed), (kinds, bad_ops) in collect(here, *picked).items():
        bad_lines += ["%-14s %5d round %d op %d target %d %s: %s" % ((name, seed) + b) for b in bad_ops]
        for kind, (prefix, bad, arrays) in kinds.items():
            line = "%-14s %5d %-16s %s non-ok=%d" % (name, seed, kind, prefix, bad)
            if parent is not None:
                theirs = parent.get((name, seed), ({}, []))[0].get(kind)
                if theirs is None:
                    line += " max|d| n/a"
                elif theirs[0] == prefix:
                    line += " max|d| ="
                else:
                    line += " max|d| " + max_dev(arrays, theirs[2])
            print(line)
            nonok += bad
    for line in bad_lines:
        print(line)
    print("non-ok verdicts: %d" % nonok)
    return 1 if nonok else 0


if __name__ == "__main__":
    sys.exit(main())
