"""Hash the benchmark's output digests, to show a change leaves them bit-identical.

Runs the first ROUNDS rounds of each workload and each seed of SEEDS through
``perfbench/workloads.py``, judges every operation with ``run.judge`` and
prints, per workload, seed and kind of operation, the first 16 hex digits of
a sha256 over the operations' digests in order, and how many verdicts were
not "ok". Run it on two checkouts and compare the lines:

    python3 tools/bench_digests.py
    python3 tools/bench_digests.py --root ../parent

``--root`` names the checkout whose ``src/`` and ``perfbench/`` are used
(default: the one holding this script). Nothing under ``perfbench/`` is
changed; the cli workload writes and removes its ``--out`` file in
``<root>/.perfbench-out/`` as the benchmark does.
"""

import argparse
import hashlib
import os
import sys

# as perfbench/run.py: single-threaded BLAS, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROUNDS = 2
SEEDS = (1, 9001)


def digests(wl, seed, judge):
    """(kind, hash prefix, non-ok count) per kind, kinds in first-seen order."""
    hashes, bad = {}, {}
    gen = wl.rounds(wl.setup(seed))
    for _ in range(ROUNDS):
        for op in next(gen):
            out = err = None
            try:
                out = op.run()
            except Exception as exc:  # judged as the operation's verdict
                err = exc
            verdicts, digest = judge(op, out, err)
            hashes.setdefault(op.kind, hashlib.sha256()).update(digest.encode())
            bad[op.kind] = bad.get(op.kind, 0) + sum(v != "ok" for v in verdicts)
    return [(k, h.hexdigest()[:16], bad[k]) for k, h in hashes.items()]


def main(argv=None):
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", default=here, help="checkout to run (default: %(default)s)")
    args = p.parse_args(argv)

    root = os.path.abspath(args.root)
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import run
    import workloads

    nonok = 0
    for name, wl in workloads.workloads(root).items():
        for seed in SEEDS:
            for kind, prefix, bad in digests(wl, seed, run.judge):
                print("%-14s %5d %-16s %s non-ok=%d" % (name, seed, kind, prefix, bad))
                nonok += bad
    print("non-ok verdicts: %d" % nonok)
    return 0


if __name__ == "__main__":
    sys.exit(main())
