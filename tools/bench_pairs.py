"""Paired benchmark runs of another checkout (the parent, say) against this one.

    python3 tools/bench_pairs.py --root ../parent --workload shoot-corank3 --seed 1 --pairs 10
    python3 tools/bench_pairs.py --root ../parent --workload cli flow-chart --seed 1 --pairs 3
    python3 tools/bench_pairs.py --root ../parent --workload flow-chart --seed 1 9001 --pairs 3

Runs the benchmark command of BENCHMARK.json (``perfbench/run.py``) untraced,
for the run length BENCHMARK.json fixes, once in each checkout per pair,
alternating which one goes first; several workloads and seeds run one after
the other (each workload on every seed in turn), each with its own pairs.
Prints every run's end-to-end metrics as it finishes, then per workload,
seed and metric each side's median and quartiles, the
ratio of the medians (change over parent), the number of pairs the change
won (ties count for neither) and whether the medians differ by more than the
distance between the parent's quartiles. A gain may be claimed where the
change won at least nine tenths of the pairs and the medians differ by more
than that distance.

Nothing under ``perfbench/`` is changed.
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(root, spec, workload, seed):
    """The last stdout line of one untraced run in ``root``, as JSON."""
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        raise RuntimeError("%s in %s failed:\n%s" % (" ".join(cmd), root, out.stderr))
    return json.loads(out.stdout.strip().splitlines()[-1])


def pairs(roots, spec, workload, seed, n):
    """Run ``n`` alternating pairs of one workload and seed, and print their
    summary."""
    metrics = spec["end_to_end"]
    values = {side: {m["name"]: [] for m in metrics} for side in roots}
    for i in range(n):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            res = run(roots[side], spec, workload, seed)
            for m in metrics:
                values[side][m["name"]].append(res["metrics"][m["name"]]["value"])
            print("%s seed %d pair %d %-6s correct=%s failed=%d %s" % (
                workload, seed, i, side, res["correct"], res["failed"],
                " ".join("%s=%.6g" % (m["name"], values[side][m["name"]][-1]) for m in metrics),
            ), flush=True)
    for m in metrics:
        a = np.array(values["parent"][m["name"]])
        b = np.array(values["change"][m["name"]])
        sign = 1.0 if m["better"] == "higher" else -1.0
        won = int(np.sum(sign * (b - a) > 0.0))
        qa, qb = np.percentile(a, [25, 50, 75]), np.percentile(b, [25, 50, 75])
        ratio = qb[1] / qa[1] if qa[1] else float("nan")
        beyond = abs(qb[1] - qa[1]) > qa[2] - qa[0]
        print("%s seed %d %-12s parent %.6g [%.6g, %.6g]  change %.6g [%.6g, %.6g]  ratio %.4f  won %d of %d  beyond parent IQR: %s" % (
            workload, seed, m["name"], qa[1], qa[0], qa[2], qb[1], qb[0], qb[2], ratio, won, n, "yes" if beyond else "no"))


def main(argv=None):
    with open(os.path.join(HERE, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--root", required=True, help="checkout to compare with")
    p.add_argument("--workload", required=True, nargs="+", choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, nargs="+", required=True, help="one or more seeds, each paired on its own")
    p.add_argument("--pairs", type=int, default=10, help="pairs of runs (default: %(default)s)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    roots = {"parent": os.path.abspath(args.root), "change": HERE}
    for workload in args.workload:
        for seed in args.seed:
            pairs(roots, spec, workload, seed, args.pairs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
