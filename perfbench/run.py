"""Benchmark of carnot: one workload and seed in, every metric out.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shoot-corank1 --seed 1 --seconds 20 --trace 0

With --trace 0 the last stdout line is a JSON object carrying every
end-to-end metric of BENCHMARK.json; with --trace 1 it carries every
per-layer metric instead, from a traced pass over the same rounds as an
untraced pass of half the given seconds, and the spans are written to
.perfbench-out/. Lines before it start with '#' and record the
environment, raw timings and verdicts.

Seeds 1-10 were used while the benchmark was tuned; HELD_OUT_SEED was not,
so a claimed gain can be confirmed on it.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HELD_OUT_SEED = 9001
SETUPS = 5  # set-ups per run; setup_s is their median
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Record:
    kind: str
    units: int
    t0: float
    t1: float
    took: float
    verdicts: list
    digest: str
    rss_kb: int


def judge(op, out, err):
    """Verdicts and output digest for one operation (see workloads.py)."""
    errors = sys.modules["carnot.errors"]
    if err is None:
        try:
            return list(op.check(out)), op.digest(out)
        except Exception as exc:  # a check that cannot read the output
            return ["invalid:check-" + type(exc).__name__] * op.units, "check-failed"
    if isinstance(err, errors.NoConvergence):
        verdict = "unconverged"
    elif isinstance(err, errors.CarnotError):
        verdict = "raised:" + type(err).__name__
    else:
        verdict = "invalid:" + type(err).__name__
    return [verdict] * op.units, "%s:%s" % (type(err).__name__, err)


def run_rounds(wl, st, clock, seconds=None, rounds=None, tracer=None, inprocess=False):
    """Run whole rounds until the deadline passes or ``rounds`` are done.

    Each record's time excludes what the clock's sampler took during it.
    """
    records = []
    gen = wl.rounds(st)
    start = perf_counter()
    done = 0
    while (rounds is None or done < rounds) and (seconds is None or perf_counter() - start < seconds):
        for op in next(gen):
            call = op.run_traced if inprocess and op.run_traced else op.run
            if wl.child_process and not inprocess:
                clock.sample()
                clock.sample()
            if tracer is not None:
                tracer.op += 1
                tracer.active = True
            busy = clock.busy
            t0 = perf_counter()
            out = err = None
            try:
                out = call()
            except Exception as exc:  # recorded as the operation's verdict
                err = exc
            t1 = perf_counter()
            if tracer is not None:
                tracer.active = False
            verdicts, digest = judge(op, out, err)
            rss_kb = getattr(out, "rss_kb", 0)
            records.append(Record(op.kind, op.units, t0, t1, t1 - t0 - (clock.busy - busy), verdicts, digest, rss_kb))
        done += 1
    return records, done


def tally(records):
    attempted = sum(r.units for r in records)
    counts = {}
    for r in records:
        for v in r.verdicts:
            counts[v] = counts.get(v, 0) + 1
    return attempted, attempted - counts.get("ok", 0), counts


def probe_verdicts(wl, st):
    """Verdicts on the workload's known-defect probes (see workloads.py)."""
    out = []
    for op in wl.probes(st):
        res = err = None
        try:
            res = (op.run_traced or op.run)()
        except Exception as exc:  # recorded as the probe's verdict
            err = exc
        out += judge(op, res, err)[0]
    return out


def tail(values):
    """Highest whole percentile with at least ten samples above it."""
    xs = sorted(values)
    for q in range(99, 49, -1):
        cut = xs[min(len(xs) - 1, int(q / 100.0 * len(xs)))]
        if sum(1 for x in xs if x > cut) >= 10:
            return q, cut
    return None, None


def time_setup(wl, seed, clock):
    """This process's set-up: import, groups, inputs and warm-up call.

    Returns (normalized seconds, the workload state, raw seconds since the
    process started, speed factor of samples taken right after it).
    """
    st = wl.setup(seed)
    took = perf_counter() - _STARTED
    for _ in range(9):
        clock.sample()
    speed = clock.overall()
    return took / speed, st, took, speed


def more_setups(args):
    """Set-up times of SETUPS - 1 fresh processes run with --setup-only."""
    out = []
    for _ in range(SETUPS - 1):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError("set-up run failed: " + proc.stderr.strip()[-500:])
        out.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return out


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def emit(records_ok, attempted, failed, values, spec_key):
    spec = {m["name"]: m["unit"] for m in load_spec()[spec_key]}
    if set(spec) != set(values):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s" % (sorted(values), sorted(spec)))
    for name in spec:
        print("# %-34s %.6g %s" % (name, values[name], spec[name]))
    metrics = {name: {"value": float(values[name]), "unit": spec[name]} for name in spec}
    print(json.dumps({"correct": records_ok, "attempted": attempted, "failed": failed, "metrics": metrics}))


def kind_medians(records, times):
    kinds = {}
    for r, t in zip(records, times):
        kinds.setdefault(r.kind, []).append(t)
    return {k: (len(v), statistics.median(v)) for k, v in kinds.items()}


def untraced(args, wl, st, clock, env, setup):
    setups = [setup] + more_setups(args)
    # A command running in a child process shares this CPU with the sampler,
    # so commands are bracketed by samples instead (see run_rounds).
    with contextlib.nullcontext() if wl.child_process else clock.sampling():
        records, rounds = run_rounds(wl, st, clock, seconds=args.seconds)
    clock.sample()
    attempted, failed, counts = tally(records)
    scaled = [r.took / clock.factor(r.t0, r.t1) for r in records]
    raw = [r.took for r in records]
    if wl.child_process:
        rss_kb = max(r.rss_kb for r in records)
    else:
        import resource

        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kinds = kind_medians(records, scaled)
    # Kinds of call differ in latency, and the plain median of all calls
    # would fall in the gap between two kinds; the median of the per-kind
    # medians stays put.
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "ops_per_s": attempted / sum(scaled),
        "call_p50_ms": 1e3 * statistics.median(m for _, m in kinds.values()),
        "ok_frac": (attempted - failed) / attempted,
        "rss_peak_mb": rss_kb / 1024.0,
    }
    q, cut = tail(scaled)
    per_kind = {k: "%d x %.4g ms" % (n, 1e3 * m) for k, (n, m) in kinds.items()}
    print("# env %s" % json.dumps(env))
    print("# set-ups: %s" % json.dumps(setups))
    print("# %d rounds, %d calls, %d %ss; verdicts %s" % (
        rounds, len(records), attempted, wl.unit, json.dumps(counts, sort_keys=True)))
    print("# raw call p50 %.4g ms; reference kernel median %.4g ms (min %.4g, max %.4g, %d samples)" % (
        1e3 * statistics.median(raw), 1e3 * statistics.median(clock.took), 1e3 * min(clock.took), 1e3 * max(clock.took), len(clock.took)))
    print("# per call kind, scaled median: %s" % json.dumps(per_kind))
    if q is None:
        print("# call tail: fewer than 11 calls, no percentile beyond p50 has ten samples above it")
    else:
        print("# call_p%d_ms %.6g (information only; %d calls)" % (q, 1e3 * cut, len(scaled)))
    emit(failed == 0, attempted, failed, values, "end_to_end")


def import_seconds():
    """Median time of `import carnot.cli` in three fresh interpreters."""
    code = "from time import perf_counter as p; t = p(); import carnot.cli; print(p() - t)"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    runs = [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True).stdout) for _ in range(3)]
    return statistics.median(runs)


def traced(args, wl, st, clock, env):
    import machine
    import numpy as np
    import spans

    with clock.sampling():
        plain, rounds = run_rounds(wl, st, clock, seconds=args.seconds / 2, inprocess=True)
    traced_clock = machine.SpeedClock()
    with spans.Tracer() as tracer, traced_clock.sampling():
        records, _ = run_rounds(wl, st, traced_clock, rounds=rounds, tracer=tracer, inprocess=True)
    leftover = spans.installed_wrappers()
    same = [r.digest for r in plain] == [r.digest for r in records]
    attempted, failed, counts = tally(records)
    speed = traced_clock.overall()
    table = tracer.table()
    values = spans.layer_metrics(table, speed)

    probed = probe_verdicts(wl, st)

    def share(verdict):
        return sum(1 for v in probed if v == verdict) / len(probed) if probed else 0.0

    values["distance.wrong_frac"] = share("wrong")
    values["distance.unconverged_frac"] = share("unconverged")
    if wl.child_process:
        values["cli.json_ok_frac"] = 1.0 - share("json")
        values["cli.import_s"] = import_seconds() / speed
    else:
        values["cli.json_ok_frac"] = values["cli.import_s"] = 0.0
    base = sum(r.took / clock.factor(r.t0, r.t1) for r in plain)
    with_spans = sum(r.took / traced_clock.factor(r.t0, r.t1) for r in records)
    values["trace.overhead_s"] = with_spans - base
    values["trace.overhead_frac"] = (with_spans - base) / base
    values["trace.spans"] = len(table)

    out_dir = os.path.join(ROOT, ".perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "trace-%s-seed%d.npz" % (wl.name, args.seed))
    np.savez_compressed(path, env=json.dumps(env), speed=speed, **table.as_arrays())

    print("# env %s" % json.dumps(env))
    print("# reference kernel median %.4g ms untraced, %.4g ms traced" % (
        1e3 * statistics.median(clock.took), 1e3 * statistics.median(traced_clock.took)))
    print("# %d rounds traced, %d spans written to %s" % (rounds, len(table), os.path.relpath(path, ROOT)))
    print("# verdicts %s" % json.dumps(counts, sort_keys=True))
    print("# known-defect probes, not counted as operations: %d, verdicts %s" % (
        len(probed), json.dumps({v: probed.count(v) for v in sorted(set(probed))})))
    print("# traced outputs bit-identical to untraced: %s; wrappers left installed: %s" % (same, leftover or "none"))
    emit(failed == 0 and same and not leftover, attempted, failed, values, "per_layer")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="time this process's set-up, print it as JSON and exit")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "carnot", "__init__.py")):
        print("perfbench: no carnot sources in %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    # One CPU for this process and its children, so that the reference
    # samples measure the core that does the work.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

    import machine
    import workloads

    table = workloads.workloads(ROOT)
    if args.workload not in table:
        print("perfbench: unknown workload %r; known: %s" % (args.workload, ", ".join(table)), file=sys.stderr)
        return 2
    wl = table[args.workload]
    setup_s, st, raw, speed = time_setup(wl, args.seed, machine.SpeedClock())
    setup = {"setup_s": setup_s, "raw_s": raw, "speed": speed}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    env = machine.environment(ROOT)
    clock = machine.SpeedClock()
    if args.trace:
        traced(args, wl, st, clock, env)
    else:
        untraced(args, wl, st, clock, env, setup)
    return 0


if __name__ == "__main__":
    sys.exit(main())
