"""The benchmark's workloads: inputs generated from --seed, and their checks.

A workload's ``setup(seed)`` imports carnot, builds the groups and fixed
inputs and makes one warm-up call; ``rounds(state)`` then yields lists of
operations forever, the same ones for the same seed. The runner checks the
deadline only between rounds. Planted inputs follow a shifted low-discrepancy
(R2) sequence, so any prefix of the stream covers the input ranges evenly and
two seeds see the same mix of easy and hard inputs.

Every operation checks its output against oracle.py. Verdicts, one per unit
of work: "ok"; "wrong" (a converged distance longer than a path known to
reach the target); "unconverged"; "raised:<error>" (a typed carnot error or
a CLI exit code 2-4); "json" (CLI output that is not one JSON document);
"invalid:<why>" (an answer no correct program can give: shorter than the
target allows, an endpoint that misses, a failed round trip, a crash).
Every verdict but "ok" counts as failed and makes the run incorrect: the
inputs are drawn from ranges where every operation succeeds at baseline,
and each workload says which known defects lie outside them. Those defects
still show: ``probes(state)`` gives a fixed set of operations from just
outside the ranges, the same in every run, whose verdicts the traced run
reports as per-layer metrics without counting them as operations.
"""

import contextlib
import hashlib
import io
import itertools
import json
import os
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from functools import partial
from types import SimpleNamespace

import numpy as np

import oracle

_G = 1.32471795724474602596  # plastic number: R2 sequence of Roberts
_ALPHA = np.array([1.0 / _G, 1.0 / (_G * _G)])
CORANK3_GROUP_SEED = 20091030
H4V2_GROUP_SEED = 5648
H1_SURFACE = "x1-0.2*x2^2+0.3*x3"
H2_SURFACE = "x1-x2^2"
PROBE_SEED = 9100530  # the known-defect probes are the same in every run


def _carnot(name):
    """A carnot module, looked up at call time so wrappers take effect."""
    return sys.modules["carnot." + name]


def _r2(shift, i):
    return (shift + (i + 1) * _ALPHA) % 1.0


def _unit(rng, k):
    w = rng.standard_normal(k)
    return w / np.linalg.norm(w)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes() if not isinstance(a, bytes) else a)
    return h.hexdigest()


@dataclass
class Op:
    """One operation: ``units`` targets, calls or commands and their checks."""

    kind: str
    units: int
    run: object
    check: object
    digest: object
    run_traced: object = None


@dataclass
class State:
    seed: int
    groups: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def _import_carnot():
    import carnot.cli  # noqa: F401  (imports every layer)


# --- shoot-corank1 -----------------------------------------------------------


class ShootCorank1:
    name = "shoot-corank1"
    # The single-query path of the CLI and interactive callers: per-call
    # overhead in _trig and ClosedFormPath dominates, and the corank-1
    # (v = 1) shortcut acts only here. Heisenberg groups give the exact
    # answer: a planted unit covector turned less than one period is
    # minimizing, so its length is the distance; vertical-axis targets
    # have distance 2 sqrt(pi |z|).
    unit = "target"
    child_process = False
    # Planted turns stay within TURN of a period. From |turn| = 0.85 up the
    # solver at baseline can return a longer, non-global root (20 of 113
    # targets there, seeds 1-30), and a workload measures only operations
    # that succeed; 483 targets at 0.6-0.85 gave none, and neither did the
    # first 60 targets of this workload for each of seeds 1-40.
    TURN = 0.75
    PROBES = 24

    def setup(self, seed):
        _import_carnot()
        groups = _carnot("groups")
        st = State(seed, {"h1": groups.h1(), "h3": groups.hn(3)})
        _carnot("distance").distance_point(st.groups["h1"], np.zeros(3), np.array([0.5, 0.3, 0.1]))
        return st

    def rounds(self, st):
        rng = np.random.default_rng([st.seed, 1])
        shift = rng.random(2)
        for i in itertools.count():
            g = st.groups["h1" if i % 3 == 0 else "h3"]
            u = _r2(shift, i)
            length = 0.1 * 100.0 ** u[0]
            w = _unit(rng, g.h)
            sign = 1.0 if rng.random() < 0.5 else -1.0
            if i % 8 == 7:
                target = np.zeros(g.n)
                target[-1] = sign * length**2 / (4.0 * np.pi)
                yield [_point_op(g, target, length)]
            else:
                yield [_turned_point_op(g, w, self.TURN * (2.0 * u[1] - 1.0), length)]

    def probes(self, st):
        """PROBES targets with |turn| in [0.85, 0.95], where non-global roots
        show."""
        rng = np.random.default_rng(PROBE_SEED)
        ops = []
        for i in range(self.PROBES):
            g = st.groups["h1" if i % 3 == 0 else "h3"]
            turn = rng.choice([-1.0, 1.0]) * rng.uniform(0.85, 0.95)
            ops.append(_turned_point_op(g, _unit(rng, g.h), turn, 0.1 * 100.0 ** rng.random()))
        return ops


def _point_op(g, target, length):
    return Op(
        "distance_point",
        1,
        partial(lambda g, y: _carnot("distance").distance_point(g, np.zeros(g.n), y), g, target),
        partial(_check_point, g, target, length),
        lambda sol: _digest(sol.P0, np.float64(sol.T), np.float64(sol.residual)),
    )


def _turned_point_op(g, w, turn, length):
    """distance_point to the end of a planted unit covector w turned by
    ``turn`` of a period over ``length``."""
    P0 = np.concatenate([w, [turn * 2.0 * np.pi / length]])
    return _point_op(g, oracle.exp2(g.C, g.h, P0, length), length)


def _check_point(g, target, exact, sol):
    verdict = oracle.classify_length(sol.T, exact=exact)
    if verdict != "invalid" and not oracle.endpoint_ok(g.C, g.h, sol.P0, sol.T, target):
        verdict = "invalid:endpoint"
    return [verdict]


# --- shoot-corank3 -----------------------------------------------------------


class ShootCorank3:
    name = "shoot-corank3"
    # The vectorized regime: sphere-sized distance_batch calls on a corank-3
    # group, where building ClosedFormPath spectral tensors dominates and
    # the corank-1 shortcut cannot apply. Planted targets turn under half a
    # period; a planted path bounds the distance from above, the signed-area
    # bound from below, and a returned covector must reach its target.
    unit = "target"
    child_process = False
    # One round is the whole cycle of batch sizes, so the deadline cuts only
    # whole cycles and the mix of sizes is the same in every run.
    SIZES = (32, 16, 48)
    # Planted lengths are log-uniform in [LENGTHS]: below about 0.4 the
    # solver at baseline can stop unconverged (2 of about 1000 targets at
    # lengths 0.3-3, seeds 1-20, both shorter than 0.39), and a workload
    # measures only operations that succeed; the first round of this
    # workload (96 targets) for each of seeds 1-30 gave none.
    LENGTHS = (0.6, 3.0)
    PROBES = 48

    def setup(self, seed):
        _import_carnot()
        g = _carnot("groups").random_two_step(4, 3, np.random.default_rng(CORANK3_GROUP_SEED))
        st = State(seed, {"h4v3": g})
        warm = np.array([[0.5, 0.2, -0.1, 0.3, 0.05, -0.02, 0.01], [0.1, -0.4, 0.2, 0.0, 0.0, 0.03, -0.05]])
        _carnot("distance").distance_batch(g, np.zeros(g.n), warm)
        return st

    def rounds(self, st):
        g = st.groups["h4v3"]
        rng = np.random.default_rng([st.seed, 3])
        shift = rng.random(2)
        k = itertools.count()
        lo, hi = self.LENGTHS
        while True:
            ops = []
            for m in self.SIZES:
                planted = []
                for _ in range(m):
                    u = _r2(shift, next(k))
                    planted.append((lo * (hi / lo) ** u[0], 0.5 * u[1], _unit(rng, g.h), _unit(rng, g.v)))
                ops.append(_batch_op(g, planted))
            yield ops

    def probes(self, st):
        """One batch of PROBES targets at lengths 0.3-0.6, where unconverged
        shots show."""
        g = st.groups["h4v3"]
        rng = np.random.default_rng(PROBE_SEED)
        planted = [(rng.uniform(0.3, 0.6), rng.uniform(0.0, 0.5), _unit(rng, g.h), _unit(rng, g.v)) for _ in range(self.PROBES)]
        return [_batch_op(g, planted)]


def _batch_op(g, planted):
    """distance_batch to the ends of planted covectors: horizontal unit w,
    vertical direction e, turned by ``turn`` of the fastest period."""
    CH = g.C[g.h :, : g.h, : g.h]
    targets = np.empty((len(planted), g.n))
    for i, (length, turn, w, e) in enumerate(planted):
        omega = np.linalg.svd(np.einsum("a,aij->ij", e, CH), compute_uv=False)[0]
        P0 = np.concatenate([w, turn * 2.0 * np.pi / (length * omega) * e])
        targets[i] = oracle.exp2(g.C, g.h, P0, length)
    lengths = np.array([p[0] for p in planted])
    return Op(
        "distance_batch x%d" % len(planted),
        len(planted),
        partial(lambda g, ys: _carnot("distance").distance_batch(g, np.zeros(g.n), ys), g, targets),
        partial(_check_batch, g, targets, lengths),
        lambda b: _digest(b.T, b.P0, b.residual, b.converged),
    )


def _check_batch(g, targets, planted, batch):
    out = []
    for i, y in enumerate(targets):
        if not batch.converged[i]:
            out.append("unconverged")
            continue
        verdict = oracle.classify_length(batch.T[i], upper=planted[i], lower=oracle.lower_bound(g.C, g.h, y))
        if verdict != "invalid" and not oracle.endpoint_ok(g.C, g.h, batch.P0[i], batch.T[i], y):
            verdict = "invalid:endpoint"
        out.append(verdict)
    return out


# --- flow-chart --------------------------------------------------------------


def _h1_surface_gradient(x):
    return np.array([1.0, -0.4 * x[1], 0.3])


def _h2_surface_gradient(x):
    return np.array([1.0, -2.0 * x[1], 0.0, 0.0, 0.0])


def _phi(g, grad, y, t):
    """Phi(y, t) = y * exp(N(y) t) for a surface with coordinate gradient
    ``grad``, from oracle.py alone."""
    fg = oracle.frame_gradient(g.C, g.h, y, grad(y))
    N = fg / np.linalg.norm(fg[: g.h])
    return oracle.product(g.C, g.h, y, oracle.exp2(g.C, g.h, N, t))


def _h1_planted_points(g, rng, k):
    """Points Phi(y, t) off the h1 surface, with their planted normal times."""
    xs, ts = np.empty((k, 3)), rng.uniform(-0.3, 0.3, k)
    for i in range(k):
        y1, y2 = rng.uniform(-0.15, 0.15, 2)
        y = np.array([y1, y2, (0.2 * y2 * y2 - y1) / 0.3])
        xs[i] = _phi(g, _h1_surface_gradient, y, ts[i])
    return xs, ts


class FlowChart:
    name = "flow-chart"
    # The consumers that do not shoot: RK4 normal flow on a step-3 and a
    # step-2 group (frame_apply, including its step-3 branches), Jacobi
    # fields, chart construction and batched projection, which drive
    # expmap through many small finite-difference batches. Shooting changes
    # should not move it. A round makes each of the five calls once.
    unit = "call"
    child_process = False

    def probes(self, st):
        return []

    def setup(self, seed):
        _import_carnot()
        groups, surfaces, cli = _carnot("groups"), _carnot("surfaces"), _carnot("cli")
        st = State(
            seed,
            {
                "engel": groups.engel(),
                "h3": groups.hn(3),
                "h4v2": groups.random_two_step(4, 2, np.random.default_rng(H4V2_GROUP_SEED)),
                "h2": groups.hn(2),
                "h1": groups.h1(),
            },
        )
        st.extra["h2_field"] = cli._parse_surface(H2_SURFACE, 5)
        h1_field = cli._parse_surface(H1_SURFACE, 3)
        st.extra["h1_chart"] = surfaces.build_chart(st.groups["h1"], h1_field, np.zeros(3), radius=1.0, eps0=0.5)
        _carnot("geodesics").integrate_normal(st.groups["engel"], np.zeros(4), np.array([1.0, 0.0, 0.3, 0.1]), 1.0, 50)
        return st

    def rounds(self, st):
        G = st.groups
        rng = np.random.default_rng([st.seed, 4])
        shift = rng.random(2)
        for r in itertools.count():
            ops = []
            P = np.zeros((32, 4))
            P[:, :2] = [_unit(rng, 2) for _ in range(32)]
            P[:, 2:] = rng.uniform(-1.0, 1.0, (32, 2))
            ops.append(
                Op(
                    "integrate_normal engel",
                    1,
                    partial(lambda g, P: _carnot("geodesics").integrate_normal(g, np.zeros(4), P, 1.5, 1500), G["engel"], P),
                    partial(_check_engel, P, 1.5),
                    _trace_digest,
                )
            )

            T = rng.uniform(0.5, 3.0)
            P = np.zeros((32, 7))
            P[:, :6] = [_unit(rng, 6) for _ in range(32)]
            P[:, 6] = rng.uniform(-0.5, 0.5, 32) * 2.0 * np.pi / T
            ops.append(
                Op(
                    "integrate_normal h3",
                    1,
                    partial(lambda g, P, T: _carnot("geodesics").integrate_normal(g, np.zeros(7), P, T, 1500), G["h3"], P, T),
                    partial(_check_closed_form, G["h3"], P, T),
                    _trace_digest,
                )
            )

            # Three Jacobi fields of geodesic families (left translation by
            # s a, horizontal covector P0 + s W) along a planted h4v2 trace.
            g = G["h4v2"]
            P0 = np.concatenate([_unit(rng, 4), rng.uniform(-0.6, 0.6, 2)])
            trace = _carnot("geodesics").integrate_normal(g, np.zeros(6), P0, 2.0, 1000)
            a = rng.standard_normal((3, 6))
            W = np.zeros((3, 6))
            W[:, :4] = rng.standard_normal((3, 4))
            uH = np.concatenate([P0[:4], np.zeros(2)])
            J0dot = W.copy()
            J0dot[:, 4:] += np.einsum("bij,ki,j->kb", g.C[4:], a, uH)
            ops.append(
                Op(
                    "integrate_jacobi",
                    1,
                    partial(lambda g, tr, J0, J1: _carnot("variations").integrate_jacobi(g, tr, J0, J1), g, trace, a, J0dot),
                    partial(_check_jacobi, g, P0, a, W),
                    lambda f: _digest(f.components, f.meta["derivative"]),
                )
            )

            # By left invariance only b2 sets how hard the chart is to build.
            b = rng.uniform(-0.3, 0.3, 5)
            b[1] = 0.3 * (2.0 * _r2(shift, r)[0] - 1.0)
            b[0] = b[1] ** 2
            ys = b + rng.uniform(-0.15, 0.15, (4, 5))
            ys[:, 0] = ys[:, 1] ** 2
            ops.append(
                Op(
                    "build_chart",
                    1,
                    partial(lambda g, f, b: _carnot("surfaces").build_chart(g, f, b), G["h2"], st.extra["h2_field"], b),
                    partial(_check_chart, G["h2"], b, ys, rng.uniform(-0.8, 0.8, 4)),
                    lambda ch: _digest(ch.E, np.float64(ch.eps0), np.int64(ch.probe_failures)),
                )
            )

            xs, ts = _h1_planted_points(G["h1"], rng, 16)
            ops.append(
                Op(
                    "project_to_surface",
                    1,
                    partial(lambda ch, xs: _carnot("surfaces").project_to_surface(ch, xs), st.extra["h1_chart"], xs),
                    partial(_check_projection, G["h1"], _h1_surface_gradient, xs, ts),
                    lambda r: _digest(r.y, r.t, r.u),
                )
            )
            yield ops


def _trace_digest(tr):
    return _digest(tr.times, tr.xs, tr.ps)


def _close(got, want, tol):
    return bool(np.all(np.isfinite(got)) and np.max(np.abs(got - want)) <= tol * (1.0 + np.max(np.abs(want))))


def _check_engel(P, T, tr):
    x, Pend = oracle.engel_flow(P, T)
    fine = _close(tr.xs[-1], x, 1e-8) and _close(tr.ps[-1], Pend, 1e-8)
    return ["ok" if fine else "invalid:rk4-vs-engel-oracle"]


def _check_closed_form(g, P, T, tr):
    ends = tr.xs[-1]
    for k in range(P.shape[0]):
        want = oracle.exp2(g.C, g.h, P[k], T)
        if not np.max(np.abs(ends[k] - want)) <= oracle.ENDPOINT_TOL * (1.0 + np.linalg.norm(want)):
            return ["invalid:rk4-vs-closed-form"]
    return ["ok"]


def _check_jacobi(g, P0, a, W, fld):
    rows = np.linspace(0, len(fld.times) - 1, 6).astype(int)
    for k in range(a.shape[0]):
        want = oracle.variation_field(g.C, g.h, P0, a[k], W[k], fld.times[rows])
        if not _close(fld.components[rows, k], want, 1e-7):
            return ["invalid:jacobi-vs-variation"]
    return ["ok"]


def _check_projection(g, grad, xs, ts, res):
    for k, x in enumerate(xs):
        back = _phi(g, grad, res.y[k], res.t[k])
        if np.max(np.abs(back - x)) > 1e-8 * (1.0 + np.linalg.norm(x)) or abs(res.t[k] - ts[k]) > 1e-7:
            return ["invalid:round-trip"]
    return ["ok"]


def _check_chart(g, base, ys, fracs, chart):
    """The chart's tangent basis spans the tangent plane at the base, and
    planted points Phi(y, t) with |t| < eps0 project back to (y, t)."""
    normal = _h2_surface_gradient(base)
    normal /= np.linalg.norm(normal)
    E = chart.E
    if not (0.0 < chart.eps0 <= 0.5 and _close(E.T @ E, np.eye(E.shape[1]), 1e-12) and _close(E.T @ normal, 0.0, 1e-12)):
        return ["invalid:chart"]
    ts = fracs * chart.eps0
    xs = np.array([_phi(g, _h2_surface_gradient, y, t) for y, t in zip(ys, ts)])
    res = _carnot("surfaces").project_to_surface(chart, xs)
    if not _close(res.y, ys, 1e-8):
        return ["invalid:round-trip"]
    return _check_projection(g, _h2_surface_gradient, xs, ts, res)


# --- cli ---------------------------------------------------------------------


@dataclass
class CliResult:
    code: int
    stdout: bytes
    rss_kb: int = 0
    main: bytes = None  # what the command wrote to its --out file, if any


def _take_out(argv):
    """Contents of the command's --out file, which is then removed."""
    if "--out" not in argv:
        return None
    path = argv[argv.index("--out") + 1]
    with open(path, "rb") as fh:
        data = fh.read()
    os.remove(path)
    return data


def run_cli(root, argv, timeout=120.0):
    """One `carnot` process, run to completion; its peak RSS from wait4."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    p = subprocess.Popen(
        [sys.executable, "-m", "carnot.cli"] + argv,
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
    )
    timer = threading.Timer(timeout, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        p.stdout.close()
    p.returncode = os.waitstatus_to_exitcode(status)
    main = _take_out(argv) if p.returncode == 0 else None
    return CliResult(p.returncode, out, usage.ru_maxrss, main)


def run_cli_inprocess(argv):
    """The same command through carnot.cli.main, stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = _carnot("cli").main(argv)
    return CliResult(code, buf.getvalue().encode(), 0, _take_out(argv) if code == 0 else None)


def _vec(x):
    return ",".join("%.17g" % v for v in x)


class Cli:
    name = "cli"
    # The only workload that pays interpreter start and import, which is
    # most of a short command. Commands run strictly one at a time, each in
    # the output mode where it succeeds at baseline: distance and surface
    # project print one JSON document to stdout; geodesic and sphere print
    # diagnostics after their JSON, so it goes to an --out file; exp and
    # jacobi ignore --format json and print their table. Every answer but
    # sphere's is checked against oracle.py; sphere's must be one JSON
    # document of finite points.
    unit = "command"
    child_process = True

    def __init__(self, root):
        self.root = root
        self.out = os.path.join(root, ".perfbench-out", "cli-main.json")

    def setup(self, seed):
        _import_carnot()
        os.makedirs(os.path.dirname(self.out), exist_ok=True)
        st = State(seed, {"h1": _carnot("groups").h1()})
        run_cli(self.root, ["exp", "--group", "h1", "--x0", "0,0,0", "--p0", "1,0,0.5", "--T", "1"])
        return st

    def commands(self, rng, g, u):
        """One round: every command once, as (argv, check)."""
        w = _unit(rng, 2)
        length = 0.5 + 1.5 * u[0]
        P0 = np.concatenate([w, [(u[1] - 0.5) * 2.0 * np.pi / length]])
        to = oracle.exp2(g.C, g.h, P0, length)
        xs, ts = _h1_planted_points(g, rng, 1)
        x0, p0, T = rng.uniform(-1, 1, 3), np.append(_unit(rng, 2), rng.uniform(-2, 2)), rng.uniform(0.5, 2.0)
        pe = np.append(_unit(rng, 2), rng.uniform(-1, 1, 2))
        pj, a, W = np.append(_unit(rng, 2), rng.uniform(-2, 2)), rng.standard_normal(3), np.append(rng.standard_normal(2), 0.0)
        ydot0 = W + np.append(np.zeros(2), np.einsum("bij,i,j->b", g.C[2:], a, np.append(pj[:2], 0.0)))
        js = ["--format", "json"]
        out = ["--out", self.out]
        return [
            (["distance", "--group", "h1", "--from", "0,0,0", "--to=" + _vec(to)] + js, partial(_check_cli_distance, length)),
            (["exp", "--group", "h1", "--x0=" + _vec(x0), "--p0=" + _vec(p0), "--T", "%.17g" % T], partial(_check_cli_exp, g, x0, p0, T)),
            (["geodesic", "--group", "engel", "--x0", "0,0,0,0", "--p0=" + _vec(pe), "--T", "1", "--steps", "500"] + js + out, partial(_check_cli_geodesic, pe)),
            (["sphere", "--group", "h1", "--center=" + _vec(rng.uniform(-1, 1, 3)), "--radius", "%.17g" % (2.0 - 1.5 * u[0]), "--n-dirs", "8", "--n-vert", "5"] + js + out, _check_cli_sphere),
            (["surface", "project", "--group", "h1", "--f", H1_SURFACE, "--at=" + _vec(xs[0])] + js, partial(_check_cli_project, g, xs, ts)),
            (["jacobi", "--group", "h1", "--x0", "0,0,0", "--p0=" + _vec(pj), "--y0=" + _vec(a), "--ydot0=" + _vec(ydot0), "--T", "1", "--steps", "200"], partial(_check_cli_jacobi, g, pj, a, W)),
        ]

    def probes(self, st):
        """Every command once with --format json to stdout, where exp and
        jacobi print a table and geodesic and sphere text after the JSON."""
        ops = []
        for argv, _ in self.commands(np.random.default_rng(PROBE_SEED), st.groups["h1"], (0.5, 0.5)):
            if "--out" in argv:
                argv = argv[: argv.index("--out")]
            if "--format" not in argv:
                argv = argv + ["--format", "json"]
            ops.append(Op(argv[0], 1, partial(run_cli_inprocess, argv), partial(_check_cli, _check_json), lambda r: _digest(r.stdout)))
        return ops

    def rounds(self, st):
        rng = np.random.default_rng([st.seed, 5])
        shift = rng.random(2)
        for r in itertools.count():
            ops = []
            for argv, check in self.commands(rng, st.groups["h1"], _r2(shift, r)):
                ops.append(
                    Op(
                        " ".join(argv[:2]) if argv[0] == "surface" else argv[0],
                        1,
                        partial(run_cli, self.root, argv),
                        partial(_check_cli, check),
                        lambda r: _digest(np.int64(r.code), r.stdout, r.main or b""),
                        partial(run_cli_inprocess, argv),
                    )
                )
            yield ops


def _check_cli(check, res):
    """Exit code 0, then the command's own check of its main output."""
    if res.code == 1 or res.code < 0:
        return ["invalid:exit%d" % res.code]
    if res.code != 0:
        return ["raised:exit%d" % res.code]
    return [check(res)]


def _check_json(res):
    return "ok" if oracle.one_json_document(res.stdout.decode()) else "json"


def _json(text):
    return json.loads(text) if oracle.one_json_document(text) else None


def _table(text, width):
    """Rows of a numeric table under a header line, or None."""
    try:
        rows = np.array([[float(v) for v in line.split()] for line in text.splitlines()[1:]])
    except ValueError:
        return None
    return rows if rows.ndim == 2 and rows.shape[1] == width and np.all(np.isfinite(rows)) else None


def _check_cli_distance(length, res):
    doc = _json(res.stdout.decode())
    if doc is None:
        return "json"
    return oracle.classify_length(doc["distance"], exact=length)


def _check_cli_exp(g, x0, p0, T, res):
    rows = _table(res.stdout.decode(), 1 + 2 * g.n)
    if rows is None:
        return "invalid:table"
    want = oracle.product(g.C, g.h, x0, oracle.exp2(g.C, g.h, p0, T))
    return "ok" if abs(rows[-1, 0] - T) <= 1e-11 * T and _close(rows[-1, 1 : 1 + g.n], want, 1e-9) else "invalid:exp-vs-closed-form"


def _check_cli_geodesic(p0, res):
    doc = _json(res.main.decode())
    if doc is None:
        return "json"
    x, _ = oracle.engel_flow(p0[None], 1.0)
    return "ok" if _close(np.array(doc["x"][-1]), x[0], 1e-8) else "invalid:rk4-vs-engel-oracle"


def _check_cli_sphere(res):
    doc = _json(res.main.decode())
    if doc is None:
        return "json"
    points = np.array(doc["points"], dtype=float)
    return "ok" if points.ndim == 2 and len(points) > 0 and np.all(np.isfinite(points)) else "invalid:sphere"


def _check_cli_project(g, xs, ts, res):
    doc = _json(res.stdout.decode())
    if doc is None:
        return "json"
    got = SimpleNamespace(y=np.array([doc["y"]]), t=np.array([doc["t"]]))
    return _check_projection(g, _h1_surface_gradient, xs, ts, got)[0]


def _check_cli_jacobi(g, p0, a, W, res):
    rows = _table(res.stdout.decode(), 1 + 2 * g.n)
    if rows is None:
        return "invalid:table"
    want = oracle.variation_field(g.C, g.h, p0, a, W, rows[[0, -1], 0])
    return "ok" if _close(rows[[0, -1], 1 : 1 + g.n], want, 1e-7) else "invalid:jacobi-vs-variation"


def workloads(root):
    return {w.name: w for w in (ShootCorank1(), ShootCorank3(), FlowChart(), Cli(root))}
