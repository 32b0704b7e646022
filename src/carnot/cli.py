"""Batch command line: groups in, traces / point clouds / reports out.

One process runs one command against one group; outputs are plain text
(header + numeric rows for traces and point clouds, key: value lines for
reports) or JSON, written to --out or stdout; diagnostic lines go to
stderr, so stdout carries only the requested output. Exit codes: 0 success, 2
configuration problems, 3 violated mathematical preconditions (wrong step,
characteristic points, off-surface queries), 4 solver non-convergence.
Every command is deterministic for a fixed argument list and seed.
"""

import argparse
import contextlib
import json
import os
import re
import sys

import numpy as np

from .distance import (
    MAX_ITER,
    conjugate_detect,
    distance_point,
    gauss_system_integrate,
    sphere_sample,
)
from .errors import CarnotError, NoConvergence, NonFiniteState
from .geodesics import GeodesicTrace, _closed_form, integrate_normal, integrate_stepwise
from .groups import engel, h1, hn, load_group
from .surfaces import (
    build_chart,
    delta_H,
    grad_delta_H,
    metric_normal,
    phi_map,
    polynomial_field,
    project_to_surface,
    surface_normals,
)
from .variations import integrate_jacobi

BUILTIN_GROUPS = {
    "h1": h1,
    "h2": lambda: hn(2),
    "h3": lambda: hn(3),
    "engel": engel,
}

class ConfigError(Exception):
    pass


@contextlib.contextmanager
def _rejected_input():
    """A ValueError from the library means the arguments were bad: exit 2."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _resolve_group(ref):
    if ref in BUILTIN_GROUPS:
        return BUILTIN_GROUPS[ref]()
    if os.path.exists(ref):
        with _rejected_input():
            return load_group(ref)
    raise ConfigError(
        "unknown group %r; built-ins: %s, or pass a group file path"
        % (ref, ", ".join(sorted(BUILTIN_GROUPS)))
    )


def _parse_vector(text, n, what):
    try:
        vals = np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise ConfigError("could not parse %s %r" % (what, text))
    if vals.size != n:
        raise ConfigError(
            "%s needs %d comma-separated numbers, got %d" % (what, n, vals.size)
        )
    if not np.isfinite(vals).all():
        raise ConfigError("%s needs finite numbers, got %r" % (what, text))
    return vals


def _finite(text):
    """argparse type of the float options: nan and inf exit with code 2."""
    try:
        val = float(text)
    except ValueError:
        val = np.nan
    if not np.isfinite(val):
        raise argparse.ArgumentTypeError("expected a finite number, got %r" % text)
    return val


_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def _parse_surface(expr, n):
    """Polynomial in x1..xn, monomials of degree <= 3; e.g. x1-0.5*x2*x3."""
    text = expr.replace(" ", "")
    if not text:
        raise ConfigError("empty surface expression")
    # split into signed terms; +/- inside exponents like 1e-3 stay put
    terms_text = []
    start = 0
    for i, ch in enumerate(text):
        if ch in "+-" and i > start and text[i - 1] not in "eE*^+-":
            terms_text.append(text[start:i])
            start = i
    terms_text.append(text[start:])

    terms = []
    for term in terms_text:
        coeff = 1.0
        if term.startswith("+"):
            term = term[1:]
        elif term.startswith("-"):
            coeff = -1.0
            term = term[1:]
        if not term:
            raise ConfigError("dangling sign in surface expression")
        exps = [0] * n
        for factor in term.split("*"):
            m = _FACTOR.match(factor)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= n:
                    raise ConfigError(
                        "coordinate x%d out of range for n=%d" % (idx, n)
                    )
                exps[idx - 1] += int(m.group(2) or 1)
            else:
                try:
                    coeff *= float(factor)
                except ValueError:
                    raise ConfigError("bad factor %r in surface" % factor)
        terms.append((coeff, tuple(exps)))
    try:
        return polynomial_field(n, terms, name=expr)
    except ValueError as e:
        raise ConfigError(str(e))


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report(pairs, fmt, out=None):
    if fmt == "json":
        text = json.dumps(dict(pairs), indent=2, default=_jsonable) + "\n"
    else:
        lines = []
        for key, val in pairs:
            if isinstance(val, bool):
                lines.append("%s: %s" % (key, str(val).lower()))
            elif isinstance(val, float):
                lines.append("%s: %.12g" % (key, val))
            elif isinstance(val, np.ndarray):
                lines.append("%s: %s" % (key, ",".join("%.12g" % w for w in val)))
            else:
                lines.append("%s: %s" % (key, val))
        text = "\n".join(lines) + "\n"
    _emit(text, out)


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    raise TypeError(str(type(obj)))


def _emit_trace(trace, args):
    if not (np.all(np.isfinite(trace.xs)) and np.all(np.isfinite(trace.ps))):
        raise NonFiniteState("the trace has non-finite samples")
    _emit(
        trace.as_json() + "\n" if args.format == "json" else trace.as_table(),
        args.out,
    )


def cmd_geodesic(args):
    group = _resolve_group(args.group)
    x0 = _parse_vector(args.x0, group.n, "--x0")
    P0 = _parse_vector(args.p0, group.n, "--p0")
    if args.T <= 0.0 or args.steps < 1:
        raise ConfigError("need T > 0 and steps >= 1")
    if np.linalg.norm(P0[: group.h]) == 0.0:
        print("warning: zero horizontal momentum: constant curve", file=sys.stderr)
    if args.integrator == "stepwise":
        trace = integrate_stepwise(group, x0, P0, args.T, args.steps)
    else:
        trace = integrate_normal(group, x0, P0, args.T, args.steps)
    _emit_trace(trace, args)
    for key in (
        "energy_drift_per_unit_time",
        "ph_norm_drift_per_unit_time",
        "top_layer_drift",
    ):
        print("%s: %.6e" % (key, trace.meta[key]), file=sys.stderr)
    return 0


def cmd_exp(args):
    group = _resolve_group(args.group)
    x0 = _parse_vector(args.x0, group.n, "--x0")
    P0 = _parse_vector(args.p0, group.n, "--p0")
    if args.T <= 0.0 or args.samples < 2:
        raise ConfigError("need T > 0 and samples >= 2")
    times = np.linspace(0.0, args.T, args.samples)
    xs, ps = _closed_form(group, x0, P0, times)
    meta = {"group": group.name, "method": "closed-form"}
    _emit_trace(GeodesicTrace(times, xs, ps, meta, group=group), args)
    return 0


def cmd_distance(args):
    group = _resolve_group(args.group)
    x = _parse_vector(args.from_, group.n, "--from")
    y = _parse_vector(args.to, group.n, "--to")
    with _rejected_input():
        sol = distance_point(
            group, x, y, starts=args.starts, max_iter=args.max_iter
        )
    _report(
        [
            ("distance", sol.T),
            ("residual", sol.residual),
            ("multiplicity", bool(sol.multiplicity)),
            ("on_axis", bool(sol.on_axis)),
            ("P0", sol.P0),
        ],
        args.format,
        args.out,
    )
    return 0


def cmd_sphere(args):
    group = _resolve_group(args.group)
    x0 = _parse_vector(args.center, group.n, "--center")
    with _rejected_input():
        sample = sphere_sample(
            group,
            x0,
            args.radius,
            n_dirs=args.n_dirs,
            n_vert=args.n_vert,
            starts=args.starts,
            seed=args.seed,
        )
    if args.format == "json":
        blob = {
            "r": sample.r,
            "points": sample.points,
            "nu_H": sample.nu_H,
            "varpi": sample.varpi,
            "arrival_H": sample.arrival_H,
            "distances": sample.distances,
            "regular": sample.regular,
            "swept": sample.swept,
        }
        _emit(json.dumps(blob, indent=2, default=_jsonable) + "\n", args.out)
    else:
        _emit(sample.as_table(), args.out)
    print(
        "retained: %d of %d swept; regular: %d"
        % (len(sample), sample.swept, int(sample.regular.sum())),
        file=sys.stderr,
    )
    return 0


def cmd_conjugate(args):
    group = _resolve_group(args.group)
    x0 = _parse_vector(args.x0, group.n, "--x0")
    P0 = _parse_vector(args.p0, group.n, "--p0")
    with _rejected_input():
        found = conjugate_detect(group, x0, P0, args.t_max, samples=args.samples)
    _report(
        [
            ("count", len(found)),
            ("times", np.asarray(found)),
        ],
        args.format,
        args.out,
    )
    return 0


def cmd_jacobi(args):
    group = _resolve_group(args.group)
    x0 = _parse_vector(args.x0, group.n, "--x0")
    P0 = _parse_vector(args.p0, group.n, "--p0")
    Y0 = _parse_vector(args.y0, group.n, "--y0")
    Z0 = _parse_vector(args.ydot0, group.n, "--ydot0")
    if args.T <= 0.0 or args.steps < 2:
        raise ConfigError("need T > 0 and steps >= 2")
    trace = integrate_normal(group, x0, P0, args.T, args.steps)
    fld = integrate_jacobi(group, trace, Y0, Z0)
    Z = fld.meta["derivative"]
    if args.format == "json":
        blob = {"times": fld.times, "Y": fld.components, "dY": Z}
        _emit(json.dumps(blob, indent=2, default=_jsonable) + "\n", args.out)
        return 0
    cols = (
        ["t"]
        + ["Y%d" % (i + 1) for i in range(group.n)]
        + ["dY%d" % (i + 1) for i in range(group.n)]
    )
    rows = [" ".join(cols)]
    for t, y, z in zip(fld.times, fld.components, Z):
        rows.append(
            " ".join("%.12e" % w for w in np.concatenate([[t], y, z]))
        )
    _emit("\n".join(rows) + "\n", args.out)
    return 0


def cmd_orthogonality(args):
    group = _resolve_group(args.group)
    x0 = _parse_vector(args.x0, group.n, "--x0")
    nu = _parse_vector(args.nu, group.h, "--nu")
    vp = _parse_vector(args.varpi, group.v, "--varpi")
    if args.r <= 0.0 or args.steps < 1:
        raise ConfigError("need r > 0 and steps >= 1")
    trace = gauss_system_integrate(group, x0, nu, vp, args.r, steps=args.steps)
    _emit_trace(trace, args)
    return 0


def _surface_setup(args):
    group = _resolve_group(args.group)
    return group, _parse_surface(args.f, group.n)


def _chart_for(args, group, field, x):
    if args.base is not None:
        base = _parse_vector(args.base, group.n, "--base")
    else:
        from .surfaces import _project_batch

        base = _project_batch(field, x[None, :])[0]
    with _rejected_input():
        return build_chart(group, field, base, radius=args.radius, eps0=args.eps0)


def cmd_surface_normals(args):
    group, field = _surface_setup(args)
    x = _parse_vector(args.at, group.n, "--at")
    data = surface_normals(group, field, x)
    if data.characteristic:
        _report(
            [("characteristic", True), ("nu", data.nu)],
            args.format,
            args.out,
        )
        print("characteristic point: no horizontal normal", file=sys.stderr)
        return 0
    _report(
        [
            ("characteristic", False),
            ("nu", data.nu),
            ("nu_H", data.nuH),
            ("varpi", data.varpi),
            ("horizontal_fraction", data.horizontal_fraction),
        ],
        args.format,
        args.out,
    )
    return 0


def cmd_surface_metric_normal(args):
    group, field = _surface_setup(args)
    y = _parse_vector(args.at, group.n, "--at")
    if args.samples < 2:
        raise ConfigError("need samples >= 2")
    trace = metric_normal(
        group, field, y, (args.t_min, args.t_max), args.samples, args.sign
    )
    _emit_trace(trace, args)
    return 0


def cmd_surface_project(args):
    group, field = _surface_setup(args)
    x = _parse_vector(args.at, group.n, "--at")
    chart = _chart_for(args, group, field, x)
    res = project_to_surface(chart, x)
    back = phi_map(chart, res.y, res.t)
    _report(
        [
            ("y", res.y),
            ("t", res.t),
            ("residual", res.residual),
            ("round_trip_error", float(np.max(np.abs(back - x)))),
            ("eps0", chart.eps0),
        ],
        args.format,
        args.out,
    )
    return 0


def cmd_surface_delta(args):
    group, field = _surface_setup(args)
    x = _parse_vector(args.at, group.n, "--at")
    chart = _chart_for(args, group, field, x)
    d = delta_H(chart, x)
    grad = grad_delta_H(chart, x)
    _report(
        [
            ("delta_H", float(d)),
            ("grad_delta_H", grad),
            ("grad_H_norm", float(np.linalg.norm(grad[: group.h]))),
            ("eps0", chart.eps0),
        ],
        args.format,
        args.out,
    )
    return 0


def _add_common(p):
    p.add_argument("--group", required=True, help="built-in name or file path")
    p.add_argument("--out", help="write the main output to this file")
    p.add_argument(
        "--format", choices=("table", "json"), default="table"
    )


def _build_parser():
    p = argparse.ArgumentParser(
        prog="carnot",
        description="sub-Riemannian geodesics, distances, and surfaces "
        "on Carnot groups",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geodesic", help="integrate the normal system")
    _add_common(g)
    g.add_argument("--x0", required=True)
    g.add_argument("--p0", required=True)
    g.add_argument("--T", type=_finite, required=True)
    g.add_argument("--steps", type=int, default=2000)
    g.add_argument(
        "--integrator", choices=("normal", "stepwise"), default="normal"
    )
    g.set_defaults(func=cmd_geodesic)

    e = sub.add_parser("exp", help="closed-form exponential trace (2-step)")
    _add_common(e)
    e.add_argument("--x0", required=True)
    e.add_argument("--p0", required=True)
    e.add_argument("--T", type=_finite, required=True)
    e.add_argument("--samples", type=int, default=101)
    e.set_defaults(func=cmd_exp)

    d = sub.add_parser("distance", help="CC-distance by shooting (2-step)")
    _add_common(d)
    d.add_argument("--from", dest="from_", required=True)
    d.add_argument("--to", required=True)
    d.add_argument("--starts", type=int, default=16)
    d.add_argument("--max-iter", type=int, default=MAX_ITER)
    d.set_defaults(func=cmd_distance)

    s = sub.add_parser("sphere", help="sample a CC-sphere point cloud")
    _add_common(s)
    s.add_argument("--center", required=True)
    s.add_argument("--radius", type=_finite, required=True)
    s.add_argument("--n-dirs", type=int, default=24)
    s.add_argument("--n-vert", type=int, default=9)
    s.add_argument("--starts", type=int, default=12)
    s.add_argument("--seed", type=int, default=1234)
    s.set_defaults(func=cmd_sphere)

    c = sub.add_parser("conjugate", help="conjugate times along a geodesic")
    _add_common(c)
    c.add_argument("--x0", required=True)
    c.add_argument("--p0", required=True)
    c.add_argument("--t-max", type=_finite, required=True)
    c.add_argument("--samples", type=int, default=400)
    c.set_defaults(func=cmd_conjugate)

    j = sub.add_parser("jacobi", help="integrate a Jacobi field")
    _add_common(j)
    j.add_argument("--x0", required=True)
    j.add_argument("--p0", required=True)
    j.add_argument("--y0", required=True)
    j.add_argument("--ydot0", required=True)
    j.add_argument("--T", type=_finite, default=1.0)
    j.add_argument("--steps", type=int, default=1000)
    j.set_defaults(func=cmd_jacobi)

    o = sub.add_parser(
        "orthogonality", help="integrate the (x, nu_H, varpi) system"
    )
    _add_common(o)
    o.add_argument("--x0", required=True)
    o.add_argument("--nu", required=True)
    o.add_argument("--varpi", required=True)
    o.add_argument("--r", type=_finite, required=True)
    o.add_argument("--steps", type=int, default=2000)
    o.set_defaults(func=cmd_orthogonality)

    srf = sub.add_parser("surface", help="implicit hypersurface geometry")
    ssub = srf.add_subparsers(dest="surface_command", required=True)

    sn = ssub.add_parser("normals", help="normal data at a point")
    _add_common(sn)
    sn.add_argument("--f", required=True, help="polynomial, e.g. x1-0.5*x2*x3")
    sn.add_argument("--at", required=True)
    sn.set_defaults(func=cmd_surface_normals)

    sm = ssub.add_parser("metric-normal", help="normal geodesic trace")
    _add_common(sm)
    sm.add_argument("--f", required=True)
    sm.add_argument("--at", required=True)
    sm.add_argument("--t-min", type=_finite, default=-1.0)
    sm.add_argument("--t-max", type=_finite, default=1.0)
    sm.add_argument("--samples", type=int, default=201)
    sm.add_argument("--sign", type=int, choices=(-1, 1), default=1)
    sm.set_defaults(func=cmd_surface_metric_normal)

    for name, fn in (
        ("project", cmd_surface_project),
        ("delta", cmd_surface_delta),
    ):
        sp = ssub.add_parser(
            name,
            help="nearest surface point" if name == "project" else "delta_H",
        )
        _add_common(sp)
        sp.add_argument("--f", required=True)
        sp.add_argument("--at", required=True)
        sp.add_argument("--base", help="chart base point; default: projection")
        sp.add_argument("--radius", type=_finite, default=1.0)
        sp.add_argument("--eps0", type=_finite, default=1.0)
        sp.set_defaults(func=fn)

    return p


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except NoConvergence as e:
        print("NoConvergence: %s" % e, file=sys.stderr)
        return 4
    except CarnotError as e:
        print("%s: %s" % (type(e).__name__, e), file=sys.stderr)
        return 3
    except OSError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
