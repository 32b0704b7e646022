"""Implicit hypersurfaces in 2-step groups and the tubular distance chart.

A surface S = {f = 0} is described by a scalar evaluator; all geometry runs
through the frame gradient g = L(x)^T grad f, whose horizontal part encodes
everything: the horizontal unit normal nu_H = g_H / |g_H|, the rescaled
vertical remainder varpi = g_V / |g_H|, and the characteristic set where
|g_H| degenerates relative to |g|. The covector N = (nu_H, varpi) has unit
horizontal norm, so it is directly a shooting covector: the metric normal
through a non-characteristic surface point is the normal geodesic with that
initial momentum, and the map Phi(y, t) = exp(y, N(y))(t) is a local
diffeomorphism onto a two-sided tube around the patch. Inverting Phi by
Newton gives the nearest surface point and the signed normal time t, whose
absolute value is the horizontal distance delta_H to the surface; the
gradient of delta_H needs no differencing at all, it is the transported
normal (e^{-C_H(varpi) t} nu_H, varpi) up to the sign of t.

The chart half-width is found by probing: forward-map a grid of
(surface parameter, t) pairs and require the Newton inversion, started the
same way ordinary queries start, to come back to the generating parameters;
the width is halved until the probe passes; the probe is what certifies
that the chart inverts. The Jacobian determinant of Phi at t = 0 has the
closed form |g_H| / |grad f| when the surface is parameterized by a
Euclidean-orthonormal tangent basis such as the chart's E (the determinant
contracts the geodesic velocity against the tangent cofactor, and only the
horizontal momentum of the normal survives). The tests check this identity
at chart bases against central differences of ``surface_point`` and
``phi_map``.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    Characteristic,
    NoConvergence,
    NonFiniteState,
    NotOnSurface,
    OutsideChart,
    ZeroGradient,
)
from .expmap import exp_sr_2step, require_step2
from .geodesics import GeodesicTrace, _closed_form
from .groups import CarnotGroup, _tangent_basis, frame_apply, left_frame

__all__ = [
    "HypersurfaceField",
    "SurfaceNormalData",
    "TubularChart",
    "ProjectionResult",
    "polynomial_field",
    "frame_gradient",
    "surface_normals",
    "metric_normal",
    "build_chart",
    "phi_map",
    "project_to_surface",
    "delta_H",
    "grad_delta_H",
]

CHARACTERISTIC_REL = 1e-10
ON_SURFACE_TOL = 1e-9
PROBE = 5  # points per axis of the chart's (u, t) probe grid
PROJECT_TOL = 1e-13  # |f| relative to 1 + |y| at which projection stops
INVERT_TOL = 1e-12  # |Phi(u, t) - x| relative to 1 + |x| at which inversion stops
NEWTON_ITER = 60  # iteration cap of both Newton solves
_NO_NORMAL = "no horizontal normal at a characteristic point"


@dataclass
class HypersurfaceField:
    """Scalar surface function with its analytic coordinate gradient.

    Both evaluators must accept stacked points of shape (..., n) and
    broadcast.
    """

    f: callable
    grad: callable
    name: str = ""

    def value(self, x):
        return np.asarray(self.f(np.asarray(x, dtype=float)), dtype=float)

    def coordinate_gradient(self, x):
        x = np.asarray(x, dtype=float)
        g = np.asarray(self.grad(x), dtype=float)
        return np.broadcast_to(g, x.shape).copy()


def polynomial_field(n, terms, name=""):
    """Polynomial surface sum(c * prod x_i^e_i), monomial degree <= 3.

    terms: iterable of (coefficient, exponent tuple of length n).
    """
    terms = [(float(c), tuple(int(e) for e in exps)) for c, exps in terms]
    for c, exps in terms:
        if len(exps) != n:
            raise ValueError("exponent tuple length must equal n")
        if min(exps) < 0 or sum(exps) > 3:
            raise ValueError("monomials limited to degree <= 3")

    def f(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        for c, exps in terms:
            term = np.full(x.shape[:-1], c)
            for i, e in enumerate(exps):
                if e:
                    term = term * x[..., i] ** e
            out = out + term
        return out

    def grad(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape)
        for c, exps in terms:
            for j, ej in enumerate(exps):
                if not ej:
                    continue
                term = np.full(x.shape[:-1], c * ej)
                for i, e in enumerate(exps):
                    p = e - 1 if i == j else e
                    if p:
                        term = term * x[..., i] ** p
                out[..., j] += term
        return out

    return HypersurfaceField(f=f, grad=grad, name=name)


def frame_gradient(group, field, x):
    """Frame components (X_1 f, ..., X_n f) = L(x)^T grad f(x), batched."""
    x = group.point(np.asarray(x, dtype=float))
    gradf = field.coordinate_gradient(x)
    return np.einsum("...ji,...j->...i", left_frame(group, x), gradf)


@dataclass
class SurfaceNormalData:
    """Normal package at one surface point, frame components throughout.

    nu is the unit normal oriented along grad f. At characteristic points
    the horizontal data does not exist: nuH and varpi stay None and the
    combined covector property raises instead of guessing.
    """

    nu: np.ndarray
    nuH: np.ndarray
    varpi: np.ndarray
    characteristic: bool
    horizontal_fraction: float

    @property
    def N(self):
        if self.characteristic:
            raise Characteristic(_NO_NORMAL)
        return np.concatenate([self.nuH, self.varpi])


def _normal_split(group, g):
    """Batched (nu, N, char mask, |g_H| / |g|) from frame gradients g, with
    N = g / |g_H| = (nu_H, varpi) (g itself at characteristic points)."""
    gn = np.linalg.norm(g, axis=-1)
    if np.any(gn == 0.0):
        raise ZeroGradient("surface gradient vanishes at a queried point")
    ghn = np.linalg.norm(g[..., : group.h], axis=-1)
    char = ghn < CHARACTERISTIC_REL * gn
    N = g / np.where(char, 1.0, ghn)[..., None]
    return g / gn[..., None], N, char, ghn / gn


def _normal_covector(group, field, ys, message=_NO_NORMAL):
    """N = (nu_H, varpi) at the points ys, batched; Characteristic with
    ``message`` if one of them is characteristic."""
    _, N, char, _ = _normal_split(group, frame_gradient(group, field, ys))
    if np.any(char):
        raise Characteristic(message)
    return N


def _check_finite(x, what):
    if not np.all(np.isfinite(x)):
        raise NonFiniteState("%s must be finite" % what)


def surface_normals(group, field, x):
    """Normal data of {f=0} at x; the characteristic case is a flag.

    x need not lie on the surface: the construction only uses f's gradient,
    so it applies to every level set through x. A non-finite x raises
    NonFiniteState.
    """
    require_step2(group, "surface normals")
    _check_finite(x, "the point")
    g = frame_gradient(group, field, x)
    if g.ndim != 1:
        raise ValueError("surface_normals takes a single point")
    nu, N, char, frac = _normal_split(group, g)
    if char:
        return SurfaceNormalData(nu, None, None, True, float(frac))
    return SurfaceNormalData(nu, N[: group.h], N[group.h :], False, float(frac))


def _check_on_surface(field, y):
    _check_finite(y, "the surface point")
    val = np.abs(field.value(y))
    scale = 1.0 + np.linalg.norm(np.asarray(y, dtype=float), axis=-1)
    if np.any(val > ON_SURFACE_TOL * scale):
        raise NotOnSurface(
            "point misses the surface by %.3e" % float(np.max(val))
        )


def metric_normal(group, field, y, t_range=(-1.0, 1.0), samples=201, sign=1):
    """The metric normal geodesic through surface point y as a trace.

    The momentum is sign * N(y); both orientations trace the same set. With
    varpi = 0 the curve is the straight one-parameter subgroup line. A
    non-finite y or end of t_range, or a trace that leaves the floats,
    raises NonFiniteState.
    """
    require_step2(group, "metric normal")
    y = group.point(np.asarray(y, dtype=float))
    _check_on_surface(field, y)
    t0, t1 = float(t_range[0]), float(t_range[1])
    _check_finite((t0, t1), "t_range")
    N = _normal_covector(group, field, y)
    times = np.linspace(t0, t1, int(samples))
    xs, ps = _closed_form(group, y, float(sign) * N, times)
    meta = {
        "group": group.name,
        "method": "closed-form-metric-normal",
        "surface": field.name,
        "varpi_norm": float(np.linalg.norm(N[group.h :])),
    }
    return GeodesicTrace(times, xs, ps, meta, group=group)


def _project_batch(field, p):
    """Newton projection of points p onto {f=0} along the gradient.

    Each row stops at its own tolerance, so its bits do not depend on the
    other rows of the batch.
    """
    p = np.asarray(p, dtype=float)
    y = p.reshape(-1, p.shape[-1]).copy()
    scale = 1.0 + np.linalg.norm(y, axis=-1)
    act = np.arange(y.shape[0])
    for _ in range(NEWTON_ITER):
        ya = y[act]
        val = field.value(ya)
        done = np.abs(val) <= PROJECT_TOL * scale[act]
        if done.all():
            return y.reshape(p.shape)
        act, ya, val = act[~done], ya[~done], val[~done]
        g = field.coordinate_gradient(ya)
        gn2 = np.einsum("...i,...i->...", g, g)
        if np.any(gn2 == 0.0):
            raise ZeroGradient("surface gradient vanishes during projection")
        y[act] = ya - (val / gn2)[..., None] * g
    raise NoConvergence(
        "surface projection stalled at |f| = %.3e" % float(np.max(np.abs(val)))
    )


@dataclass
class TubularChart:
    """Immutable two-sided tube chart around a non-characteristic patch.

    Surface parameters u live in the tangent basis E at the base point
    (|u| <= radius); normal times t in (-eps0, eps0). Queries are pure
    functions of their point: ``surface_point`` projects each row to its own
    tolerance, and ``project_to_surface`` inverts each row on its own, so a
    row's bits do not depend on the rest of its batch.
    """

    group: CarnotGroup
    field: HypersurfaceField
    base: np.ndarray
    E: np.ndarray
    radius: float
    eps0: float
    probe_failures: int = 0

    def surface_point(self, u):
        u = np.asarray(u, dtype=float)
        return _project_batch(self.field, self.base + u @ self.E.T)


def _chart_forward(chart, U, T):
    """Batched Phi(u, t) and its exact t-derivative, the geodesic velocity."""
    group = chart.group
    ys = chart.surface_point(U)
    msg = "patch touches the characteristic set; shrink the radius"
    N = _normal_covector(group, chart.field, ys, msg)
    x, P = exp_sr_2step(group, ys, N, np.asarray(T, dtype=float), return_momentum=True)
    P[..., group.h :] = 0.0
    return x, frame_apply(group, x, P)


def _invert_batch(chart, xs, u0, t0):
    """Damped Newton on Phi(u, t) = x for a batch of targets.

    Returns (u, t, residual, converged). The Jacobian's u-columns are
    forward finite differences with steps scaled by the parameter
    magnitudes; its t-column is the exact geodesic velocity. An accepted
    candidate's endpoint and velocity are the next iteration's base, and
    the damping is plain backtracking on the residual norm.
    """
    m, n = xs.shape
    d = n - 1
    u = np.array(u0, dtype=float)
    t = np.array(t0, dtype=float)
    scale = INVERT_TOL * (1.0 + np.linalg.norm(xs, axis=1))

    pts, vel = _chart_forward(chart, u, t)
    fn = np.linalg.norm(pts - xs, axis=1)
    conv = fn <= scale
    stalled = np.zeros(m, dtype=bool)

    for _ in range(NEWTON_ITER):
        act = ~conv & ~stalled
        if not act.any():
            break
        idx = np.nonzero(act)[0]
        ua, ta, fa, base = u[idx], t[idx], fn[idx], pts[idx]
        ka = idx.size

        hu = 1e-6 * (1.0 + np.abs(ua))
        Up = np.broadcast_to(ua, (d, ka, d)).copy()
        for j in range(d):
            Up[j, :, j] += hu[:, j]
        ptsP, _ = _chart_forward(chart, Up.reshape(-1, d), np.tile(ta, d))
        J = np.empty((ka, n, n))
        dU = (ptsP.reshape(d, ka, n) - base) / hu.T[:, :, None]
        J[:, :, :d] = np.moveaxis(dU, 0, 2)
        J[:, :, d] = vel[idx]

        delta = -np.linalg.solve(J, (base - xs[idx])[..., None])[..., 0]
        improved = np.zeros(ka, dtype=bool)
        step = np.ones(ka)
        sc = scale[idx]
        for _ in range(8):
            rem = np.nonzero(~improved)[0]
            if not rem.size:
                break
            uc = ua[rem] + step[rem, None] * delta[rem, :d]
            tc = ta[rem] + step[rem] * delta[rem, d]
            ptsC, velC = _chart_forward(chart, uc, tc)
            fc = np.linalg.norm(ptsC - xs[idx[rem]], axis=1)
            ok = np.isfinite(fc) & ((fc < fa[rem]) | (fc <= sc[rem]))
            k = idx[rem[ok]]
            u[k], t[k], fn[k] = uc[ok], tc[ok], fc[ok]
            pts[k], vel[k] = ptsC[ok], velC[ok]
            improved[rem[ok]] = True
            step[rem[~ok]] *= 0.5
        stalled[idx[~improved]] = True
        conv[idx] = fn[idx] <= scale[idx]

    return u, t, fn, conv


def build_chart(group, field, base, radius=0.5, eps0=0.5):
    """Construct the tubular chart around a surface base point.

    The half-width starts at eps0 and is halved until a probe grid of
    forward-mapped (u, t) pairs inverts back to its own parameters from the
    standard starting guess; that is exactly the property later queries
    rely on. Probing also certifies the patch stays clear of the
    characteristic set. Below eps0 2^-12 it gives up with NoConvergence.
    Raises ValueError unless radius and eps0 are finite and positive, and
    NonFiniteState for a non-finite base.
    """
    require_step2(group, "tubular chart")
    for name, value in (("radius", radius), ("eps0", eps0)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError("%s must be finite and positive, got %r" % (name, value))
    base = group.point(np.asarray(base, dtype=float))
    _check_on_surface(field, base)
    _normal_covector(group, field, base, "chart base point is characteristic")

    gradf = field.coordinate_gradient(base)
    E = _tangent_basis((gradf / np.linalg.norm(gradf))[None])[0]
    n = group.n
    d = n - 1

    if PROBE**d <= 4096:
        axes = [np.linspace(-radius, radius, PROBE)] * d
        U = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    else:
        rng = np.random.default_rng(99)
        U = rng.uniform(-radius, radius, size=(2000, d))
    tgrid = np.linspace(-0.9, 0.9, PROBE)

    eps = float(eps0)
    failures = 0
    while True:
        chart = TubularChart(
            group=group,
            field=field,
            base=base,
            E=E,
            radius=float(radius),
            eps0=eps,
            probe_failures=failures,
        )
        Ug = np.repeat(U, tgrid.size, axis=0)
        Tg = np.tile(tgrid * eps, U.shape[0])
        xs, _ = _chart_forward(chart, Ug, Tg)
        u0, t0 = _default_start(chart, xs)
        u, t, _, conv = _invert_batch(chart, xs, u0, t0)
        ok = (
            conv
            & (np.abs(u - Ug).max(axis=1) <= 1e-6 * (1.0 + np.abs(Ug).max()))
            & (np.abs(t - Tg) <= 1e-6 * (1.0 + np.abs(Tg)))
        )
        if ok.all():
            return chart
        failures += 1
        eps *= 0.5
        if eps < eps0 * 2.0**-12:
            raise NoConvergence(
                "chart probe kept failing down to half-width %.3e" % eps
            )


def _default_start(chart, xs):
    """Starting guess for the inversion: tangent coordinates and an f-slope
    estimate of the normal time (f grows at rate |g_H| along the normal)."""
    xs = np.atleast_2d(xs)
    u0 = (xs - chart.base) @ chart.E
    g = frame_gradient(chart.group, chart.field, chart.base)
    rate = np.linalg.norm(g[: chart.group.h])
    t0 = np.asarray(chart.field.value(xs), dtype=float) / rate
    lim = 0.95 * chart.eps0
    return u0, np.clip(t0, -lim, lim)


def _chart_membership(chart, u, t):
    if np.any(np.linalg.norm(np.atleast_2d(u), axis=1) > chart.radius * (1 + 1e-9)):
        raise OutsideChart("surface parameter beyond the patch radius")
    if np.any(np.abs(t) >= chart.eps0):
        raise OutsideChart("normal time beyond the chart half-width")


def phi_map(chart, y, t):
    """Phi(y, t) = exp(y, N(y))(t) for a surface point inside the patch.

    A non-finite y or t raises NonFiniteState, a t beyond the chart's
    half-width OutsideChart.
    """
    group = chart.group
    y = group.point(np.asarray(y, dtype=float))
    _check_on_surface(chart.field, y)
    _check_finite(t, "the normal time")
    # surface_point projects along the surface gradient, not along the base
    # normal, so u is the chart's own inverse of y, at normal time 0
    u, t0, _, conv = _invert_batch(chart, y[None], *_default_start(chart, y[None]))
    if not (conv[0] and abs(t0[0]) <= 1e-6 * (1.0 + np.linalg.norm(y))):
        raise OutsideChart("surface point is not on this patch's graph")
    _chart_membership(chart, u, t)
    return exp_sr_2step(group, y, _normal_covector(group, chart.field, y), float(t))


@dataclass
class ProjectionResult:
    """Nearest-point data: unpacks as (y, t) like the plain signature."""

    y: np.ndarray
    t: float
    u: np.ndarray
    residual: float

    def __iter__(self):
        return iter((self.y, self.t))


def project_to_surface(chart, x):
    """Invert Phi around the patch: nearest surface point and signed time.

    t carries the orientation sign (positive on the f > 0 side); |t| is the
    horizontal distance to the surface inside the chart. Points the Newton
    iteration cannot reach raise NoConvergence, solutions landing beyond
    the patch or the half-width raise OutsideChart, and a non-finite x
    raises NonFiniteState.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    xs = np.atleast_2d(x)
    if xs.shape[1] != chart.group.n:
        raise ValueError("expected %d coordinates" % chart.group.n)
    _check_finite(xs, "the query point")
    u0, t0 = _default_start(chart, xs)
    u, t, fn, conv = _invert_batch(chart, xs, u0, t0)
    if not conv.all():
        raise NoConvergence(
            "chart inversion failed for %d of %d points; worst residual %.3e"
            % (int((~conv).sum()), conv.size, float(fn[~conv].max()))
        )
    _chart_membership(chart, u, t)
    ys = chart.surface_point(u)
    if single:
        return ProjectionResult(
            y=ys[0], t=float(t[0]), u=u[0], residual=float(fn[0])
        )
    return ProjectionResult(y=ys, t=t, u=u, residual=fn)


def delta_H(chart, x):
    """Horizontal distance |t(x)| to the surface, valid inside the chart."""
    res = project_to_surface(chart, x)
    return abs(res.t) if np.isscalar(res.t) or np.ndim(res.t) == 0 else np.abs(res.t)


def grad_delta_H(chart, x):
    """Frame gradient of delta_H as the transported normal covector.

    No differencing: grad delta_H at x = Phi(y, t) equals
    sign(t) (e^{-C_H(varpi(y)) t} nu_H(y), varpi(y)), the momentum at time t
    of the metric normal through y; its horizontal norm is 1 by construction
    (the eikonal property).
    """
    x = np.asarray(x, dtype=float)
    res = project_to_surface(chart, np.atleast_2d(x))
    group = chart.group
    N = _normal_covector(group, chart.field, res.y)
    _, P = exp_sr_2step(group, res.y, N, res.t, return_momentum=True)
    out = np.where(res.t >= 0.0, 1.0, -1.0)[:, None] * P
    return out[0] if x.ndim == 1 else out
