"""Levi-Civita data of the left-invariant metric and variational checks.

Index conventions (0-based in code):

    gamma[I][J][K]        = <nabla_{X_K} X_J, X_I>
    curvature[I][J][K][L] = <R(X_I, X_J) X_K, X_L>

with the curvature operator R(X,Y)Z = nabla_Y nabla_X Z - nabla_X nabla_Y Z
- nabla_{[Y,X]} Z.  That is the opposite of the most common sign choice; the
Jacobi systems implemented here were derived with it, so it is kept as is.
On the orthonormal frame the Christoffel array is exactly skew in its first
two slots and satisfies gamma[I][J][K] - gamma[I][K][J] = C[I][K][J].

A field along a curve is stored by its frame components xi_I(t) on the
trace's grid, and

    (nabla_t xi)_I = d/dt xi_I + sum_{J,K} gamma[I][J][K] xi_J u_K

where u = L(x)^{-1} dx/dt are the frame components of the velocity.  The
variation checks build the concrete homotopy theta_s(t) = x(t) + s L(x(t)) Y(t)
in coordinates, with multiplier P_V(t) + s Q_V(t), and difference the action
quadrature in s; grid-induced quadrature bias is smooth in s and cancels in
the differences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import cos, sin

import numpy as np

from .errors import (
    EndpointViolation,
    GridMismatch,
    NotUnitSpeed,
    TooFewSamples,
)
from .geodesics import GeodesicTrace, _rk4, integrate_normal
from .groups import CarnotGroup, c_operator, frame_apply, frame_solve

# FD-velocity unit-speed gate is loose: second differences of sampled
# coordinates carry O(dt^2) noise that is not a speed violation.
UNIT_SPEED_TOL = 1e-3
MOMENTUM_SPEED_TOL = 1e-6
ENDPOINT_TOL = 1e-4
# homotopy parameter steps of the central differences in s
FIRST_VARIATION_STEP = 1e-4
SECOND_VARIATION_STEP = 1e-3


@dataclass
class ConnectionData:
    """Constant Christoffel and curvature arrays of the ambient metric."""

    gamma: np.ndarray
    curvature: np.ndarray


@dataclass
class FieldAlongCurve:
    """Frame components of a vector field sampled on a trace's grid."""

    times: np.ndarray
    components: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.components = np.asarray(self.components, dtype=float)
        if self.components.shape[0] != self.times.shape[0]:
            raise GridMismatch(
                f"{self.components.shape[0]} samples on a "
                f"{self.times.shape[0]}-point grid"
            )

    def __len__(self):
        return len(self.times)


def connection_data(group: CarnotGroup) -> ConnectionData:
    """Christoffels and curvature of the left-invariant metric.

    gamma[I][J][K] = 0.5 (C[I][K][J] - C[K][J][I] + C[J][I][K]); the
    curvature follows by frame composition, with the bracket term taken
    through the structure constants.
    """
    C = group.C
    gamma = 0.5 * (
        C.transpose(0, 2, 1) - C.transpose(2, 1, 0) + C.transpose(1, 0, 2)
    )
    # <nabla_{X_J} nabla_{X_I} X_K, X_L>, its (I, J) swap, and the
    # nabla_{[X_J, X_I]} X_K term, per the stated sign convention.
    t1 = np.einsum("lmj,mki->ijkl", gamma, gamma)
    t2 = np.einsum("lmi,mkj->ijkl", gamma, gamma)
    t3 = np.einsum("rji,lkr->ijkl", C, gamma)
    return ConnectionData(gamma=gamma, curvature=t1 - t2 - t3)


def _resolve_group(trace: GeodesicTrace, group: CarnotGroup | None) -> CarnotGroup:
    if group is not None:
        return group
    if trace.group is not None:
        return trace.group
    raise ValueError("trace carries no group; pass one explicitly")


def _uniform_dt(times: np.ndarray) -> float:
    if times.shape[0] < 4:
        raise TooFewSamples("curve operators need at least 4 samples")
    steps = np.diff(times)
    if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
        raise GridMismatch("nonuniform time grid")
    return float(steps[0])


def _simpson(y, dx):
    m = y.shape[0] - 1
    if m < 2:
        raise TooFewSamples("need at least 3 samples for Simpson quadrature")
    total = 0.0
    if m % 2 == 1:
        # 3/8 rule on the last three intervals, composite 1/3 on the rest
        total += dx * 3.0 / 8.0 * (y[-4] + 3 * y[-3] + 3 * y[-2] + y[-1])
        y = y[: m - 2]
        m -= 3
        if m == 0:
            return total
    total += dx / 3.0 * (y[0] + y[-1] + 4 * np.sum(y[1:-1:2]) + 2 * np.sum(y[2:-2:2]))
    return total


def _frame_velocity(group: CarnotGroup, times, xs) -> np.ndarray:
    dx = np.gradient(xs, times, axis=0, edge_order=2)
    return frame_solve(group, xs, dx)


def _covdiff(gamma, times, xi, u) -> np.ndarray:
    dxi = np.gradient(xi, times, axis=0, edge_order=2)
    return dxi + np.einsum("ijk,mj,mk->mi", gamma, xi, u)


def _field_components(obj, trace: GeodesicTrace, width: int, what: str) -> np.ndarray:
    """Normalize a field argument to an (m, width) sample array."""
    if isinstance(obj, FieldAlongCurve):
        if obj.times.shape != trace.times.shape or not np.allclose(
            obj.times, trace.times
        ):
            raise GridMismatch(f"{what} is sampled on a different grid")
        arr = obj.components
    else:
        arr = np.asarray(obj, dtype=float)
    m = trace.times.shape[0]
    if arr.ndim == 1 and arr.shape[0] == width:
        arr = np.broadcast_to(arr, (m, width))
    if arr.shape != (m, width):
        raise GridMismatch(
            f"{what} has shape {arr.shape}, expected ({m}, {width})"
        )
    return np.asarray(arr, dtype=float)


def covariant_derivative_along(
    trace: GeodesicTrace, field: FieldAlongCurve, group: CarnotGroup | None = None
) -> FieldAlongCurve:
    """nabla_t of a sampled field along the trace's curve.

    The velocity is recovered from the sampled positions by central
    differences and converted to frame components through the frame at
    each point; the field's time derivative uses the same stencils.
    """
    g = _resolve_group(trace, group)
    _uniform_dt(trace.times)
    xi = _field_components(field, trace, g.n, "field")
    u = _frame_velocity(g, trace.times, trace.xs)
    gamma = connection_data(g).gamma
    return FieldAlongCurve(trace.times, _covdiff(gamma, trace.times, xi, u))


def _action(group: CarnotGroup, times, xs, pv, dt) -> float:
    """Action quadrature |u_H| + <P_V, u_V> on a sampled curve."""
    u = _frame_velocity(group, times, xs)
    h = group.h
    integrand = np.linalg.norm(u[:, :h], axis=1)
    if pv is not None:
        integrand = integrand + np.sum(pv * u[:, h:], axis=1)
    return float(_simpson(integrand, dt))


def sr_action(trace: GeodesicTrace, P_V_field=None, group: CarnotGroup | None = None) -> float:
    """Constrained action of a sampled curve with attached multiplier.

    ``P_V_field`` may be a constant (v,) covector, (m, v) samples, a
    FieldAlongCurve, or None for a plain sub-Riemannian length integrand.
    """
    g = _resolve_group(trace, group)
    dt = _uniform_dt(trace.times)
    pv = None
    if P_V_field is not None:
        pv = _field_components(P_V_field, trace, g.v, "multiplier")
    return _action(g, trace.times, trace.xs, pv, dt)


def _endpoint_gate(Y: np.ndarray):
    scale = max(float(np.max(np.linalg.norm(Y, axis=1))), 1e-12)
    for end in (0, -1):
        if np.linalg.norm(Y[end]) > ENDPOINT_TOL * max(1.0, scale):
            raise EndpointViolation(
                "variation field must vanish at both endpoints"
            )


def _fd_speed_gate(u: np.ndarray, h: int):
    speed = np.linalg.norm(u[:, :h], axis=1)
    if np.max(np.abs(speed - 1.0)) > UNIT_SPEED_TOL:
        raise NotUnitSpeed("base curve is not parametrized by arclength")


def _momentum_velocity(trace: GeodesicTrace, h: int) -> np.ndarray:
    """Frame velocity of a normal geodesic read off its momenta."""
    u = np.array(trace.ps, dtype=float)
    u[:, h:] = 0.0
    speed = np.linalg.norm(u[:, :h], axis=1)
    if np.max(np.abs(speed - 1.0)) > MOMENTUM_SPEED_TOL:
        raise NotUnitSpeed("trace momenta are not unit horizontal")
    return u


def first_variation_check(
    group: CarnotGroup,
    trace: GeodesicTrace,
    Y,
    Q_V=None,
) -> tuple[float, float]:
    """First variation of the action: printed formula vs finite differences.

    Returns (formula value, fd value).  The formula integrates
    <Q_V, u> - <Y, nabla_t u + dP_V/dt + C(P_V) u>; the finite-difference
    side perturbs the curve through the frame and the multiplier linearly
    and central-differences the action at s = FIRST_VARIATION_STEP.
    """
    g = _resolve_group(trace, group)
    times, xs = trace.times, trace.xs
    if xs.ndim != 2:
        raise ValueError("variation checks need an unbatched trace")
    dt = _uniform_dt(times)
    h = g.h
    Y = _field_components(Y, trace, g.n, "Y")
    _endpoint_gate(Y)
    q = (
        np.zeros((len(times), g.v))
        if Q_V is None
        else _field_components(Q_V, trace, g.v, "Q_V")
    )
    u = _frame_velocity(g, times, xs)
    _fd_speed_gate(u, h)
    pv = np.asarray(trace.ps[:, h:], dtype=float)

    gamma = connection_data(g).gamma
    core = _covdiff(gamma, times, u, u)
    core = core + np.einsum("mij,mj->mi", c_operator(g, pv), u)
    core[:, h:] += np.gradient(pv, times, axis=0, edge_order=2)
    integrand = np.sum(q * u[:, h:], axis=1) - np.sum(Y * core, axis=1)
    formula = float(_simpson(integrand, dt))

    s = FIRST_VARIATION_STEP
    push = frame_apply(g, xs, Y)
    upper = _action(g, times, xs + s * push, pv + s * q, dt)
    lower = _action(g, times, xs - s * push, pv - s * q, dt)
    return formula, (upper - lower) / (2.0 * s)


def second_variation_check(
    group: CarnotGroup,
    trace: GeodesicTrace,
    Y,
    Q_V=None,
    mode: str = "general",
) -> tuple[float, float]:
    """Second variation along a unit-speed normal geodesic.

    ``mode="general"`` evaluates the full quadratic form (pinned-frame
    homotopy on the finite-difference side); ``mode="geodesic-variation"``
    evaluates the geodesic-family form and differences the action of the
    reconstructed family: initial horizontal momentum rotated at constant
    norm in the plane spanned by P_H(0) and the horizontal part of
    dY/dt(0), with the vertical momentum held fixed.

    In geodesic-variation mode Y is paired with ``jacobi_residual``: the
    second-order operator on the horizontal rows, and on the vertical rows
    the transport defect dY_V/dt - [Y, u]_V, which vanishes on fields that
    come from actual families of geodesics.
    """
    if mode not in ("general", "geodesic-variation"):
        raise ValueError(f"unknown mode {mode!r}")
    g = _resolve_group(trace, group)
    times, xs = trace.times, trace.xs
    if xs.ndim != 2:
        raise ValueError("variation checks need an unbatched trace")
    dt = _uniform_dt(times)
    h = g.h
    Y = _field_components(Y, trace, g.n, "Y")
    _endpoint_gate(Y)
    q = (
        np.zeros((len(times), g.v))
        if Q_V is None
        else _field_components(Q_V, trace, g.v, "Q_V")
    )
    u = _momentum_velocity(trace, h)
    pv = np.asarray(trace.ps[:, h:], dtype=float)

    conn = connection_data(g)
    gamma = conn.gamma
    covY = _covdiff(gamma, times, Y, u)
    s = SECOND_VARIATION_STEP

    if mode == "general":
        brYu = np.einsum("rij,mi,mj->mr", g.C, Y, u)
        YH = Y.copy()
        YH[:, h:] = 0.0
        D1H = _covdiff(gamma, times, YH, u)
        D2H = _covdiff(gamma, times, D1H, u)
        CYV = c_operator(g, Y[:, h:])
        qexpr = covY - 0.75 * brYu - 0.25 * np.einsum("mij,mj->mi", CYV, u)
        yexpr = (
            D2H
            + np.einsum("mij,mj->mi", c_operator(g, pv), D1H + brYu)
            + brYu
            + np.einsum("mi,mj,mk,ijkl->ml", u, Y, u, conn.curvature)
        )
        integrand = 2.0 * np.sum(q * qexpr[:, h:], axis=1) - np.sum(
            Y * yexpr, axis=1
        )
        formula = float(_simpson(integrand, dt))

        push = frame_apply(g, xs, Y)
        mid = _action(g, times, xs, pv, dt)
        upper = _action(g, times, xs + s * push, pv + s * q, dt)
        lower = _action(g, times, xs - s * push, pv - s * q, dt)
        return formula, (upper - 2.0 * mid + lower) / (s * s)

    # The Jacobi operator of jacobi_residual, transport defect in the
    # vertical rows.  bruY = [u, Y].
    yexpr = jacobi_residual(g, trace, Y).components
    bruY = np.einsum("rij,mi,mj->mr", g.C, u, Y)
    integrand = np.sum(q * (covY + bruY)[:, h:], axis=1) - np.sum(
        Y * yexpr, axis=1
    )
    formula = float(_simpson(integrand, dt))

    # One-sided cubic stencil; Y(0) = 0 was enforced above, so this is the
    # initial momentum perturbation of the generating family.
    ydot0 = (-11.0 * Y[0] + 18.0 * Y[1] - 9.0 * Y[2] + 2.0 * Y[3]) / (6.0 * dt)
    P0 = np.asarray(trace.ps[0], dtype=float)
    PH0 = P0[:h]
    r = float(np.linalg.norm(PH0))
    W = ydot0[:h]
    Wperp = W - (np.dot(W, PH0) / (r * r)) * PH0
    wn = float(np.linalg.norm(Wperp))
    if wn < 1e-12 * max(1.0, r):
        return formula, 0.0
    omega = wn / r
    axis = Wperp / wn
    duration = float(times[-1] - times[0])
    mid = _action(g, times, xs, pv, dt)
    ends = []
    for sign in (1.0, -1.0):
        ang = omega * s * sign
        P_init = P0.copy()
        P_init[:h] = cos(ang) * PH0 + sin(ang) * r * axis
        fam = integrate_normal(g, xs[0], P_init, duration, len(times) - 1)
        ends.append(_action(g, times, fam.xs, pv + sign * s * q, dt))
    return formula, (ends[0] - 2.0 * mid + ends[1]) / (s * s)


def _second_derivative(dt: float, Y: np.ndarray) -> np.ndarray:
    """Uniform-grid second difference, O(dt^2) at the boundary rows too."""
    d2 = np.empty_like(Y)
    d2[1:-1] = (Y[2:] - 2.0 * Y[1:-1] + Y[:-2]) / (dt * dt)
    d2[0] = (2.0 * Y[0] - 5.0 * Y[1] + 4.0 * Y[2] - Y[3]) / (dt * dt)
    d2[-1] = (2.0 * Y[-1] - 5.0 * Y[-2] + 4.0 * Y[-3] - Y[-4]) / (dt * dt)
    return d2


def _jacobi_coefficients(group: CarnotGroup, conn: ConnectionData, u, pv) -> dict:
    """Coefficients of the Jacobi system at velocity samples u, multipliers pv.

    A is the Christoffel contraction of the velocity, Adot its derivative
    through du/dt = -C(P_V) u, B the curvature contracted twice with u and
    M = C_H(P_V).  Leading sample axes of u and pv carry through.
    """
    h = group.h
    v2 = group.CH.shape[0]
    CP = np.einsum("vij,...v->...ij", group.C[h:], pv)
    ud = -np.einsum("...ij,...j->...i", CP, u)
    A = np.einsum("ijk,...k->...ij", conn.gamma, u)
    Adot = np.einsum("ijk,...k->...ij", conn.gamma, ud)
    B = np.einsum("...i,...k,ijkl->...lj", u, u, conn.curvature)
    M = np.einsum("vij,...v->...ij", group.CH, pv[..., :v2])
    return {"u": u, "ud": ud, "A": A, "Adot": Adot, "CP": CP, "B": B, "M": M}


def _jacobi_rhs(group: CarnotGroup, c: dict, Y, Z) -> np.ndarray:
    """d^2Y/dt^2 of the Jacobi system at state (Y, Z = dY/dt).

    Horizontal rows solve nabla_t^2 Y + R(P_H, Y) P_H + C(P_V) nabla_t Y
    - (1/2)[C_H(P_V), C_H(Y_V)] P_H = 0 for Y'', with the second covariant
    derivative expanded as Y'' + A'Y + 2AY' + A(AY).  Vertical rows: the
    derivative of the transport equation, [Z, P_H]_V + [Y, dP_H/dt]_V.
    ``c`` holds the coefficients of ``_jacobi_coefficients`` at one sample
    (Y and Z then take any batch axes) or at every sample along Y's leading
    axis.
    """
    h = group.h
    v2 = group.CH.shape[0]
    A, M, uH = c["A"], c["M"], c["u"][..., :h]
    AY = np.einsum("...ij,...j->...i", A, Y)
    rest = (
        np.einsum("...ij,...j->...i", c["Adot"], Y)
        + 2.0 * np.einsum("...ij,...j->...i", A, Z)
        + np.einsum("...ij,...j->...i", A, AY)
        + np.einsum("...lj,...j->...l", c["B"], Y)
        + np.einsum("...ij,...j->...i", c["CP"], Z + AY)
    )
    # (1/2)[C_H(P_V), C_H(Y_V)] P_H: the pairing z -> C_H(z) is not parallel
    # for Levi-Civita, so differentiating C(P_V) along a variation leaves
    # this commutator behind; it vanishes when the second layer is one
    # dimensional (the two matrices are then proportional)
    S = np.einsum("vij,...v->...ij", group.CH, Y[..., h : h + v2])
    corr = 0.5 * (
        np.einsum("...ij,...jk,...k->...i", M, S, uH)
        - np.einsum("...ij,...jk,...k->...i", S, M, uH)
    )
    dZ = np.empty_like(Z)
    dZ[..., :h] = corr - rest[..., :h]
    dZ[..., h:] = (
        np.einsum("rij,...i,...j->...r", group.C, Z, c["u"])
        + np.einsum("rij,...i,...j->...r", group.C, Y, c["ud"])
    )[..., h:]
    return dZ


def jacobi_residual(
    group: CarnotGroup, trace: GeodesicTrace, field: FieldAlongCurve
) -> FieldAlongCurve:
    """Defect of the constant-multiplier Jacobi system on a sampled field.

    Horizontal rows evaluate nabla_t^2 Y + R(P_H, Y) P_H + C(P_V) nabla_t Y
    - (1/2)[C_H(P_V), C_H(Y_V)] P_H, i.e. Y'' minus ``_jacobi_rhs``, with
    the geodesic's velocity taken from its momenta; fields obtained by
    differencing actual geodesic families vanish against these rows.
    Vertical rows report the transport defect dY_V/dt - [Y, P_H]_V instead:
    variation fields keep their vertical part slaved to the horizontal one
    through that first-order equation, and the second-order operator
    applied to the vertical rows reduces to d/dt [Y, P_H]_V, which carries
    no information the transport row does not already have.  No stencil is
    applied to the output of another, so the defect stays uniformly second
    order up to the boundary samples.
    """
    g = _resolve_group(trace, group)
    dt = _uniform_dt(trace.times)
    h = g.h
    Y = _field_components(field, trace, g.n, "field")
    u = _momentum_velocity(trace, h)
    pv = np.asarray(trace.ps[:, h:], dtype=float)
    c = _jacobi_coefficients(g, connection_data(g), u, pv)
    Ydot = np.gradient(Y, trace.times, axis=0, edge_order=2)
    res = _second_derivative(dt, Y) - _jacobi_rhs(g, c, Y, Ydot)
    res[:, h:] = Ydot[:, h:] - np.einsum("rij,mi,mj->mr", g.C, Y, u)[:, h:]
    return FieldAlongCurve(trace.times, res)


def _half_step_grid(a: np.ndarray) -> np.ndarray:
    """Uniformly sampled smooth data on the half-step grid: sample i at 2i,
    the midpoint after it at 2i + 1, from cubic interpolation."""
    m = a.shape[0]
    out = np.empty((2 * m - 1,) + a.shape[1:])
    out[0::2] = a
    mid = out[1::2]
    mid[1:-1] = (-a[0 : m - 3] + 9.0 * a[1 : m - 2] + 9.0 * a[2 : m - 1] - a[3:m]) / 16.0
    mid[0] = (5.0 * a[0] + 15.0 * a[1] - 5.0 * a[2] + a[3]) / 16.0
    mid[-1] = (a[m - 4] - 5.0 * a[m - 3] + 15.0 * a[m - 2] + 5.0 * a[m - 1]) / 16.0
    return out


def integrate_jacobi(
    group: CarnotGroup,
    trace: GeodesicTrace,
    J0,
    J0dot,
) -> FieldAlongCurve:
    """March the Jacobi system along a unit-speed normal geodesic.

    The state is (Y, Z) with Z the plain time derivative of the frame
    components.  Horizontal rows integrate the second-order system whose
    defect ``jacobi_residual`` measures (curvature, C(P_V) coupling and the
    pairing commutator); vertical rows integrate the derivative of the
    transport equation, dZ_V/dt = [Z, P_H]_V + [Y, dP_H/dt]_V, so initial
    data with Z_V(0) = [Y(0), P_H(0)]_V reproduce fields of actual geodesic
    variations and arbitrary initial data still give a well-posed linear
    flow of dimension 2n.  The normal flow's RK4 stepper (``_rk4``) runs
    on the trace's grid, with the coefficients built once on its half-step
    grid (midpoints from cubic interpolation of the momenta, keeping the
    classical order); a field that overflows raises ``NonFiniteState``.
    The meta carries Z as ``derivative`` and the vertical transport defect
    Z_V - [Y, P_H]_V as ``constraint_defect`` (with its maximum
    ``constraint_defect_sup``), monitored rather than enforced.
    ``J0``/``J0dot`` accept leading batch axes.
    """
    g = group
    times = trace.times
    _uniform_dt(times)  # raises on a short or nonuniform grid
    h, n = g.h, g.n
    u = _momentum_velocity(trace, h)
    pv = np.asarray(trace.ps[:, h:], dtype=float)

    c = _jacobi_coefficients(
        g, connection_data(g), _half_step_grid(u), _half_step_grid(pv)
    )
    # one dict per sample, so that a stage only looks its coefficients up
    rows = [dict(zip(c, row)) for row in zip(*c.values())]

    J0 = np.asarray(J0, dtype=float)
    J0dot = np.asarray(J0dot, dtype=float)
    if J0.shape[-1] != n or J0dot.shape[-1] != n:
        raise ValueError(f"initial data must have {n} frame components")
    shape = np.broadcast_shapes(J0.shape, J0dot.shape)
    y0 = np.stack([np.broadcast_to(J0, shape), np.broadcast_to(J0dot, shape)])

    def rhs(y, s):
        return np.concatenate([y[1:], _jacobi_rhs(g, rows[s], y[0], y[1])[None]])

    ys = _rk4(rhs, y0, times)
    Ys, Zs = ys[:, 0], ys[:, 1]
    br = np.einsum("rij,m...i,mj->m...r", g.C, Ys, u)
    defect = (Zs - br)[..., h:]
    meta = {
        "derivative": Zs,
        "constraint_defect": defect,
        "constraint_defect_sup": float(np.max(np.abs(defect), initial=0.0)),
    }
    return FieldAlongCurve(times, Ys, meta)
