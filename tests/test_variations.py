"""Connection, curvature, variation formulas, and Jacobi-field tests.

Second-variation and Jacobi oracles are finite differences of the closed-form
exponential, or its exact differential ``ClosedFormPath.jet``: rotating the
initial horizontal momentum inside an invariant plane of C_H(P_V) at a full
period gives a variation through unit-speed geodesics whose endpoint stays
put, so the field vanishes at both ends without any tuning.
"""

import numpy as np
import pytest

from carnot.errors import (
    EndpointViolation,
    GridMismatch,
    NonFiniteState,
    NotUnitSpeed,
    TooFewSamples,
)
from carnot.expmap import ClosedFormPath, exp_sr_2step, skew_canonical
from carnot.geodesics import GeodesicTrace, integrate_normal
from carnot.groups import (
    build_group,
    c_operator,
    engel,
    frame_apply,
    frame_solve,
    h1,
    hn,
    random_two_step,
)
from carnot.variations import (
    FieldAlongCurve,
    _simpson,
    connection_data,
    covariant_derivative_along,
    first_variation_check,
    integrate_jacobi,
    jacobi_residual,
    second_variation_check,
    sr_action,
)

ABELIAN = build_group([3], [])


def unit_covector(group, rng, pv_scale=0.8):
    P0 = rng.standard_normal(group.n)
    P0[: group.h] /= np.linalg.norm(P0[: group.h])
    P0[group.h :] *= pv_scale
    return P0


def cumtrapz(f, dt):
    out = np.zeros(f.shape)
    np.cumsum(0.5 * (f[1:] + f[:-1]), axis=0, out=out[1:])
    return out * dt


def fd_exp_field(group, P0, T, m, W, eps=1e-3):
    """Variation field of s -> exp(0, P0 + sW) by central differences."""
    ts = np.linspace(0.0, T, m)
    x0 = np.zeros(group.n)
    xp = exp_sr_2step(group, x0, P0 + eps * W, ts)
    xm = exp_sr_2step(group, x0, P0 - eps * W, ts)
    dx = (xp - xm) / (2.0 * eps)
    tr = integrate_normal(group, x0, P0, T, m - 1)
    Y = dx.copy()
    br = np.einsum("rij,mi,mj->mr", group.C, tr.xs, dx)
    Y[:, group.h :] -= 0.5 * br[:, group.h :]
    return tr, FieldAlongCurve(ts, Y)


def rotation_field(group, pv, theta, m=2001, eps=1e-4):
    """Full-period in-plane rotation family of exp and its trace.

    P_H(0) sits in an invariant plane of C_H(P_V), so the velocity never
    leaves that plane; over one period the horizontal endpoint returns and
    the vertical displacement is rotation invariant, hence the family is a
    homotopy and P_V is shared by all members.
    """
    h = group.h
    M = c_operator(group, pv, horizontal=True)
    form = skew_canonical(M)
    lam = form.lambdas[0]
    e1, e2 = form.O[:, 0], form.O[:, 1]
    p = np.cos(theta) * e1 + np.sin(theta) * e2
    w = -np.sin(theta) * e1 + np.cos(theta) * e2
    T = 2.0 * np.pi / lam
    ts = np.linspace(0.0, T, m)
    x0 = np.zeros(group.n)
    Pp = np.concatenate([np.cos(eps) * p + np.sin(eps) * w, pv])
    Pm = np.concatenate([np.cos(eps) * p - np.sin(eps) * w, pv])
    dx = (exp_sr_2step(group, x0, Pp, ts) - exp_sr_2step(group, x0, Pm, ts)) / (
        2.0 * eps
    )
    tr = integrate_normal(group, x0, np.concatenate([p, pv]), T, m - 1)
    Y = dx.copy()
    br = np.einsum("rij,mi,mj->mr", group.C, tr.xs, dx)
    Y[:, h:] -= 0.5 * br[:, h:]
    return tr, FieldAlongCurve(ts, Y)


def admissible_field(group, trace, rng, amp=0.25):
    """Endpoint-closed field which is arclength and horizontal to first order.

    The horizontal part is a profile along a unit normal plus the tangential
    component forced by d/dt <u, Y_H> = 0; the vertical part integrates
    [Y, u]; the leftover endpoint conditions are closed by a null vector of
    the condition matrix over v + 2 basis profiles.
    """
    h, n = group.h, group.n
    v = n - h
    times = trace.times
    tau = (times - times[0]) / float(times[-1] - times[0])
    dt = float(times[1] - times[0])
    u = np.array(trace.ps, float)
    u[:, h:] = 0.0
    uH = u[:, :h]
    pv = np.asarray(trace.ps[:, h:], float)
    M = np.einsum("vij,mv->mij", group.CH, pv[:, : group.CH.shape[0]])
    udH = -np.einsum("mij,mj->mi", M, uH)
    e = rng.standard_normal(h)
    nH = e - (uH @ e)[:, None] * uH
    nrm = np.linalg.norm(nH, axis=1)
    assert nrm.min() > 0.1, "perp direction degenerates along the sweep"
    nH /= nrm[:, None]
    base = [
        np.ones_like(tau),
        np.sin(2 * np.pi * tau),
        np.cos(np.pi * tau),
        np.sin(4 * np.pi * tau),
        np.cos(3 * np.pi * tau),
        np.sin(6 * np.pi * tau),
        np.cos(5 * np.pi * tau),
    ]
    bump = np.sin(np.pi * tau) ** 2
    K = v + 2
    conds = np.zeros((1 + v, K))
    parts = []
    for k in range(K):
        Yp = (bump * base[k])[:, None] * nH
        c = cumtrapz(np.sum(udH * Yp, axis=1), dt)
        YH = Yp + c[:, None] * uH
        brv = np.einsum("aij,mi,mj->ma", group.CH, YH, uH)
        YV = cumtrapz(brv, dt)
        conds[0, k] = c[-1]
        conds[1:, k] = YV[-1]
        parts.append((YH, YV))
    a = np.linalg.svd(conds)[2][-1]
    Y = np.zeros((len(times), n))
    for k in range(K):
        Y[:, :h] += a[k] * parts[k][0]
        Y[:, h:] += a[k] * parts[k][1]
    Y *= amp / np.abs(Y).max()
    return FieldAlongCurve(times, Y)


def theta_curve(T=2.0, m=4001):
    """Unit-speed horizontal H^1 curve with heading 0.7 sin(2t) + 0.3t.

    Not a geodesic: the heading rate is not constant. The lift is integrated
    with RK4 on the exact heading, and a smooth multiplier sample set rides
    along in the trace's momentum slot.
    """
    g = h1()
    times = np.linspace(0.0, T, m)
    dt = times[1] - times[0]

    def vel(t, x):
        th = 0.7 * np.sin(2.0 * t) + 0.3 * t
        return frame_apply(g, x, np.array([np.cos(th), np.sin(th), 0.0]))

    xs = np.empty((m, 3))
    xs[0] = 0.0
    for i in range(m - 1):
        t, x = times[i], xs[i]
        k1 = vel(t, x)
        k2 = vel(t + 0.5 * dt, x + 0.5 * dt * k1)
        k3 = vel(t + 0.5 * dt, x + 0.5 * dt * k2)
        k4 = vel(t + dt, x + dt * k3)
        xs[i + 1] = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    th = 0.7 * np.sin(2.0 * times) + 0.3 * times
    ps = np.stack(
        [np.cos(th), np.sin(th), 0.4 + 0.25 * np.sin(times)], axis=1
    )
    return g, GeodesicTrace(times=times, xs=xs, ps=ps, group=g)


def smooth_bump_field(times, n, rng, amp=0.3):
    tau = (times - times[0]) / float(times[-1] - times[0])
    bump = np.sin(np.pi * tau) ** 2
    coef = rng.standard_normal((3, n))
    shapes = np.stack(
        [np.ones_like(tau), np.sin(2 * np.pi * tau), np.cos(np.pi * tau)]
    )
    Y = bump[:, None] * np.einsum("sm,sn->mn", shapes, coef)
    return FieldAlongCurve(times, amp * Y / np.abs(Y).max())


# ---------------------------------------------------------------- connection


def test_connection_h1_entries():
    gamma = connection_data(h1()).gamma
    want = np.zeros((3, 3, 3))
    # nabla_{X1}X2 = X3/2, nabla_{X2}X1 = -X3/2, nabla_{X1}X3 = -X2/2,
    # nabla_{X2}X3 = X1/2, nabla_{X3}X1 = -X2/2, nabla_{X3}X2 = X1/2
    want[2, 1, 0] = 0.5
    want[2, 0, 1] = -0.5
    want[1, 2, 0] = -0.5
    want[0, 2, 1] = 0.5
    want[1, 0, 2] = -0.5
    want[0, 1, 2] = 0.5
    np.testing.assert_allclose(gamma, want, atol=1e-15)


def test_connection_abelian_zero():
    conn = connection_data(ABELIAN)
    assert np.all(conn.gamma == 0.0)
    assert np.all(conn.curvature == 0.0)


@pytest.mark.parametrize("seed,h,v", [(0, 4, 2), (1, 5, 3), (2, 6, 1)])
def test_connection_invariants(seed, h, v):
    g = random_two_step(h, v, np.random.default_rng(seed))
    gamma = connection_data(g).gamma
    np.testing.assert_allclose(
        gamma + gamma.transpose(1, 0, 2), 0.0, atol=1e-14
    )
    np.testing.assert_allclose(
        gamma - gamma.transpose(0, 2, 1), g.C.transpose(0, 2, 1), atol=1e-14
    )


def test_connection_invariants_engel():
    g = engel()
    gamma = connection_data(g).gamma
    np.testing.assert_allclose(
        gamma + gamma.transpose(1, 0, 2), 0.0, atol=1e-15
    )
    np.testing.assert_allclose(
        gamma - gamma.transpose(0, 2, 1), g.C.transpose(0, 2, 1), atol=1e-15
    )


def test_connection_horizontal_flatness():
    for g in (h1(), hn(2), engel(), random_two_step(5, 2, np.random.default_rng(3))):
        h = g.h
        gamma = connection_data(g).gamma
        np.testing.assert_allclose(gamma[:h, :h, :h], 0.0, atol=1e-15)


def test_curvature_h1_values():
    Rm = connection_data(h1()).curvature
    assert Rm[0, 1, 1, 0] == pytest.approx(0.75, abs=1e-15)
    assert Rm[0, 2, 2, 0] == pytest.approx(-0.25, abs=1e-15)


def test_curvature_antisymmetries():
    for seed, h, v in ((4, 4, 2), (5, 6, 3)):
        g = random_two_step(h, v, np.random.default_rng(seed))
        Rm = connection_data(g).curvature
        np.testing.assert_allclose(Rm + Rm.transpose(1, 0, 2, 3), 0.0, atol=1e-13)
        np.testing.assert_allclose(Rm + Rm.transpose(0, 1, 3, 2), 0.0, atol=1e-13)


# ------------------------------------------------------ covariant derivative


def test_covdiff_constant_field_abelian():
    g = ABELIAN
    times = np.linspace(0.0, 1.0, 201)
    xs = np.outer(times, np.array([1.0, 2.0, -0.5]))
    tr = GeodesicTrace(times=times, xs=xs, ps=np.zeros((201, 3)), group=g)
    out = covariant_derivative_along(tr, np.array([0.3, -1.0, 2.0]))
    np.testing.assert_allclose(out.components, 0.0, atol=1e-10)


def test_covdiff_velocity_of_geodesic():
    rng = np.random.default_rng(9)
    for g in (h1(), random_two_step(4, 2, np.random.default_rng(10))):
        P0 = unit_covector(g, rng)
        tr = integrate_normal(g, np.zeros(g.n), P0, 1.5, 1500)
        u = np.array(tr.ps, float)
        u[:, g.h :] = 0.0
        got = covariant_derivative_along(tr, u).components
        MH = c_operator(g, tr.ps[:, g.h :], horizontal=True)
        want = np.zeros_like(got)
        want[:, : g.h] = -np.einsum("mij,mj->mi", MH, u[:, : g.h])
        np.testing.assert_allclose(got[5:-5], want[5:-5], atol=1e-6)


def test_covdiff_product_rule():
    g = random_two_step(4, 2, np.random.default_rng(12))
    rng = np.random.default_rng(13)
    P0 = unit_covector(g, rng)
    tr = integrate_normal(g, np.zeros(g.n), P0, 1.2, 7200)
    U = smooth_bump_field(tr.times, g.n, rng)
    V = smooth_bump_field(tr.times, g.n, rng)
    lhs = np.gradient(
        np.sum(U.components * V.components, axis=1), tr.times, edge_order=2
    )
    dU = covariant_derivative_along(tr, U).components
    dV = covariant_derivative_along(tr, V).components
    rhs = np.sum(dU * V.components + U.components * dV, axis=1)
    np.testing.assert_allclose(lhs[3:-3], rhs[3:-3], atol=1e-6)


def test_covdiff_grid_mismatch():
    tr = integrate_normal(h1(), np.zeros(3), np.array([1.0, 0.0, 1.0]), 1.0, 100)
    with pytest.raises(GridMismatch):
        covariant_derivative_along(tr, np.zeros((50, 3)))


# ------------------------------------------------------------------- action


def test_simpson_exact_for_cubics():
    # m = 3 is the pure 3/8 rule, odd m > 3 composite 1/3 with a 3/8 tail
    for m in (2, 3, 4, 5, 7):
        x = np.linspace(0.0, 1.3, m + 1)
        y = 0.7 - 1.1 * x + 2.5 * x**2 - 1.9 * x**3
        exact = 0.7 * 1.3 - 0.55 * 1.3**2 + 2.5 / 3 * 1.3**3 - 1.9 / 4 * 1.3**4
        assert abs(_simpson(y, 1.3 / m) - exact) < 1e-14
    with pytest.raises(TooFewSamples):
        _simpson(np.ones(2), 0.5)


def test_sr_action_unit_geodesic():
    # the sampled-velocity quadrature carries an O(dt^2) bias, 1.4e-7 here
    tr = integrate_normal(h1(), np.zeros(3), np.array([1.0, 0.0, 1.3]), 2.0, 4000)
    assert sr_action(tr) == pytest.approx(2.0, abs=1e-6)
    # attaching the geodesic's own multiplier changes nothing on a
    # horizontal curve
    assert sr_action(tr, tr.ps[:, 2:]) == pytest.approx(2.0, abs=1e-6)


def test_sr_action_scaled_line():
    g = ABELIAN
    times = np.linspace(0.0, 3.0, 301)
    xs = np.outer(times, np.array([1.2, -0.9, 0.0]))
    tr = GeodesicTrace(times=times, xs=xs, ps=np.zeros((301, 3)), group=g)
    c = np.hypot(1.2, -0.9)
    assert sr_action(tr) == pytest.approx(3.0 * c, rel=1e-10)


def test_sr_action_multiplier_term():
    g = h1()
    times = np.linspace(0.0, 1.0, 1001)
    w = np.array([0.8, 0.6, 0.7])
    xs = np.outer(times, w)
    tr = GeodesicTrace(times=times, xs=xs, ps=np.zeros((1001, 3)), group=g)
    pv = (0.4 + 0.3 * np.sin(times))[:, None]
    # straight coordinate line through 0: frame velocity is constant w
    want = 1.0 + 0.7 * np.trapezoid(0.4 + 0.3 * np.sin(times), times)
    assert sr_action(tr, pv) == pytest.approx(want, abs=1e-6)


# --------------------------------------------------------- first variation


def test_first_variation_geodesic():
    rng = np.random.default_rng(20)
    for g in (h1(), random_two_step(4, 2, np.random.default_rng(21))):
        P0 = unit_covector(g, rng)
        tr = integrate_normal(g, np.zeros(g.n), P0, 1.5, 1500)
        Y = smooth_bump_field(tr.times, g.n, rng)
        q = 0.3 * np.cos(tr.times)[:, None] * np.ones(g.v)
        formula, fd = first_variation_check(g, tr, Y, q)
        assert abs(formula) < 1e-6
        assert abs(fd) < 1e-5


def test_first_variation_zero_field():
    g = h1()
    tr = integrate_normal(g, np.zeros(3), np.array([1.0, 0.0, 0.9]), 1.0, 1000)
    q = (0.5 + 0.4 * np.cos(np.pi * tr.times))[:, None]
    # both integrate the discrete horizontality residual of the sampled
    # geodesic, an O(dt^2) quantity
    formula, fd = first_variation_check(g, tr, np.zeros(3), q)
    assert formula == pytest.approx(0.0, abs=1e-6)
    assert fd == pytest.approx(0.0, abs=1e-6)


def test_first_variation_nongeodesic():
    g, tr = theta_curve()
    rng = np.random.default_rng(22)
    Y = smooth_bump_field(tr.times, 3, rng)
    tau = tr.times / tr.times[-1]
    q = (0.5 + 0.4 * np.cos(np.pi * tau))[:, None]
    formula, fd = first_variation_check(g, tr, Y, q)
    # agreement within the difference step's truncation
    assert abs(formula - fd) < 1e-3 * max(1.0, abs(formula), abs(fd))
    # and the defect integral is genuinely nonzero off geodesics
    assert abs(formula) > 1e-2


def test_first_variation_endpoint_gate():
    g = h1()
    tr = integrate_normal(g, np.zeros(3), np.array([1.0, 0.0, 1.0]), 1.0, 500)
    Y = np.ones((501, 3))
    with pytest.raises(EndpointViolation):
        first_variation_check(g, tr, Y)


def test_first_variation_speed_gate():
    g = h1()
    tr = integrate_normal(g, np.zeros(3), np.array([2.0, 0.0, 1.0]), 1.0, 500)
    Y = smooth_bump_field(tr.times, 3, np.random.default_rng(0))
    with pytest.raises(NotUnitSpeed):
        first_variation_check(g, tr, Y)


# -------------------------------------------------------- second variation


def test_second_variation_zero_field():
    g = h1()
    tr = integrate_normal(g, np.zeros(3), np.array([1.0, 0.0, 1.1]), 1.0, 1000)
    for mode in ("general", "geodesic-variation"):
        formula, fd = second_variation_check(
            g, tr, np.zeros(3), mode=mode
        )
        assert formula == pytest.approx(0.0, abs=1e-12)
        assert abs(fd) < 1e-7


def test_second_variation_mode_error():
    g = h1()
    tr = integrate_normal(g, np.zeros(3), np.array([1.0, 0.0, 1.1]), 1.0, 500)
    with pytest.raises(ValueError):
        second_variation_check(g, tr, np.zeros(3), mode="bogus")


@pytest.mark.parametrize("seed,h,v", [(21, 4, 2), (22, 5, 3)])
def test_second_variation_general_small_amplitude(seed, h, v):
    g = random_two_step(h, v, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 100)
    P0 = unit_covector(g, rng)
    tr = integrate_normal(g, np.zeros(g.n), P0, 1.8, 2000)
    Y = admissible_field(g, tr, rng)
    formula, fd = second_variation_check(g, tr, Y, mode="general")
    assert abs(formula - fd) < 1e-3 * max(1.0, abs(formula), abs(fd))


def test_second_variation_coseva_h1():
    g = h1()
    for lam, theta in ((1.3, 0.4), (0.9, 2.0)):
        tr, Y = rotation_field(g, np.array([lam]), theta)
        formula, fd = second_variation_check(
            g, tr, Y, mode="geodesic-variation"
        )
        assert abs(formula - fd) < 1e-3 * max(1.0, abs(formula), abs(fd))


@pytest.mark.parametrize("seed,h,v", [(5, 4, 1), (7, 4, 2), (8, 5, 2)])
def test_second_variation_coseva_random_group(seed, h, v):
    g = random_two_step(h, v, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 50)
    pv = rng.standard_normal(v)
    M = c_operator(g, pv, horizontal=True)
    pv *= 1.3 / skew_canonical(M).lambdas[0]
    tr, Y = rotation_field(g, pv, float(rng.uniform(0.0, np.pi)))
    formula, fd = second_variation_check(g, tr, Y, mode="geodesic-variation")
    assert abs(formula - fd) < 1e-3 * max(1.0, abs(formula), abs(fd))


# ------------------------------------------------------------ Jacobi fields


def test_jacobi_residual_of_exp_variation():
    rng = np.random.default_rng(30)
    cases = [
        (h1(), np.array([1.0, 0.0, 1.3])),
        (random_two_step(4, 2, np.random.default_rng(31)), None),
    ]
    for g, P0 in cases:
        if P0 is None:
            P0 = unit_covector(g, rng)
        W = np.zeros(g.n)
        W[: g.h] = rng.standard_normal(g.h)
        tr, Y = fd_exp_field(g, P0, 1.0, 2001, W)
        res = jacobi_residual(g, tr, Y)
        assert np.abs(res.components).max() < 1e-5


def test_jacobi_residual_flags_vertical_momentum_perturbation():
    # perturbing P_V leaves the constant-multiplier class: the defect is
    # the forcing -C_H(dP_V) u, first order in the perturbation
    g = h1()
    W = np.array([0.0, 0.0, 1.0])
    tr, Y = fd_exp_field(g, np.array([1.0, 0.0, 1.3]), 1.0, 2001, W)
    res = jacobi_residual(g, tr, Y)
    assert np.abs(res.components).max() > 1e-2


def test_integrate_jacobi_reproduces_exp_variation():
    rng = np.random.default_rng(33)
    for g, P0 in (
        (h1(), np.array([1.0, 0.0, 1.3])),
        (random_two_step(4, 2, np.random.default_rng(34)), None),
    ):
        if P0 is None:
            P0 = unit_covector(g, rng)
        W = np.zeros(g.n)
        W[: g.h] = rng.standard_normal(g.h)
        tr, Y = fd_exp_field(g, P0, 1.5, 2001, W)
        dt = tr.times[1] - tr.times[0]
        Yc = Y.components
        Z0 = (-11 * Yc[0] + 18 * Yc[1] - 9 * Yc[2] + 2 * Yc[3]) / (6 * dt)
        out = integrate_jacobi(g, tr, Yc[0], Z0)
        assert np.abs(out.components - Yc).max() < 1e-8
        assert out.meta["constraint_defect_sup"] < 1e-8


def test_integrate_jacobi_is_the_exact_exp_differential():
    # step 2: the Jacobi field with J(0) = 0 and J'(0) = (delta, 0), delta
    # orthogonal to the unit P_H(0), is the differential of the exponential
    # along delta, which the closed form gives exactly
    g = random_two_step(4, 3, np.random.default_rng(44))
    rng = np.random.default_rng(45)
    P0 = unit_covector(g, rng)
    delta = rng.standard_normal(g.h)
    delta -= (delta @ P0[: g.h]) * P0[: g.h]
    tr = integrate_normal(g, np.zeros(g.n), P0, 1.5, 600)
    out = integrate_jacobi(g, tr, np.zeros(g.n), np.concatenate([delta, np.zeros(g.v)]))
    x, dx = ClosedFormPath(group=g, x0=np.zeros(g.n), P0=P0[None]).jet(
        tr.times, delta[None, None]
    )
    assert np.abs(out.components - frame_solve(g, x, dx[0])).max() < 1e-9


def test_integrate_jacobi_abelian_linear():
    g = ABELIAN
    tr = integrate_normal(
        g, np.zeros(3), np.array([0.6, 0.8, 0.0]), 1.0, 400
    )
    J0 = np.array([0.3, -0.2, 0.1])
    J0dot = np.array([1.0, 2.0, -0.7])
    out = integrate_jacobi(g, tr, J0, J0dot)
    want = J0 + np.outer(tr.times, J0dot)
    np.testing.assert_allclose(out.components, want, atol=1e-12)


def test_integrate_jacobi_superposition():
    g = random_two_step(4, 2, np.random.default_rng(36))
    P0 = unit_covector(g, np.random.default_rng(37))
    tr = integrate_normal(g, np.zeros(6), P0, 1.5, 600)
    rng = np.random.default_rng(38)
    a, b, c, d = rng.standard_normal((4, 6))
    f1 = integrate_jacobi(g, tr, a, b).components
    f2 = integrate_jacobi(g, tr, c, d).components
    f3 = integrate_jacobi(g, tr, 2.0 * a - 0.5 * c, 2.0 * b - 0.5 * d).components
    np.testing.assert_allclose(f3, 2.0 * f1 - 0.5 * f2, atol=1e-10)


def test_integrate_jacobi_fundamental_rank():
    for g in (h1(), random_two_step(4, 2, np.random.default_rng(39))):
        n = g.n
        P0 = unit_covector(g, np.random.default_rng(40))
        tr = integrate_normal(g, np.zeros(n), P0, 1.0, 500)
        J0 = np.vstack([np.eye(n), np.zeros((n, n))])
        J0dot = np.vstack([np.zeros((n, n)), np.eye(n)])
        out = integrate_jacobi(g, tr, J0, J0dot)
        endpoint = np.concatenate(
            [out.components[-1], out.meta["derivative"][-1]], axis=1
        )
        assert np.linalg.matrix_rank(endpoint, tol=1e-8) == 2 * n


def test_integrate_jacobi_gates():
    g = h1()
    fast = integrate_normal(g, np.zeros(3), np.array([2.0, 0.0, 1.0]), 1.0, 300)
    with pytest.raises(NotUnitSpeed):
        integrate_jacobi(g, fast, np.zeros(3), np.ones(3))
    tr = integrate_normal(g, np.zeros(3), np.array([1.0, 0.0, 1.0]), 1.0, 300)
    with pytest.raises(ValueError):
        integrate_jacobi(g, tr, np.zeros(2), np.ones(2))
    # a field that overflows raises as the normal flow does
    with pytest.raises(NonFiniteState):
        integrate_jacobi(g, tr, np.array([1e308, 0.0, 0.0]), np.zeros(3))


def test_integrate_jacobi_constraint_monitor():
    g = random_two_step(4, 1, np.random.default_rng(41))
    P0 = unit_covector(g, np.random.default_rng(42))
    tr = integrate_normal(g, np.zeros(5), P0, 1.2, 600)
    rng = np.random.default_rng(43)
    J0 = rng.standard_normal(5)
    J0dot = rng.standard_normal(5)
    u0 = np.concatenate([P0[:4], [0.0]])
    # compatible vertical derivative: the defect stays at the integration
    # error floor for the whole window
    J0dot[4:] = np.einsum("rij,i,j->r", g.C, J0, u0)[4:]
    out = integrate_jacobi(g, tr, J0, J0dot)
    assert out.meta["constraint_defect"].shape == (601, 1)
    assert out.meta["constraint_defect_sup"] < 1e-9
    # incompatible data: the defect is frozen at its initial value
    J0dot[4] += 0.5
    out2 = integrate_jacobi(g, tr, J0, J0dot)
    defect = out2.meta["constraint_defect"]
    assert np.abs(defect - defect[0]).max() < 1e-9
    assert abs(defect[0, 0] - 0.5) < 1e-12
