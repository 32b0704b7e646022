"""Closed-form exponential against hand oracles and the RK4 integrator."""

import numpy as np
import pytest

from carnot import _trig
from carnot.distance import distance_point
from carnot.errors import NotSkew, WrongStep
from carnot.expmap import ClosedFormPath, exp_sr_2step, skew_canonical
from carnot.geodesics import integrate_normal
from carnot.groups import (
    build_group,
    c_operator,
    engel,
    group_product,
    h1,
    hn,
    random_two_step,
)
from carnot.variations import _simpson


def h1_orbit(lam, t):
    t = np.asarray(t, dtype=float)
    return np.stack(
        [
            np.sin(lam * t) / lam,
            (1.0 - np.cos(lam * t)) / lam,
            (lam * t - np.sin(lam * t)) / (2.0 * lam**2),
        ],
        axis=-1,
    )


# kernel cross-check corners: both branches of every product integral,
# branch boundaries, mixed signs, series/ladder handoff of the moments
KERNEL_PAIRS = [
    (0.0, 0.0),
    (1e-9, 2.0),
    (2.0, 1e-9),
    (0.019, 0.021),
    (1e-3, 1e-3),
    (0.5, 0.5),
    (3.0, 3.0),
    (7.0, 2.0),
    (20.0, 20.0),
    (-3.0, 5.0),
    (5.0, -3.0),
    (6.2, 0.015),
    (5.99, 6.01),
]


def _sinc(z):
    return np.sinc(np.asarray(z) / np.pi)


def _hv(z):
    z = np.asarray(z, dtype=float)
    out = 0.5 - z * z / 24.0
    nz = np.abs(z) > 1e-4
    out[nz] = 2.0 * np.sin(z[nz] / 2.0) ** 2 / z[nz] ** 2
    return out


def _quad(f):
    u = np.linspace(0.0, 1.0, 200001)
    return np.trapezoid(f(u), u)


@pytest.mark.parametrize("za,zb", KERNEL_PAIRS)
def test_product_kernels_match_quadrature(za, zb):
    ref1 = _quad(lambda u: np.cos(za * u) * u * _sinc(zb * u))
    ref2 = _quad(lambda u: np.cos(za * u) * u**2 * _hv(zb * u))
    ref3 = _quad(lambda u: u**2 * _sinc(za * u) * _sinc(zb * u))
    ref4 = _quad(lambda u: u**3 * _sinc(za * u) * _hv(zb * u))
    assert abs(_trig.t1(za, zb) - ref1) < 1e-8
    assert abs(_trig.t2(za, zb) - ref2) < 1e-8
    assert abs(_trig.t3(za, zb) - ref3) < 1e-8
    assert abs(_trig.t4(za, zb) - ref4) < 1e-8


def test_product_kernel_on_a_grid_matches_each_pair():
    # one call on the h x h grid, with the frequencies' sinc and hv passed
    # in, against one call per pair: every branch (neither frequency below
    # CUT, only za, only zb, both) meets the moments on either side of
    # their series radius 6
    z = np.array([0.0, 0.013, -0.019, 0.021, 0.7, -3.2, 5.99, -6.01, 11.0, 40.0])
    grid = _trig.products(
        z[:, None], z[None, :], _trig.sinc(z)[:, None], _trig.hv(z)[:, None]
    )
    assert grid.shape == (4, z.size, z.size)
    for i, za in enumerate(z):
        for j, zb in enumerate(z):
            assert np.array_equal(grid[:, i, j], _trig.products(za, zb))
    for k, tk in enumerate([_trig.t1, _trig.t2, _trig.t3, _trig.t4]):
        assert np.array_equal(tk(z[:, None], z[None, :]), grid[k])


def test_moments_match_quadrature():
    for z in [0.0, 0.3, 5.9, 6.1, 30.0, -12.0]:
        for k in range(9):
            mc = _quad(lambda u: u**k * np.cos(z * u))
            ms = _quad(lambda u: u**k * np.sin(z * u))
            got_c, got_s = _trig._moments(z, k)
            assert abs(got_c[k] - mc) < 1e-9
            assert abs(got_s[k] - ms) < 1e-9


@pytest.mark.parametrize("lam", [0.5, 1.0, 4.0])
def test_h1_orbit_exact(lam):
    g = h1()
    ts = np.linspace(0.0, 3.0, 7)
    x, P = exp_sr_2step(g, np.zeros(3), np.array([1.0, 0.0, lam]), ts, return_momentum=True)
    assert np.max(np.abs(x - h1_orbit(lam, ts))) < 5e-13
    expected_P = np.stack([np.cos(lam * ts), np.sin(lam * ts), np.full(7, lam)], axis=-1)
    assert np.max(np.abs(P - expected_P)) < 5e-13


def test_h1_full_turn():
    lam = 1.7
    g = h1()
    x = exp_sr_2step(g, np.zeros(3), np.array([1.0, 0.0, lam]), 2.0 * np.pi / lam)
    assert np.max(np.abs(x - np.array([0.0, 0.0, np.pi / lam**2]))) < 1e-12


def test_zero_vertical_momentum_is_straight():
    rng = np.random.default_rng(7)
    g = random_two_step(h=4, v=2, rng=rng)
    x0 = g.point(rng.normal(size=g.n))
    PH = rng.normal(size=4)
    P0 = np.concatenate([PH, np.zeros(2)])
    for t in [0.4, 1.9, -0.8]:
        x = exp_sr_2step(g, x0, P0, t)
        drift = np.einsum("vij,i,j->v", g.CH, PH, x0[:4])
        expected = np.concatenate([x0[:4] + t * PH, x0[4:] - 0.5 * t * drift])
        assert np.max(np.abs(x - expected)) < 1e-12


def test_invertible_generator_formula():
    g = hn(2)
    rng = np.random.default_rng(3)
    x0 = g.point(rng.normal(size=5))
    P0 = np.array([0.3, -1.2, 0.5, 0.8, 0.9])
    M = c_operator(g, P0[4:], horizontal=True)
    for t in [0.6, 2.3]:
        xh = exp_sr_2step(g, x0, P0, t)[:4]
        w, V = np.linalg.eig(M)
        E = (V * np.exp(-w * t)) @ np.linalg.inv(V)  # e^{-Mt}
        expected = x0[:4] + np.linalg.solve(M, (np.eye(4) - E.real) @ P0[:4])
        assert np.max(np.abs(xh - expected)) < 1e-10


def test_matches_rk4_endpoints():
    rng = np.random.default_rng(11)
    groups = [
        h1(),
        hn(2),
        random_two_step(h=3, v=1, rng=rng),
        random_two_step(h=4, v=2, rng=rng),
        random_two_step(h=5, v=3, rng=rng),
        random_two_step(h=6, v=2, rng=rng),
    ]
    for g in groups:
        x0 = g.point(0.3 * rng.normal(size=g.n))
        P0 = rng.normal(size=(2, g.n))
        for T in [1.3, -0.9]:
            trace = integrate_normal(g, x0, P0, T, steps=2500)
            x, P = exp_sr_2step(g, x0, P0, T, return_momentum=True)
            assert np.max(np.abs(trace.xs[-1] - x)) < 1e-8
            assert np.max(np.abs(trace.ps[-1] - P)) < 1e-8


def test_matches_rk4_along_trajectory():
    rng = np.random.default_rng(23)
    g = random_two_step(h=5, v=2, rng=rng)
    x0 = np.zeros(g.n)
    P0 = rng.normal(size=g.n)
    trace = integrate_normal(g, x0, P0, 2.0, steps=3000)
    sub = slice(0, 3001, 60)
    x = exp_sr_2step(g, x0, P0, trace.times[sub])
    assert np.max(np.abs(x - trace.xs[sub])) < 1e-8


def test_momentum_rescaling():
    rng = np.random.default_rng(5)
    g = random_two_step(h=5, v=3, rng=rng)
    x0 = g.point(rng.normal(size=g.n))
    P0 = rng.normal(size=g.n)
    for a in [0.1, 3.0, 10.0]:
        lhs = exp_sr_2step(g, x0, a * P0, 0.7)
        rhs = exp_sr_2step(g, x0, P0, a * 0.7)
        assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_left_invariance():
    rng = np.random.default_rng(19)
    g = random_two_step(h=4, v=3, rng=rng)
    x0 = g.point(rng.normal(size=g.n))
    P0 = rng.normal(size=g.n)
    ts = np.linspace(-1.0, 1.5, 6)
    lhs = exp_sr_2step(g, x0, P0, ts)
    rhs = group_product(g, x0, exp_sr_2step(g, np.zeros(g.n), P0, ts))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_batch_shapes_and_values():
    # a row's bits do not depend on the rows built with it: the shooting
    # solver shrinks its batch as tracks converge
    ts = np.linspace(0.1, 1.4, 5)
    for g in (hn(2), random_two_step(4, 3, np.random.default_rng(20091030))):
        P0 = np.random.default_rng(2).normal(size=(3, g.n))
        batch = exp_sr_2step(g, np.zeros(g.n), P0[:, None, :], ts)
        assert batch.shape == (3, 5, g.n)
        sub = exp_sr_2step(g, np.zeros(g.n), P0[1:, None, :], ts)
        assert np.array_equal(batch[1:], sub)
        for i in range(3):
            single = exp_sr_2step(g, np.zeros(g.n), P0[i], ts)
            assert np.array_equal(batch[i], single)


JET_GROUPS = [
    random_two_step(4, 3, np.random.default_rng(20091030)),
    # odd h: one frequency of every M is zero
    random_two_step(5, 3, np.random.default_rng(41)),
    # corank 1, in canonical planes; odd h leaves a kernel plane-free
    hn(2),
    random_two_step(5, 1, np.random.default_rng(43)),
]
JET_IDS = ["h4v3", "h5v3", "hn2", "h5v1"]


def jet_case(g, rng, rows, scale):
    x0 = g.point(rng.normal(size=(rows, g.n)))
    P0 = rng.normal(size=(rows, g.n))
    P0[:, g.h :] *= scale
    return x0, P0, rng.uniform(-2.0, 2.0, rows), rng.normal(size=(3, rows, g.h))


@pytest.mark.parametrize("g", JET_GROUPS, ids=JET_IDS)
def test_jet_matches_central_differences(g):
    rng = np.random.default_rng(42)
    h, eps = g.h, 1e-5
    for scale in [1e-6, 1e-3, 0.1, 1.0, 5.0]:
        x0, P0, t, dPH = jet_case(g, rng, 6, scale)
        path = ClosedFormPath(group=g, x0=x0, P0=P0)
        x, dx = path.jet(t, dPH)
        assert np.array_equal(x, path.point(t))
        assert np.array_equal(path.horizontal(t)[0], x[..., :h])
        assert np.array_equal(x0[..., h:] - 0.5 * path.increments(t), x[..., h:])
        for j in range(3):
            Pp, Pm = P0.copy(), P0.copy()
            Pp[:, :h] += eps * dPH[j]
            Pm[:, :h] -= eps * dPH[j]
            fd = (
                ClosedFormPath(group=g, x0=x0, P0=Pp).point(t)
                - ClosedFormPath(group=g, x0=x0, P0=Pm).point(t)
            ) / (2.0 * eps)
            assert np.max(np.abs(dx[j] - fd)) <= 1e-7 * max(1.0, np.abs(dx[j]).max())


@pytest.mark.parametrize("g", JET_GROUPS, ids=JET_IDS)
def test_jet_rows_independent_of_batch(g):
    x0, P0, t, dPH = jet_case(g, np.random.default_rng(43), 37, 1.0)
    x, dx = ClosedFormPath(group=g, x0=x0, P0=P0).jet(t, dPH)
    for i in range(37):
        xi, dxi = ClosedFormPath(group=g, x0=x0[i], P0=P0[i]).jet(t[i], dPH[:, i])
        assert np.array_equal(x[i], xi)
        assert np.array_equal(dx[:, i], dxi)


@pytest.mark.parametrize("g1", JET_GROUPS[2:], ids=JET_IDS[2:])
def test_corank1_planes_match_spectral_path(g1):
    # a v = 2 group whose C^1 is g1's: with P_V = (eta, 0) its spectral path
    # runs the geodesic that g1's plane-by-plane branch runs, and its first
    # vertical coordinate sees C^1 alone
    h, C1 = g1.h, g1.CH[0]
    rng = np.random.default_rng(2009)
    A = rng.normal(size=(h, h))
    consts = [
        (a + h + 1, i + 1, j + 1, C[i, j])
        for i, j in zip(*np.triu_indices(h, k=1))
        for a, C in enumerate([C1, A - A.T])
    ]
    g2 = build_group((h, 2), consts)
    assert np.array_equal(g2.CH[0], C1)
    for scale in [1e-6, 1e-3, 0.1, 1.0, 5.0]:
        x0 = g2.point(rng.normal(size=(40, h + 2)))
        P0 = rng.normal(size=(40, h + 2))
        P0[:, h] *= scale
        P0[:, h + 1] = 0.0
        t = rng.uniform(-3.0, 3.0, 40)
        x2, p2 = ClosedFormPath(group=g2, x0=x0, P0=P0).point(t, return_momentum=True)
        x1, p1 = ClosedFormPath(group=g1, x0=x0[:, : h + 1], P0=P0[:, : h + 1]).point(
            t, return_momentum=True
        )
        for a, b in [(x1[:, :h], x2[:, :h]), (p1[:, :h], p2[:, :h]), (x1[:, h], x2[:, h])]:
            assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, np.abs(b).max())


@pytest.mark.parametrize("g", JET_GROUPS, ids=JET_IDS)
def test_with_horizontal_matches_a_fresh_build(g):
    rng = np.random.default_rng(45)
    x0, P0, t, _ = jet_case(g, rng, 5, 1.0)
    PH = rng.normal(size=(5, g.h))
    got = ClosedFormPath(group=g, x0=x0, P0=P0).with_horizontal(PH).point(t)
    P0[:, : g.h] = PH
    want = ClosedFormPath(group=g, x0=x0, P0=P0).point(t)
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.abs(want).max())


def test_corank1_needs_no_product_integrals(monkeypatch):
    def refuse(*args):
        raise AssertionError("product integral on corank 1")

    for name in ["t1", "t2", "t3", "t4", "products"]:
        monkeypatch.setattr(_trig, name, refuse)
    g = hn(2)
    x0, P0, t, dPH = jet_case(g, np.random.default_rng(44), 8, 1.0)
    path = ClosedFormPath(group=g, x0=x0, P0=P0)
    x, dx = path.jet(t, dPH)
    assert np.array_equal(x, path.point(t))
    assert dx.shape == (3, 8, g.n)


def test_wrong_step_rejected():
    with pytest.raises(WrongStep):
        exp_sr_2step(engel(), np.zeros(4), np.ones(4), 1.0)
    with pytest.raises(WrongStep):
        exp_sr_2step(build_group((3,), []), np.zeros(3), np.ones(3), 1.0)


def blocks(form):
    """The canonical form O^T M O, assembled from the frequencies."""
    h = form.O.shape[0]
    B = np.zeros((h, h))
    for j, lam in enumerate(form.lambdas):
        B[2 * j, 2 * j + 1], B[2 * j + 1, 2 * j] = lam, -lam
    return B


def test_skew_canonical_reconstruction():
    rng = np.random.default_rng(13)
    for h in [2, 3, 4, 5, 6]:
        A = rng.normal(size=(h, h))
        M = A - A.T
        form = skew_canonical(M)
        O = form.O
        assert np.max(np.abs(O.T @ O - np.eye(h))) < 1e-12
        scale = max(1.0, float(np.max(np.abs(M))))
        assert np.max(np.abs(O.T @ M @ O - blocks(form))) < 1e-10 * scale
        assert 2 * form.lambdas.size + form.nullity == h
        lams = form.lambdas
        assert np.all(lams > 0.0)
        assert np.all(np.diff(lams) <= 1e-12)
        if h % 2 == 1:
            assert form.nullity >= 1
        freqs = np.abs(np.linalg.eigvals(M).imag)
        top = np.sort(freqs)[::-1][: 2 * form.lambdas.size : 2]
        assert np.max(np.abs(np.sort(top) - np.sort(lams))) < 1e-9 * scale


def test_skew_canonical_degenerate_and_zero():
    lam = 1.4
    M = np.zeros((4, 4))
    M[0, 1], M[1, 0] = lam, -lam
    M[2, 3], M[3, 2] = lam, -lam
    form = skew_canonical(M)
    assert form.lambdas.size == 2 and form.nullity == 0
    assert np.max(np.abs(form.lambdas - lam)) < 1e-12
    assert np.max(np.abs(form.O.T @ M @ form.O - blocks(form))) < 1e-10

    zero = skew_canonical(np.zeros((3, 3)))
    assert zero.lambdas.size == 0 and zero.nullity == 3
    assert np.max(np.abs(zero.O.T @ zero.O - np.eye(3))) < 1e-12

    with pytest.raises(NotSkew):
        skew_canonical(np.eye(2))


def planes_and_kernel(lams, rng):
    """A random rotation of canonical blocks lams, padded with one kernel
    direction, skew-symmetrized."""
    h = 2 * len(lams) + 1
    B = np.zeros((h, h))
    for j, lam in enumerate(lams):
        B[2 * j, 2 * j + 1], B[2 * j + 1, 2 * j] = lam, -lam
    Q, _ = np.linalg.qr(rng.normal(size=(h, h)))
    M = Q @ B @ Q.T
    return 0.5 * (M - M.T)


def test_skew_canonical_tiny_frequency_beside_kernel():
    # a plane turning 1e9 times slower than its neighbour still counts as a
    # plane, and the kernel stays one direction
    rng = np.random.default_rng(3)
    for lam2 in [1e-9, 1e-7, 1e-5, 1e-2]:
        for _ in range(50):
            M = planes_and_kernel([1.0, lam2], rng)
            form = skew_canonical(M)
            assert form.nullity == 1 and form.O.shape == (5, 5)
            assert abs(form.lambdas[1] / lam2 - 1.0) < 1e-5
            assert np.max(np.abs(form.O.T @ form.O - np.eye(5))) <= 1e-14
            dev = np.max(np.abs(form.O.T @ M @ form.O - blocks(form)))
            assert dev <= 1e-14 * np.max(np.abs(M))


def tiny_frequency_group():
    """Corank 1, h = 5: frequencies 1 and about 1.9e-7 beside a kernel."""
    rng = np.random.default_rng(0)
    lam2 = 10 ** rng.uniform(-8, -6)
    C1 = planes_and_kernel([1.0, lam2], rng)
    consts = [(6, i + 1, j + 1, C1[i, j]) for i in range(5) for j in range(i + 1, 5)]
    return build_group((5, 1), consts)


def test_tiny_frequency_group_exp_and_distance():
    g = tiny_frequency_group()
    x0 = np.zeros(g.n)
    P0 = np.array([0.6, 0.0, 0.8, 0.0, 0.0, 2.0])
    trace = integrate_normal(g, x0, P0, 1.5, steps=3000)
    y = exp_sr_2step(g, x0, P0, 1.5)
    assert np.max(np.abs(trace.xs[-1] - y)) < 1e-12
    # the fast plane turns by 3 < 2 pi, so the planted curve is the minimizer
    assert abs(distance_point(g, x0, y).T - 1.5) < 1e-9


def test_vertical_increment_closed_form():
    lam = 2.1
    path = ClosedFormPath(group=h1(), x0=np.zeros(3), P0=np.array([1.0, 0.0, lam]))
    val = path.increments(2.0 * np.pi / lam)[0]
    assert abs(val + 2.0 * np.pi / lam**2) < 1e-12


def test_vertical_increment_sampled_matches_closed():
    # Simpson of <C^a_H x_H, P_H> on sampled horizontal data, an independent
    # check of the closed-form vertical part
    rng = np.random.default_rng(17)
    g = random_two_step(h=4, v=2, rng=rng)
    path = ClosedFormPath(group=g, x0=np.zeros(g.n), P0=rng.normal(size=g.n))
    ts = np.linspace(0.0, 1.1, 2001)
    xh, ph, _ = path.horizontal(ts)
    exact = path.increments(1.1)
    for a in range(g.v):
        integrand = np.einsum("ij,mj,mi->m", g.CH[a], xh, ph)
        sampled = _simpson(integrand, ts[1] - ts[0])
        assert abs(sampled - exact[a]) < 1e-10


def test_periodic_loop_has_zero_mean_momentum():
    lam = 0.9
    g = h1()
    path = ClosedFormPath(group=g, x0=np.zeros(3), P0=np.array([1.0, 0.0, lam]))
    T = 2.0 * np.pi / lam
    ts = np.linspace(0.0, T, 1601)
    _, P = path.point(ts, return_momentum=True)
    mean = np.trapezoid(P[:, :2], ts, axis=0)
    assert np.max(np.abs(mean)) < 1e-9
    assert np.max(np.abs(path.point(T)[:2])) < 1e-12

    rng = np.random.default_rng(29)
    g = random_two_step(h=5, v=2, rng=rng)
    z = rng.normal(size=2)
    M = c_operator(g, z, horizontal=True)
    form = skew_canonical(M)
    P0 = np.concatenate([form.O[:, 0], z])
    path = ClosedFormPath(group=g, x0=np.zeros(g.n), P0=P0)
    T = 2.0 * np.pi / form.lambdas[0]
    ts = np.linspace(0.0, T, 1601)
    _, P = path.point(ts, return_momentum=True)
    assert np.max(np.abs(np.trapezoid(P[:, :5], ts, axis=0))) < 1e-9
    assert np.max(np.abs(path.point(T)[:5])) < 1e-10
