"""Closed-form exponential against hand oracles and the RK4 integrator."""

import numpy as np
import pytest

from carnot import _trig
from carnot.errors import (
    GridMismatch,
    NotSkew,
    TooFewSamples,
    WrongStep,
    ZeroCovector,
)
from carnot.expmap import (
    ClosedFormPath,
    exp_sr_2step,
    minimal_periods,
    periodicity,
    skew_canonical,
    vertical_increment,
)
from carnot.geodesics import integrate_normal
from carnot.groups import build_group, c_operator, engel, group_product, h1, hn, random_two_step


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
    rng = np.random.default_rng(2)
    g = hn(2)
    P0 = rng.normal(size=(3, g.n))
    ts = np.linspace(0.1, 1.4, 5)
    batch = exp_sr_2step(g, np.zeros(g.n), P0[:, None, :], ts)
    assert batch.shape == (3, 5, g.n)
    for i in range(3):
        single = exp_sr_2step(g, np.zeros(g.n), P0[i], ts)
        assert np.max(np.abs(batch[i] - single)) < 1e-14


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


def test_periodicity_h1():
    g = h1()
    lam = 1.3
    full = periodicity(g, np.array([lam]), 2.0 * np.pi / lam)
    assert full.rank_defect == 2
    assert full.nullity == 0
    assert full.nonconstant_dim == 2
    assert len(full.minimal_periods) == 1
    assert abs(full.minimal_periods[0] - 2.0 * np.pi / lam) < 1e-12
    half = periodicity(g, np.array([lam]), np.pi / lam)
    assert half.rank_defect == 0 and half.nonconstant_dim == 0


def test_periodicity_h2_and_bounds():
    g = hn(2)
    z = np.array([0.7])
    report = periodicity(g, z, 2.0 * np.pi / 0.7)
    assert report.rank_defect == 4 and report.nullity == 0
    assert minimal_periods(g, z) == report.minimal_periods

    rng = np.random.default_rng(41)
    for h, v in [(3, 1), (4, 2), (5, 3), (6, 2)]:
        g = random_two_step(h=h, v=v, rng=rng)
        z = rng.normal(size=v)
        for T in minimal_periods(g, z):
            rep = periodicity(g, z, T)
            assert rep.nullity + 2 <= rep.rank_defect <= h
        generic = periodicity(g, z, 0.377146)
        assert generic.rank_defect == generic.nullity


def test_periodicity_counts_unit_eigenvalues_of_the_flow():
    # rank_defect against an SVD of e^{-MT} - Id built by eigendecomposition,
    # at each minimal period, half of the first one and a generic time
    rng = np.random.default_rng(43)
    for _ in range(4):
        g = random_two_step(5, 2, rng)
        z = rng.normal(size=2)
        w, V = np.linalg.eig(c_operator(g, z, horizontal=True))
        periods = minimal_periods(g, z)
        for T in periods + (0.5 * periods[0], 0.377146):
            E = ((V * np.exp(-w * T)) @ np.linalg.inv(V)).real
            s = np.linalg.svd(E - np.eye(5), compute_uv=False)
            rep = periodicity(g, z, T)
            assert rep.rank_defect == int(np.sum(s < 1e-8))
            assert rep.nonconstant_dim == rep.rank_defect - rep.nullity


def test_minimal_periods_zero_covector():
    with pytest.raises(ZeroCovector):
        minimal_periods(h1(), np.array([0.0]))


def test_vertical_increment_circle():
    rho = 1.7
    s = np.linspace(0.0, 2.0 * np.pi, 4001)
    circle = rho * np.stack([np.cos(s), np.sin(s)], axis=-1)
    val = vertical_increment(h1(), 3, (s, circle))
    assert abs(val + 2.0 * np.pi * rho**2) < 5e-5
    val_rev = vertical_increment(h1(), 3, (s, circle[::-1]))
    assert abs(val_rev - 2.0 * np.pi * rho**2) < 5e-5


def test_vertical_increment_radial():
    s = np.linspace(0.0, 1.0, 101)
    ray = s[:, None] * np.array([0.6, 0.8])
    assert abs(vertical_increment(h1(), 3, (s, ray))) < 1e-12


def test_vertical_increment_closed_form():
    lam = 2.1
    path = ClosedFormPath(group=h1(), x0=np.zeros(3), P0=np.array([1.0, 0.0, lam]))
    val = vertical_increment(h1(), 3, path, t=2.0 * np.pi / lam)
    assert abs(val + 2.0 * np.pi / lam**2) < 1e-12


def test_vertical_increment_sampled_matches_closed():
    rng = np.random.default_rng(17)
    g = random_two_step(h=4, v=2, rng=rng)
    path = ClosedFormPath(group=g, x0=np.zeros(g.n), P0=rng.normal(size=g.n))
    ts = np.linspace(0.0, 1.1, 2001)
    xh = path.horizontal(ts)[0]
    for alpha in [5, 6]:
        sampled = vertical_increment(g, alpha, (ts, xh))
        exact = vertical_increment(g, alpha, path, t=1.1)
        assert abs(sampled - exact) < 1e-6


def test_vertical_increment_validation():
    g = h1()
    path = ClosedFormPath(group=g, x0=np.zeros(3), P0=np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        vertical_increment(g, 1, path, t=1.0)
    with pytest.raises(ValueError):
        vertical_increment(g, 3, path)
    s = np.linspace(0.0, 1.0, 11)
    xh = np.zeros((11, 2))
    with pytest.raises(ValueError):
        vertical_increment(g, 3, (s, xh), t=1.0)
    with pytest.raises(TooFewSamples):
        vertical_increment(g, 3, (s[:2], xh[:2]))
    bad = s.copy()
    bad[4] += 0.03
    with pytest.raises(GridMismatch):
        vertical_increment(g, 3, (bad, xh))


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
