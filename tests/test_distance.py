"""Shooting distance, sphere sampling, and conjugate detection tests.

Closed-form oracles: on any Heisenberg group d(0, z e_top) = 2 sqrt(pi z)
with a one-parameter family of minimizers, d(0, e1) = 1 along the straight
line, and the Jacobian of the time-1 exponential degenerates exactly at
t = 2 pi k / lam and at the roots of tan(z) = z with z = lam t / 2.
"""

import numpy as np
import pytest

from carnot import distance
from carnot.distance import (
    ShootingSolution,
    _pick,
    conjugate_detect,
    distance_batch,
    distance_lower_bound,
    distance_point,
    gauss_system_integrate,
    horizontal_distance_gradient,
    sphere_sample,
)
from carnot.errors import NoConvergence, NonFiniteState, NotUnit, WrongStep
from carnot.expmap import exp_sr_2step, skew_canonical
from carnot.groups import (
    c_operator,
    dilate,
    engel,
    group_product,
    h1,
    hn,
    random_two_step,
)

TAN_Z_ROOT = 4.493409457909064  # first positive solution of tan z = z


def test_unit_horizontal_step():
    for g in (h1(), hn(2)):
        y = np.zeros(g.n)
        y[0] = 1.0
        sol = distance_point(g, np.zeros(g.n), y)
        assert abs(sol.T - 1.0) < 1e-9
        assert not sol.multiplicity and not sol.on_axis
        e1 = np.zeros(g.n)
        e1[0] = 1.0
        assert np.max(np.abs(sol.P0 - e1)) < 1e-7


def test_high_turn_minimizer_found_at_every_start_count():
    # regression: start-lattice prefixes must cover both turn signs; a
    # prefix reaching +1.1 without -1.1 missed this minimizer (generated
    # at 0.94 of a full negative turn) and reported a root 13% too long
    g = hn(2)
    nu = np.array([0.3, -0.5, 0.6, 0.55])
    nu /= np.linalg.norm(nu)
    P0 = np.concatenate([nu, [-0.9375 * 2.0 * np.pi]])
    y = exp_sr_2step(g, np.zeros(5), P0, 1.0)
    for st in (8, 10, 16):
        sol = distance_point(g, np.zeros(5), y, starts=st)
        assert abs(sol.T - 1.0) < 1e-8


def test_vertical_axis_closed_form():
    g = h1()
    for z in (0.25, 1.0, 4.0):
        sol = distance_point(g, np.zeros(3), [0.0, 0.0, z])
        assert abs(sol.T - 2.0 * np.sqrt(np.pi * z)) < 1e-6
        assert sol.multiplicity and sol.on_axis
    # same value on the five-dimensional Heisenberg group
    sol = distance_point(g := hn(2), np.zeros(5), [0, 0, 0, 0, 1.0])
    assert abs(sol.T - 2.0 * np.sqrt(np.pi)) < 1e-6
    assert sol.multiplicity


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_corank1_target_next_to_the_axis():
    # |y_j|^2 of the fastest plane is subnormal for the middle three offsets;
    # the answer stays that of the axis point, 2 sqrt(pi)
    y = np.array([[0.0, s, 1.0] for s in (1e-156, 1e-158, 3.14e-160, 1e-161, 0.0)])
    batch = distance_batch(h1(), np.zeros(3), y)
    assert batch.converged.all()
    assert np.allclose(batch.T, 2.0 * np.sqrt(np.pi), rtol=1e-12, atol=0.0)


def test_symmetry_and_left_invariance():
    rng = np.random.default_rng(5)
    for g in (h1(), random_two_step(3, 2, rng)):
        for _ in range(3):
            x = rng.normal(size=g.n) * 0.6
            y = rng.normal(size=g.n) * 0.6
            z = rng.normal(size=g.n)
            d = distance_point(g, x, y).T
            assert abs(d - distance_point(g, y, x).T) < 1e-7
            shifted = distance_point(
                g, group_product(g, z, x), group_product(g, z, y)
            ).T
            assert abs(d - shifted) < 1e-8


def test_corank1_family_off_the_fastest_plane():
    # two frequencies and a kernel direction; a target with no component in
    # the fastest plane and a vertical part the slow plane cannot reach is
    # reached by a family that turns a full period in the fastest plane
    # (value from 32-start shooting)
    g = random_two_step(5, 1, np.random.default_rng(7))
    form = skew_canonical(g.CH[0])
    y = np.zeros(6)
    y[:5] = 0.3 * form.O[:, 2] + 0.4 * form.O[:, 4]
    y[5] = -3.0
    sol = distance_point(g, np.zeros(6), y)
    assert abs(sol.T - 6.51970607) < 1e-7
    assert sol.multiplicity and not sol.on_axis
    reached = exp_sr_2step(g, np.zeros(6), sol.P0, sol.T)
    assert np.max(np.abs(reached - y)) < 1e-10


def test_full_turn_root_retried_on_inverse():
    # the lattice reaches y only through a root (3.8685) that turns past a
    # full period without a conjugate point; -y is solved too, and its
    # minimizer reversed reaches y at 3.5412
    g = random_two_step(4, 3, np.random.default_rng(8))
    y = np.array([0.665, 0.474, 0.04, 1.015, -0.262, 0.436, 0.86])
    sol = distance_point(g, np.zeros(7), y)
    back = distance_point(g, np.zeros(7), -y)
    assert abs(sol.T - back.T) < 1e-9
    assert abs(sol.T - 3.541218) < 1e-6
    reached = exp_sr_2step(g, np.zeros(7), sol.P0, sol.T)
    assert np.max(np.abs(reached - y)) < 1e-9


def test_unconverged_target_retried_on_inverse():
    # no start of the lattice converges on y (best residual 0.30); -y is
    # solved too, and its minimizer reversed reaches y at d(y, 0)
    g = random_two_step(4, 3, np.random.default_rng(8))
    y = np.array([
        0.43919349351729436, 1.024591077762065, -0.3232677308941149,
        1.7133716327948385, 1.2759740433101456, 0.35307602330793086,
        0.47171827985954007,
    ])
    sol = distance_point(g, np.zeros(7), y)
    assert abs(sol.T - 3.967896) < 1e-6
    assert abs(sol.T - distance_point(g, y, np.zeros(7)).T) < 1e-9
    reached = exp_sr_2step(g, np.zeros(7), sol.P0, sol.T)
    assert np.max(np.abs(reached - y)) < 1e-9


def test_pick_is_lexicographic_first_of_equals():
    # the fold rule: among tied roots the lexicographically smallest
    # covector, the first of equal ones winning; untied roots never win
    rng = np.random.default_rng(14)
    P0s = rng.integers(0, 3, (40, 6, 3)).astype(float)
    ties = rng.random((40, 6)) < 0.6
    ties[:, 0] |= ~ties.any(axis=1)
    got = _pick(P0s, ties)
    for i in range(40):
        cols = np.nonzero(ties[i])[0]
        assert got[i] == min(cols, key=lambda s: (tuple(P0s[i, s]), s))


def test_dilation_scaling():
    g = h1()
    rng = np.random.default_rng(6)
    x = rng.normal(size=3) * 0.5
    y = rng.normal(size=3) * 0.5
    d = distance_point(g, x, y).T
    for a in (0.3, 2.5):
        da = distance_point(g, dilate(g, a, x), dilate(g, a, y)).T
        assert abs(da - a * d) < 1e-7 * max(1.0, a)


def test_triangle_inequality():
    g = h1()
    rng = np.random.default_rng(7)
    for _ in range(5):
        x, y, z = (rng.normal(size=3) * 0.7 for _ in range(3))
        dxy = distance_point(g, x, y).T
        dyz = distance_point(g, y, z).T
        dxz = distance_point(g, x, z).T
        assert dxz <= dxy + dyz + 1e-8


def test_lower_bound_never_exceeds_distance():
    rng = np.random.default_rng(8)
    for g in (h1(), hn(2), random_two_step(4, 3, rng)):
        targets = rng.normal(size=(15, g.n))
        lb = distance_lower_bound(g, np.zeros(g.n), targets)
        batch = distance_batch(g, np.zeros(g.n), targets)
        assert batch.converged.all()
        assert (lb <= batch.T + 1e-9).all()
    # tight on purely horizontal targets
    g = h1()
    lb = distance_lower_bound(g, np.zeros(3), np.array([[0.7, -0.4, 0.0]]))
    assert abs(lb[0] - np.hypot(0.7, -0.4)) < 1e-14


def test_batch_matches_single_calls():
    g = hn(2)
    rng = np.random.default_rng(9)
    targets = rng.normal(size=(6, 5)) * 0.8
    batch = distance_batch(g, np.zeros(5), targets)
    for i in range(6):
        sol = distance_point(g, np.zeros(5), targets[i])
        assert abs(batch.T[i] - sol.T) < 1e-10
        np.testing.assert_allclose(batch.P0[i], sol.P0, atol=1e-8)


def test_zero_target_and_base_point_shift():
    g = h1()
    x = np.array([0.4, -0.2, 0.7])
    batch = distance_batch(g, x, x[None, :])
    assert batch.converged[0] and batch.T[0] == 0.0
    sol = batch.solution(0)
    assert isinstance(sol, ShootingSolution)
    assert sol.T == 0.0


def test_shooting_solution_unit_gate():
    g = h1()
    with pytest.raises(NotUnit):
        ShootingSolution(
            P0=np.array([1.1, 0.0, 0.0]), T=1.0, residual=0.0, group=g
        )


def test_rejects_higher_step_and_bad_width():
    ge = engel()
    with pytest.raises(WrongStep):
        distance_point(ge, np.zeros(4), np.ones(4))
    with pytest.raises(ValueError):
        distance_batch(h1(), np.zeros(3), np.ones((2, 4)))


def test_gauss_system_matches_normal_flow():
    rng = np.random.default_rng(10)
    for g in (h1(), hn(2), random_two_step(3, 2, rng)):
        x0 = rng.normal(size=g.n) * 0.5
        nu = rng.normal(size=g.h)
        nu /= np.linalg.norm(nu)
        vp = rng.normal(size=g.v)
        a = gauss_system_integrate(g, x0, nu, vp, 1.4, steps=600)
        xs, ps = exp_sr_2step(
            g, x0, np.concatenate([nu, vp]), a.times, return_momentum=True
        )
        assert np.max(np.abs(a.xs - xs)) < 1e-10
        assert np.max(np.abs(a.ps - ps)) < 1e-10
        assert a.meta["method"] == "rk4-orthogonality"


def test_gauss_system_zero_covector_is_straight():
    g = hn(2)
    x0 = np.array([0.2, -0.1, 0.4, 0.0, 0.3])
    nu = np.array([0.6, 0.0, -0.8, 0.0])
    tr = gauss_system_integrate(g, x0, nu, np.zeros(1), 2.0, steps=400)
    line = np.zeros(5)
    line[:4] = nu
    for i in (100, 400):
        t = tr.times[i]
        np.testing.assert_allclose(
            tr.xs[i], group_product(g, x0, t * line), atol=1e-12
        )


def test_gauss_system_rejects_nonunit_direction():
    with pytest.raises(NotUnit):
        gauss_system_integrate(
            h1(), np.zeros(3), np.array([0.9, 0.0]), np.zeros(1), 1.0
        )


def test_non_finite_points_raise():
    # corank 2 used to end in numpy's LinAlgError, corank 1 in converged=False
    for g in (h1(), random_two_step(3, 2, np.random.default_rng(10))):
        ok = np.full(g.n, 0.5)
        for bad in (np.nan, np.inf, -np.inf):
            y = ok.copy()
            y[-1] = bad
            with pytest.raises(NonFiniteState):
                distance_batch(g, ok, y)
            with pytest.raises(NonFiniteState):
                distance_point(g, y, ok)
            with pytest.raises(NonFiniteState):
                distance_lower_bound(g, ok, y)


def test_unconverged_target_raises_with_residual():
    # corank 2: corank-1 targets are solved exactly and always converge
    g = random_two_step(3, 2, np.random.default_rng(10))
    batch = distance_batch(
        g, np.zeros(5), np.array([[0.0, 0.0, 0.0, 3.0, -1.0]]),
        starts=1, max_iter=2,
    )
    assert not batch.converged[0]
    assert batch.residual[0] > 1.0
    with pytest.raises(NoConvergence):
        batch.solution(0)


def test_corank1_exact_at_high_turn():
    # planted unit covectors turned 0.85-0.99 of a period are minimizing;
    # the exact corank-1 path recovers their length with one start
    rng = np.random.default_rng(12)
    groups = (
        h1(),
        hn(3),
        random_two_step(3, 1, np.random.default_rng(13)),
        random_two_step(5, 1, np.random.default_rng(7)),
    )
    for g in groups:
        lam = skew_canonical(g.CH[0]).lambdas[0]
        for turn in (0.85, -0.9, 0.95, -0.99):
            nu = rng.normal(size=g.h)
            nu /= np.linalg.norm(nu)
            L = 10.0 ** rng.uniform(-1.0, 1.0)
            P0 = np.concatenate([nu, [turn * 2.0 * np.pi / (L * lam)]])
            y = exp_sr_2step(g, np.zeros(g.n), P0, L)
            sol = distance_point(g, np.zeros(g.n), y, starts=1, max_iter=1)
            assert abs(sol.T - L) < 1e-10 * max(1.0, L)
            assert not sol.multiplicity
            reached = exp_sr_2step(g, np.zeros(g.n), sol.P0, sol.T)
            assert np.max(np.abs(reached - y)) < 1e-10 * max(1.0, L**2)


def test_normal_geodesic_minimizes_up_to_the_fastest_turn():
    # a normal geodesic minimizes up to the turn 2 pi / sigma_max(C_H(eta)):
    # covectors planted at 0.5-0.95 of that turn on a corank-2 group have
    # their length as distance
    g = random_two_step(3, 2, np.random.default_rng(10))
    rng = np.random.default_rng(11)
    turns = np.linspace(0.5, 0.95, 12)
    lengths = np.geomspace(0.6, 3.0, 12)
    P0 = np.empty((12, g.n))
    for i, (turn, L) in enumerate(zip(turns, lengths)):
        nu = rng.normal(size=g.h)
        e = rng.normal(size=g.v)
        sigma = np.linalg.norm(c_operator(g, e, horizontal=True), ord=2)
        P0[i, : g.h] = nu / np.linalg.norm(nu)
        P0[i, g.h :] = e * turn * 2.0 * np.pi / (L * sigma)
    targets = exp_sr_2step(g, np.zeros(g.n), P0, lengths)
    batch = distance_batch(g, np.zeros(g.n), targets)
    assert batch.converged.all()
    assert np.max(np.abs(batch.T - lengths) / lengths) < 1e-8
    assert not batch.multiplicity.any()


def test_sphere_sample_h1():
    g = h1()
    r = 1.0
    sample = sphere_sample(g, np.zeros(3), r, n_dirs=12, n_vert=7, starts=10)
    assert sample.swept == 84
    assert len(sample) >= 40
    assert np.all(np.abs(sample.distances - r) < 1e-5 * r)
    assert sample.regular.any()
    # generating covectors are unit-horizontal and reproduce the points
    assert np.max(np.abs(np.linalg.norm(sample.nu_H, axis=1) - 1.0)) < 1e-12
    P0 = np.concatenate([sample.nu_H, sample.varpi], axis=1)
    again = exp_sr_2step(g, np.zeros(3), P0, r)
    assert np.max(np.abs(again - sample.points)) < 1e-12


def test_sphere_regular_points_turn_less_than_a_period():
    # a regular point's generating covector turns less than a full period
    # of its fastest rotation over the radius
    for g, n_dirs in ((h1(), 12), (hn(2), 8)):
        r = 0.9
        sample = sphere_sample(g, np.zeros(g.n), r, n_dirs=n_dirs, starts=10)
        assert sample.regular.any()
        M = c_operator(g, sample.varpi[sample.regular], horizontal=True)
        sigma = np.linalg.svd(M, compute_uv=False)[:, 0]
        assert (sigma * r < 2.0 * np.pi * (1.0 - 1e-3)).all()


def test_sphere_beyond_first_period_dropped():
    g = h1()
    # a full-turn covector lands back on the axis strictly inside the sphere
    lam = 3.0 * np.pi
    P0 = np.array([1.0, 0.0, lam])
    pt = exp_sr_2step(g, np.zeros(3), P0, 1.0)
    d = distance_point(g, np.zeros(3), pt).T
    assert d < 1.0 - 1e-3


def test_sphere_table_export():
    sample = sphere_sample(
        h1(), np.zeros(3), 0.8, n_dirs=6, n_vert=3, starts=8
    )
    lines = sample.as_table().strip().split("\n")
    assert lines[0].split() == [
        "x1", "x2", "x3", "nu1", "nu2", "varpi1", "regular",
    ]
    assert len(lines) == len(sample) + 1
    row = lines[1].split()
    assert row[-1] in ("0", "1")
    np.testing.assert_allclose(
        [float(tok) for tok in row[:3]], sample.points[0], rtol=1e-10
    )


def test_reverse_shooting_returns_to_center():
    g = hn(2)
    x0 = np.array([0.3, 0.0, -0.2, 0.1, 0.05])
    r = 0.9
    sample = sphere_sample(g, x0, r, n_dirs=10, n_vert=5, starts=10)
    assert len(sample) > 0
    back_P = -np.concatenate([sample.arrival_H, sample.varpi], axis=1)
    back = exp_sr_2step(g, sample.points, back_P, r)
    assert np.max(np.abs(back - x0)) < 1e-6


def test_eikonal_and_gauss_orthogonality():
    g = h1()
    sample = sphere_sample(g, np.zeros(3), 1.0, n_dirs=10, n_vert=5, starts=10)
    pts = sample.points[sample.regular][:5]
    arr = sample.arrival_H[sample.regular][:5]
    grads = horizontal_distance_gradient(g, np.zeros(3), pts, starts=8)
    assert np.max(np.abs(np.linalg.norm(grads, axis=1) - 1.0)) < 1e-3
    # the horizontal gradient of d points along the arriving momentum
    assert np.max(np.abs(grads - arr)) < 1e-3


def test_conjugate_times_h1():
    g = h1()
    for lam in (0.5, 1.0, 4.0):
        P0 = np.array([1.0, 0.0, lam])
        found = conjugate_detect(g, np.zeros(3), P0, 1.1 * 2.0 * np.pi / lam)
        assert found.size >= 1
        assert abs(found[0] - 2.0 * np.pi / lam) < 1e-6
    # wider window picks up the tan z = z branch as well
    found = conjugate_detect(g, np.zeros(3), [1.0, 0.0, 1.0], 10.0)
    assert found.size == 2
    assert abs(found[1] - 2.0 * TAN_Z_ROOT) < 1e-5


def test_conjugate_triple_root_reported_once():
    # on hn(2) with both planes turning at the same rate the first conjugate
    # time 2 pi has multiplicity 3: det changes sign there and |det| dips,
    # and the two candidates are one root
    found = conjugate_detect(hn(2), np.zeros(5), [1.0, 0.0, 0.0, 0.0, 1.0], 7.0)
    assert found.size == 1
    assert abs(found[0] - 2.0 * np.pi) < 1e-6


def test_conjugate_refinement_is_batched(monkeypatch):
    # eight conjugate times are refined together: the closed-form builds do
    # not grow with the number of roots
    builds = []

    class Counted(distance.ClosedFormPath):
        def __post_init__(self):
            builds.append(1)
            super().__post_init__()

    monkeypatch.setattr(distance, "ClosedFormPath", Counted)
    found = conjugate_detect(h1(), np.zeros(3), [0.6, 0.8, 2.5], 12.0)
    lam = 2.5
    tan_z_roots = [TAN_Z_ROOT, 7.725251836937704, 10.904121659428904, 14.066193912831482]
    want = np.sort(
        np.concatenate([np.pi * np.arange(1, 5), tan_z_roots]) * 2.0 / lam
    )
    assert found.size == 8
    assert np.max(np.abs(found - want)) < 1e-5
    assert len(builds) < 30


def test_conjugate_free_straight_line():
    g = h1()
    found = conjugate_detect(g, np.zeros(3), [1.0, 0.0, 0.0], 5.0)
    assert found.size == 0


def test_conjugate_detect_rejects_engel():
    with pytest.raises(WrongStep):
        conjugate_detect(engel(), np.zeros(4), np.ones(4), 1.0)
