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


def test_rows_independent_of_certified_neighbours():
    # the tracks of a target stop once one of them certifies a root; that
    # stop is per target, so the target of the test above, which has no
    # certified root on z, gets the same bits next to certified targets
    g = random_two_step(4, 3, np.random.default_rng(8))
    rng = np.random.default_rng(3)
    lengths = np.geomspace(0.5, 2.0, 5)
    P0 = np.empty((5, g.n))
    for i, L in enumerate(lengths):
        nu = rng.normal(size=g.h)
        e = rng.normal(size=g.v)
        sigma = np.linalg.norm(c_operator(g, e, horizontal=True), ord=2)
        P0[i, : g.h] = nu / np.linalg.norm(nu)
        P0[i, g.h :] = e * 0.4 * 2.0 * np.pi / (L * sigma)
    targets = exp_sr_2step(g, np.zeros(g.n), P0, lengths)
    y = np.array([0.665, 0.474, 0.04, 1.015, -0.262, 0.436, 0.86])
    targets = np.insert(targets, 2, y, axis=0)
    batch = distance_batch(g, np.zeros(g.n), targets)
    assert batch.converged.all()
    assert abs(batch.T[2] - 3.541218) < 1e-6
    for i, z in enumerate(targets):
        alone = distance_batch(g, np.zeros(g.n), z[None])
        assert np.array_equal(alone.T, batch.T[i : i + 1])
        assert np.array_equal(alone.P0, batch.P0[i : i + 1])
        assert np.array_equal(alone.residual, batch.residual[i : i + 1])


def test_short_targets_next_to_ill_conditioned_roots():
    # short, nearly horizontal targets on the benchmark's corank-3 group
    # whose roots have Jacobian singular values down to 1e-6: damped
    # Gauss-Newton creeps there, and converges within MAX_ITER iterations.
    # The last two (shoot-corank3 seed 1 round 46 op 2 target 8, seed 6
    # round 46 op 0 target 3) stall in the plain pass, one next to an
    # abnormal direction (Jacobian singular value 4.8e-8 at the root), one
    # in a curved valley; the careful second pass converges both
    g = random_two_step(4, 3, np.random.default_rng(20091030))
    targets = np.array([
        [-0.273298123131227, -0.017708248213698402, 0.0016673518898630917,
         4.788676813452606e-05, 0.012830560488431755, 0.006469360853391285,
         0.0007491184852325252],
        [0.25131265515745826, -0.22276524208743248, -0.5240698384954843,
         -0.2021947669644795, -0.00037743234534506014,
         0.0010683258904815535, -0.0061337479535035775],
        [-0.28037880186397307, 0.45025638739050594, -0.2519629797683692,
         0.5406442350737763, 0.0008584410030011658, -0.0006451466780140892,
         0.002592017270301446],
        [-0.5174077256925753, 0.7659824696782688, -0.68478345630685,
         -1.0086485259527094, 0.016641746213177565, 0.013100429487943153,
         -0.003729776958078533],
        [-0.0031800213465876556, 0.344320921233771, -0.6386664707361904,
         0.19881199807380917, -0.0007669626011653954, -0.003082757164947672,
         -0.005136078931526779],
    ])
    planted = np.array([
        0.32441504893233897, 0.6561481298641704, 0.798368262419097,
        1.5305966526719332, 0.7546314939795361,
    ])
    batch = distance_batch(g, np.zeros(g.n), targets)
    assert batch.converged.all()
    reached = exp_sr_2step(g, np.zeros(g.n), batch.P0, batch.T)
    assert np.max(np.abs(reached - targets)) < 1e-9
    assert np.all(batch.T <= planted * (1.0 + 1e-9))


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


def test_shooting_builds_v_plus_one_covectors_per_iteration(monkeypatch):
    # every evaluation (a start's first and each candidate) is one build of
    # the point and its v perturbed covectors; an accepted candidate's build
    # is the next base, so an iteration builds nothing else
    built = []

    class Counted(distance.ClosedFormPath):
        def __post_init__(self):
            super().__post_init__()
            built.append(int(np.prod(self.batch)))

    monkeypatch.setattr(distance, "ClosedFormPath", Counted)
    g = random_two_step(3, 2, np.random.default_rng(10))
    starts, k = 2, 3
    *_, conv = distance._shoot(
        g, np.array([[0.0, 0.0, 0.0, 3.0, -1.0]]), starts, k
    )
    assert not conv.any()  # every track stays active for all k iterations
    assert sum(built) == starts * (k + 1) * (g.v + 1)


def test_target_certified_by_its_first_start_opens_no_other(monkeypatch):
    # a corank-3 target whose first start converges to a certified root
    # builds only that start's covectors: one build of the point and its v
    # perturbed covectors per evaluation, where opening the other starts
    # would build more rows at once
    built = []

    class Counted(distance.ClosedFormPath):
        def __post_init__(self):
            super().__post_init__()
            built.append(int(np.prod(self.batch)))

    monkeypatch.setattr(distance, "ClosedFormPath", Counted)
    g = random_two_step(4, 3, np.random.default_rng(20091030))
    P0 = np.array([0.5, -0.5, 0.5, 0.5, 0.4, -0.3, 0.2])
    y = exp_sr_2step(g, np.zeros(g.n), P0, 0.9)
    built.clear()
    _, eta, T, _, conv = distance._shoot(g, y[None], 16, distance.MAX_ITER)
    assert conv[0, 0] and not conv[0, 1:].any()
    assert distance._top_frequency(g, eta[0, 0]) * T[0, 0] < 2.0 * np.pi
    assert len(built) > 1
    assert built == [g.v + 1] * len(built)


def test_one_build_gives_the_endpoint_and_every_column():
    # the stacked build's row 0 is a jet of the covectors alone along the
    # unit horizontal momenta, and its P_V columns are differences of
    # separately built perturbed ones, bit for bit: in shooting's call shape
    # (a batch of covectors at time 1 from the origin) and in the conjugate
    # scan's (one covector from a point off the origin on a grid of times)
    g = random_two_step(4, 3, np.random.default_rng(21))
    h, v, n = g.h, g.v, g.n
    rng = np.random.default_rng(22)
    w = rng.normal(size=(24, h))
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    eta = rng.normal(size=(24, v)) * np.array([0.3, 2.0, 0.02])
    T = rng.uniform(0.2, 3.0, 24)
    Q = T[:, None] * np.concatenate([w, eta], axis=1)
    origin, x0 = np.zeros(n), rng.uniform(-1.0, 1.0, n)
    ts = np.linspace(0.0, 6.0, 41)[1:]
    cases = [(origin, Q, 1.0, False), (origin, Q, 1.0, True), (x0, Q[5], ts, True)]
    for x0, P, t, central in cases:
        x, dH = distance.ClosedFormPath(group=g, x0=x0, P0=P).jet(
            t, np.eye(h)[:, None]
        )

        def shifted(a, step):
            Ps = P.copy()
            Ps[..., h + a] += step
            return distance.ClosedFormPath(group=g, x0=x0, P0=Ps).point(t)

        xj, J = distance._exp_jacobian(g, x0, P, t, central)
        assert np.array_equal(xj, x)
        assert np.array_equal(J[..., :h], np.moveaxis(dH, 0, -1))
        step = distance.CENTRAL_STEP if central else 1e-6
        se = step * np.maximum(1.0, np.abs(P[..., h:]))
        for a in range(v):
            if central:
                col = (shifted(a, se[..., a]) - shifted(a, -se[..., a])) / (
                    2 * se[..., a, None]
                )
            else:
                col = (shifted(a, se[..., a]) - x) / se[..., a, None]
            assert np.array_equal(J[..., h + a], col)


@pytest.mark.parametrize(
    "g", [hn(2), random_two_step(4, 3, np.random.default_rng(31))], ids=["hn2", "h4v3"]
)
def test_exp_jacobian_matches_richardson_and_left_invariance(g):
    # away from the origin and on a 2-D grid of times (one column per
    # covector): the horizontal columns are exact, the vertical ones carry
    # their difference's own error, and left translation keeps det
    h, n = g.h, g.n
    rng = np.random.default_rng(32)
    P = rng.normal(size=(3, n))
    P[:, :h] /= np.linalg.norm(P[:, :h], axis=1, keepdims=True)
    x0 = rng.uniform(-1.0, 1.0, n)
    t = rng.uniform(0.2, 2.5, (4, 3))

    def central(i, step):
        s = step * np.maximum(1.0, np.abs(P[:, i]))
        Pp, Pm = P.copy(), P.copy()
        Pp[:, i] += s
        Pm[:, i] -= s
        plus = distance.ClosedFormPath(group=g, x0=x0, P0=Pp).point(t)
        minus = distance.ClosedFormPath(group=g, x0=x0, P0=Pm).point(t)
        return (plus - minus) / (2.0 * s[:, None])

    ref = np.stack(
        [(4.0 * central(i, 5e-4) - central(i, 1e-3)) / 3.0 for i in range(n)], axis=-1
    )
    scale = np.abs(ref).max()
    for is_central, tol_v in ((False, 1e-5), (True, 1e-9)):
        x, J = distance._exp_jacobian(g, x0, P, t, is_central)
        assert np.array_equal(x, distance.ClosedFormPath(group=g, x0=x0, P0=P).point(t))
        assert np.abs(J[..., :h] - ref[..., :h]).max() < 1e-7 * scale
        assert np.abs(J[..., h:] - ref[..., h:]).max() < tol_v * scale
    # the central differences alone put det within about 1.2e-9 of max |det|
    # of the Richardson one on h4v3
    det = np.linalg.det(J)
    det0 = np.linalg.det(distance._exp_jacobian(g, np.zeros(n), P, t, True)[1])
    assert np.abs(det - det0).max() < 1e-8 * np.abs(det0).max()


def test_careful_shooting_builds_one_plus_two_v_covectors(monkeypatch):
    # the careful pass differences centrally: each evaluation builds the
    # point and 2v perturbed covectors (the acceleration probes are
    # one-row-per-track builds of their own)
    evals = []

    class Counted(distance.ClosedFormPath):
        def __post_init__(self):
            super().__post_init__()
            if len(self.batch) == 2:
                evals.append(self.batch)

    monkeypatch.setattr(distance, "ClosedFormPath", Counted)
    g = random_two_step(3, 2, np.random.default_rng(10))
    starts, k = 2, 3
    *_, conv = distance._shoot(
        g, np.array([[0.0, 0.0, 0.0, 3.0, -1.0]]), starts, k, careful=True
    )
    assert not conv.any()
    assert all(b[0] == 1 + 2 * g.v for b in evals)
    assert sum(b[1] for b in evals) == starts * (k + 1)


STREAM_STALLS = [
    # stream targets on which the careful pass's start-0 track stalls near
    # 1.2e-4 unless it takes the geodesic acceleration on every track, and
    # the planted lengths that reach them
    (
        [-0.7221540257238614, -0.21674536469443648, 0.08492690043444999,
         -0.1455415475727576, 0.12656804844330222, 0.11774361586093292,
         -0.04349956282069065],
        1.0287471388254008,
    ),
    (
        [0.29084987297934944, 0.45455238283539057, -0.23172931972887487,
         -0.28581982513184534, 0.08089589129899577, 0.060550938771134655,
         -0.01631797917709142],
        0.8090870504049168,
    ),
    (
        [0.09269994440540959, 0.46357401484561667, -0.3596326272781686,
         -0.3672276745751497, -0.021960501552695848, -0.022605141238680248,
         0.008337749354060108],
        0.7162135840597329,
    ),
]


@pytest.mark.parametrize("y, L", STREAM_STALLS)
def test_careful_step_accelerates_every_track(y, L):
    g = random_two_step(4, 3, np.random.default_rng(20091030))
    y = np.array(y)
    *_, conv = distance._shoot(g, y[None], 1, distance.MAX_ITER, careful=True)
    assert conv[0, 0]
    batch = distance_batch(g, np.zeros(g.n), y[None])
    assert batch.converged[0] and batch.certified[0]
    assert batch.T[0] <= L * (1.0 + 1e-9)


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
    for g, method in (
        (h1(), "closed-form-orthogonality"),
        (hn(2), "closed-form-orthogonality"),
        (random_two_step(3, 2, rng), "rk4-orthogonality"),
    ):
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
        assert a.meta["method"] == method


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
            with pytest.raises(NonFiniteState):
                conjugate_detect(g, ok, y, 5.0)
            with pytest.raises(ValueError, match="t_max"):
                conjugate_detect(g, ok, ok, bad)


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


def _planted_corank1_targets(g, rng, k, max_turn):
    """Ends of k unit covectors turned up to max_turn of a period."""
    lam = skew_canonical(g.CH[0]).lambdas[0]
    nu = rng.normal(size=(k, g.h))
    nu /= np.linalg.norm(nu, axis=1, keepdims=True)
    L = 10.0 ** rng.uniform(-1.0, 1.0, k)
    turn = rng.uniform(-max_turn, max_turn, k)
    P0 = np.concatenate([nu, (turn * 2.0 * np.pi / (L * lam))[:, None]], axis=1)
    return exp_sr_2step(g, np.zeros(g.n), P0, L)


def test_corank1_evaluation_budget(monkeypatch):
    # the turn's Newton stops once converged: vertical-axis targets take
    # the boundary turn with no solve, and the others a few steps each
    calls = [0]
    gaveau = distance._gaveau

    def counted(theta):
        calls[0] += 1
        return gaveau(theta)

    monkeypatch.setattr(distance, "_gaveau", counted)
    rng = np.random.default_rng(28)
    for g in (h1(), hn(3)):
        for z in (1e-3, -0.5, 7.0):
            y = np.zeros(g.n)
            y[-1] = z
            calls[0] = 0
            sol = distance_point(g, np.zeros(g.n), y)
            assert calls[0] <= 2
            assert abs(sol.T - 2.0 * np.sqrt(np.pi * abs(z))) < 1e-12 * sol.T
        counts = []
        for y in _planted_corank1_targets(g, rng, 60, 0.75):
            calls[0] = 0
            distance_point(g, np.zeros(g.n), y)
            counts.append(calls[0])
        assert np.mean(counts) <= 8.0


def test_corank1_power_of_two_dilation_keeps_the_bits():
    # a relative stop rule and scale-free flags: dilating a target by 2^k
    # scales T by 2^k and eta by 2^-k to the bit, and changes no flag
    rng = np.random.default_rng(29)
    g5 = random_two_step(5, 1, np.random.default_rng(7))
    form = skew_canonical(g5.CH[0])
    family = np.zeros(6)
    family[:5] = 0.3 * form.O[:, 2] + 0.4 * form.O[:, 4]
    family[5] = -3.0
    for g in (h1(), hn(2), g5):
        axis = np.zeros((2, g.n))
        axis[:, -1] = (0.3, -2.0)
        near = np.zeros((1, g.n))
        near[0, 0], near[0, -1] = 1e-10, 1.0
        Y = np.concatenate(
            [_planted_corank1_targets(g, rng, 12, 0.99), axis, near]
            + ([family[None]] if g is g5 else [])
        )
        base = distance_batch(g, np.zeros(g.n), Y)
        assert base.converged.all() and base.certified.all()
        assert base.on_axis.sum() == 3 and base.multiplicity.sum() == 3 + (g is g5)
        for k in (-10, -3, 1, 5, 40):
            s = 2.0**k
            b = distance_batch(g, np.zeros(g.n), dilate(g, s, Y))
            assert np.array_equal(b.T, s * base.T)
            assert np.array_equal(b.P0[:, : g.h], base.P0[:, : g.h])
            assert np.array_equal(b.P0[:, g.h :], base.P0[:, g.h :] / s)
            for flag in ("on_axis", "multiplicity", "certified", "converged"):
                assert np.array_equal(getattr(b, flag), getattr(base, flag))


def test_on_axis_is_scale_free():
    # (2^-40, 0, 0) is reached by the unique straight segment, as (1, 0, 0)
    # is; and (2^-40, 0, 2^-70) is the dilation of (1, 0, 2^10)
    g = h1()
    Y = np.array(
        [[2.0**-40, 0.0, 0.0], [1.0, 0.0, 0.0],
         [2.0**-40, 0.0, 2.0**-70], [1.0, 0.0, 2.0**10], [0.0, 0.0, 1.0]]
    )
    batch = distance_batch(g, np.zeros(3), Y)
    assert batch.on_axis.tolist() == [False] * 4 + [True]
    assert batch.multiplicity.tolist() == [False] * 4 + [True]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_corank1_non_finite_residual_is_not_converged():
    # the closed form overflows evaluating this root's endpoint (T = 1.1e154);
    # a non-finite residual must not pass for a root
    batch = distance_batch(h1(), np.zeros(3), [[0.0, 0.0, 1e307]])
    assert not batch.converged.any() and not batch.certified.any()
    with pytest.raises(NoConvergence):
        batch.solution(0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_corank1_reach_check_does_not_overflow():
    # above |z| = 1e154 the squares in unscaled norms overflow; these targets
    # are solved exactly and must read converged
    g = h1()
    Y = np.array([[0.0, 0.0, 1e200], [1e150, 0.0, 1e300]])
    batch = distance_batch(g, np.zeros(3), Y)
    assert batch.converged.all() and np.isfinite(batch.residual).all()
    for i, y in enumerate(Y):
        sol = batch.solution(i)
        reached = exp_sr_2step(g, np.zeros(3), sol.P0, sol.T)
        assert np.max(np.abs(reached - y)) <= distance.ROOT_TOL * np.max(np.abs(y))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_corank1_huge_targets_do_not_overflow():
    # each row is solved at unit scale, so nothing overflows in the solve;
    # the endpoints of these roots leave the floats, so none is converged
    Y = np.array([[1e155, 0.0, 0.0], [1e160, 0.0, 1e-10], [0.0, 0.0, 5e307]])
    batch = distance_batch(h1(), np.zeros(3), Y)
    assert not batch.converged.any() and not batch.certified.any()


def test_root_past_a_conjugate_point_is_dropped():
    # a unit covector turned 1.3 periods of its fastest rotation meets its
    # first conjugate point (t = 8.209) before T, so the root is dropped; at
    # 0.9 of that time the scan finds none and the root stays
    g = random_two_step(3, 2, np.random.default_rng(10))
    P0 = np.array([1.0, 0.0, 0.0, np.sqrt(0.5), np.sqrt(0.5)])
    T = 1.3 * 2.0 * np.pi / distance._top_frequency(g, P0[g.h :])
    first = conjugate_detect(g, np.zeros(g.n), P0, T)[0]
    assert abs(first - 8.209) < 1e-3 < T - first
    for t, kept in ((T, False), (0.9 * first, True)):
        past = distance._conjugate_before(g, P0[None], np.array([t]))
        assert past.tolist() == [not kept]


def test_shortest_root_past_a_conjugate_point_leaves_no_distance(monkeypatch):
    # every converged root is no shorter than the distance, so when the
    # shortest one meets a conjugate point before T (r1, turned 1.3 periods)
    # no longer root (r2, conjugate-free up to 0.999 T2) is the distance
    # either: the target comes back unconverged. The stubbed solver finds
    # both roots on z alone, and nothing on -z or in the careful pass
    g = random_two_step(3, 2, np.random.default_rng(10))
    e = np.array([np.sqrt(0.5), np.sqrt(0.5)])
    sigma = distance._top_frequency(g, e)
    r1, T1 = np.r_[1.0, 0.0, 0.0, e], 1.3 * 2.0 * np.pi / sigma
    r2, T2 = np.r_[1.0, 0.0, 0.0, 0.5 * e], 1.02 * 2.0 * np.pi / (0.5 * sigma)
    z = exp_sr_2step(g, np.zeros(g.n), r1, T1)

    def stub(group, targets, starts, max_iter, careful=False):
        m = targets.shape[0]
        P = np.zeros((m, starts, g.n))
        P[..., 0] = 1.0
        T = np.ones((m, starts))
        fn = np.full((m, starts), np.inf)
        conv = np.zeros((m, starts), dtype=bool)
        hit = (not careful) & (np.abs(targets - z).max(axis=1) <= 1e-12)
        P[hit, :2], T[hit, :2] = [r1, r2], [T1, T2]
        fn[hit, :2], conv[hit, :2] = 0.0, True
        return P[..., : g.h], P[..., g.h :], T, fn, conv

    monkeypatch.setattr(distance, "_shoot", stub)
    assert distance._conjugate_before(g, r1[None], np.array([T1])).tolist() == [True]
    assert distance._conjugate_before(g, r2[None], np.array([T2])).tolist() == [False]
    batch = distance_batch(g, np.zeros(g.n), z[None])
    assert not batch.converged[0] and not batch.certified[0]


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
    # d = T for every certified root
    assert batch.certified.all()


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
    # off the cut locus grad_H d(0, .) is the horizontal arrival momentum
    # of the unique minimizer
    batch = distance_batch(g, np.zeros(3), pts, starts=8)
    assert batch.converged.all()
    _, arrival = exp_sr_2step(
        g, np.zeros(3), batch.P0, batch.T, return_momentum=True
    )
    grads = arrival[:, : g.h]
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
