"""Hypersurface normal, chart, and horizontal-distance tests.

The vertical hyperplane {x1 = 0} is the exactly solvable case: its metric
normals are straight lines, delta_H(x) = |x1| on the nose, and the chart
Jacobian is 1. The surface {x3 = 0} supplies the characteristic point at
the origin and the closed-form Jacobian value 1/2 at (1, 0, 0).
"""

import numpy as np
import pytest

from carnot.distance import distance_point
from carnot.errors import (
    Characteristic,
    NonFiniteState,
    NotOnSurface,
    OutsideChart,
    ZeroGradient,
)
from carnot.groups import group_product, h1, hn
from carnot.surfaces import (
    _chart_forward,
    build_chart,
    delta_H,
    frame_gradient,
    grad_delta_H,
    metric_normal,
    phi_map,
    polynomial_field,
    project_to_surface,
    surface_normals,
)


def plane(n, axis):
    # the coordinate hyperplane {x_axis = 0}, axis 1-based like coordinates
    exps = tuple(int(i == axis - 1) for i in range(n))
    return polynomial_field(n, [(1.0, exps)], name="x%d" % axis)


def paraboloid():
    # f = x1 - x2^2: curved, non-characteristic near the origin
    return polynomial_field(
        3, [(1.0, (1, 0, 0)), (-1.0, (0, 2, 0))], name="x1-x2^2"
    )


def test_normals_h1_reference_values():
    g = h1()
    f3 = plane(3, 3)
    nd = surface_normals(g, f3, [1.0, 0.0, 0.0])
    assert not nd.characteristic
    np.testing.assert_allclose(nd.nuH, [0.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(nd.varpi, [2.0], atol=1e-14)
    np.testing.assert_allclose(nd.N, [0.0, 1.0, 2.0], atol=1e-14)
    # frame gradient itself: X1 f = 0, X2 f = 1/2, X3 f = 1
    np.testing.assert_allclose(
        frame_gradient(g, f3, np.array([1.0, 0.0, 0.0])),
        [0.0, 0.5, 1.0],
        atol=1e-14,
    )


def test_characteristic_point_flagged_not_fatal():
    g = h1()
    nd = surface_normals(g, plane(3, 3), np.zeros(3))
    assert nd.characteristic
    assert nd.nuH is None and nd.varpi is None
    np.testing.assert_allclose(nd.nu, [0.0, 0.0, 1.0], atol=1e-14)
    with pytest.raises(Characteristic):
        nd.N


def test_vertical_hyperplane_normals_everywhere():
    g = hn(2)
    f1 = plane(5, 1)
    rng = np.random.default_rng(2)
    for _ in range(4):
        nd = surface_normals(g, f1, rng.normal(size=5))
        np.testing.assert_allclose(nd.nuH, [1.0, 0.0, 0.0, 0.0], atol=1e-13)
        np.testing.assert_allclose(nd.varpi, [0.0], atol=1e-13)


def test_zero_gradient_rejected():
    g = h1()
    flat = polynomial_field(3, [(1.0, (0, 0, 0))])
    with pytest.raises(ZeroGradient):
        surface_normals(g, flat, np.zeros(3))


def test_polynomial_field_gradient_matches_fd():
    rng = np.random.default_rng(3)
    fld = polynomial_field(
        4,
        [(0.7, (1, 0, 0, 0)), (-1.3, (0, 2, 1, 0)), (0.4, (0, 0, 0, 3))],
    )
    for _ in range(3):
        x = rng.normal(size=4)
        s = 1e-6 * (1.0 + np.linalg.norm(x))
        steps = s * np.eye(4)
        fd = (fld.value(x + steps) - fld.value(x - steps)) / (2.0 * s)
        np.testing.assert_allclose(fld.coordinate_gradient(x), fd, atol=1e-7)
    with pytest.raises(ValueError):
        polynomial_field(3, [(1.0, (2, 2, 0))])
    with pytest.raises(ValueError):
        polynomial_field(3, [(1.0, (1, 0))])


def test_metric_normal_straight_case():
    g = h1()
    f1 = plane(3, 1)
    tr = metric_normal(g, f1, np.zeros(3), t_range=(0.0, 1.0), samples=21)
    line = np.outer(tr.times, [1.0, 0.0, 0.0])
    assert np.max(np.abs(tr.xs - line)) < 1e-14
    assert tr.meta["varpi_norm"] == 0.0


def test_metric_normal_momentum_and_mirror():
    g = h1()
    f3 = plane(3, 3)
    y = np.array([1.0, 0.0, 0.0])
    plus = metric_normal(g, f3, y, t_range=(0.0, 0.8), samples=9)
    np.testing.assert_allclose(plus.ps[0], [0.0, 1.0, 2.0], atol=1e-13)
    minus = metric_normal(g, f3, y, t_range=(0.0, -0.8), samples=9, sign=-1)
    # opposite orientation runs the same arc backwards in time
    np.testing.assert_allclose(minus.xs, plus.xs, atol=1e-12)


def test_metric_normal_gates():
    g = h1()
    f3 = plane(3, 3)
    with pytest.raises(NotOnSurface):
        metric_normal(g, f3, [0.0, 0.0, 0.5])
    with pytest.raises(Characteristic):
        metric_normal(g, f3, np.zeros(3))


def _chart(g, field, base):
    return build_chart(g, field, base, radius=0.2, eps0=0.2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "call",
    [metric_normal, surface_normals, _chart],
    ids=["metric_normal", "surface_normals", "build_chart"],
)
def test_non_finite_base_raises(call, bad):
    # f = x1 is nan at a nan point, and nan > tol is False, so the point
    # itself must be refused
    with pytest.raises(NonFiniteState):
        call(h1(), plane(3, 1), np.array([bad, 0.0, 0.0]))


@pytest.mark.parametrize("t_range", [(-np.inf, 1.0), (-1.0, np.inf), (np.nan, 1.0)])
def test_metric_normal_non_finite_t_range_raises(t_range):
    with pytest.raises(NonFiniteState):
        metric_normal(h1(), plane(3, 1), np.zeros(3), t_range=t_range)


def test_hyperplane_chart_is_exact():
    g = h1()
    chart = build_chart(
        g, plane(3, 1), np.zeros(3), radius=1.2, eps0=0.8
    )
    assert chart.eps0 == 0.8  # nothing to shrink for straight normals
    rng = np.random.default_rng(4)
    for _ in range(5):
        x = rng.uniform(-0.6, 0.6, size=3)
        y, t = project_to_surface(chart, x)
        assert abs(t - x[0]) < 1e-10
        assert abs(y[0]) < 1e-12
        assert abs(delta_H(chart, x) - abs(x[0])) < 1e-10
        back = phi_map(chart, y, t)
        assert np.max(np.abs(back - x)) < 1e-8


def test_projection_fixed_point_on_surface():
    g = h1()
    chart = build_chart(
        g, plane(3, 1), np.zeros(3), radius=1.0, eps0=0.5
    )
    x = np.array([0.0, 0.3, -0.2])
    res = project_to_surface(chart, x)
    assert abs(res.t) < 1e-10
    np.testing.assert_allclose(res.y, x, atol=1e-9)


def test_projection_distance_consistency():
    # |t| really is the CC-distance to the projected point
    g = h1()
    chart = build_chart(
        g, paraboloid(), np.zeros(3), radius=0.5, eps0=0.4
    )
    for x in ([0.25, 0.1, 0.05], [0.2, -0.15, -0.08]):
        res = project_to_surface(chart, np.asarray(x))
        d = distance_point(g, np.asarray(x), res.y).T
        assert abs(d - abs(res.t)) < 1e-5


def test_delta_lower_bounds_surface_grid():
    # no sampled surface point is closer than delta_H says
    g = h1()
    chart = build_chart(
        g, plane(3, 1), np.zeros(3), radius=1.6, eps0=0.9
    )
    x = np.array([0.3, 0.25, -0.1])
    d = delta_H(chart, x)
    assert abs(d - 0.3) < 1e-10
    from carnot.distance import distance_batch

    # grid centered on the analytic foot (x2, x3 + x1 x2 / 2); the vertical
    # surface coordinate needs fine resolution, the cost grows as res^2/d^3
    foot = np.array([0.25, -0.1 + 0.5 * 0.3 * 0.25])
    uu, vv = np.meshgrid(
        foot[0] + np.linspace(-0.45, 0.45, 31),
        foot[1] + np.linspace(-0.45, 0.45, 31),
        indexing="ij",
    )
    grid = np.stack(
        [np.zeros(uu.size), uu.ravel(), vv.ravel()], axis=-1
    )
    batch = distance_batch(g, x, grid, starts=6)
    assert batch.converged.all()
    assert batch.T.min() >= d - 1e-8
    # the foot sits on the grid, so the minimum lands on delta itself
    assert batch.T.min() - d < 1e-6


def test_chart_queries_independent_of_batch():
    # each row is projected and inverted on its own, so a batch gives the
    # bits of one-point calls
    chart = build_chart(h1(), paraboloid(), np.zeros(3), radius=0.5, eps0=0.4)
    rng = np.random.default_rng(3)
    U = rng.uniform(-0.4, 0.4, (40, 2))
    ys = chart.surface_point(U)
    for i in range(U.shape[0]):
        assert np.array_equal(ys[i], chart.surface_point(U[i : i + 1])[0])
    xs = rng.uniform(-0.2, 0.2, (20, 3))
    res = project_to_surface(chart, xs)
    for i in range(xs.shape[0]):
        one = project_to_surface(chart, xs[i])
        assert np.array_equal(res.y[i], one.y) and res.t[i] == one.t


@pytest.mark.parametrize("n", [1, 2])
def test_chart_forward_t_column_is_the_velocity(n):
    # the exact t-column of the inversion's Jacobian against a central
    # difference of Phi in t
    g = hn(n)
    exps = tuple(int(i == 0) for i in range(g.n))
    quad = tuple(int(i == 1) * 2 for i in range(g.n))
    field = polynomial_field(g.n, [(1.0, exps), (-1.0, quad)])
    chart = build_chart(g, field, np.zeros(g.n), radius=0.3, eps0=0.2)
    rng = np.random.default_rng(11)
    U = rng.uniform(-0.25, 0.25, (6, g.n - 1))
    T = rng.uniform(-0.15, 0.15, 6)
    step = 1e-5
    _, vel = _chart_forward(chart, U, T)
    ahead, _ = _chart_forward(chart, U, T + step)
    behind, _ = _chart_forward(chart, U, T - step)
    fd = (ahead - behind) / (2.0 * step)
    assert np.max(np.abs(vel - fd)) < 1e-8


def phi_det_at_base(chart):
    """|det J Phi(base, 0)| by central differences, and |g_H| / |grad f|.

    The chart's tangent basis E is Euclidean-orthonormal, so the surface
    columns are differences of surface_point along E and the last column
    the difference of the metric normal through the base in t.
    """
    g, base, step = chart.group, chart.base, 1e-4
    d = g.n - 1
    U = step * np.concatenate([np.eye(d), -np.eye(d)])
    ys = chart.surface_point(U)
    cols = np.empty((g.n, g.n))
    cols[:, :d] = ((ys[:d] - ys[d:]) / (2.0 * step)).T
    cols[:, d] = (phi_map(chart, base, step) - phi_map(chart, base, -step)) / (
        2.0 * step
    )
    gH = frame_gradient(g, chart.field, base)[: g.h]
    closed = np.linalg.norm(gH) / np.linalg.norm(chart.field.coordinate_gradient(base))
    return abs(np.linalg.det(cols)), closed


def test_phi_jacobian_values():
    g = h1()
    chart = build_chart(g, plane(3, 1), np.zeros(3), radius=1.0, eps0=0.5)
    fd, closed = phi_det_at_base(chart)
    assert abs(closed - 1.0) < 1e-12
    assert abs(fd - closed) < 1e-8

    chart3 = build_chart(g, plane(3, 3), [1.0, 0.0, 0.0], radius=0.3, eps0=0.2)
    fd3, closed3 = phi_det_at_base(chart3)
    # |g_H| / |grad f| = |(0, 1/2)| / 1
    assert abs(closed3 - 0.5) < 1e-12
    assert abs(fd3 - closed3) < 1e-6


def test_phi_jacobian_curved_surface():
    g = h1()
    for base in ([0.0, 0.0, 0.0], [0.04, 0.2, 0.3]):
        chart = build_chart(g, paraboloid(), base, radius=0.3, eps0=0.2)
        fd, closed = phi_det_at_base(chart)
        assert abs(fd - closed) < 1e-7


def test_grad_delta_matches_fd_and_eikonal():
    g = h1()
    chart = build_chart(g, paraboloid(), np.zeros(3), radius=0.5, eps0=0.4)
    x = np.array([0.25, 0.1, 0.05])
    formula = grad_delta_H(chart, x)
    assert abs(np.linalg.norm(formula[:2]) - 1.0) < 1e-12
    eps = 1e-5
    fd = np.empty(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = eps
        fd[i] = (
            delta_H(chart, group_product(g, x, e))
            - delta_H(chart, group_product(g, x, -e))
        ) / (2.0 * eps)
    assert np.max(np.abs(fd - formula)) < 1e-6
    # negative side flips the gradient's sign
    xneg = np.array([-0.2, 0.1, 0.05])
    gneg = grad_delta_H(chart, xneg)
    assert gneg[0] < 0.0


def test_chart_gates():
    g = h1()
    f3 = plane(3, 3)
    with pytest.raises(Characteristic):
        build_chart(g, f3, np.zeros(3), radius=0.2, eps0=0.2)
    with pytest.raises(NotOnSurface):
        build_chart(g, f3, [1.0, 0.0, 0.5], radius=0.2, eps0=0.2)
    chart = build_chart(
        g, plane(3, 1), np.zeros(3), radius=0.4, eps0=0.3
    )
    with pytest.raises(OutsideChart):
        project_to_surface(chart, np.array([0.35, 0.0, 0.0]))
    with pytest.raises(OutsideChart):
        phi_map(chart, np.array([0.0, 1.5, 0.0]), 0.1)
    with pytest.raises(NotOnSurface):
        phi_map(chart, np.array([0.2, 0.0, 0.0]), 0.1)


def test_h2_hyperplane_chart():
    g = hn(2)
    chart = build_chart(
        g, plane(5, 1), np.zeros(5), radius=1.0, eps0=0.6
    )
    rng = np.random.default_rng(8)
    xs = rng.uniform(-0.4, 0.4, size=(4, 5))
    d = delta_H(chart, xs)
    np.testing.assert_allclose(d, np.abs(xs[:, 0]), atol=1e-9)
    grads = grad_delta_H(chart, xs)
    for k in range(4):
        expect = np.zeros(5)
        expect[0] = np.sign(xs[k, 0])
        np.testing.assert_allclose(grads[k], expect, atol=1e-9)
