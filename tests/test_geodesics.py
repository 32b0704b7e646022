"""Geodesic engine tests against closed-form and hand-built oracles."""

import json

import numpy as np
import pytest

from carnot.errors import NonFiniteState, TooFewSamples
from carnot.geodesics import (
    integrate_normal,
    integrate_stepwise,
    normal_rhs,
)
from carnot.groups import (
    build_group,
    engel,
    frame_apply,
    frame_solve,
    h1,
    hn,
    left_frame,
    random_two_step,
)


def h1_orbit(lam, t):
    """Unit-speed circle orbit from the origin with P0 = (1, 0, lam)."""
    t = np.asarray(t, dtype=float)
    x = np.stack(
        [
            np.sin(lam * t) / lam,
            (1.0 - np.cos(lam * t)) / lam,
            (lam * t - np.sin(lam * t)) / (2.0 * lam**2),
        ],
        axis=-1,
    )
    p = np.stack(
        [np.cos(lam * t), np.sin(lam * t), np.full_like(t, lam)], axis=-1
    )
    return x, p


def step4_groups():
    """The filiform (2, 1, 1, 1) group and the free (2, 1, 2, 3) group."""
    filiform = [(3, 1, 2, 1.0), (4, 1, 3, 1.0), (5, 1, 4, 1.0)]
    free = [
        (3, 1, 2, 1.0),
        (4, 1, 3, 1.0),
        (5, 2, 3, 1.0),
        (6, 1, 4, 1.0),
        (7, 2, 4, 1.0),
        (7, 1, 5, 1.0),
        (8, 2, 5, 1.0),
    ]
    return build_group((2, 1, 1, 1), filiform), build_group((2, 1, 2, 3), free)


def test_frame_apply_matches_matrix():
    rng = np.random.default_rng(1)
    for g in (h1(), engel(), hn(2), random_two_step(5, 2, rng), *step4_groups()):
        x = rng.standard_normal(g.n)
        w = rng.standard_normal(g.n)
        np.testing.assert_allclose(
            frame_apply(g, x, w), left_frame(g, x) @ w, atol=1e-14
        )
        np.testing.assert_allclose(
            frame_solve(g, x, w),
            np.linalg.solve(left_frame(g, x), w),
            atol=1e-13,
        )


def test_normal_rhs_h1_values():
    g = h1()
    lam = 2.0
    dx, dP = normal_rhs(g, np.zeros(3), np.array([1.0, 0.0, lam]))
    np.testing.assert_allclose(dx, [1.0, 0.0, 0.0], atol=1e-15)
    # dP = -lam * [[0,1],[-1,0]] @ (1,0) padded: rotation starts upward
    np.testing.assert_allclose(dP, [0.0, lam, 0.0], atol=1e-15)
    dx, dP = normal_rhs(g, np.zeros(3), np.array([0.0, 1.0, lam]))
    np.testing.assert_allclose(dP, [-lam, 0.0, 0.0], atol=1e-15)


def test_normal_rhs_batch():
    g = engel()
    rng = np.random.default_rng(4)
    xs = rng.standard_normal((7, 4))
    ps = rng.standard_normal((7, 4))
    dx, dP = normal_rhs(g, xs, ps)
    for i in range(7):
        dxi, dPi = normal_rhs(g, xs[i], ps[i])
        np.testing.assert_array_equal(dx[i], dxi)
        np.testing.assert_array_equal(dP[i], dPi)


def test_normal_rhs_is_the_padded_frame_and_contraction():
    # the fused right-hand side drops only exact zeros: bit for bit it is
    # the frame applied to the zero-padded P_H and the full contraction
    rng = np.random.default_rng(12)
    for g in (h1(), hn(2), engel(), random_two_step(5, 3, rng), *step4_groups()):
        for shape in ((), (3,), (2, 3)):
            x = rng.standard_normal(shape + (g.n,))
            P = rng.standard_normal(shape + (g.n,))
            PH = P.copy()
            PH[..., g.h :] = 0.0
            dx, dP = normal_rhs(g, x, P)
            assert np.array_equal(dx, frame_apply(g, x, PH))
            want = -np.einsum("aij,...a,...j->...i", g.CV, P[..., g.h :], PH)
            assert np.array_equal(dP, want)


def test_batch_rows_integrate_alone():
    # a row's bits do not depend on the other rows of its batch
    rng = np.random.default_rng(13)
    for g in (random_two_step(4, 2, rng), engel()):
        x0 = 0.3 * rng.standard_normal((2, 3, g.n))
        P0 = rng.standard_normal((2, 3, g.n))
        for integrate in (integrate_normal, integrate_stepwise):
            whole = integrate(g, x0, P0, 1.2, 150)
            for i in range(2):
                for j in range(3):
                    row = integrate(g, x0[i, j], P0[i, j], 1.2, 150)
                    assert np.array_equal(row.xs, whole.xs[:, i, j])
                    assert np.array_equal(row.ps, whole.ps[:, i, j])


def test_h1_integration_matches_analytic():
    g = h1()
    lam = 1.3
    T = 2.0 * np.pi / lam
    tr = integrate_normal(g, np.zeros(3), [1.0, 0.0, lam], T, 2000)
    x_ref, p_ref = h1_orbit(lam, tr.times)
    assert np.max(np.abs(tr.xs - x_ref)) < 1e-9
    assert np.max(np.abs(tr.ps - p_ref)) < 1e-9
    # full turn returns to the vertical axis
    np.testing.assert_allclose(
        tr.xs[-1], [0.0, 0.0, np.pi / lam**2], atol=1e-9
    )


def test_conservation_diagnostics():
    g = h1()
    tr = integrate_normal(g, np.zeros(3), [0.6, -0.8, 2.0], 5.0, 2000)
    assert tr.meta["energy_drift_per_unit_time"] < 1e-13
    assert tr.meta["ph_norm_drift_per_unit_time"] < 1e-13
    assert tr.meta["top_layer_drift"] == 0.0
    ge = engel()
    tr = integrate_normal(ge, np.zeros(4), [0.3, 0.9, -0.4, 0.7], 3.0, 1500)
    assert tr.meta["energy_drift_per_unit_time"] < 1e-12
    assert tr.meta["top_layer_drift"] == 0.0


def test_integration_batch_consistency():
    g = hn(2)
    rng = np.random.default_rng(9)
    P0 = rng.standard_normal((4, 5))
    tr = integrate_normal(g, np.zeros(5), P0, 1.0, 200)
    assert tr.xs.shape == (201, 4, 5)
    for i in range(4):
        single = integrate_normal(g, np.zeros(5), P0[i], 1.0, 200)
        np.testing.assert_allclose(tr.xs[:, i], single.xs, atol=1e-14)


def test_stepwise_matches_normal_2step():
    rng = np.random.default_rng(21)
    for g in (h1(), hn(2), random_two_step(4, 2, rng)):
        P0 = rng.standard_normal(g.n)
        a = integrate_normal(g, np.zeros(g.n), P0, 1.0, 800)
        b = integrate_stepwise(g, np.zeros(g.n), P0, 1.0, 800)
        assert np.max(np.abs(a.xs - b.xs)) < 1e-9
        assert np.max(np.abs(a.ps - b.ps)) < 1e-9


def test_stepwise_matches_normal_engel():
    rng = np.random.default_rng(33)
    for g in (engel(), *step4_groups()):
        draws = [(rng.standard_normal(g.n), rng.standard_normal(g.n) * 0.3) for _ in range(5)]
        P0, x0 = (np.stack(col) for col in zip(*draws))
        a = integrate_normal(g, x0, P0, 1.0, 1000)
        b = integrate_stepwise(g, x0, P0, 1.0, 1000)
        assert np.max(np.abs(a.xs - b.xs)) < 1e-8
        assert np.max(np.abs(a.ps - b.ps)) < 1e-8


def test_stepwise_abelian():
    g = build_group((3,), [])
    tr = integrate_stepwise(g, np.zeros(3), [1.0, 2.0, -1.0], 2.0, 10)
    np.testing.assert_allclose(tr.xs[-1], [2.0, 4.0, -2.0], atol=1e-14)


def test_nonfinite_detection():
    g = h1()
    with pytest.raises(NonFiniteState):
        integrate_normal(g, np.zeros(3), [1e200, 0.0, 1e200], 10.0, 50)


@pytest.mark.parametrize("T", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("integrate", [integrate_normal, integrate_stepwise])
def test_non_finite_T_raises(integrate, T):
    # linspace warns on an infinite end, so T is refused before the grid
    with pytest.raises(NonFiniteState):
        integrate(h1(), np.zeros(3), [1.0, 0.0, 0.0], T, 10)


def test_too_few_samples():
    g = h1()
    with pytest.raises(TooFewSamples):
        integrate_normal(g, np.zeros(3), np.ones(3), 1.0, 0)


def test_trace_exports():
    g = h1()
    tr = integrate_normal(g, np.zeros(3), [1.0, 0.0, 0.5], 1.0, 4)
    table = tr.as_table()
    lines = table.strip().split("\n")
    assert lines[0].split() == ["t", "x1", "x2", "x3", "P1", "P2", "P3"]
    assert len(lines) == 6
    first = [float(tok) for tok in lines[1].split()]
    np.testing.assert_allclose(first, [0, 0, 0, 0, 1, 0, 0.5], atol=1e-15)
    blob = json.loads(tr.as_json())
    assert blob["meta"]["method"] == "rk4-normal"
    assert len(blob["times"]) == 5
