"""Group construction, validation, product, frame, and dilation tests.

Closed-form oracle values are frozen from hand BCH computations noted next
to each assertion.
"""

import numpy as np
import pytest

from carnot.errors import (
    GradingViolation,
    JacobiViolation,
    NonPositiveScale,
    NotGenerating,
    SkewViolation,
)
from carnot.groups import (
    GrowthVector,
    build_group,
    c_operator,
    dilate,
    engel,
    group_product,
    h1,
    hn,
    left_frame,
    load_group,
    random_two_step,
)

# Valid 3-step group on growth (3,3,1): [e1,e2]=e4, [e1,e3]=e5, [e2,e3]=e6,
# [e1,e6]=e7, [e2,e5]=e7. The last entry balances the Jacobi cyclic sum on
# (e1,e2,e3); dropping it leaves a clean Jacobi violation.
THREE_STEP_CONSTS = [
    (4, 1, 2, 1.0),
    (5, 1, 3, 1.0),
    (6, 2, 3, 1.0),
    (7, 1, 6, 1.0),
    (7, 2, 5, 1.0),
]

# Filiform 4-step chain [e1, e_i] = e_{i+1}.
FILIFORM4_CONSTS = [(3, 1, 2, 1.0), (4, 1, 3, 1.0), (5, 1, 4, 1.0)]

# Free 4-step group on growth (2, 1, 2, 3), basis of iterated brackets of e1, e2.
FREE2123_CONSTS = [
    (3, 1, 2, 1.0),
    (4, 1, 3, 1.0),
    (5, 2, 3, 1.0),
    (6, 1, 4, 1.0),
    (7, 2, 4, 1.0),
    (7, 1, 5, 1.0),
    (8, 2, 5, 1.0),
]


def step4_groups():
    return (
        build_group((2, 1, 1, 1), FILIFORM4_CONSTS),
        build_group((2, 1, 2, 3), FREE2123_CONSTS),
    )


def test_growth_vector_bookkeeping():
    gv = GrowthVector((2, 1, 1))
    assert gv.n == 4 and gv.h == 2 and gv.v == 2 and gv.step == 3
    assert gv.offsets == (2, 3, 4)
    assert gv.Q == 2 + 2 + 3
    assert list(gv.ord) == [1, 1, 2, 3]
    assert gv.layer_slice(1) == slice(0, 2)
    assert gv.layer_slice(3) == slice(3, 4)
    assert GrowthVector((4, 1)).Q == 6
    with pytest.raises(ValueError):
        GrowthVector((2, 0))
    with pytest.raises(ValueError):
        gv.layer_slice(4)


def test_point_rejects_a_scalar():
    g = h1()
    with pytest.raises(ValueError, match="expected 3 coordinates, got a scalar"):
        g.point(0.0)
    with pytest.raises(ValueError, match="expected 3 coordinates, got 2"):
        g.point([0.0, 1.0])


def test_h1_structure_tensor():
    g = h1()
    assert g.C[2, 0, 1] == 1.0 and g.C[2, 1, 0] == -1.0
    assert np.count_nonzero(g.C) == 2
    np.testing.assert_array_equal(g.CH[0], [[0.0, 1.0], [-1.0, 0.0]])


def test_h1_product_oracle():
    g = h1()
    # BCH: z3 = x3 + y3 + (x1 y2 - x2 y1)/2, so this product lands at +1/2
    z = group_product(g, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    np.testing.assert_allclose(z, [1.0, 1.0, 0.5], atol=1e-15)
    z = group_product(g, [0.0, 1.0, 0.0], [1.0, 0.0, 0.0])
    np.testing.assert_allclose(z, [1.0, 1.0, -0.5], atol=1e-15)


def test_engel_product_oracle():
    g = engel()
    # hand BCH: (e1) * (e2) = e1 + e2 + [e1,e2]/2 + [e1,[e1,e2]]/12
    z = group_product(g, [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0])
    np.testing.assert_allclose(z, [1.0, 1.0, 0.5, 1.0 / 12.0], atol=1e-15)


def test_h2_product_oracle():
    g = hn(2)
    z = group_product(g, [1, 0, 0, 0, 0], [0, 1, 0, 0, 0])
    np.testing.assert_allclose(z, [1, 1, 0, 0, 0.5], atol=1e-15)
    z = group_product(g, [0, 0, 1, 0, 0], [0, 0, 0, 1, 0])
    np.testing.assert_allclose(z, [0, 0, 1, 1, 0.5], atol=1e-15)


def test_identity_and_inverse():
    rng = np.random.default_rng(7)
    three = build_group((3, 3, 1), THREE_STEP_CONSTS)
    for g in (h1(), hn(3), engel(), three, *step4_groups()):
        e = np.zeros(g.n)
        for _ in range(5):
            x = rng.standard_normal(g.n)
            np.testing.assert_allclose(group_product(g, x, e), x, atol=1e-15)
            np.testing.assert_allclose(group_product(g, e, x), x, atol=1e-15)
            np.testing.assert_allclose(
                group_product(g, x, -x), e, atol=1e-14
            )


def test_associativity():
    rng = np.random.default_rng(11)
    three = build_group((3, 3, 1), THREE_STEP_CONSTS)
    for g in (h1(), hn(2), engel(), three, *step4_groups()):
        for _ in range(20):
            x, y, z = rng.standard_normal((3, g.n))
            left = group_product(g, group_product(g, x, y), z)
            right = group_product(g, x, group_product(g, y, z))
            np.testing.assert_allclose(left, right, atol=1e-12)


def test_product_batching():
    g = engel()
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((6, g.n))
    y = rng.standard_normal(g.n)
    batched = group_product(g, xs, y)
    for i in range(6):
        np.testing.assert_array_equal(batched[i], group_product(g, xs[i], y))


def test_h1_frame():
    g = h1()
    x = np.array([0.3, -0.7, 2.0])
    L = left_frame(g, x)
    expect = np.eye(3)
    expect[2, 0] = 0.7 / 2.0  # -x2/2
    expect[2, 1] = 0.3 / 2.0  # +x1/2
    np.testing.assert_allclose(L, expect, atol=1e-15)


def test_engel_frame_oracle():
    g = engel()
    L = left_frame(g, [1.0, 0.0, 0.0, 0.0])
    np.testing.assert_allclose(L[:, 0], [1, 0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(L[:, 1], [0, 1, 0.5, 1.0 / 12.0], atol=1e-15)
    np.testing.assert_allclose(L[:, 2], [0, 0, 1, 0.5], atol=1e-15)
    np.testing.assert_allclose(L[:, 3], [0, 0, 0, 1], atol=1e-15)


def test_frame_matches_product_derivative():
    # columns of L(x) are d/dt|_0 of x * (t e_I)
    rng = np.random.default_rng(5)
    eps = 1e-6
    three = build_group((3, 3, 1), THREE_STEP_CONSTS)
    for g in (h1(), hn(2), engel(), three, *step4_groups()):
        for _ in range(5):
            x = rng.standard_normal(g.n)
            L = left_frame(g, x)
            for idx in range(g.n):
                step = np.zeros(g.n)
                step[idx] = eps
                fd = (
                    group_product(g, x, step) - group_product(g, x, -step)
                ) / (2 * eps)
                np.testing.assert_allclose(L[:, idx], fd, atol=1e-9)


def test_frame_brackets_match_tensor():
    # [X_I, X_J](x) = sum_R C[R,I,J] X_R(x), via differenced frame columns
    rng = np.random.default_rng(13)
    eps = 1e-6
    for g in (h1(), engel(), random_two_step(4, 2, np.random.default_rng(2))):
        x = rng.standard_normal(g.n) * 0.5
        L = left_frame(g, x)
        # directional Jacobian of each column along each column
        for i in range(g.n):
            for j in range(g.n):
                di = left_frame(g, x + eps * L[:, i]) - left_frame(
                    g, x - eps * L[:, i]
                )
                dj = left_frame(g, x + eps * L[:, j]) - left_frame(
                    g, x - eps * L[:, j]
                )
                bracket = (di[:, j] - dj[:, i]) / (2 * eps)
                expect = L @ g.C[:, i, j]
                np.testing.assert_allclose(bracket, expect, atol=1e-8)


def test_frame_determinant_is_one():
    rng = np.random.default_rng(17)
    for g in (h1(), hn(3), engel(), random_two_step(5, 3, rng), *step4_groups()):
        pts = rng.standard_normal((8, g.n)) * 2.0
        dets = np.linalg.det(left_frame(g, pts))
        np.testing.assert_allclose(dets, 1.0, atol=1e-12)


def test_dilation_homomorphism():
    rng = np.random.default_rng(23)
    for g in (h1(), engel(), build_group((3, 3, 1), THREE_STEP_CONSTS)):
        for a in (0.25, 1.7):
            x, y = rng.standard_normal((2, g.n))
            lhs = dilate(g, a, group_product(g, x, y))
            rhs = group_product(g, dilate(g, a, x), dilate(g, a, y))
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_dilate_values_and_errors():
    g = engel()
    np.testing.assert_allclose(
        dilate(g, 2.0, [1.0, 1.0, 1.0, 1.0]), [2.0, 2.0, 4.0, 8.0]
    )
    with pytest.raises(NonPositiveScale):
        dilate(g, 0.0, np.zeros(4))
    with pytest.raises(NonPositiveScale):
        dilate(g, -1.5, np.zeros(4))


def test_c_operator():
    g = h1()
    M = c_operator(g, [2.0])
    np.testing.assert_array_equal(M, [[0, 2, 0], [-2, 0, 0], [0, 0, 0]])
    MH = c_operator(g, [2.0], horizontal=True)
    np.testing.assert_array_equal(MH, [[0, 2], [-2, 0]])
    ge = engel()
    M = c_operator(ge, [1.0, 3.0])
    expect = ge.C[2] + 3.0 * ge.C[3]
    np.testing.assert_array_equal(M, expect)
    # horizontal contraction ignores the third-layer component
    MH = c_operator(ge, [1.0, 99.0], horizontal=True)
    np.testing.assert_array_equal(MH, [[0, 1], [-1, 0]])
    with pytest.raises(ValueError):
        c_operator(g, [1.0, 2.0])


def test_build_group_skew_violations():
    with pytest.raises(SkewViolation, match=r"\(R=3, I=1, J=1\)"):
        build_group((2, 1), [(3, 1, 1, 1.0)])
    with pytest.raises(SkewViolation, match="conflicting"):
        build_group((2, 1), [(3, 1, 2, 1.0), (3, 2, 1, 1.0)])


def test_build_group_grading_violation():
    with pytest.raises(GradingViolation, match=r"\(R=3, I=1, J=3\)"):
        build_group((2, 1), [(3, 1, 2, 1.0), (3, 1, 3, 0.5)])


def test_build_group_jacobi_violation():
    bad = [c for c in THREE_STEP_CONSTS if c[:3] != (7, 2, 5)]
    with pytest.raises(JacobiViolation):
        build_group((3, 3, 1), bad)


def test_build_group_not_generating():
    with pytest.raises(NotGenerating):
        build_group((2, 2), [(4, 1, 2, 1.0)])


def test_filiform_product_and_frame_oracle():
    # On the 6-step filiform chain [e1, e_k] = e_{k+1}, brackets with two e2
    # vanish, so e1 * e2 = e1 + L(e1) e2 and L(e1) e2 = sum_k b_k ad_{e1}^k e2
    # carries the coefficients of z / (1 - e^{-z}): 1, 1/2, 1/12, 0, -1/720, 0.
    consts = [(k + 1, 1, k, 1.0) for k in range(2, 7)]
    g = build_group((2, 1, 1, 1, 1, 1), consts)
    assert g.step == 6
    e1, e2 = np.eye(7)[:2]
    col = [0.0, 1.0, 0.5, 1.0 / 12.0, 0.0, -1.0 / 720.0, 0.0]
    np.testing.assert_allclose(left_frame(g, e1)[:, 1], col, atol=1e-15)
    np.testing.assert_allclose(group_product(g, e1, e2), e1 + col, atol=1e-15)


def test_load_group_json(tmp_path):
    p = tmp_path / "h1.json"
    p.write_text(
        '{"name": "mine", "growth": [2, 1], "constants": [[3, 1, 2, 1.0]]}',
        encoding="utf-8",
    )
    g = load_group(p)
    assert g.name == "mine"
    np.testing.assert_array_equal(g.C, h1().C)


def test_load_group_lines(tmp_path):
    p = tmp_path / "engel.txt"
    p.write_text(
        "# engel\ngrowth: 2 1 1\n3 1 2 1.0\n4 1 3 1.0\n", encoding="utf-8"
    )
    g = load_group(p)
    np.testing.assert_array_equal(g.C, engel().C)
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1 2 1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="growth"):
        load_group(bad)


def test_random_two_step_properties():
    rng = np.random.default_rng(42)
    for _ in range(10):
        g = random_two_step(rng=rng)
        assert g.step == 2 and 2 <= g.h <= 6
        # independence of the bracket forms == generativity
        vecs = g.CH.reshape(g.v, -1)
        assert np.linalg.matrix_rank(vecs, tol=1e-8) == g.v
    g1 = random_two_step(4, 2, np.random.default_rng(0))
    g2 = random_two_step(4, 2, np.random.default_rng(0))
    np.testing.assert_array_equal(g1.C, g2.C)
    with pytest.raises(ValueError):
        random_two_step(3, 9, rng)
