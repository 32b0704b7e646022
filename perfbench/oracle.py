"""Answers the benchmark checks the program against, computed without it.

Only the structure tensor C of a group is taken from the program; every
geodesic, bound and product below is evaluated here from first principles,
so a fast but wrong program cannot agree with them by construction.

On a step-2 group the normal geodesic from the origin with covector
P0 = (w, eta) has horizontal momentum P_H(s) = exp(-M s) w, M = C_H(eta)
skew, and vertical coordinates x_a(T) = -1/2 int_0^T <C^a_H x_H, x_H'> ds.
``exp2`` diagonalizes the Hermitian matrix iM for the horizontal part and
integrates the vertical part by 64-point Gauss-Legendre quadrature, which
is exact to rounding for the turns the workloads plant (under one period).

The step-3 Engel group and the Jacobi fields get references of their own:
``engel_flow`` integrates Hamilton's equations in canonical coordinates
with a frame written out by hand, and ``variation_field`` differences
``exp2`` and ``product`` in the initial data of a geodesic family.
"""

import json

import numpy as np

RTOL = 1e-6  # distances: relative agreement that counts as the same length
ENDPOINT_TOL = 1e-7  # endpoints: relative to 1 + |target|

_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(64)


def exp2(C, h, P0, T):
    """Endpoint at time T of the step-2 normal geodesic from the origin."""
    CH = C[h:, :h, :h]
    w = np.asarray(P0[:h], dtype=float)
    eta = np.asarray(P0[h:], dtype=float)
    M = np.einsum("a,aij->ij", eta, CH)
    mu, V = np.linalg.eigh(1j * M)  # M = -i V diag(mu) V^H
    c = V.conj().T @ w

    def state(s):
        s = np.asarray(s, dtype=float)[..., None]
        phase = np.exp(1j * mu * s)
        integral = s * np.exp(0.5j * mu * s) * np.sinc(mu * s / (2.0 * np.pi))
        return ((integral * c) @ V.T).real, ((phase * c) @ V.T).real

    s = 0.5 * T * (_NODES + 1.0)
    xs, ps = state(s)
    area = np.einsum("aij,kj,ki->ka", CH, xs, ps)
    xv = -0.25 * T * (_WEIGHTS @ area)
    return np.concatenate([state(T)[0], xv])


def product(C, h, x, y):
    """Step-2 group product x * y = x + y + [x, y] / 2 on the vertical part."""
    z = np.asarray(x, dtype=float) + np.asarray(y, dtype=float)
    z[h:] += 0.5 * np.einsum("bij,i,j->b", C[h:], x, y)
    return z


def frame_components(C, h, x, w):
    """Frame components L(x)^{-1} w of a coordinate vector w, step 2."""
    out = np.array(w, dtype=float)
    out[h:] -= 0.5 * np.einsum("bij,i,j->b", C[h:], x, w)
    return out


def frame_gradient(C, h, x, grad):
    """Frame components L(x)^T grad of a coordinate gradient, step 2."""
    L = np.eye(C.shape[0])
    L[h:, :] -= 0.5 * np.einsum("bij,j->bi", C[h:], x)
    return L.T @ grad


def engel_flow(P0, T):
    """Endpoints (x(T), P(T)) of normal geodesics from the origin of the
    Engel group [e1, e2] = e3, [e1, e3] = e4 in exponential coordinates.

    The left-invariant frame follows from the BCH series by hand,
    X_I(x) = e_I + [x, e_I] / 2 + [x, [x, e_I]] / 12:

        X1 = e1 - x2/2 e3 - (x3/2 + x1 x2/12) e4,   X2 = e2 + x1/2 e3 + x1^2/12 e4,
        X3 = e3 + x1/2 e4,                          X4 = e4.

    H(x, p) = (h1^2 + h2^2) / 2 with h_i = <p, X_i(x)>, integrated by
    DOP853 in the canonical pair (x, p); p(0) = P0 since L(0) = I, and the
    frame momenta at the end are P_I = <p, X_I(x)>. P0 has shape (k, 4).
    """
    from scipy.integrate import solve_ivp  # here, so set-up does not pay for it

    P0 = np.asarray(P0, dtype=float)
    k = P0.shape[0]

    def rhs(_, y):
        x, p = y[: 4 * k].reshape(k, 4).T, y[4 * k :].reshape(k, 4).T
        x1, x2, x3 = x[0], x[1], x[2]
        p1, p2, p3, p4 = p
        h1 = p1 - 0.5 * x2 * p3 - (0.5 * x3 + x1 * x2 / 12.0) * p4
        h2 = p2 + 0.5 * x1 * p3 + x1 * x1 / 12.0 * p4
        dx = np.stack([h1, h2, -0.5 * x2 * h1 + 0.5 * x1 * h2, -(0.5 * x3 + x1 * x2 / 12.0) * h1 + x1 * x1 / 12.0 * h2])
        dp = -np.stack(
            [
                h1 * (-x2 / 12.0 * p4) + h2 * (0.5 * p3 + x1 / 6.0 * p4),
                h1 * (-0.5 * p3 - x1 / 12.0 * p4),
                h1 * (-0.5 * p4),
                np.zeros(k),
            ]
        )
        return np.concatenate([dx.T.ravel(), dp.T.ravel()])

    y0 = np.concatenate([np.zeros(4 * k), P0.ravel()])
    sol = solve_ivp(rhs, (0.0, float(T)), y0, method="DOP853", rtol=1e-13, atol=1e-13)
    x, p = sol.y[: 4 * k, -1].reshape(k, 4), sol.y[4 * k :, -1].reshape(k, 4)
    P = np.stack(
        [
            p[:, 0] - 0.5 * x[:, 1] * p[:, 2] - (0.5 * x[:, 2] + x[:, 0] * x[:, 1] / 12.0) * p[:, 3],
            p[:, 1] + 0.5 * x[:, 0] * p[:, 2] + x[:, 0] ** 2 / 12.0 * p[:, 3],
            p[:, 2] + 0.5 * x[:, 0] * p[:, 3],
            p[:, 3],
        ],
        axis=1,
    )
    return x, P


def variation_field(C, h, P0, a, W, times, eps=1e-5):
    """Frame components Y(t) of d/ds [(s a) * exp2(P0 + s W, t)] at s = 0.

    Left translations and changes of the horizontal covector map normal
    geodesics to normal geodesics with the same vertical covector, so Y is
    a Jacobi field of the constant-multiplier system, with Y(0) = a and
    Y'(0) = W + [a, P0_H] (W horizontal, [ , ] on the vertical rows only).
    Central differences in s; returns shape (len(times), n).
    """
    out = []
    for t in times:
        base = exp2(C, h, P0, t)
        ends = [product(C, h, s * np.asarray(a, dtype=float), exp2(C, h, P0 + s * W, t)) for s in (eps, -eps)]
        out.append(frame_components(C, h, base, (ends[0] - ends[1]) / (2.0 * eps)))
    return np.array(out)


def lower_bound(C, h, y):
    """Certified d(0, y) >= max(|y_H|, 2 sqrt(|y_a| / |C^a_H|_2))."""
    scales = np.linalg.svd(C[h:, :h, :h], compute_uv=False)[:, 0]
    vert = 2.0 * np.sqrt(np.abs(y[h:]) / scales)
    return max(float(np.linalg.norm(y[:h])), float(vert.max()))


def classify_length(T, exact=None, upper=None, lower=None):
    """Verdict on a returned distance T.

    "ok" when T matches the exact answer (or lies between the bounds),
    "wrong" when T is longer than a path known to reach the target (a
    converged but non-minimizing root), "invalid" when T is shorter than the
    target allows, which no admissible curve can achieve.
    """
    if not np.isfinite(T):
        return "invalid"
    if exact is not None:
        lower = upper = exact
    if lower is not None and T < lower - RTOL * max(1.0, lower):
        return "invalid"
    if upper is not None and T > upper + RTOL * max(1.0, upper):
        return "wrong"
    return "ok"


def endpoint_ok(C, h, P0, T, target):
    """Does the covector P0 shot for time T land on the target?"""
    reached = exp2(C, h, P0, T)
    return bool(np.max(np.abs(reached - target)) <= ENDPOINT_TOL * (1.0 + np.linalg.norm(target)))


def one_json_document(text):
    """True when text parses as exactly one JSON document."""
    try:
        json.loads(text)
    except ValueError:
        return False
    return True
