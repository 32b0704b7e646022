"""CC-distance on step-2 groups: exact for corank 1, shooting otherwise.

The boundary-value problem behind d(x, y) is reduced to the origin by left
invariance (targets become z = (-x) * y). A normal geodesic with
|P_H(0)| = 1 is unit speed, so the arrival time of a covector that reaches z
IS the length of an admissible curve, and the distance is the smallest
arrival time over all minimizing ones.

Corank 1 (v = 1) is solved exactly, with no start lattice; ``starts`` and
``max_iter`` play no part there. In the canonical form of C^1 from
``skew_canonical`` (planes with frequencies lambda_j, plus a kernel) the
horizontal endpoint is linear in nu_H T for a fixed turn u = eta T, so T(u)
and nu_H(u) are explicit, and the vertical coordinate is a sum of Gaveau
terms lambda_j |y_j|^2 mu(lambda_j u) over the planes of the target's
horizontal part, mu(th) = (th - sin th) / (8 sin^2(th / 2)) (Gaveau, Acta
Math. 1977). That sum is strictly monotone on |u| < 2 pi / lambda_max, and
no normal geodesic minimizes past that turn (its first conjugate time), so
the distance is one bracketed root in u. A target with no component in the
fastest planes whose vertical part that sum cannot reach (the vertical axis
among them) is reached on the boundary u = 2 pi / lambda_max by a family of
minimizers that turn full circles in the fastest planes; it is flagged with
``multiplicity``.

Corank >= 2 is solved by shooting. Normal geodesics are homogeneous:
x(T; P0) = x(1; T P0), so the exponential is a map of one covector
Q = T (nu, eta) at time 1 (Agrachev-Barilari-Boscain, 2019), and a root of
exp(Q)(1) = z gives the unit covector Q / |Q_H| and the length T = |Q_H|.
The solver is a damped Gauss-Newton iteration in Q, a square system of n
unknowns, on batches of (target, start) tracks at once; an accepted step is
Q + delta. The h horizontal columns of the Jacobian are exact: the closed
form is linear in the horizontal momentum in its horizontal part and
quadratic in its vertical part, so ``ClosedFormPath.jet`` gives the
derivative along each e_i by polarization, from the same spectral data,
sinc/hv factors and product integrals as the point itself. The v vertical
columns are forward differences (central in the careful pass below) of
covectors perturbed in Q_V. Each evaluation, a start's first and every
step's candidate, is one build of 1 + v covectors (1 + 2v in the careful
pass), the point and its perturbed copies, and one jet of it gives the
endpoint and every column. An accepted candidate's columns are the next
iteration's base, and a rejected one leaves the base's, so an iteration of
a track is one build.
A track that after PLATEAU_ITER iterations still misses its target by
more than PLATEAU_TOL relative to max(1, |z|) sits on a plateau away from
every root and stops there; tracks creeping next to an ill-conditioned root
are below about 1e-5 by then.

Where a normal geodesic stops minimizing. Let (nu, eta) be unit-horizontal
and sigma_max(C_H(eta)) T < 2 pi. The projection onto the corank-1 quotient
with bracket C_H(eta / |eta|) keeps the horizontal layer, so it shortens no
curve (Le Donne, A primer on Carnot groups, 2017), and it maps the geodesic
to the one of covector (nu, |eta|) there, which turns sigma_max(C_H(eta)) T
< 2 pi and so minimizes (the monotonicity above). Hence the geodesic is the
unique minimizer on [0, T]: every normal geodesic minimizes up to the turn
2 pi / sigma_max(C_H(eta)). A strictly normal geodesic does not minimize
past its first conjugate time (Agrachev-Barilari-Boscain, A Comprehensive
Introduction to Sub-Riemannian Geometry, 2019), so it has none before that
turn. For a normal geodesic that is also abnormal this half is not proved;
a scan of 360 random covectors on six random groups found no conjugate time
before the turn.

The shooting solver uses this to stop early and to open a target's starts
in stages. A converged root with sigma_max(C_H(eta)) T < 2 pi (strictly) is
certified: T is the distance, and no other start can do better than find
the same minimizer again. A certified root is thus final, whichever start
finds it, so a target's first start runs alone, and its other starts open
together only once every open track of the target has ended (converged,
stalled, or run max_iter iterations) without a certified root. As soon as
one track converges to a certified root, the target's other tracks stop.
Each track counts its own iterations against max_iter and PLATEAU_ITER, so
its iterates do not depend on when it opened, nor on the other rows of its
batch: a target with no certified root runs every track to the end, as if
all had opened together, and takes the path below. ``ShootingBatch.certified``
reports which targets' returned roots are certified.

Multiple roots are real (they appear past conjugate points, and targets on
the vertical axis carry whole families of minimizers), hence the
multi-start lattice. Every converged root is the length of an admissible
curve to z, so its T is never below the distance, and the answer can only
be the shortest root. One fold rule (``_pick``) picks it: smallest T, ties
broken by lexicographic comparison of the initial covector, the first of
equal covectors winning, so batched and repeated runs agree to the bit. A
certified pick is the answer. Where the pick is not certified (no root
converged, or the shortest has turned a full period of its fastest
rotation), the target is solved again as its inverse -z = y^-1 x on the
same lattice: a root (P, T) of -z is the reversed geodesic of the root
(-P(T), T) of z, and these join the roots of z before the fold picks again.
A pick still not certified is scanned once for a conjugate time in
(0, (1 - CONJ_MARGIN) T]. A strictly normal geodesic does not minimize past
one, so a pick that has one leaves the target with no minimizing root:
every other root is at least as long, so none is the distance either. That
converged roots only ever overestimate the distance is also what makes the
cheap certified lower bound (|y_H| <= L and |y_a| <= |C^a| L^2 / 4 from the
signed-area form of the vertical displacement) useful for pruning
brute-force sweeps.

A target left with no root by z and -z, or whose pick has a conjugate time,
is shot once more, on the same lattice and with the same staging, with a
careful step: the damped step from the SVD of the column-scaled Jacobian
with the damping floor at 1e-20 instead of 1e-12, central differences in
the vertical covector, and the geodesic acceleration of Transtrum and
Sethna (arXiv:1207.4999) on every track. The plain step's normal equations
square the Jacobian's condition number, and its damping floor outweighs the
curvature along a nearly null direction, so tracks stall above ROOT_TOL
next to a nearly abnormal root (a Jacobian singular value of 5e-8) or in a
curved valley. The careful step builds 1 + 2v covectors per evaluation, and
one more covector per track for the acceleration, where the plain one
builds 1 + v; the second pass replaces a result only where it finds a root.
"""

from dataclasses import dataclass, field

import numpy as np

from . import _trig
from .errors import NoConvergence, NonFiniteState, NotUnit
from .expmap import ClosedFormPath, _corank1_form, exp_sr_2step, require_step2
from .geodesics import integrate_normal
from .groups import CarnotGroup, _tangent_basis, c_operator, group_product

__all__ = [
    "ShootingSolution",
    "ShootingBatch",
    "MAX_ITER",
    "SphereSample",
    "gauss_system_integrate",
    "distance_point",
    "distance_batch",
    "distance_lower_bound",
    "sphere_sample",
    "conjugate_detect",
]

UNIT_TOL = 1e-9
AXIS_TOL = 1e-9
ROOT_TOL = 1e-10
# Gauss-Newton iterations per shooting track; tracks next to an
# ill-conditioned root creep and need more than a hundred
MAX_ITER = 200
# the plateau stop of the module docstring: iterations, residual relative to
# max(1, |z|)
PLATEAU_ITER = 60
PLATEAU_TOL = 1e-4
# step of the central differences in the vertical covector, relative to
# max(1, |Q_V|), of the careful second pass of the module docstring and of
# the conjugate scan; probe of the careful pass's geodesic acceleration and
# the largest |a| / |delta| it is taken at, over 2
CENTRAL_STEP = 6e-6
ACCEL_PROBE = 0.1
ACCEL_RATIO = 0.75
SPHERE_REL_TOL = 1e-5
TIE_REL = 1e-9
DISTINCT_ROOT_TOL = 1e-5
# frequencies of C^1 within this relative distance of the largest one turn
# together with it (the planes of a Heisenberg group all do)
TOP_REL = 1e-12
# a root is dropped only for a conjugate time before (1 - CONJ_MARGIN) T,
# so a minimizer that is conjugate exactly at its endpoint is kept
CONJ_MARGIN = 1e-3
# scan samples of the conjugate-time search
CONJ_SAMPLES = 400
# sub-intervals per bracket in each round of the conjugate-time refinement
REFINE_SPLIT = 8

# Start lattice of the corank >= 2 shooting solver (corank 1 is solved
# exactly): (rotation of the primary direction, covector turn label)
# pairs in priority order. Turn coverage must grow sign-symmetrically with
# the start count: basins of distinct shooting roots are separated mainly by
# the vertical turn, so a prefix of this list that reaches +1.1 without -1.1
# would systematically miss minimizers on one side of the surface. The
# initial turn fraction actually swept is label*(1 + 0.45*label) because the
# time guess inflates with the label; the 0.72 rows sit at effective turn
# 0.95, covering near-axis targets whose minimizers approach a full period.
_START_PAIRS = np.array(
    [
        (0.0, 0.0), (1.05, 0.0),
        (0.0, 0.55), (0.0, -0.55),
        (0.0, 0.72), (0.0, -0.72),
        (1.05, 0.55), (1.05, -0.55),
        (0.0, 1.1), (0.0, -1.1),
        (-1.05, 0.72), (-1.05, -0.72),
        (1.05, 1.1), (1.05, -1.1),
        (0.0, 1.65), (0.0, -1.65),
        (-1.05, 0.0), (2.1, 0.0),
        (2.1, 1.1), (2.1, -1.1),
        (1.05, 1.65), (1.05, -1.65),
        (0.0, 2.2), (0.0, -2.2),
        (3.1416, 0.0), (3.1416, 0.55),
        (-1.05, 1.1), (-1.05, -1.1),
        (2.1, 0.55), (2.1, -0.55),
        (3.1416, 1.1), (3.1416, -1.1),
    ]
)


@dataclass
class ShootingSolution:
    """One solved boundary-value problem: unit covector, time, diagnostics.

    T is the arrival time of the selected root, which for a unit-horizontal
    covector equals the curve length, i.e. the distance when the root is
    minimizing. ``multiplicity`` marks targets where distinct minimizing
    roots tie (vertical-axis families, conjugate-sphere pairs); ``on_axis``
    the vertical-axis case specifically.
    """

    P0: np.ndarray
    T: float
    residual: float
    multiplicity: bool = False
    on_axis: bool = False
    group: CarnotGroup | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.P0 = np.asarray(self.P0, dtype=float)
        if self.group is not None:
            dev = abs(np.linalg.norm(self.P0[: self.group.h]) - 1.0)
            if dev > 1e-12:
                raise NotUnit(
                    "shooting covector misses |P_H| = 1 by %.3e" % dev
                )


@dataclass
class ShootingBatch:
    """Vectorized shooting results for a batch of targets (arrays over m).

    ``certified`` marks converged targets whose T is the distance: on
    corank 1 every converged one, as the solve there is exact (a target on
    the boundary turn of a full period is reached by a family of
    minimizers); on corank >= 2 those whose returned covector turns less
    than a full period of its fastest rotation, sigma_max(C_H(eta)) T <
    2 pi, where the root is the unique minimizer.
    """

    T: np.ndarray
    P0: np.ndarray
    residual: np.ndarray
    multiplicity: np.ndarray
    on_axis: np.ndarray
    converged: np.ndarray
    certified: np.ndarray
    group: CarnotGroup | None = field(default=None, repr=False, compare=False)

    def __len__(self):
        return self.T.size

    def solution(self, i: int) -> ShootingSolution:
        if not self.converged[i]:
            raise NoConvergence(
                "no minimizing root found for target %d; best residual %.3e"
                % (i, self.residual[i])
            )
        return ShootingSolution(
            P0=self.P0[i],
            T=float(self.T[i]),
            residual=float(self.residual[i]),
            multiplicity=bool(self.multiplicity[i]),
            on_axis=bool(self.on_axis[i]),
            group=self.group,
        )


def gauss_system_integrate(group, x0, nuH0, varpi0, r, steps=2000):
    """Integrate the orthogonality system (x, nu_H, varpi) for time r.

    The system is dx = L(x) nu_H, dnu_H = -C_H(varpi) nu_H (second-layer
    slice of varpi only) and dvarpi = the vertical rows of -C(varpi) nu_H.
    Higher layers have no horizontal blocks, so this is the normal flow of
    the covector P = (nu_H, varpi), integrated by ``integrate_normal``:
    ``meta["method"]`` is "closed-form-orthogonality" on corank 1, where
    that is the closed form, and "rk4-orthogonality" elsewhere.
    """
    nuH0 = np.asarray(nuH0, dtype=float)
    varpi0 = np.asarray(varpi0, dtype=float)
    h, v = group.h, group.v
    if nuH0.shape[-1] != h:
        raise ValueError("expected %d horizontal components" % h)
    if varpi0.shape[-1] != v:
        raise ValueError("expected %d vertical components" % v)
    dev = np.max(np.abs(np.linalg.norm(nuH0, axis=-1) - 1.0))
    if dev > UNIT_TOL:
        raise NotUnit("initial direction misses unit norm by %.3e" % dev)
    shape = np.broadcast_shapes(nuH0.shape[:-1], varpi0.shape[:-1])
    P0 = np.concatenate(
        [np.broadcast_to(nuH0, shape + (h,)), np.broadcast_to(varpi0, shape + (v,))],
        axis=-1,
    )
    trace = integrate_normal(group, x0, P0, r, steps)
    rk4 = trace.meta["method"] == "rk4-normal"
    trace.meta["method"] = "rk4-orthogonality" if rk4 else "closed-form-orthogonality"
    return trace


def _pick(P0s, ties):
    """Per target, the column of the root the fold keeps among ``ties``.

    The one fold rule: the lexicographically smallest covector among the
    tied roots, the first of equal covectors winning. A target with no tied
    root gets an arbitrary column.
    """
    keys = np.concatenate([np.moveaxis(P0s, -1, 0)[::-1], ~ties[None]])
    return np.lexsort(keys, axis=-1)[:, 0]


def _top_frequency(group, eta):
    """sigma_max(C_H(eta)), the fastest rotation frequency of covectors eta.

    At the unit covectors e_a it is |C^a|_2, the scale of coordinate a.
    """
    return np.linalg.svd(
        c_operator(group, eta, horizontal=True), compute_uv=False
    )[..., 0]


def _start_grid(group, targets, starts):
    """Deterministic multi-start lattice in (direction, covector, time).

    Directions rotate the target's horizontal heading inside a fixed plane;
    covectors scale the target's vertical heading so that a unit lattice
    value corresponds to roughly half a turn of the top rotation frequency
    over the time guess. The time guess is the horizontal displacement plus
    the certified vertical contribution 2 sqrt(|y_a| / |C^a|) per coordinate.
    """
    if not 1 <= starts <= len(_START_PAIRS):
        raise ValueError("starts must lie in 1..%d" % len(_START_PAIRS))
    h, v = group.h, group.v
    m = targets.shape[0]
    yH, yV = targets[:, :h], targets[:, h:]
    rH = np.linalg.norm(yH, axis=1)
    primary = np.zeros((m, h))
    on = rH > AXIS_TOL
    primary[on] = yH[on] / rH[on, None]
    primary[~on, 0] = 1.0
    perp = _tangent_basis(primary)[:, :, 0]

    nV = np.linalg.norm(yV, axis=1)
    ehat = np.zeros((m, v))
    vn = nV > 1e-12
    ehat[vn] = yV[vn] / nV[vn, None]
    ehat[~vn, 0] = 1.0
    omega = np.maximum(_top_frequency(group, ehat), 1e-12)

    scales = _top_frequency(group, np.eye(v))
    Tg = rH + 2.0 * np.sqrt(np.abs(yV) / scales).sum(axis=1)
    Tg = np.maximum(Tg, 1e-3 * (1.0 + np.linalg.norm(targets, axis=1)))

    w0 = np.empty((m, starts, h))
    eta0 = np.empty((m, starts, v))
    T0 = np.empty((m, starts))
    for k in range(starts):
        ang, turn = _START_PAIRS[k]
        w0[:, k] = np.cos(ang) * primary + np.sin(ang) * perp
        eta0[:, k] = (turn * 2.0 * np.pi / (Tg * omega))[:, None] * ehat
        T0[:, k] = Tg * (1.0 + 0.45 * abs(turn))
    return w0, eta0, T0


def _exp_jacobian(group, x0, P, t, central):
    """x(t) = exp(P)(t) from x0 and its Jacobian J[..., r, i] = dx_r / dP_i,
    of shapes B + (n,) and B + (n, n), from one jet of one build.

    The build stacks P over its copies perturbed in P_V on a new leading
    batch axis, v of them for forward differences with step
    1e-6 max(1, |P_V|), 2v for central ones with step CENTRAL_STEP
    max(1, |P_V|). Its jet along the unit vectors e_i gives x(t) on every
    row and the h exact horizontal columns on P's own row alone, in one
    pass. t broadcasts against the batch of P.
    """
    h, v = group.h, group.v
    # t's axes beyond P's batch go between the stacked copies and P's batch
    lead = max(np.ndim(t) - P.ndim + 1, 0)
    signs = np.array([1.0, -1.0] if central else [1.0])
    se = (CENTRAL_STEP if central else 1e-6) * np.maximum(1.0, np.abs(P[..., h:]))
    Pe = np.broadcast_to(P, (1 + signs.size * v,) + P.shape).copy()
    shifts = np.multiply.outer(signs, se)
    for a in range(v):
        Pe[1 + a :: v, ..., h + a] += shifts[..., a]
    Pe = Pe.reshape(Pe.shape[:1] + (1,) * lead + P.shape)
    pts, dH = ClosedFormPath(group=group, x0=x0, P0=Pe)._jet(
        t, np.eye(h).reshape((h,) + (1,) * (Pe.ndim - 2) + (h,)), True
    )
    diff = pts[1 : 1 + v] - (pts[1 + v :] if central else pts[0])
    J = np.moveaxis(np.concatenate([dH, diff]), 0, -1)
    J[..., h:] /= signs.size * se[..., None, :]
    return pts[0], J


def _careful_step(group, J, x, y, lam, Q):
    """The damped step from the SVD of the column-scaled Jacobian, plus half
    its geodesic acceleration.

    The SVD keeps the condition number of J, which the normal equations
    square. The acceleration a solves the same damped system for the second
    directional derivative of the residual along the step, a difference
    quotient from one build at Q + ACCEL_PROBE delta (Transtrum and Sethna,
    arXiv:1207.4999); it is taken on every track where 2 |a| <= ACCEL_RATIO
    |delta| in the scaled norm.
    """
    d = np.sqrt(np.maximum(np.einsum("kri,kri->ki", J, J), 1e-12))
    U, s, Wt = np.linalg.svd(J / d[:, None, :])
    filt = s / (s * s + lam[:, None])

    def solve(res):
        c = filt * np.einsum("kri,kr->ki", U, res)
        return -np.einsum("kji,kj->ki", Wt, c) / d

    delta = solve(x - y)
    Qp = Q + ACCEL_PROBE * delta
    xp = exp_sr_2step(group, np.zeros(group.n), Qp, 1.0)
    curv = (2.0 / ACCEL_PROBE) * (
        (xp - x) / ACCEL_PROBE - np.einsum("kri,ki->kr", J, delta)
    )
    acc = solve(curv)
    size = np.linalg.norm(np.stack([acc, delta]) * d, axis=-1)
    take = 2.0 * size[0] <= ACCEL_RATIO * size[1]
    delta[take] += 0.5 * acc[take]
    return delta


def _shoot(group, targets, starts, max_iter, careful=False):
    """Damped Gauss-Newton over all (target, start) tracks simultaneously.

    Each track's unknown is one covector Q = T (w, eta), and it solves
    exp(Q)(1) = z from Q0 = T0 (w0, eta0) of ``_start_grid``; an accepted
    step is Q + delta. A target's tracks open in lattice order: its first
    start runs alone, and the others open together only once every open
    track of that target has ended (converged, stalled or after max_iter
    iterations of its own) without a certified root (sigma_max(C_H(Q_V))
    < 2 pi, the unique minimizer). Once a track converges to a certified
    root the other open tracks of its target stop where they are,
    unconverged, as do tracks still on a plateau after PLATEAU_ITER
    iterations of their own. Each evaluation (a track's first, and every
    candidate) is one ``_exp_jacobian`` at time 1 from the origin, one build
    of 1 + v covectors whose jet gives the endpoint and all Jacobian
    columns. ``careful`` takes the second pass's step (``_careful_step``,
    central differences in Q_V from builds of 1 + 2v covectors, the damping
    floor at 1e-20) in place of the normal equations. Returns per-track
    arrays of shape (m, starts): unit directions Q_H / |Q_H|, covectors
    Q_V / |Q_H|, times |Q_H|, residual norms (inf where a track never
    opened) and convergence flags.
    """
    h, v, n = group.h, group.v, group.n
    m = targets.shape[0]
    w0, eta0, T0 = _start_grid(group, targets, starts)
    K = m * starts
    Q = (T0[..., None] * np.concatenate([w0, eta0], axis=-1)).reshape(K, n)
    y = np.repeat(targets, starts, axis=0)
    scale = np.repeat(np.maximum(1.0, np.linalg.norm(targets, axis=1)), starts)
    track_tol = ROOT_TOL * scale

    lam = np.full(K, 1e-3)
    x = np.empty((K, n))
    Jac = np.empty((K, n, n))
    fn = np.full(K, np.inf)
    conv = np.zeros(K, dtype=bool)
    dead = np.zeros(K, dtype=bool)
    opened = np.zeros(K, dtype=bool)
    its = np.zeros(K, dtype=int)
    owner = np.repeat(np.arange(m), starts)
    solved = np.zeros(m, dtype=bool)
    new = np.zeros(K, dtype=bool)
    wake = np.arange(K) % starts == 0
    lam_floor = 1e-20 if careful else 1e-12

    while True:
        if wake.any():
            o = np.nonzero(wake)[0]
            x[o], Jac[o] = _exp_jacobian(group, np.zeros(n), Q[o], 1.0, careful)
            fn[o] = np.linalg.norm(x[o] - y[o], axis=1)
            opened[o] = True
            new = wake & (fn <= track_tol)
            conv |= new
        k = np.nonzero(new)[0]
        certified = _top_frequency(group, Q[k, h:]) < 2.0 * np.pi
        solved[owner[k[certified]]] = True
        dead |= ~conv & (its >= PLATEAU_ITER) & (fn > PLATEAU_TOL * scale)
        act = opened & ~conv & ~dead & ~solved[owner] & (its < max_iter)
        # a target whose open tracks have all ended opens its other starts
        ended = ~solved & ~act.reshape(m, starts).any(axis=1)
        wake = ~opened & ended[owner]
        if wake.any():
            continue
        if not act.any():
            break
        idx = np.nonzero(act)[0]
        Qa, ya, fna, lama, xa = Q[idx], y[idx], fn[idx], lam[idx], x[idx]
        J = Jac[idx]  # from the build that evaluated this point

        if careful:
            delta = _careful_step(group, J, xa, ya, lama, Qa)
        else:
            A = np.einsum("kri,krj->kij", J, J)
            g = np.einsum("kri,kr->ki", J, xa - ya)
            D = np.maximum(np.einsum("kii->ki", A), 1e-12)
            Areg = A.copy()
            diag = np.arange(n)
            Areg[:, diag, diag] += (lama + 1e-13)[:, None] * D
            delta = -np.linalg.solve(Areg, g[..., None])[..., 0]

        Qc = Qa + delta
        # the candidate's build is the next iteration's base if it is accepted
        xc, Jc = _exp_jacobian(group, np.zeros(n), Qc, 1.0, careful)
        fnc = np.linalg.norm(xc - ya, axis=1)
        better = np.isfinite(fnc) & (fnc < fna)

        b = idx[better]
        Q[b], fn[b], x[b], Jac[b] = Qc[better], fnc[better], xc[better], Jc[better]
        lam[idx] = np.where(better, np.maximum(lama * 0.3, lam_floor), lama * 7.0)
        its[idx] += 1
        new = np.zeros(K, dtype=bool)
        new[idx] = fn[idx] <= track_tol[idx]
        conv |= new
        dead[idx] = ~conv[idx] & (lam[idx] > 1e10)

    shape = (m, starts)
    T = np.linalg.norm(Q[:, :h], axis=1)
    P = Q / T[:, None]
    return (
        P[:, :h].reshape(m, starts, h),
        P[:, h:].reshape(m, starts, v),
        T.reshape(shape),
        fn.reshape(shape),
        conv.reshape(shape),
    )


def _gaveau(theta):
    """mu(th) = (th - sin th) / (8 sin^2(th/2)) and its derivative.

    Written through the entire functions hv, sinc and s3 of carnot._trig, so
    neither has a cancellation at 0; both have poles at th = 2 pi k, k != 0.
    """
    s3 = _trig.s3(theta)
    hv = _trig.hv(theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        mu = theta * s3 / (4.0 * hv)
        dmu = (hv * hv - s3 * _trig.sinc(theta)) / (4.0 * hv * hv)
    return mu, dmu


def _corank1(group, targets):
    """Exact minimizing covectors of corank-1 targets: (T, P0, family).

    In canonical coordinates of C^1 (planes j with frequency lambda_j, then
    the kernel) the endpoint of the unit covector (nu, eta) at time T with
    turn u = eta T is, plane by plane, y_j = G(lambda_j u)^{-1} applied to
    nu_j T with G(th)^{-1} = R(th) / sinc(th/2), R the rotation by th/2, and
    y_V = sum_j lambda_j |y_j|^2 mu(lambda_j u) =: F(u). The vertical
    equation F(u) = |y_V| (mu is odd) is solved for u >= 0 inside the
    bracket [0, 2 pi / lambda_max) by Newton's method on F^(-1/2), which is
    nearly linear next to mu's double pole, bisecting whenever a step would
    leave the bracket. It starts at Newton's first step from u = 0 on F
    itself, u = 12 |y_V| / sum_j lambda_j^2 |y_j|^2 (F(0) = 0 and F'(0) is
    that sum over 12), or at the bracket's midpoint where that is not inside
    it. It stops at a step below 4e-16 u, taking it, or at a bracket below
    4e-16 of its upper end; both are relative, so the iterates of a target
    dilated by a power of 2 keep their bits. In the fastest planes T comes
    from the vertical equation once they turn more than half a period, where
    1 / sinc(th/2) amplifies rounding of u near the pole. ``family`` marks
    targets reached on the boundary u = 2 pi / lambda_max (to rounding: their
    fastest-plane part is below AXIS_TOL of their horizontal part), where the
    direction in the fastest planes is free; they take u = 2 pi / lambda_max
    and no Newton step. Each row is solved at unit scale: dilated by 2^-d,
    with d from the larger of |z_H|_inf and sqrt |z_V| (rows below 2 are not
    touched), so no square overflows; T scales back by 2^d and eta by 2^-d,
    both exactly.
    """
    h, n = group.h, group.n
    m = targets.shape[0]
    size = np.maximum(np.abs(targets[:, :h]).max(1), np.sqrt(np.abs(targets[:, h])))
    d = np.maximum(np.frexp(size)[1] - 1, 0)
    targets = np.ldexp(targets, -d[:, None] * group.growth.ord)
    form = _corank1_form(group)
    lam = form.lambdas
    R = lam.size
    top = lam >= lam[0] * (1.0 - TOP_REL)
    umax = 2.0 * np.pi / lam[0]

    yt = targets[:, :h] @ form.O
    planes = yt[:, : 2 * R].reshape(m, R, 2)
    c = np.einsum("mjk,mjk->mj", planes, planes)
    lc = lam * c
    ctop = c[:, top].sum(axis=1)
    a = np.abs(targets[:, h])
    sign = np.where(targets[:, h] < 0.0, -1.0, 1.0)

    def vertical(u, lc, cols):
        """Share of the planes ``cols`` in y_V at turn u, and its u-derivative."""
        if not lam[cols].size:
            return np.zeros(u.size), np.zeros(u.size)
        mu, dmu = _gaveau(lam[cols] * u[:, None])
        lc = lc[:, cols]
        return (lc * mu).sum(axis=1), (lc * lam[cols] * dmu).sum(axis=1)

    rest = ~top
    family = (
        (a > 0.0)
        & (ctop <= (AXIS_TOL * np.linalg.norm(yt, axis=1)) ** 2)
        & (vertical(np.full(m, umax), lc, rest)[0] <= a)
    )

    lo = np.zeros(m)
    hi = np.full(m, umax)
    active = (a > 0.0) & ~family
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        u = 12.0 * a / (lam * lc).sum(axis=1)
    u = np.where((u > 0.0) & (u < umax), u, 0.5 * umax)
    u = np.where(active, u, np.where(family, umax, 0.0))
    for _ in range(200):
        if not active.any():
            break
        aa = a[active]
        F, dF = vertical(u[active], lc[active], slice(None))
        f = aa - F
        ua, loa, hia = u[active], lo[active], hi[active]
        loa = np.where(f >= 0.0, ua, loa)
        hia = np.where(f < 0.0, ua, hia)
        # Newton on F^(-1/2) = aa^(-1/2), written without a cancellation; a
        # zero or tiny dF (|y_j|^2 subnormal) gives a step outside the bracket
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            r = F / aa
            step = 2.0 * r * f / ((1.0 + np.sqrt(r)) * dF)
            un = ua + step
        last = np.abs(step) <= 4e-16 * ua
        inside = last | (np.isfinite(un) & (un > loa) & (un < hia))
        un = np.where(inside, un, 0.5 * (loa + hia))
        done = last | (np.abs(un - ua) <= 4e-16 * un) | (hia - loa <= 4e-16 * hia)
        idx = np.nonzero(active)[0]
        u[idx], lo[idx], hi[idx] = un, loa, hia
        active[idx[done]] = False

    theta = lam * (sign * u)[:, None]
    w = _trig.rotate_half(planes, theta) / _trig.sinc(0.5 * theta)[..., None]
    # fastest planes past half a turn: |w_top|^2 = (th/2)^2 K with K fixed by
    # lambda_max (th - sin th) K / 8 = |y_V| - (slower planes' share)
    th = lam[0] * u
    far = th > np.pi
    if far.any():
        ths = th[far]
        K = 8.0 * (a[far] - vertical(u[far], lc[far], rest)[0]) / (
            lam[0] * (ths - np.sin(ths))
        )
        # scaled by a power of 2, so |y_j|^2 stays normal when y_j is tiny;
        # the heading keeps its bits wherever nothing underflows
        ptop = planes[far][:, top]
        _, e = np.frexp(np.abs(ptop).max(axis=(1, 2)))
        ptop = np.ldexp(ptop, -e[:, None, None])
        nrm = np.sqrt(np.einsum("mjk,mjk->mj", ptop, ptop).sum(axis=1))
        turned = _trig.rotate_half(ptop, theta[far][:, top])
        heading = np.zeros_like(turned)
        heading[:, 0, 0] = 1.0
        on = nrm > 0.0
        heading[on] = turned[on] / nrm[on, None, None]
        wf = w[far]
        wf[:, top] = (0.5 * ths * np.sqrt(np.maximum(K, 0.0)))[:, None, None] * heading
        w[far] = wf

    nuT = np.concatenate([w.reshape(m, 2 * R), yt[:, 2 * R :]], axis=1)
    T = np.linalg.norm(nuT, axis=1)
    P0 = np.empty((m, n))
    P0[:, :h] = (nuT / T[:, None]) @ form.O.T
    P0[:, h] = np.ldexp(sign * u / T, -d)
    return np.ldexp(T, d), P0, family


def _smallest(Ts, conv):
    """Converged roots tying with each target's smallest converged arrival
    time."""
    Tmask = np.where(conv, Ts, np.inf)
    Tmin = Tmask.min(axis=1, keepdims=True)
    return conv & (Tmask <= Tmin * (1.0 + TIE_REL) + 1e-12)


def _conjugate_before(group, P0s, Ts):
    """Per root (P0, T), whether a conjugate time lies in
    (0, (1 - CONJ_MARGIN) T]; one scan of each root."""
    x0 = np.zeros(group.n)
    past = np.zeros(len(Ts), dtype=bool)
    for i, (P0, T) in enumerate(zip(P0s, Ts)):
        brackets = _conjugate_brackets(
            group, x0, P0, T * (1.0 - CONJ_MARGIN), CONJ_SAMPLES
        )
        # a sign change settles it; otherwise only the |det| minima refine
        past[i] = brackets[2] or _conjugate_roots(group, x0, P0, *brackets).size
    return past


def _shooting(group, targets, starts, max_iter, careful=False):
    """The shortest converged shooting root of each target, checked once.

    ``_pick`` folds the converged roots of z. Where that pick is not
    certified (sigma_max(C_H(eta)) T >= 2 pi, or no root converged), -z is
    solved too, its roots, reversed, join those of z and the fold picks
    again. A pick still not certified is scanned once for a conjugate time
    (``_conjugate_before``); one there leaves the target with no minimizing
    root. Targets with no root left are solved again with ``careful`` steps
    (the module docstring's second pass), whose results replace theirs only
    where that finds a root. Returns (T, P0, residual, multiplicity,
    certified, found) over the targets.
    """
    h, n = group.h, group.n
    ws, etas, Ts, fns, convs = _shoot(group, targets, starts, max_iter, careful)
    P0s = np.concatenate([ws, etas], axis=-1)
    rows = np.arange(targets.shape[0])

    def fold():
        ties = _smallest(Ts, convs)
        best = _pick(P0s, ties)
        P, T = P0s[rows, best], Ts[rows, best]
        turn = _top_frequency(group, P[:, h:]) * T
        return ties, best, P, T, convs.any(axis=1) & (turn < 2.0 * np.pi)

    ties, best, bestP, bestT, certified = fold()
    retry = ~certified
    if retry.any():
        rw, reta, rT, rfn, rconv = _shoot(
            group, -targets[retry], starts, max_iter, careful
        )
        # a root of -z is the reversed geodesic of -(arrival covector) to z
        _, arrival = exp_sr_2step(
            group, np.zeros(n), np.concatenate([rw, reta], axis=-1), rT,
            return_momentum=True,
        )
        k = np.nonzero(retry)[0]
        P0s = np.concatenate([P0s, np.zeros_like(P0s)], axis=1)
        Ts = np.concatenate([Ts, np.zeros_like(Ts)], axis=1)
        fns = np.concatenate([fns, np.full_like(fns, np.inf)], axis=1)
        convs = np.concatenate([convs, np.zeros_like(convs)], axis=1)
        P0s[k, starts:], Ts[k, starts:], fns[k, starts:] = -arrival, rT, rfn
        convs[k, starts:] = rconv
        ties, best, bestP, bestT, certified = fold()

    found = convs.any(axis=1)
    scan = np.nonzero(found & ~certified)[0]
    found[scan] = ~_conjugate_before(group, bestP[scan], bestT[scan])
    spread = np.where(ties, np.abs(P0s - bestP[:, None]).max(axis=2), 0.0)
    mult = spread.max(axis=1) > DISTINCT_ROOT_TOL
    residual = np.where(found, fns[rows, best], fns.min(axis=1))
    out = bestT, bestP, residual, mult, certified, found
    if careful or found.all():
        return out
    lost = np.nonzero(~found)[0]
    again = _shooting(group, targets[lost], starts, max_iter, careful=True)
    won = again[-1]
    for a, b in zip(out, again):
        a[lost[won]] = b[won]
    return out


def _reduce(group, x0, targets):
    """Targets moved to the origin by left translation, z = (-x0) * y."""
    x0 = group.point(np.asarray(x0, dtype=float))
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    if targets.shape[-1] != group.n:
        raise ValueError("expected targets with %d coordinates" % group.n)
    if not (np.isfinite(x0).all() and np.isfinite(targets).all()):
        raise NonFiniteState("distance needs finite base point and targets")
    return group_product(group, -x0, targets)


def distance_batch(group, x0, targets, starts=16, max_iter=MAX_ITER):
    """CC-distances from one base point to a batch of targets.

    Reduces every target to the origin by left translation. On corank-1
    groups each target is solved exactly (``starts`` and ``max_iter`` are
    not used) and counts as converged when the returned covector reaches it
    within ROOT_TOL relative to max(1, |z|), both norms scaled so that they
    do not overflow, and a non-finite endpoint counting as a miss. On
    corank >= 2 the multi-start shooting solver runs on the whole batch,
    each target from its first start alone, the others opening where that
    finds no certified root (turning less than a full period of its fastest
    rotation), and until one of its tracks converges to a certified root;
    ``max_iter`` counts each track's own iterations. The converged roots are
    folded by the one rule of ``_pick``: minimal T first, then the
    lexicographically smallest initial covector, the first of equal ones
    winning. A certified pick is the answer; otherwise the target is solved
    again as its inverse -z with the roots mapped back, the fold picks
    again, and a pick still not certified is scanned once for a conjugate
    time before its arrival. A target with no root, or whose pick has a
    conjugate time, is shot once more with the careful step of the module
    docstring. Targets whose tied shortest roots disagree in covector are
    flagged with ``multiplicity``, as are corank-1 targets reached by a
    family of minimizers and vertical-axis targets (``on_axis``: |z_H| at
    most AXIS_TOL sqrt(max_a |z_a|), a test that dilations leave unchanged).
    Targets left with no root carry their best residual and
    ``converged=False``: no start converged on z or on -z, in either pass,
    or (corank >= 2) the shortest root met a conjugate point, so no root
    minimizes. For them ``solution(i)`` raises NoConvergence. ``certified``
    marks on corank 1 every converged target, whose T is exact, and on
    corank >= 2 the converged targets whose returned covector turns less
    than a full period over T. A NaN or infinite coordinate in x0 or the
    targets raises NonFiniteState.
    """
    require_step2(group, "distance")
    reduced = _reduce(group, x0, targets)
    m = reduced.shape[0]
    h, n = group.h, group.n

    T_out = np.zeros(m)
    P_out = np.zeros((m, n))
    P_out[:, 0] = 1.0
    res_out = np.zeros(m)
    mult_out = np.zeros(m, dtype=bool)
    conv_out = np.ones(m, dtype=bool)
    # a norm that overflows reads inf, which is right for both tests; |z_H|
    # is held against sqrt(max_a |z_a|), as both scale alike under dilations
    with np.errstate(over="ignore"):
        on_axis = np.linalg.norm(reduced[:, :h], axis=1) <= AXIS_TOL * np.sqrt(
            np.abs(reduced[:, h:]).max(axis=1)
        )
        trivial = np.linalg.norm(reduced, axis=1) < 1e-13
    mult_out[trivial] = True
    todo = ~trivial
    certified = np.ones(m, dtype=bool)
    if todo.any():
        sub = reduced[todo]
        sel = np.nonzero(todo)[0]
        if group.v == 1:
            T, P0, mult = _corank1(group, sub)
            with np.errstate(over="ignore", invalid="ignore"):
                reached = exp_sr_2step(group, np.zeros(n), P0, T)
                # each row divided by one power of 2 from its largest |z|,
                # never below 2^0, keeps the squares in both norms finite; it
                # is exact, and rows with |z| < 2 are not touched
                k = np.maximum(np.frexp(np.abs(sub).max(axis=1))[1] - 1, 0)
                res = np.linalg.norm(np.ldexp(reached - sub, -k[:, None]), axis=1)
                scale = np.maximum(
                    1.0, np.linalg.norm(np.ldexp(sub, -k[:, None]), axis=1)
                )
                found = np.isfinite(res) & (res <= ROOT_TOL * scale)
                res = np.ldexp(res, k)
            cert = found
        else:
            T, P0, res, mult, cert, found = _shooting(group, sub, starts, max_iter)
        T_out[sel] = np.where(found, T, 0.0)
        P_out[sel] = np.where(found[:, None], P0, P_out[sel])
        res_out[sel] = res
        mult_out[sel] = found & (mult | on_axis[sel])
        conv_out[sel] = found
        certified[sel] = cert

    return ShootingBatch(
        T=T_out,
        P0=P_out,
        residual=res_out,
        multiplicity=mult_out,
        on_axis=on_axis,
        converged=conv_out,
        certified=certified,
        group=group,
    )


def distance_point(group, x, y, starts=16, max_iter=MAX_ITER):
    """CC-distance between two points as a ShootingSolution (T = distance)."""
    batch = distance_batch(
        group, x, np.asarray(y, dtype=float)[None, :], starts, max_iter
    )
    return batch.solution(0)


def distance_lower_bound(group, x0, targets):
    """Certified lower bound for d(x0, y), no solving involved.

    A unit-speed horizontal curve of length L from the origin satisfies
    |x_H| <= L and, coordinate by coordinate, |x_a| <= |C^a|_2 L^2 / 4 (the
    vertical displacement is half a signed-area integral with |x_H(s)| <= s).
    Inverting gives L >= max(|y_H|, 2 sqrt(|y_a| / |C^a|_2)). Used to prune
    brute-force sweeps: pruning by a true lower bound can never lose the
    minimizer. A NaN or infinite coordinate raises NonFiniteState.
    """
    require_step2(group, "distance bounds")
    reduced = _reduce(group, x0, targets)
    h = group.h
    scales = _top_frequency(group, np.eye(group.v))
    vert = 2.0 * np.sqrt(np.abs(reduced[:, h:]) / scales).max(axis=1)
    return np.maximum(np.linalg.norm(reduced[:, :h], axis=1), vert)


@dataclass
class SphereSample:
    """Retained CC-sphere points with their generating and arriving data.

    ``nu_H``/``varpi`` are the generating covector split (unit direction and
    vertical part, so the generating momentum is (nu_H, varpi) shot for time
    r); ``arrival_H`` is the horizontal momentum at arrival, i.e. the
    outward normal data used by reverse shooting. ``regular`` marks kept
    points whose generating covector stays strictly inside its first
    rotation period and off the vertical axis with a unique minimizing root.
    """

    x0: np.ndarray
    r: float
    points: np.ndarray
    nu_H: np.ndarray
    varpi: np.ndarray
    arrival_H: np.ndarray
    distances: np.ndarray
    regular: np.ndarray
    swept: int = 0

    def __len__(self):
        return self.points.shape[0]

    def as_table(self) -> str:
        """Whitespace point cloud: coordinates, nu_H, varpi, regular flag."""
        n = self.points.shape[1]
        h = self.nu_H.shape[1]
        v = self.varpi.shape[1]
        header = (
            [f"x{i + 1}" for i in range(n)]
            + [f"nu{i + 1}" for i in range(h)]
            + [f"varpi{i + 1}" for i in range(v)]
            + ["regular"]
        )
        rows = [" ".join(header)]
        for p, nu, vp, reg in zip(
            self.points, self.nu_H, self.varpi, self.regular
        ):
            vals = " ".join(f"{w:.12e}" for w in np.concatenate([p, nu, vp]))
            rows.append(f"{vals} {int(reg)}")
        return "\n".join(rows) + "\n"


def sphere_sample(
    group,
    x0,
    r,
    n_dirs=24,
    n_vert=9,
    starts=12,
    seed=1234,
):
    """Sample the CC-sphere of radius r by sweeping the wave front.

    Sweeps unit directions against a bounded vertical-covector grid (the
    bound is 1.25 first periods of the top rotation frequency, so the sweep
    deliberately crosses into wave-front-only territory), maps everything
    through the exponential at time r, then keeps the points whose
    recomputed shooting distance agrees with r within 1e-5 r; the rest of
    the wave front is strictly closer and gets dropped.
    """
    require_step2(group, "sphere sampling")
    if not (np.isfinite(r) and r > 0.0):
        raise ValueError("sphere radius must be finite and positive, got %r" % r)
    x0 = group.point(np.asarray(x0, dtype=float))
    h, v, n = group.h, group.v, group.n

    rng = np.random.default_rng(seed)
    if h == 2:
        ang = np.linspace(0.0, 2.0 * np.pi, n_dirs, endpoint=False)
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    else:
        dirs = rng.standard_normal((n_dirs, h))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

    mags = np.linspace(-1.0, 1.0, n_vert)
    if v == 1:
        edirs = np.ones((n_vert, 1))
    else:
        edirs = rng.standard_normal((n_vert, v))
        edirs /= np.linalg.norm(edirs, axis=1, keepdims=True)
    # C_H(e) != 0 for a unit e on a generating group, so omega > 0
    omega = _top_frequency(group, edirs)
    etas = (mags * 1.25 * 2.0 * np.pi / (r * omega))[:, None] * edirs

    P0 = np.empty((n_dirs, n_vert, n))
    P0[..., :h] = dirs[:, None, :]
    P0[..., h:] = etas[None, :, :]
    P0 = P0.reshape(-1, n)
    pts, P_arr = exp_sr_2step(group, x0, P0, r, return_momentum=True)

    batch = distance_batch(group, x0, pts, starts=starts)
    keep = batch.converged & (np.abs(batch.T - r) < SPHERE_REL_TOL * r)
    # A covector that turns through a full period over the arc lands on the
    # cut locus to within the retention tolerance; the distance is kinked
    # there and the point must not be reported as regular. Its turn
    # sigma_max(C_H(eta)) r is 1.25 |mag| periods by construction.
    inside = np.tile(1.25 * np.abs(mags) < 1.0 - 1e-3, n_dirs)
    regular = keep & ~batch.multiplicity & ~batch.on_axis & inside
    return SphereSample(
        x0=x0,
        r=float(r),
        points=pts[keep],
        nu_H=P0[keep, :h],
        varpi=P0[keep, h:],
        arrival_H=P_arr[keep, :h],
        distances=batch.T[keep],
        regular=regular[keep],
        swept=P0.shape[0],
    )


def _conjugate_brackets(group, x0, P0, t_max, samples):
    """One scan of det at ``samples`` times: (lo, hi, n_cross, ref).

    The first n_cross brackets hold a sign change, the others a local
    minimum of |det| below 1e-4 of ref, its largest within 25 samples.
    """
    ts = np.linspace(0.0, float(t_max), int(samples) + 1)[1:]
    det = np.linalg.det(_exp_jacobian(group, x0, P0, ts, True)[1])
    sign, mag = np.sign(det), np.abs(det)
    cross = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    ref = np.array([mag[max(0, i - 25) : i + 26].max() for i in range(mag.size)])
    m = mag[1:-1]
    dip = 1 + np.nonzero((m < mag[:-2]) & (m < mag[2:]) & (m <= 1e-4 * ref[1:-1]))[0]
    lo = np.concatenate([ts[cross], ts[dip - 1]])
    hi = np.concatenate([ts[cross + 1], ts[dip + 1]])
    return lo, hi, cross.size, ref[dip]


def _conjugate_roots(group, x0, P0, lo, hi, n_cross, ref):
    """Refine all brackets of ``_conjugate_brackets`` together (unsorted)."""
    frac = np.linspace(0.0, 1.0, REFINE_SPLIT + 1)
    while True:
        act = np.nonzero(hi - lo > 4.0 * np.finfo(float).eps * hi)[0]
        if act.size == 0:
            break
        t = lo[act, None] + (hi - lo)[act, None] * frac
        d = np.linalg.det(_exp_jacobian(group, x0, P0, t, True)[1])
        # a sign change lies before the first sample off the left end's side
        j = np.argmax(np.sign(d[:, 1:]) * np.sign(d[:, :1]) <= 0.0, axis=1)
        # a dip's minimum lies within one sample of its smallest sample
        k = np.clip(np.argmin(np.abs(d), axis=1), 1, REFINE_SPLIT - 1) - 1
        is_cross = act < n_cross
        left = np.where(is_cross, j, k)
        right = left + np.where(is_cross, 1, 2)
        rows = np.arange(act.size)
        lo[act], hi[act] = t[rows, left], t[rows, right]
    mid = 0.5 * (lo + hi)
    dips = mid[n_cross:]
    if dips.size:
        d = np.linalg.det(_exp_jacobian(group, x0, P0, dips, True)[1])
        dips = dips[np.abs(d) < 1e-8 * ref]
    return np.concatenate([mid[:n_cross], dips])


def conjugate_detect(group, x0, P0, t_max, samples=CONJ_SAMPLES):
    """Times in (0, t_max] where the exponential's Jacobian degenerates.

    The determinant is that of ``_exp_jacobian`` (central in P_V), one
    build of 1 + 2v covectors at any number of times. One scan of it at
    ``samples`` uniform times brackets two kinds of candidate: sign changes,
    and sign-preserving near-zeros (even-order crossings), caught as local
    minima of |det| below 1e-4 of the largest |det| within 25 samples on
    either side. All brackets then shrink together to rounding width: each
    round evaluates the determinant once, on REFINE_SPLIT sub-intervals of
    every bracket, and keeps the sub-interval with the sign change or the
    two around the smallest |det|. A minimum is a root only where |det|
    falls below 1e-8 of its window's largest; a root within 1e-6 t_max of
    the last one reported is dropped. The determinant vanishes at t = 0
    (the exponential collapses the vertical directions), monotonically in
    magnitude at small t, so nothing spurious is reported there. Raises
    NonFiniteState for a non-finite x0 or P0.
    """
    require_step2(group, "conjugate detection")
    if not (np.isfinite(t_max) and t_max > 0.0):
        raise ValueError("t_max must be finite and positive, got %r" % t_max)
    if samples < 2:
        raise ValueError("the conjugate-time scan needs samples >= 2")
    x0, P0 = group.point(x0), group.point(P0)
    if not (np.isfinite(x0).all() and np.isfinite(P0).all()):
        raise NonFiniteState("conjugate detection needs a finite x0 and P0")
    brackets = _conjugate_brackets(group, x0, P0, t_max, samples)
    out = []
    for t in np.sort(_conjugate_roots(group, x0, P0, *brackets)):
        if not out or t - out[-1] > 1e-6 * t_max:
            out.append(t)
    return np.asarray(out)
