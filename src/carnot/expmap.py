"""Closed-form normal geodesics on step-2 groups, and skew spectral tools.

On a step-2 group the vertical momentum is constant along a normal geodesic,
so the horizontal momentum obeys the linear equation P_H' = -M P_H with
M = C_H(P_V) skew. Everything here flows from the spectral decomposition of
M^T M: with (w, U) = eigh(M^T M) and sigma = sqrt(w),

    e^{-Mt}      = U cos(sigma t) U^T - M U t sinc(sigma t) U^T
    int_0^t e^{-Ms} ds = U t sinc(sigma t) U^T - M U t^2 hv(sigma t) U^T

where sinc(z) = sin(z)/z and hv(z) = (1 - cos z)/z^2 are entire, so the
formulas need no case split between regular and null frequencies. Horizontal
components integrate to

    x_H(t) = x_H(0) + E(t) P_H(0),        E(t) = int_0^t e^{-Ms} ds,

and each vertical component is half a signed-area line integral,

    x_a(t) = x_a(0) - (1/2) int_0^t <C^a_H x_H(s), x_H'(s)> ds,

which expands over the spectral basis into the four product integrals
implemented in carnot._trig. All formulas are valid for negative t and
broadcast over batches of covectors; t itself broadcasts against the batch
shape, so a trailing grid axis on the batch gives whole trajectories in one
call.
"""

import copy
from dataclasses import dataclass, field

import numpy as np

from . import _trig
from .errors import GridMismatch, NotSkew, TooFewSamples, WrongStep, ZeroCovector
from .groups import CarnotGroup, c_operator

__all__ = [
    "SkewCanonicalForm",
    "PeriodicityReport",
    "ClosedFormPath",
    "skew_canonical",
    "exp_sr_2step",
    "vertical_increment",
    "periodicity",
    "minimal_periods",
    "require_step2",
]

SKEW_TOL = 1e-12
FREQ_TOL = 1e-10
KERNEL_TOL = 1e-8


def require_step2(group, what):
    """Raise WrongStep unless ``group`` has step 2; ``what`` names the caller."""
    if group.step != 2:
        raise WrongStep(
            "%s needs a 2-step group, got step %d" % (what, group.step)
        )


def _check_skew(M):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise NotSkew("expected a square matrix, got shape %s" % (M.shape,))
    dev = np.max(np.abs(M + M.T))
    if dev >= SKEW_TOL * max(1.0, float(np.max(np.abs(M)))):
        raise NotSkew("matrix deviates from skew-symmetry by %.3e" % dev)
    return M


@dataclass(frozen=True)
class SkewCanonicalForm:
    """Orthogonal reduction of a skew matrix to 2x2 rotation generators.

    O is orthogonal with columns grouped as [u_1 v_1 ... u_R v_R | null],
    and O^T M O is block diagonal with blocks lam_j * [[0, 1], [-1, 0]]
    followed by an (N x N) zero block. lambdas is sorted descending.
    """

    O: np.ndarray
    lambdas: np.ndarray
    nullity: int


def skew_canonical(M):
    """Orthogonally reduce a skew matrix to canonical 2x2 blocks.

    Frequencies come from the symmetric matrix M^T M = -M^2; each positive
    eigenvalue w contributes a plane spanned by (u, v = -Mu/sqrt(w)). Repeated
    frequencies get an arbitrary orthonormal plane basis, which is fine since
    any such choice conjugates M to the same block form.
    """
    M = _check_skew(M)
    h = M.shape[0]
    w, U = np.linalg.eigh(M.T @ M)
    sigma = np.sqrt(np.clip(w, 0.0, None))
    smax = float(sigma.max()) if h else 0.0
    tol = FREQ_TOL * max(1.0, smax)

    cols = []
    pairs = []
    for idx in np.argsort(-sigma):
        u = U[:, idx].copy()
        for c in cols:
            u -= c * (c @ u)
        nrm = np.linalg.norm(u)
        if nrm < 0.25:
            # direction already consumed as the partner of a previous pair
            continue
        u /= nrm
        Mu = M @ u
        lam = np.linalg.norm(Mu)
        # eigh reports exact kernels of M^T M at ~sqrt(eps); |Mu| does not lie
        if lam <= tol:
            continue
        v = -Mu / lam
        for c in cols:
            v -= c * (c @ v)
        v -= u * (u @ v)
        v /= np.linalg.norm(v)
        cols.append(u)
        cols.append(v)
        pairs.append((lam, u, v))

    pairs.sort(key=lambda p: -p[0])
    cols = [c for _, u, v in pairs for c in (u, v)]
    R = len(pairs)
    N = h - 2 * R
    if N > 0:
        if cols:
            B = np.stack(cols, axis=1)
            P = np.eye(h) - B @ B.T
        else:
            P = np.eye(h)
        Un, _, _ = np.linalg.svd(P)
        cols.extend(Un[:, i] for i in range(N))
    O = np.stack(cols, axis=1) if cols else np.zeros((h, 0))
    lam_arr = np.asarray([p[0] for p in pairs], dtype=float)
    return SkewCanonicalForm(O=O, lambdas=lam_arr, nullity=N)


@dataclass
class ClosedFormPath:
    """A batch of closed-form normal geodesics on a step-2 group.

    Holds the spectral data of M = C_H(P_V) so that points, momenta and
    vertical increments at any collection of times come out of vectorized
    kernel evaluations. Batch axes of x0 and P0 broadcast together; times
    passed to the evaluation methods broadcast against that batch shape.
    """

    group: CarnotGroup
    x0: np.ndarray
    P0: np.ndarray
    M: np.ndarray = field(init=False, repr=False)
    U: np.ndarray = field(init=False, repr=False)
    sigma: np.ndarray = field(init=False, repr=False)
    q: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g = self.group
        require_step2(g, "closed-form exponential")
        n, h = g.n, g.h
        self.x0 = np.asarray(self.x0, dtype=float)
        self.P0 = np.asarray(self.P0, dtype=float)
        if self.x0.shape[-1] != n or self.P0.shape[-1] != n:
            raise ValueError("x0 and P0 must have %d coordinates" % n)
        batch = np.broadcast_shapes(self.x0.shape[:-1], self.P0.shape[:-1])
        self.x0 = np.broadcast_to(self.x0, batch + (n,))
        self.P0 = np.broadcast_to(self.P0, batch + (n,))
        self.batch = batch

        CH = g.CH
        M = c_operator(g, self.P0[..., h:], horizontal=True)
        w, U = np.linalg.eigh(np.swapaxes(M, -1, -2) @ M)
        self.M, self.U = M, U
        self.sigma = np.sqrt(np.clip(w, 0.0, None))
        PH0 = self.P0[..., :h]
        self.q = np.einsum("...ip,...i->...p", U, PH0)
        # spectral-basis coefficient tensors of the four vertical integrands
        CM = np.einsum("vij,...jk->...vik", CH, M)
        MtC = np.einsum("...ji,vjk->...vik", M, CH)
        MtCM = np.einsum("...vik,...kl->...vil", MtC, M)
        self._K1 = np.einsum("...ip,vij,...jq->...vpq", U, CH, U)
        self._K2 = np.einsum("...ip,...vij,...jq->...vpq", U, CM, U)
        self._K3 = np.einsum("...ip,...vij,...jq->...vpq", U, MtC, U)
        self._K4 = np.einsum("...ip,...vij,...jq->...vpq", U, MtCM, U)
        self._W = self.q[..., :, None] * self.q[..., None, :]
        self._CHx0 = np.einsum("vij,...j->...vi", CH, self.x0[..., :h])

    def _z(self, t):
        t = np.asarray(t, dtype=float)
        out = np.broadcast_shapes(self.batch, t.shape)
        tB = np.broadcast_to(t, out)
        return tB, tB[..., None] * np.broadcast_to(self.sigma, out + self.sigma.shape[-1:])

    def horizontal(self, t):
        """x_H(t) and its time derivative P_H(t), shapes B + (h,)."""
        tB, z = self._z(t)
        ts = tB[..., None]
        dq = ts * _trig.sinc(z) * self.q
        hq = ts * ts * _trig.hv(z) * self.q
        delta = np.einsum("...ip,...p->...i", self.U, dq) - np.einsum(
            "...ik,...kp,...p->...i", self.M, self.U, hq
        )
        cq = np.cos(z) * self.q
        sq = ts * _trig.sinc(z) * self.q
        ph = np.einsum("...ip,...p->...i", self.U, cq) - np.einsum(
            "...ik,...kp,...p->...i", self.M, self.U, sq
        )
        return self.x0[..., : self.group.h] + delta, ph, delta

    def increments(self, t, _delta=None):
        """All vertical line integrals I^a(t), shape B + (v,)."""
        tB, z = self._z(t)
        za = z[..., :, None]
        zb = z[..., None, :]
        ts = tB[..., None, None]
        T1 = ts**2 * _trig.t1(za, zb)
        T2 = ts**3 * _trig.t2(za, zb)
        T3 = ts**3 * _trig.t3(za, zb)
        T4 = ts**4 * _trig.t4(za, zb)
        J = (
            np.einsum("...vab,...ab,...ab->...v", self._K1, self._W, T1)
            - np.einsum("...vab,...ab,...ab->...v", self._K2, self._W, T2)
            - np.einsum("...vab,...ab,...ab->...v", self._K3, self._W, T3)
            + np.einsum("...vab,...ab,...ab->...v", self._K4, self._W, T4)
        )
        delta = self.horizontal(t)[2] if _delta is None else _delta
        return np.einsum("...vj,...j->...v", self._CHx0, delta) + J

    def point(self, t, return_momentum=False):
        h = self.group.h
        xh, ph, delta = self.horizontal(t)
        xv = self.x0[..., h:] - 0.5 * self.increments(t, _delta=delta)
        x = np.concatenate([xh, xv], axis=-1)
        if not return_momentum:
            return x
        pv = np.broadcast_to(self.P0[..., h:], xv.shape)
        return x, np.concatenate([ph, pv], axis=-1)

    def with_horizontal(self, PH):
        """Rebind the horizontal momentum, keeping the vertical spectral data.

        Every eigendecomposition and kernel tensor depends only on (x0, P_V),
        so a batch of fresh horizontal momenta (leading axes broadcasting
        against the existing batch) shares all of it. The shooting solver's
        finite-difference Jacobian leans on this: direction perturbations
        leave the vertical covector untouched.
        """
        h, n = self.group.h, self.group.n
        PH = np.asarray(PH, dtype=float)
        if PH.shape[-1] != h:
            raise ValueError("expected %d horizontal components" % h)
        clone = copy.copy(self)
        batch = np.broadcast_shapes(self.batch, PH.shape[:-1])
        P0 = np.empty(batch + (n,))
        P0[..., :h] = PH
        P0[..., h:] = self.P0[..., h:]
        clone.batch = batch
        clone.P0 = P0
        clone.q = np.einsum("...ip,...i->...p", self.U, PH)
        clone._W = clone.q[..., :, None] * clone.q[..., None, :]
        return clone


def exp_sr_2step(group, x0, P0, t, return_momentum=False):
    """Evaluate the step-2 normal geodesic from (x0, P0) at time(s) t.

    Returns points of shape broadcast(batch, t) + (n,); with return_momentum
    the full covector P(t) comes along as a second array (its vertical part
    is constant in t).
    """
    return ClosedFormPath(group=group, x0=x0, P0=P0).point(
        t, return_momentum=return_momentum
    )


def _simpson(y, dx):
    m = y.shape[0] - 1
    if m < 2:
        raise TooFewSamples("need at least 3 samples for Simpson quadrature")
    total = 0.0
    if m % 2 == 1:
        # 3/8 rule on the last three intervals, composite 1/3 on the rest
        total += dx * 3.0 / 8.0 * (y[-4] + 3 * y[-3] + 3 * y[-2] + y[-1])
        y = y[: m - 2]
        m -= 3
        if m == 0:
            return total
    total += dx / 3.0 * (y[0] + y[-1] + 4 * np.sum(y[1:-1:2]) + 2 * np.sum(y[2:-2:2]))
    return total


def vertical_increment(group, alpha, path, t=None):
    """Signed-area integral int <C^alpha_H x_H, x_H'> ds along a path.

    alpha is the 1-based coordinate index of a vertical direction. The path
    is either a ClosedFormPath (exact evaluation; pass the time t) or a pair
    (times, x_H samples) on a uniform grid, integrated by composite Simpson
    with a 3/8 tail when the number of intervals is odd.
    """
    g = group
    if not (g.h < alpha <= g.n):
        raise ValueError("alpha must be a vertical coordinate index in [%d, %d]" % (g.h + 1, g.n))
    if isinstance(path, ClosedFormPath):
        if t is None:
            raise ValueError("closed-form paths need an evaluation time t")
        return path.increments(t)[..., alpha - g.h - 1]
    if t is not None:
        raise ValueError("sampled paths integrate over their own grid; drop t")
    times, xh = path
    times = np.asarray(times, dtype=float)
    xh = np.asarray(xh, dtype=float)
    if times.ndim != 1 or xh.shape != (times.size, g.h):
        raise ValueError("expected times (m,) and samples (m, h)")
    if times.size < 3:
        raise TooFewSamples("need at least 3 samples, got %d" % times.size)
    steps = np.diff(times)
    if np.max(np.abs(steps - steps[0])) > 1e-9 * max(1.0, np.max(np.abs(steps))):
        raise GridMismatch("sampled path must live on a uniform grid")
    Ca = g.C[alpha - 1, : g.h, : g.h]
    dxh = np.gradient(xh, times, axis=0)
    integrand = np.einsum("ij,mj,mi->m", Ca, xh, dxh)
    return _simpson(integrand, float(steps[0]))


@dataclass(frozen=True)
class PeriodicityReport:
    """Kernel bookkeeping of e^{-C_H(z) T} - Id at a fixed time T.

    rank_defect counts the unit eigenvalues, nullity the frozen directions
    that never move, and nonconstant_dim their difference: the dimension of
    genuinely oscillating horizontal momenta that return at time T.
    """

    T: float
    rank_defect: int
    nullity: int
    nonconstant_dim: int
    minimal_periods: tuple


def _distinct_periods(form):
    periods = []
    for lam in form.lambdas:
        p = 2.0 * np.pi / lam
        if not any(abs(p - q) <= 1e-9 * q for q in periods):
            periods.append(p)
    return tuple(sorted(periods))


def periodicity(group, P_H2, T):
    """Analyze which horizontal momenta are T-periodic under covector P_H2.

    In the canonical form of M = C_H(P_H2), e^{-MT} - Id has the singular
    values 2 |sin(lambda_j T / 2)|, twice per plane, and a zero for each
    frozen direction; those below KERNEL_TOL count as unit eigenvalues.
    """
    z = np.asarray(P_H2, dtype=float)
    M = c_operator(group, z, horizontal=True)
    form = skew_canonical(M)
    s = 2.0 * np.abs(np.sin(0.5 * form.lambdas * float(T)))
    k = form.nullity + 2 * int(np.sum(s < KERNEL_TOL))
    return PeriodicityReport(
        T=float(T),
        rank_defect=k,
        nullity=form.nullity,
        nonconstant_dim=k - form.nullity,
        minimal_periods=_distinct_periods(form),
    )


def minimal_periods(group, P_H2):
    """Distinct minimal periods 2 pi / lambda_j of C_H(P_H2), ascending."""
    z = np.asarray(P_H2, dtype=float)
    M = c_operator(group, z, horizontal=True)
    form = skew_canonical(M)
    periods = _distinct_periods(form)
    if not periods:
        raise ZeroCovector("covector has no oscillating frequencies")
    return periods
