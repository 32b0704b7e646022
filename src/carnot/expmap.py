"""Closed-form normal geodesics on step-2 groups, and skew spectral tools.

On a step-2 group the vertical momentum is constant along a normal geodesic,
so the horizontal momentum obeys the linear equation P_H' = -M P_H with
M = C_H(P_V) skew. On corank >= 2 everything flows from the spectral
decomposition of M^T M: with (w, U) = eigh(M^T M) and sigma = sqrt(w),

    e^{-Mt}      = U cos(sigma t) U^T - M U t sinc(sigma t) U^T
    int_0^t e^{-Ms} ds = U t sinc(sigma t) U^T - M U t^2 hv(sigma t) U^T

where sinc(z) = sin(z)/z and hv(z) = (1 - cos z)/z^2 are entire, so the
formulas need no case split between regular and null frequencies. Horizontal
components integrate to

    x_H(t) = x_H(0) + E(t) P_H(0),        E(t) = int_0^t e^{-Ms} ds,

and each vertical component is half a signed-area line integral,

    x_a(t) = x_a(0) - (1/2) int_0^t <C^a_H x_H(s), x_H'(s)> ds,

which expands over the spectral basis into the four product integrals
implemented in carnot._trig. With q = U^T P_H(0), W = q q^T and, per
C = C^a_H, the coefficient tensors

    K1 = U^T C U,  K2 = U^T C (MU),  K3 = (MU)^T C U,  K4 = (MU)^T C (MU),

the part of the integral quadratic in P_H(0) is

    sum over p, r of  W_pr (K1 T1 - K2 T2 - K3 T3 + K4 T4)_pr,

with T1..T4 the product integrals at (sigma_p t, sigma_r t) times t^2, t^3,
t^3 and t^4. carnot._trig gives all four on every pair of a row's
frequencies z = sigma t from one Gauss-Legendre rule, whose node count the
row's largest turn sets, about 0.55 nodes per radian: a point costs more the
further its geodesic turns. The K_k come from batched matrix products of CU
and C(MU), and the four terms from one contraction of the stacked tensors.

x_H(t) is linear and x_V(t) quadratic in P_H(0), so by polarization the
derivative along a horizontal momentum dP_H is exact: E(t) dP_H, and
-(1/2) dq^T (G_a + G_a^T) q with dq = U^T dP_H, G_a = K1 T1 - K2 T2 - K3 T3
+ K4 T4, plus the part linear in x_H(0). ``ClosedFormPath`` gets points,
momenta and these derivatives from one set of factors in one core; at t = 1
along the unit vectors e_i they are the exact horizontal columns of the
exponential Q -> x(1; Q), which the shooting solver of carnot.distance
inverts. Its builds (and the conjugate scan's) stack each covector over
copies perturbed in P_V, which only difference the P_V columns, so there the
core takes the derivatives, G_a and all that follows from it, on the first
row of the stack alone, in the same pass and with the same bits.

On corank 1 (v = 1, every Heisenberg group) none of this is needed.
M = eta C^1 commutes with C^1, so in the canonical basis O of C^1
(``skew_canonical``: planes j with frequencies lambda_j from one eigh of the
Hermitian matrix i C^1, then the kernel), which is one per group, each plane
just turns by theta_j = lambda_j eta t (Gaveau, Acta Math. 1977). With
p = O^T P_H(0), rot_half the rotation by half an angle and
s3(th) = (th - sin th)/th^3, both from carnot._trig,

    x_H(t) - x_H(0) = O [t sinc(theta_j/2) rot_half(p_j, -theta_j); t p_ker]
    P_H(t)          = O [rot_half(p_j, -2 theta_j); p_ker]
    x_V(t) = x_V(0) - (1/2) <C^1 x_H(0), x_H(t) - x_H(0)>
             + (1/2) sum_j lambda_j |p_j|^2 t^2 theta_j s3(theta_j),

O(h) per point with no eigendecomposition and no product integrals. The
area term is a diagonal quadratic form in p, so its polarization gives the
exact derivatives along dP_H as above.

All formulas are valid for negative t and broadcast over batches of
covectors; t itself broadcasts against the batch shape, so a trailing grid
axis on the batch gives whole trajectories in one call.

A path is built one way, ``ClosedFormPath(group, x0, P0)``, and reached
through ``exp_sr_2step``, the trace sampler of carnot.geodesics, or ``_jet``.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import _trig
from .errors import NotSkew, WrongStep
from .groups import CarnotGroup, c_operator

__all__ = [
    "SkewCanonicalForm",
    "ClosedFormPath",
    "skew_canonical",
    "exp_sr_2step",
    "require_step2",
]

SKEW_TOL = 1e-12
# frequencies at most FREQ_TOL times the largest one count as kernel
FREQ_TOL = 1e-10
# the powers of t that scale the product integrals t1..t4
_T_POWERS = np.array([2.0, 3.0, 3.0, 4.0])


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

    iM is Hermitian, so one eigh(iM) gives the planes directly: an
    eigenvector w of eigenvalue lambda > 0 has M w = -i lambda w, and
    (u, v) = sqrt(2) (Re w, -Im w) spans a plane with M u = -lambda v and
    M v = lambda u. Since conj(w) spans the eigenspace of -lambda, these
    planes stay orthonormal when lambda repeats, and M is never squared. A
    complete QR of the plane columns supplies the kernel as its orthogonal
    complement; with the signs of R fixed positive it changes the planes
    only by restoring the orthogonality of u and v that eigh leaves at
    O(eps / lambda) when lambda is tiny beside the other eigenvalues.
    """
    M = _check_skew(M)
    mu, W = np.linalg.eigh(1j * M)
    keep = mu > FREQ_TOL * np.abs(mu).max()
    lam, W = mu[keep][::-1], W[:, keep][:, ::-1]
    B = np.sqrt(2.0) * np.stack([W.real, -W.imag], axis=-1).reshape(M.shape[0], -1)
    O, R = np.linalg.qr(B, mode="complete")
    O[:, : B.shape[1]] *= np.sign(np.diag(R))
    return SkewCanonicalForm(O=O, lambdas=lam, nullity=M.shape[0] - B.shape[1])


@functools.lru_cache(maxsize=64)
def _canonical_of(data, h):
    form = skew_canonical(np.frombuffer(data).reshape(h, h).copy())
    form.O.flags.writeable = False
    form.lambdas.flags.writeable = False
    return form


def _corank1_form(group):
    """``skew_canonical(group.CH[0])``, computed once per structure tensor.

    Keyed on the bytes of C^1, so it is a pure function of the constants
    and gives the same bits cold and warm; its arrays are read-only.
    """
    C = np.ascontiguousarray(group.CH[0], dtype=float)
    return _canonical_of(C.tobytes(), C.shape[0])


@dataclass
class ClosedFormPath:
    """A batch of closed-form normal geodesics on a step-2 group.

    Holds the spectral data of M = C_H(P_V) so that points, momenta and
    vertical increments at any collection of times come out of vectorized
    kernel evaluations. Batch axes of x0 and P0 broadcast together; times
    passed to the evaluation methods broadcast against that batch shape.
    U is an eigenbasis of M^T M and q = U^T P_H(0). Every evaluation method
    is a thin wrapper over ``_evaluate``, which holds the one branch on the
    corank. On corank >= 2 the coefficient tensors K1..K4 of the module
    docstring are kept as one tensor of shape batch + (v, 4, h, h), signs
    folded in, which ``_evaluate`` contracts with W and the stacked product
    integrals at once. On corank 1 there are no K tensors and no product
    integrals: U is the canonical basis O of C^1, one per group, and
    ``_evaluate`` works plane by plane in O(h) per point. A row's bits do
    not depend on the other rows of its batch. ``__post_init__`` sets every
    factor; ``with_horizontal`` is a fresh build. It, ``horizontal`` and
    ``increments`` stay only for the benchmark's tracer, which wraps them by
    name, until ROADMAP item 13 frees those names.
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
        self._CHx0 = np.einsum("vij,...j->...vi", CH, self.x0[..., :h])
        if g.v == 1:
            form = _corank1_form(g)
            self.U, self._lam = form.O, form.lambdas
            self._eta = self.P0[..., h, None]
        else:
            M = c_operator(g, self.P0[..., h:], horizontal=True)
            w, U = np.linalg.eigh(np.swapaxes(M, -1, -2) @ M)
            self.M, self.U = M, U
            self.sigma = np.sqrt(np.clip(w, 0.0, None))
            # K1..K4 of the module docstring, stacked; -MU folds in the
            # signs +, -, -, + of the four terms exactly
            nMU = -(M @ U)[..., None, :, :]
            Ut = np.swapaxes(U, -1, -2)[..., None, :, :]
            nMUt = np.swapaxes(nMU, -1, -2)
            CU = CH @ U[..., None, :, :]
            nCMU = CH @ nMU
            self._K = np.empty(self.batch + (g.v, 4, h, h))
            np.matmul(Ut, CU, out=self._K[..., 0, :, :])
            np.matmul(Ut, nCMU, out=self._K[..., 1, :, :])
            np.matmul(nMUt, CU, out=self._K[..., 2, :, :])
            np.matmul(nMUt, nCMU, out=self._K[..., 3, :, :])
        self.q = np.einsum("...ip,...i->...p", self.U, self.P0[..., :h])
        if g.v > 1:
            self._W = self.q[..., :, None] * self.q[..., None, :]

    def _evaluate(self, t, momentum=False, dPH=None, first=False):
        """x_H(t) - x_H(0), P_H(t) if ``momentum``, I(t) and, given ``dPH``
        (horizontal momenta stacked as in ``jet``), the pair of derivatives
        of x_H(t) and I(t) along each; None for what is not asked. With
        ``first`` the derivatives are taken on the first row of the batch's
        leading axis alone, which t must not extend, and that axis is
        dropped from them (dPH then broadcasts against the rest). One set of
        factors serves all: on corank >= 2 t sinc(sigma t) and
        t^2 hv(sigma t), the diagonals of E(t) in the eigenbasis, and the
        product integrals; on corank 1 the turns theta_j = lambda_j eta t.
        """
        t = np.asarray(t, dtype=float)
        tB = np.broadcast_to(t, np.broadcast_shapes(self.batch, t.shape))
        ts = tB[..., None]
        q, ph = self.q, None
        # the rows the derivatives are taken on: all, or the first alone
        r = 0 if first else Ellipsis
        if self.group.v == 1:
            theta = self._lam * (self._eta * ts)
            R = theta.shape[-1]
            # the signed area per unit |q_j|^2 that plane j sweeps, twice the
            # area term's share
            a = self._lam * ts * ts * theta * _trig.s3(theta)

            def area(a, q, u):
                qu = q[..., : 2 * R] * u[..., : 2 * R]
                return (a * (qu[..., 0::2] + qu[..., 1::2])).sum(axis=-1)[..., None]

            delta, ph = self._planes(q, ts, theta, momentum)
            J = -area(a, q, q)
            if dPH is not None:
                dq = np.einsum("...ip,...i->...p", self.U, np.asarray(dPH, float))
                ddelta = self._planes(dq, ts[r], theta[r], False)[0]
                dJ = -2.0 * area(a[r], q[r], dq)
        else:
            z = ts * np.broadcast_to(self.sigma, tB.shape + self.sigma.shape[-1:])
            sz, hz = _trig.sinc(z), _trig.hv(z)
            s, e = ts * sz, ts * ts * hz
            sq = s * q
            delta = self._spread(sq, e * q)
            if momentum:
                ph = self._spread(np.cos(z) * q, sq)
            # [t^2 T1, t^3 T2, t^3 T3, t^4 T4], stacked as _K is
            T = _trig.products(z)
            T *= (ts ** _T_POWERS)[..., None, None]
            # the four terms of the stacked contraction are summed in order,
            # as four separate contractions would be
            Jk = np.einsum("...vkab,...ab,...kab->...vk", self._K, self._W, T)
            J = Jk[..., 0] + Jk[..., 1] + Jk[..., 2] + Jk[..., 3]
            if dPH is not None:
                dq = np.einsum("...ip,...i->...p", self.U[r], np.asarray(dPH, float))
                G = np.einsum("...vkab,...kab->...vab", self._K[r], T[r])
                Gq = np.einsum("...vab,...b->...va", G + np.swapaxes(G, -1, -2), q[r])
                ddelta = self._spread(s[r] * dq, e[r] * dq, r)
                dJ = np.einsum("...va,...a->...v", Gq, dq)
        I = np.einsum("...vj,...j->...v", self._CHx0, delta) + J
        if dPH is None:
            return delta, ph, I, None
        dI = np.einsum("...vj,...j->...v", self._CHx0[r], ddelta) + dJ
        return delta, ph, I, (ddelta, dI)

    def _spread(self, a, b, r=Ellipsis):
        """U a - M U b, back from eigenbasis coefficients a and b, with U
        and M of the rows ``r`` of the batch's leading axis."""
        return np.einsum("...ip,...p->...i", self.U[r], a) - np.einsum(
            "...ik,...kp,...p->...i", self.M[r], self.U[r], b
        )

    def _planes(self, q, ts, theta, momentum):
        """Corank 1: x_H(t) - x_H(0), and P_H(t) if ``momentum`` (else
        None), for the horizontal momentum with coordinates q in the basis O."""
        h, R = self.group.h, theta.shape[-1]
        qp = q[..., : 2 * R].reshape(q.shape[:-1] + (R, 2))
        qk = q[..., 2 * R :]
        lead = np.broadcast_shapes(q.shape[:-1], theta.shape[:-1])
        d = np.empty(lead + (h,))
        turned = _trig.rotate_half(qp, -theta)
        d[..., : 2 * R] = (
            (ts * _trig.sinc(0.5 * theta))[..., None] * turned
        ).reshape(lead + (2 * R,))
        d[..., 2 * R :] = ts * qk
        delta = np.einsum("ip,...p->...i", self.U, d)
        if not momentum:
            return delta, None
        p = np.empty(lead + (h,))
        p[..., : 2 * R] = _trig.rotate_half(qp, -2.0 * theta).reshape(lead + (2 * R,))
        p[..., 2 * R :] = qk
        return delta, np.einsum("ip,...p->...i", self.U, p)

    def horizontal(self, t):
        """x_H(t), its time derivative P_H(t) and the displacement
        x_H(t) - x_H(0), each of shape B + (h,)."""
        delta, ph, _, _ = self._evaluate(t, momentum=True)
        return self.x0[..., : self.group.h] + delta, ph, delta

    def increments(self, t):
        """All vertical line integrals I^a(t), shape B + (v,)."""
        return self._evaluate(t)[2]

    def point(self, t, return_momentum=False):
        h = self.group.h
        delta, ph, I, _ = self._evaluate(t, momentum=return_momentum)
        xv = self.x0[..., h:] - 0.5 * I
        x = np.concatenate([self.x0[..., :h] + delta, xv], axis=-1)
        if not return_momentum:
            return x
        pv = np.broadcast_to(self.P0[..., h:], xv.shape)
        return x, np.concatenate([ph, pv], axis=-1)

    def jet(self, t, dPH):
        """x(t) and its derivatives along horizontal momenta.

        ``dPH`` stacks j horizontal momenta, shape (j,) + S + (h,) with S
        broadcasting against the batch and t. Returns x(t), bit for bit as
        ``point`` gives it, and the derivatives of x(t) in P_H(0) along each
        dPH, shape (j,) + B + (n,), exact by polarization (see the module
        docstring), from the factors that give x(t).
        """
        return self._jet(t, dPH, False)

    def _jet(self, t, dPH, first):
        """``jet``; with ``first`` its derivatives on row 0 alone (``_evaluate``)."""
        h = self.group.h
        delta, _, I, (ddelta, dI) = self._evaluate(t, dPH=dPH, first=first)
        xv = self.x0[..., h:] - 0.5 * I
        x = np.concatenate([self.x0[..., :h] + delta, xv], axis=-1)
        return x, np.concatenate([ddelta, -0.5 * dI], axis=-1)

    def with_horizontal(self, PH):
        """The path from the same x0 and P_V with horizontal momentum PH,
        whose leading axes broadcast against the batch; a fresh build."""
        h, n = self.group.h, self.group.n
        PH = np.asarray(PH, dtype=float)
        if PH.shape[-1] != h:
            raise ValueError("expected %d horizontal components" % h)
        P0 = np.empty(np.broadcast_shapes(self.batch, PH.shape[:-1]) + (n,))
        P0[..., :h] = PH
        P0[..., h:] = self.P0[..., h:]
        return ClosedFormPath(group=self.group, x0=self.x0, P0=P0)


def exp_sr_2step(group, x0, P0, t, return_momentum=False):
    """Evaluate the step-2 normal geodesic from (x0, P0) at time(s) t.

    Returns points of shape broadcast(batch, t) + (n,); with return_momentum
    the full covector P(t) comes along as a second array (its vertical part
    is constant in t).
    """
    return ClosedFormPath(group=group, x0=x0, P0=P0).point(
        t, return_momentum=return_momentum
    )
