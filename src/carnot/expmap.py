"""Closed-form normal geodesics on step-2 groups, and skew spectral tools.

On a step-2 group the vertical momentum is constant along a normal geodesic,
so the horizontal momentum obeys P_H' = -M P_H with M = C_H(P_V) skew. iM
is Hermitian, so on corank >= 2 one (mu, V) = eigh(iM) per covector, with
c = V^H P_H(0) and o the entrywise product, gives in closed form

    P_H(s) = Re V (e^{i mu s} o c),
    delta(s) = x_H(s) - x_H(0) = Re V (phi(s) o c),  phi(s) = s e^{i mu s/2} sinc(mu s/2),

with sinc(z) = sin(z)/z entire, so null frequencies need no case split. Each
vertical coordinate is x_a(t) = x_a(0) - I^a(t)/2, with the signed area

    I^a(t) = <C^a x_H(0), delta(t)> + int_0^t <C^a delta(s), P_H(s)> ds,

C^a = C^a_H, integrated by the Gauss-Legendre rule that the row's turn
max|mu t| selects (carnot._trig.quadrature, about 0.55 nodes per radian).
The differential in P(0) is exact from the same samples. Along dP_H,
d delta = Re V (phi o V^H dP_H), dP_H(s) = e^{-Ms} dP_H, and one integration
by parts (delta' = P_H, C^a skew) gives

    dI^a = <C^a (x_H(0) - delta(t)), d delta(t)> + 2 int_0^t <C^a delta, dP_H> ds.

Along e_b in P_V, M moves by C_H(e_b), and the first divided difference of
exp (Daleckii-Krein; Higham, Functions of Matrices, 2008, ch. 3) gives
dP_H(s) = -V ((V^H C_H(e_b) V) o Phi(s)) c with
Phi_pr(s) = s e^{i (mu_p + mu_r) s/2} sinc((mu_p - mu_r) s/2); d delta(t) is
its integral by the same rule, and dI^a the same formula. So one build of a
covector gives the point and every column of the exponential Q -> x(1; Q)
that the shooting solver of carnot.distance inverts.

On corank 1 (v = 1, every Heisenberg group) M = eta C^1 commutes with C^1,
so in the canonical basis O of C^1 (``skew_canonical``: planes j with
frequencies lambda_j, then the kernel), one per group, each plane turns by
theta_j = lambda_j eta t (Gaveau, Acta Math. 1977). With p = O^T P_H(0),
rot_half the rotation by half an angle and s3(th) = (th - sin th)/th^3,

    x_H(t) - x_H(0) = O [t sinc(theta_j/2) rot_half(p_j, -theta_j); t p_ker]
    P_H(t)          = O [rot_half(p_j, -2 theta_j); p_ker]
    x_V(t) = x_V(0) - (1/2) <C^1 x_H(0), x_H(t) - x_H(0)>
             + (1/2) sum_j lambda_j |p_j|^2 t^2 theta_j s3(theta_j),

O(h) per point with no eigendecomposition and no quadrature. The area is a
diagonal quadratic form in p, so its polarization gives the derivatives
along dP_H; along eta, dP_H(s) = -s C^1 P_H(s), and they integrate plane by
plane through sinc - hv and hv - s3, hv(z) = (1 - cos z)/z^2, all entire.

All formulas hold for negative t; t broadcasts against the batch of
covectors, so a trailing grid axis on the batch gives whole trajectories in
one call. A path is built one way, ``ClosedFormPath(group, x0, P0)``.
"""

import functools
from dataclasses import dataclass

import numpy as np

from . import _trig
from .errors import NonFiniteState, NotSkew, WrongStep
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

    Batch axes of x0 and P0 broadcast together; times passed to the
    evaluation methods broadcast against that batch shape. Every evaluation
    method is a thin wrapper over ``_evaluate``, which holds the one branch
    on the corank: on corank >= 2 ``_spectral`` works from (mu, V) =
    eigh(iM), c = V^H P_H(0) and D_a = V^H C^a_H V; on corank 1 U is the
    canonical basis O of C^1 and q = U^T P_H(0). A row's bits do not depend
    on the other rows of its batch. A NaN or infinite x0 or P0 raises
    NonFiniteState. ``with_horizontal``, ``horizontal`` and ``increments``
    stay only for the benchmark's tracer, which wraps them by name, until
    ROADMAP item 13 frees those names.
    """

    group: CarnotGroup
    x0: np.ndarray
    P0: np.ndarray

    def __post_init__(self):
        g = self.group
        require_step2(g, "closed-form exponential")
        n, h = g.n, g.h
        self.x0 = np.asarray(self.x0, dtype=float)
        self.P0 = np.asarray(self.P0, dtype=float)
        if self.x0.shape[-1] != n or self.P0.shape[-1] != n:
            raise ValueError("x0 and P0 must have %d coordinates" % n)
        if not (np.isfinite(self.x0).all() and np.isfinite(self.P0).all()):
            raise NonFiniteState("the closed form needs a finite x0 and P0")
        batch = np.broadcast_shapes(self.x0.shape[:-1], self.P0.shape[:-1])
        self.x0 = np.broadcast_to(self.x0, batch + (n,))
        self.P0 = np.broadcast_to(self.P0, batch + (n,))
        self.batch = batch

        self._CHx0 = np.einsum("vij,...j->...vi", g.CH, self.x0[..., :h])
        if g.v == 1:
            form = _corank1_form(g)
            self.U, self._lam = form.O, form.lambdas
            self._eta = self.P0[..., h, None]
            self.q = np.einsum("...ip,...i->...p", self.U, self.P0[..., :h])
        else:
            mu, V = np.linalg.eigh(1j * c_operator(g, self.P0[..., h:], horizontal=True))
            Vc = V.conj()
            c = (self.P0[..., None, :h] @ Vc)[..., 0, :]
            # D[..., a, :, :] = V^H C^a_H V, as which C^a acts on coefficients
            D = np.swapaxes(Vc, -1, -2)[..., None, :, :] @ g.CH @ V[..., None, :, :]
            self._spec = mu, V, c, D

    def _evaluate(self, t, momentum=False, dPH=None, vertical=False):
        """x_H(t) - x_H(0), P_H(t) if ``momentum``, I(t) and, given ``dPH``
        (stacked as in ``jet``), the derivatives of (x_H(t) - x_H(0), I(t))
        along each, shape (j,) + S + (h + v,), followed with ``vertical`` by
        those along the unit vectors of P_V; None for what is not asked."""
        t = np.asarray(t, dtype=float)
        tB = np.broadcast_to(t, np.broadcast_shapes(self.batch, t.shape))
        if self.group.v > 1:
            delta, ph, I, DH, DV = self._spectral(tB, momentum, dPH is not None, vertical)
            if dPH is None:
                return delta, ph, I, None
            d = (DH @ np.asarray(dPH, float)[..., None])[..., 0]
        else:
            ts = tB[..., None]
            q, lam, CH = self.q, self._lam, self.group.CH
            theta = lam * (self._eta * ts)
            R = theta.shape[-1]
            # the signed area per unit |q_j|^2 that plane j sweeps, twice the
            # area term's share
            a = lam * ts * ts * theta * _trig.s3(theta)

            def area(a, q, u):
                qu = q[..., : 2 * R] * u[..., : 2 * R]
                return (a * (qu[..., 0::2] + qu[..., 1::2])).sum(axis=-1)[..., None]

            delta, ph = self._planes(q, ts, theta, momentum)
            I = np.einsum("...vj,...j->...v", self._CHx0, delta) - area(a, q, q)
            if dPH is None:
                return delta, ph, I, None
            dq = np.einsum("...ip,...i->...p", self.U, np.asarray(dPH, float))
            ddelta = self._planes(dq, ts, theta, False)[0]
            dI = np.einsum("...vj,...j->...v", self._CHx0, ddelta) - 2.0 * area(a, q, dq)
            d = np.concatenate([ddelta, dI], axis=-1)
            if vertical:
                # along eta plane j moves by -lambda_j t^2 (theta k p_j +
                # (sinc - hv) J p_j), k = hv - s3, J p = (p_2, -p_1), and
                # the pairing integrates to -t^3 sum_j lambda_j^2 |p_j|^2 k
                k = _trig.hv(theta) - _trig.s3(theta)
                p = q[..., : 2 * R].reshape(q.shape[:-1] + (R, 2))
                lt2 = lam * ts * ts
                sc = (_trig.sinc(theta) - _trig.hv(theta))[..., None]
                sh = (theta * k)[..., None] * p + sc * p[..., ::-1] * [1.0, -1.0]
                sh = (-lt2[..., None] * sh).reshape(sh.shape[:-2] + (2 * R,))
                de = np.einsum("ip,...p->...i", self.U[:, : 2 * R], sh)
                r = self._CHx0 - np.einsum("vij,...j->...vi", CH, delta)
                pair = (lt2 * lam * (p * p).sum(axis=-1) * k).sum(axis=-1)[..., None]
                dI = np.einsum("...vj,...j->...v", r, de) - 2.0 * ts * pair
                DV = np.concatenate([de, dI], axis=-1)[..., None]
        if vertical:
            DV = np.moveaxis(DV, -1, 0)
            d = np.concatenate([d, np.broadcast_to(DV, DV.shape[:1] + d.shape[1:])])
        return delta, ph, I, d

    def _spectral(self, tB, momentum, derivs, vertical):
        """Corank >= 2: x_H(t) - x_H(0), P_H(t) if ``momentum``, I(t), and
        with ``derivs`` the derivatives of (x_H(t) - x_H(0), I(t)) along
        the unit vectors of P_H, shape S + (h + v, h), with ``vertical``
        those along the unit vectors of P_V, S + (h + v, v), else None.

        In the eigenbasis delta = V f, P_H = V e, dP_H = -V (D_b o Phi) c
        along e_b (f = phi o c, e = e^{i mu s} o c), and C^a acts as D_a.
        So each row sums, over the nodes s_k = t u_k of its rule,
        B_pq = sum_k w_k e^{-i mu_p s_k} f_q and for the P_V derivatives
        Psi_pr = sum_k w_k Phi_pr c_r and L_qpr = sum_k w_k f_q
        conj(Phi_pr c_r); I and every derivative contract them with D.
        """
        h, v = self.group.h, self.group.v
        S, rows = tB.shape, tB.size
        t = tB.reshape(rows)

        def per_row(a, k):
            tail = a.shape[a.ndim - k :]
            a = a if a.shape[: a.ndim - k] == S else np.broadcast_to(a, S + tail)
            return a.reshape((rows,) + tail)

        mu, V, c, D = (per_row(a, k) for a, k in zip(self._spec, (1, 2, 1, 3)))

        def panel(sel, u, w):
            s = t[sel, None] * u
            z = 0.5 * s[..., None] * mu[sel, None]
            eh = np.exp(1j * z)
            ceh = c[sel, None] * eh
            f = (s[..., None] * _trig.sinc(z)) * ceh
            out = [np.swapaxes((eh * eh).conj() * w[:, None], -1, -2) @ f]
            if vertical:
                # Phi_pr c_r = s e^{i(mu_p + mu_r)s/2} sinc((mu_p - mu_r)s/2) c_r
                Phic = (s[..., None] * eh)[..., None] * _trig.sinc(z[..., None] - z[..., None, :])
                Phic = (Phic * ceh[..., None, :]).reshape(z.shape[:2] + (h * h,))
                out += [w @ Phic, np.swapaxes(f * w[:, None], -1, -2) @ Phic.conj()]
            return out

        shapes = [(h, h), (h * h,), (h, h * h)][: 3 if vertical else 1]
        sums = [np.full((rows,) + sh, np.nan, dtype=complex) for sh in shapes]
        z = mu * t[:, None]
        _trig.quadrature(np.abs(z).max(axis=-1, initial=0.0), panel, sums)

        Vt, Vc = np.swapaxes(V, -1, -2), V.conj()
        phi = t[:, None] * np.exp(0.5j * z) * _trig.sinc(0.5 * z)
        delta = ((phi * c)[:, None] @ Vt)[:, 0].real
        CHx0 = per_row(self._CHx0, 2)
        # G_ap = sum_q D_apq B_pq, and the area is Re sum_p conj(c_p) G_ap
        G = (D * sums[0][:, None]).sum(axis=-1)
        I = (CHx0 * delta[:, None]).sum(-1) + t[:, None] * (G * c.conj()[:, None]).sum(-1).real
        ph = ((np.exp(1j * z) * c)[:, None] @ Vt)[:, 0].real.reshape(S + (h,)) if momentum else None
        out = [delta.reshape(S + (h,)), ph, I.reshape(S + (v,)), None, None]
        if not derivs:
            return out
        # V^H C^a (x_H(0) - delta(t)), which d delta(t) pairs with in each dI
        r = CHx0 @ Vc - ((phi * c)[:, None, None] @ np.swapaxes(D, -1, -2))[:, :, 0]
        tt = t[:, None, None]
        E = ((V * phi[:, None]) @ np.swapaxes(Vc, -1, -2)).real
        grad = ((phi.conj()[:, None] * r + 2.0 * tt * G) @ Vt).real
        out[3] = np.concatenate([E, grad], axis=-2).reshape(S + (h + v, h))
        if vertical:
            # sum_k w_k V^H dP_H(s_k) along e_b is -Xw_b, Xw_bp = sum_r
            # D_bpr Psi_pr; its pairing is -Re sum_pr conj(D_bpr) Z_apr,
            # Z_apr = sum_q D_apq L_qpr
            Xw = (D * sums[1].reshape(rows, 1, h, h)).sum(axis=-1)
            L = np.swapaxes(sums[2].reshape(rows, h, h, h), 1, 2)
            Z = np.swapaxes(np.swapaxes(D, 1, 2) @ L, 1, 2).reshape(rows, v, h * h)
            pair = (D.conj().reshape(rows, v, h * h) @ np.swapaxes(Z, -1, -2)).real
            dd = -tt * (Xw @ Vt).real
            dI = -tt * ((Xw @ np.swapaxes(r.conj(), -1, -2)).real + 2.0 * pair)
            out[4] = np.swapaxes(np.concatenate([dd, dI], axis=-1), -1, -2).reshape(S + (h + v, v))
        return out

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

    def _x(self, delta, I):
        """x(t) from x_H(t) - x_H(0) and the signed areas I(t)."""
        h = self.group.h
        return np.concatenate([self.x0[..., :h] + delta, self.x0[..., h:] - 0.5 * I], axis=-1)

    def point(self, t, return_momentum=False):
        delta, ph, I, _ = self._evaluate(t, momentum=return_momentum)
        if not return_momentum:
            return self._x(delta, I)
        pv = np.broadcast_to(self.P0[..., self.group.h :], I.shape)
        return self._x(delta, I), np.concatenate([ph, pv], axis=-1)

    def jet(self, t, dPH):
        """x(t) and its derivatives along horizontal momenta.

        ``dPH`` stacks j horizontal momenta, shape (j,) + S + (h,) with S
        broadcasting against the batch and t. Returns x(t), bit for bit as
        ``point`` gives it, and the exact derivatives of x(t) in P_H(0)
        along each dPH, shape (j,) + B + (n,), from the same samples.
        """
        return self._jet(t, dPH, False)

    def _jet(self, t, dPH, vertical):
        """``jet``; with ``vertical`` the derivatives along the unit vectors
        of P_V follow those along dPH."""
        delta, _, I, d = self._evaluate(t, dPH=dPH, vertical=vertical)
        d[..., self.group.h :] *= -0.5
        return self._x(delta, I), d

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
