"""Trigonometric kernels of the closed-form exponential.

On corank >= 2 the signed area of a step-2 geodesic and its derivatives are
integrals over [0, t] of products of the closed-form samples of
carnot.expmap. The integrands are entire, so one Gauss-Legendre rule on
[0, 1] reaches rounding with no case split (Trefethen, SIAM Rev. 50, 2008).
``quadrature`` sums them row by row at the rule the row's largest turn |z|
selects: the smallest rung of _RUNGS whose _REACH covers it (95% of the |z|
up to which the rung stays within 1.5e-15 of a 512-node rule on the
products below, checked against mpmath), about 0.55 nodes per radian. Past
the top rung, [0, 1] splits into up to _MAX_PANELS panels of it; a row
turning further, or not finite, is left out. A row's rule depends on its
own frequencies alone, and each rung's nodes (Golub & Welsch, Math. Comp.
23, 1969) are computed once, so its bits do not depend on its batch or on
the cache. ``products`` gives, on all pairs (za, zb) of a row, the four
real product integrals the rungs were measured on,

    t1 = int_0^1 cos(za u) u sinc(zb u) du
    t2 = int_0^1 cos(za u) u^2 hv(zb u) du
    t3 = int_0^1 u sinc(za u) u sinc(zb u) du
    t4 = int_0^1 u sinc(za u) u^2 hv(zb u) du

with sinc(z) = sin(z)/z and hv(z) = (1 - cos z)/z^2; ``t1``..``t4`` are
its slices. Corank 1 needs two plane kernels, shared by the closed form and
the corank-1 distance: ``rotate_half`` turns plane components by half an
angle, and s3(th) = (th - sin th)/th^3, entire, is the signed area a plane
turning by th sweeps (a Taylor series below |th| = 0.5, where the
difference cancels).
"""

import functools

import numpy as np

_RUNGS = (16, 24, 32, 48, 64, 96, 128, 192, 256)
_REACH = (9.5, 19.5, 31.0, 57.0, 82.0, 137.0, 192.0, 307.0, 388.0)
_MAX_PANELS = 4096

_S3_COEF = np.array(
    [(-1.0) ** k / np.prod(np.arange(1.0, 2 * k + 4)) for k in range(7)]
)


def sinc(z):
    return np.sinc(np.asarray(z) / np.pi)


def hv(z):
    """(1 - cos z)/z^2, stable everywhere (2 sin^2(z/2) / z^2 off zero)."""
    z = np.asarray(z, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.asarray(2.0 * np.sin(z / 2.0) ** 2 / (z * z))
    small = np.abs(z) < 1e-4
    if small.any():
        w = z[small] ** 2
        out[small] = 0.5 - w / 24.0 + w * w / 720.0
    return out


@functools.cache
def _rule(m):
    """Gauss-Legendre rule of m points on [0, 1], read-only: Golub-Welsch
    nodes polished by Newton on P_m, weights 1/((1 - x^2) P_m'(x)^2)."""
    k = np.arange(1.0, m)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    for _ in range(2):
        p0, p = np.ones(m), x
        for j in range(2, m + 1):
            p0, p = p, ((2 * j - 1) * x * p - (j - 1) * p0) / j
        dp = m * (x * p - p0) / (x * x - 1.0)
        x = x - p / dp
    u, w = 0.5 * (1.0 + x), 1.0 / ((1.0 - x * x) * dp * dp)
    u.flags.writeable = w.flags.writeable = False
    return u, w


def quadrature(turn, panel, out):
    """Integrals over [0, 1] of rows, each by the rule its ``turn`` selects.

    For each group of rows ``sel`` sharing a rule, ``panel(sel, u, w)``
    gives a list of arrays over those rows at nodes u, weights w; their sums
    over the rule's panels, in order, go into the rows ``sel`` of ``out``.
    """
    good = turn <= _MAX_PANELS * _REACH[-1]
    turn = np.where(good, turn, 0.0)
    panels = np.exp2(np.ceil(np.log2(np.maximum(turn / _REACH[-1], 1.0))))
    rung = np.minimum(np.searchsorted(_REACH, turn / panels), len(_REACH) - 1)
    for p, r in set(zip(panels[good].tolist(), rung[good].tolist())):
        sel = np.flatnonzero(good & (panels == p) & (rung == r))
        u, w = _rule(_RUNGS[r])
        acc = panel(sel, u / p, w / p)
        for k in range(1, int(p)):
            acc = [a + b for a, b in zip(acc, panel(sel, (u + k) / p, w / p))]
        for o, a in zip(out, acc):
            o[sel] = a


def products(z):
    """[t1, t2, t3, t4] on all pairs of each row of frequencies.

    z has shape S + (h,); the result has shape S + (4, h, h), its entry
    [..., k, a, b] the integral t(k+1) at (z[..., a], z[..., b]).
    """
    z = np.asarray(z, dtype=float)
    lead, h = z.shape[:-1], z.shape[-1]
    rows = z.reshape(-1, h)

    def panel(sel, u, w):
        x = rows[sel, :, None] * u
        f = np.concatenate([np.cos(x), u * sinc(x), u * u * hv(x)], axis=1)
        return [(f[:, : 2 * h] * w) @ np.swapaxes(f[:, h:], -1, -2)]

    out = np.full((rows.shape[0], 2 * h, 2 * h), np.nan)
    quadrature(np.abs(rows).max(axis=-1, initial=0.0), panel, [out])
    return out.reshape(lead + (2, h, 2, h)).swapaxes(-3, -2).reshape(lead + (4, h, h))


def _slice(k):
    def t(za, zb):
        z = np.stack(np.broadcast_arrays(np.asarray(za, float), np.asarray(zb, float)), -1)
        return products(z)[..., k, 0, 1]

    return t


# the four integrals at single pairs (za, zb), slices of ``products``
t1, t2, t3, t4 = (_slice(k) for k in range(4))


def s3(theta):
    """(th - sin th) / th^3, entire; its series below |th| = 0.5."""
    w = theta * theta
    # Horner in th^2, the operations of numpy.polynomial's polyval without
    # importing numpy.polynomial (about 5 ms of a CLI process)
    ser = _S3_COEF[-1] + w * 0.0
    for c in _S3_COEF[-2::-1]:
        ser = c + ser * w
    small = np.abs(theta) < 0.5
    ts = np.where(small, 1.0, theta)
    return np.where(small, ser, (ts - np.sin(ts)) / ts**3)


def rotate_half(planes, theta):
    """Rotate plane components by cos(th/2) I + sin(th/2) J, J = [[0,1],[-1,0]]."""
    c, s = np.cos(0.5 * theta), np.sin(0.5 * theta)
    x, y = planes[..., 0], planes[..., 1]
    return np.stack([c * x + s * y, c * y - s * x], axis=-1)
