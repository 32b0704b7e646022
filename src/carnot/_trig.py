"""Stable trigonometric moment kernels for the closed-form exponential.

Everything the 2-step vertical line integrals need reduces to the moments

    mc_k(z) = int_0^1 u^k cos(zu) du,    ms_k(z) = int_0^1 u^k sin(zu) du,

and to four normalized product integrals t1..t4 (see below). The k = 0
moments have globally stable closed forms, mc_0 = sinc and ms_0 = z hv(z),
and they are all the regular branches of t1..t4 ever use, so those branches
are pure vectorized trig. Higher moments are entire in z; we evaluate them by
a truncated power series for |z| < 6 and by the integration-by-parts ladder

    mc_k = sin z / z - (k/z) ms_{k-1},    ms_k = -cos z / z + (k/z) mc_{k-1}

for |z| >= 6, where the ladder factors k/z stay bounded by ~1.4 so no
amplification occurs. The product integrals carry removable singularities at
zero frequency; each one switches to a short series in the small variable
below CUT so that no difference-quotient cancellation ever exceeds ~1e-12,
and the series (the only consumer of higher moments) is evaluated on the
small-frequency subset alone.

Product integrals (za = a*t, zb = b*t; the caller applies the powers of t):

    t1 = int_0^1 cos(za u) * u sinc(zb u) du
    t2 = int_0^1 cos(za u) * u^2 hv(zb u) du
    t3 = int_0^1 u^2 sinc(za u) sinc(zb u) du
    t4 = int_0^1 u^3 sinc(za u) hv(zb u) du

with sinc(z) = sin(z)/z and hv(z) = (1 - cos z)/z^2, both entire.

One kernel, ``products``, returns all four stacked from one pass, and
``t1``..``t4`` are its slices. Their regular branches share four sums on the
grid, sinc(za -+ zb) and ms_0(za -+ zb); sinc(za) and hv(za) come from the
caller where it has them (the closed form's own factors). One moment call on
za where zb is small (kmax 6) serves every series in zb, and one on zb where
za alone is small (kmax 5) every series in za. The bits are those of four
separate integrals: ms_0 is exactly odd, so t1's ms_0(zb - za) is
-ms_0(za - zb) and x + (-y) is x - y; za + zb is zb + za; and each row of
the moments' Horner sweep does not depend on kmax.

Corank 1 needs none of the above but two plane kernels, shared by the
closed-form exponential and the exact corank-1 distance: ``rotate_half``
turns 2D plane components by half an angle, and s3(th) = (th - sin th)/th^3,
entire, is the signed area a plane turning by th sweeps (a Taylor series
below |th| = 0.5, where the difference cancels).
"""

import numpy as np

CUT = 0.02
_SERIES_RADIUS = 6.0
_NTERMS = 21
_MAXK = 8

# series table, mc rows then ms rows: mc_k(z) = sum_j C[0, k, j] z^(2j),
# ms_k(z) = sum_j C[1, k, j] z^(2j+1)
_FACT = [1.0]
for _i in range(1, 2 * _NTERMS + 3):
    _FACT.append(_FACT[-1] * _i)
_COEF = np.array(
    [
        [[(-1.0) ** j / (_FACT[2 * j + s] * (2 * j + k + 1 + s)) for j in range(_NTERMS)]
         for k in range(_MAXK + 1)]
        for s in (0, 1)
    ]
)


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


def _ms0(z):
    """ms_0(z) = (1 - cos z)/z, entire: z hv(z)."""
    return z * hv(z)


def _moments(z, kmax):
    """Stacked mc_0..mc_kmax and ms_0..ms_kmax at z (any shape)."""
    z = np.asarray(z, dtype=float)
    shape = z.shape
    zf = z.reshape(-1)
    mc = np.empty((kmax + 1, zf.size))
    ms = np.empty((kmax + 1, zf.size))
    ser = np.abs(zf) < _SERIES_RADIUS
    if ser.any():
        zs = zf[ser]
        w = zs * zs
        # Horner in z^2, the mc and ms rows of every k in one sweep
        coef = _COEF[:, : kmax + 1]
        acc = np.repeat(coef[:, :, _NTERMS - 1 :], zs.size, axis=2)
        for j in range(_NTERMS - 2, -1, -1):
            acc *= w
            acc += coef[:, :, j, None]
        mc[:, ser] = acc[0]
        ms[:, ser] = acc[1] * zs
    big = ~ser
    if big.any():
        zl = zf[big]
        sz, cz = np.sin(zl) / zl, np.cos(zl) / zl
        lc = sz.copy()
        ls = (1.0 - np.cos(zl)) / zl
        mc[0, big] = lc
        ms[0, big] = ls
        for k in range(1, kmax + 1):
            lc, ls = sz - (k / zl) * ls, -cz + (k / zl) * lc
            mc[k, big] = lc
            ms[k, big] = ls
    return mc.reshape((kmax + 1,) + shape), ms.reshape((kmax + 1,) + shape)


def products(za, zb, sinc_a=None, hv_a=None):
    """[t1, t2, t3, t4] at (za, zb), stacked on a new leading axis.

    ``sinc_a`` and ``hv_a`` are sinc and hv at za, broadcasting with it,
    for a caller that has them already.
    """
    za = np.asarray(za, dtype=float)
    if sinc_a is None:
        sinc_a, hv_a = sinc(za), hv(za)
    za, zb, sinc_a, hv_a = np.broadcast_arrays(za, np.asarray(zb, float), sinc_a, hv_a)
    shape = za.shape
    za, zb, sinc_a, hv_a = (x.reshape(-1) for x in (za, zb, sinc_a, hv_a))
    sa, sb = np.abs(za) < CUT, np.abs(zb) < CUT
    zas, zbs = np.where(sa, 1.0, za), np.where(sb, 1.0, zb)
    zab = zas * zbs
    d, s = za - zb, za + zb
    sd, ss, md, ms = sinc(d), sinc(s), _ms0(d), _ms0(s)
    out = np.empty((4, za.size))
    out[0] = 0.5 * (ms - md) / zbs
    out[1] = (sinc_a - 0.5 * (sd + ss)) / (zbs * zbs)
    out[2] = 0.5 * (sd - ss) / zab
    out[3] = (za * hv_a - 0.5 * (ms + md)) / (zab * zbs)
    if sb.any():
        # series in zb against the moments of za: t1 and t2 wherever zb is
        # small, t3 and t4 where za is not
        a, w = za[sb], zb[sb] ** 2
        mc, msa = _moments(a, 6)
        out[0, sb] = mc[1] - (w / 6.0) * mc[3] + (w * w / 120.0) * mc[5]
        out[1, sb] = 0.5 * mc[2] - (w / 24.0) * mc[4] + (w * w / 720.0) * mc[6]
        big, onlyb = ~sa[sb], sb & ~sa
        a, w, msa = a[big], w[big], msa[:, big]
        out[2, onlyb] = (msa[1] - (w / 6.0) * msa[3] + (w * w / 120.0) * msa[5]) / a
        out[3, onlyb] = (
            0.5 * msa[2] - (w / 24.0) * msa[4] + (w * w / 720.0) * msa[6]
        ) / a
    onlya = sa & ~sb
    if onlya.any():
        # series in za against the moments of zb, with
        # int u^k hv(zb u) du = (1/(k-1) - mc_{k-2})/zb^2
        b, w = zb[onlya], za[onlya] ** 2
        mcb, msb = _moments(b, 5)
        out[2, onlya] = (msb[1] - (w / 6.0) * msb[3] + (w * w / 120.0) * msb[5]) / b
        bb = b * b
        i3 = (0.5 - mcb[1]) / bb
        i5 = (0.25 - mcb[3]) / bb
        i7 = (1.0 / 6.0 - mcb[5]) / bb
        out[3, onlya] = i3 - (w / 6.0) * i5 + (w * w / 120.0) * i7
    both = sa & sb
    if both.any():
        wa, wb = za[both] ** 2, zb[both] ** 2
        out[2, both] = (
            1.0 / 3.0
            - (wa + wb) / 30.0
            + (wa * wa + wb * wb) / 840.0
            + wa * wb / 252.0
        )
        out[3, both] = (
            1.0 / 8.0
            - wa / 72.0
            - wb / 144.0
            + wa * wb / 1152.0
            + wa * wa / 1920.0
            + wb * wb / 5760.0
        )
    return out.reshape((4,) + shape)


def t1(za, zb):
    return products(za, zb)[0]


def t2(za, zb):
    return products(za, zb)[1]


def t3(za, zb):
    return products(za, zb)[2]


def t4(za, zb):
    return products(za, zb)[3]


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
