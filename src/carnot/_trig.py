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
"""

import numpy as np

CUT = 0.02
_SERIES_RADIUS = 6.0
_NTERMS = 21
_MAXK = 8

# series tables: mc_k(z) = sum_j C[k][j] z^(2j), ms_k(z) = sum_j S[k][j] z^(2j+1)
_FACT = [1.0]
for _i in range(1, 2 * _NTERMS + 3):
    _FACT.append(_FACT[-1] * _i)
_MC_COEF = np.array(
    [
        [(-1.0) ** j / (_FACT[2 * j] * (2 * j + k + 1)) for j in range(_NTERMS)]
        for k in range(_MAXK + 1)
    ]
)
_MS_COEF = np.array(
    [
        [(-1.0) ** j / (_FACT[2 * j + 1] * (2 * j + k + 2)) for j in range(_NTERMS)]
        for k in range(_MAXK + 1)
    ]
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
        # Horner in z^2, all k rows in one sweep
        acc_c = np.repeat(_MC_COEF[: kmax + 1, _NTERMS - 1 :], zs.size, axis=1)
        acc_s = np.repeat(_MS_COEF[: kmax + 1, _NTERMS - 1 :], zs.size, axis=1)
        for j in range(_NTERMS - 2, -1, -1):
            acc_c *= w
            acc_c += _MC_COEF[: kmax + 1, j, None]
            acc_s *= w
            acc_s += _MS_COEF[: kmax + 1, j, None]
        mc[:, ser] = acc_c
        ms[:, ser] = acc_s * zs
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


def _flat_pair(za, zb):
    za, zb = np.broadcast_arrays(np.asarray(za, float), np.asarray(zb, float))
    return za.reshape(-1), zb.reshape(-1), za.shape


def t1(za, zb):
    """int_0^1 cos(za u) u sinc(zb u) du."""
    za, zb, shape = _flat_pair(za, zb)
    small = np.abs(zb) < CUT
    zbs = np.where(small, 1.0, zb)
    out = 0.5 * (_ms0(zb + za) + _ms0(zb - za)) / zbs
    if small.any():
        mc, _ = _moments(za[small], 5)
        w = zb[small] ** 2
        out[small] = mc[1] - (w / 6.0) * mc[3] + (w * w / 120.0) * mc[5]
    return out.reshape(shape)


def t2(za, zb):
    """int_0^1 cos(za u) u^2 hv(zb u) du."""
    za, zb, shape = _flat_pair(za, zb)
    small = np.abs(zb) < CUT
    zbs = np.where(small, 1.0, zb)
    out = (sinc(za) - 0.5 * (sinc(za - zb) + sinc(za + zb))) / (zbs * zbs)
    if small.any():
        mc, _ = _moments(za[small], 6)
        w = zb[small] ** 2
        out[small] = 0.5 * mc[2] - (w / 24.0) * mc[4] + (w * w / 720.0) * mc[6]
    return out.reshape(shape)


def t3(za, zb):
    """int_0^1 u^2 sinc(za u) sinc(zb u) du (symmetric)."""
    za, zb, shape = _flat_pair(za, zb)
    sa, sb = np.abs(za) < CUT, np.abs(zb) < CUT
    zas = np.where(sa, 1.0, za)
    zbs = np.where(sb, 1.0, zb)
    out = 0.5 * (sinc(za - zb) - sinc(za + zb)) / (zas * zbs)
    one = sa ^ sb
    if one.any():
        zsmall = np.where(sa, za, zb)[one]
        zbig = np.where(sa, zb, za)[one]
        _, msb = _moments(zbig, 5)
        w = zsmall * zsmall
        out[one] = (msb[1] - (w / 6.0) * msb[3] + (w * w / 120.0) * msb[5]) / zbig
    both = sa & sb
    if both.any():
        wa, wb = za[both] ** 2, zb[both] ** 2
        out[both] = (
            1.0 / 3.0
            - (wa + wb) / 30.0
            + (wa * wa + wb * wb) / 840.0
            + wa * wb / 252.0
        )
    return out.reshape(shape)


def t4(za, zb):
    """int_0^1 u^3 sinc(za u) hv(zb u) du."""
    za, zb, shape = _flat_pair(za, zb)
    sa, sb = np.abs(za) < CUT, np.abs(zb) < CUT
    zas = np.where(sa, 1.0, za)
    zbs = np.where(sb, 1.0, zb)
    out = (_ms0(za) - 0.5 * (_ms0(za + zb) + _ms0(za - zb))) / (zas * zbs * zbs)
    onlya = sa & ~sb
    if onlya.any():
        # series in za against int u^k hv(zb u) du = (1/(k-1) - mc_{k-2})/zb^2
        b = zb[onlya]
        wa = za[onlya] ** 2
        mcb, _ = _moments(b, 5)
        bb = b * b
        i3 = (0.5 - mcb[1]) / bb
        i5 = (0.25 - mcb[3]) / bb
        i7 = (1.0 / 6.0 - mcb[5]) / bb
        out[onlya] = i3 - (wa / 6.0) * i5 + (wa * wa / 120.0) * i7
    onlyb = sb & ~sa
    if onlyb.any():
        # series in zb against int u^k sinc(za u) du = ms_{k-1}(za)/za
        a = za[onlyb]
        wb = zb[onlyb] ** 2
        _, msa = _moments(a, 6)
        out[onlyb] = (
            0.5 * msa[2] - (wb / 24.0) * msa[4] + (wb * wb / 720.0) * msa[6]
        ) / a
    both = sa & sb
    if both.any():
        wa, wb = za[both] ** 2, zb[both] ** 2
        out[both] = (
            1.0 / 8.0
            - wa / 72.0
            - wb / 144.0
            + wa * wb / 1152.0
            + wa * wa / 1920.0
            + wb * wb / 5760.0
        )
    return out.reshape(shape)
