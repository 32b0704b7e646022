"""Carnot group structure in exponential coordinates of the first kind.

A group is specified by a growth vector (h_1, ..., h_k) and the structure
constants of a stratified nilpotent Lie algebra H_1 + ... + H_k. We fix a
basis e_1, ..., e_n adapted to the layers (the first h = h_1 vectors span the
horizontal layer) and store

    C[R][I][J] = <[X_I, X_J], X_R>,

all indices 0-based internally, 1-based in messages and files. Skew-symmetry
in (I, J) is exact by construction; the Jacobi identity and the layer grading
ord(R) = ord(I) + ord(J) are validated at build time, as is generativity,
i.e. [H_1, H_{i-1}] = H_i for every i >= 2.

Points live in R^n through the exponential map, so the group product is the
Baker-Campbell-Hausdorff polynomial, which terminates at the step. With the
bracket form [x, y]_R = sum_{I,J} C[R][I][J] x_I y_J the series reads

    x * y = x + y + 1/2 [x, y] + 1/12 ([x, [x, y]] + [y, [y, x]]) + ...

and is summed by Varadarajan's recursion for its homogeneous parts (Lie
Groups, Lie Algebras, and Their Representations, 1974, section 2.15). Our
model convention for the first Heisenberg group is [e1, e2] = e3, which puts
the familiar +-1/2 coefficients in the product's third coordinate and the
left-invariant frame X1 = e1 - (x2/2) e3, X2 = e2 + (x1/2) e3.

The left-invariant frame matrix L(x) has the fields X_I(x) as columns. It is
the derivative of x * y in y at 0, the series

    L(x) = ad_x / (1 - e^{-ad_x}) = I + 1/2 ad_x + 1/12 ad_x^2 - 1/720 ad_x^4 + ...

with Bernoulli coefficients, and its inverse is the Neumann series of
L - I. Both end at the step, because ad_x raises the layer. L(x) is
unipotent lower block-triangular with respect to the layer grading, so
det L(x) = 1 and Lebesgue measure is the Haar measure in these coordinates.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import accumulate, combinations
from math import factorial

import numpy as np

from .errors import (
    GradingViolation,
    JacobiViolation,
    NonPositiveScale,
    NotGenerating,
    SkewViolation,
)

__all__ = [
    "GrowthVector",
    "CarnotGroup",
    "build_group",
    "group_product",
    "left_frame",
    "frame_apply",
    "frame_solve",
    "dilate",
    "c_operator",
    "h1",
    "hn",
    "engel",
    "load_group",
    "random_two_step",
]

JACOBI_TOL = 1e-12
RANK_TOL = 1e-8


class GrowthVector:
    """Layer dimensions (h_1, ..., h_k) and the derived index bookkeeping."""

    def __init__(self, layers):
        layers = tuple(int(m) for m in layers)
        if not layers or any(m < 1 for m in layers):
            raise ValueError(f"growth vector must be positive, got {layers}")
        self.layers = layers
        self.offsets = tuple(accumulate(layers))  # n_i = h_1 + ... + h_i
        self.step = len(layers)
        self.n = self.offsets[-1]
        self.h = layers[0]
        self.v = self.n - self.h
        # homogeneous dimension and the order of each basis index
        self.Q = sum((i + 1) * m for i, m in enumerate(layers))
        ords = np.empty(self.n, dtype=int)
        lo = 0
        for i, hi in enumerate(self.offsets):
            ords[lo:hi] = i + 1
            lo = hi
        self.ord = ords

    def layer_slice(self, i: int) -> slice:
        """0-based index range of layer i (1-based layer number)."""
        if not 1 <= i <= self.step:
            raise ValueError(f"layer {i} outside 1..{self.step}")
        lo = 0 if i == 1 else self.offsets[i - 2]
        return slice(lo, self.offsets[i - 1])

    def __eq__(self, other):
        return isinstance(other, GrowthVector) and self.layers == other.layers

    def __hash__(self):
        return hash(self.layers)

    def __repr__(self):
        return f"GrowthVector{self.layers}"


@dataclass
class CarnotGroup:
    """Validated group: growth data plus the full structure tensor.

    ``C`` has shape (n, n, n) with C[R, I, J] = <[X_I, X_J], X_R>. The stacks
    ``CV`` (all C^alpha for vertical alpha, shape (v, n, n)) and ``CH`` (the
    horizontal blocks C^alpha_H for alpha in the second layer, shape
    (h_2, h, h)) are views precomputed for the hot paths. ``CVh`` and
    ``CVv`` are contiguous copies of CV's rows split at h, the C^alpha_IJ
    with I horizontal and with I vertical; the frame series contracts them,
    and einsum runs faster on them than on strided views.
    """

    growth: GrowthVector
    C: np.ndarray
    name: str | None = None
    CV: np.ndarray = field(init=False, repr=False)
    CH: np.ndarray = field(init=False, repr=False)
    CVh: np.ndarray = field(init=False, repr=False)
    CVv: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g = self.growth
        self.CV = self.C[g.h :]
        n2 = g.offsets[1] if g.step >= 2 else g.h
        self.CH = self.C[g.h : n2, : g.h, : g.h]
        self.CVh = np.ascontiguousarray(self.CV[:, : g.h])
        self.CVv = np.ascontiguousarray(self.CV[:, g.h :])

    @property
    def n(self) -> int:
        return self.growth.n

    @property
    def h(self) -> int:
        return self.growth.h

    @property
    def v(self) -> int:
        return self.growth.v

    @property
    def step(self) -> int:
        return self.growth.step

    def point(self, seq) -> np.ndarray:
        x = np.asarray(seq, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.n:
            got = x.shape[-1] if x.ndim else "a scalar"
            raise ValueError(f"expected {self.n} coordinates, got {got}")
        return x

    def __repr__(self):
        label = self.name or "carnot"
        return f"CarnotGroup({label}, growth={self.growth.layers})"


def _tangent_basis(w):
    """Orthonormal basis of the tangent plane at unit rows w, (m, h, h-1).

    Columns 2..h of the Householder reflection exchanging e1 and -sign(w1) w
    span the orthogonal complement of w; the sign choice keeps the reflector
    away from its own null configuration.
    """
    m, h = w.shape
    sign = np.where(w[:, 0] >= 0.0, 1.0, -1.0)
    u = w.copy()
    u[:, 0] += sign
    H = -2.0 * u[:, :, None] * u[:, None, :] / np.einsum(
        "mi,mi->m", u, u
    )[:, None, None]
    H[:, np.arange(h), np.arange(h)] += 1.0
    return H[:, :, 1:]


def _triple(R, I, J):
    """1-based triple for error messages."""
    return f"(R={R + 1}, I={I + 1}, J={J + 1})"


def _validate_jacobi(C: np.ndarray):
    # [[x,y],z] cyclic sum; j is the inner contraction index.
    cyc = (
        np.einsum("ijl,jrm->ilrm", C, C)
        + np.einsum("ijm,jlr->ilrm", C, C)
        + np.einsum("ijr,jml->ilrm", C, C)
    )
    worst = np.unravel_index(np.argmax(np.abs(cyc)), cyc.shape)
    if abs(cyc[worst]) > JACOBI_TOL:
        idx = ", ".join(str(i + 1) for i in worst)
        raise JacobiViolation(
            f"Jacobi identity fails at (I, L, R, M)=({idx}): "
            f"residual {cyc[worst]:.3e}"
        )


def _validate_generating(growth: GrowthVector, C: np.ndarray):
    for layer in range(2, growth.step + 1):
        s_prev = growth.layer_slice(layer - 1)
        s_cur = growth.layer_slice(layer)
        hi = s_cur.stop - s_cur.start
        # rows: all brackets [e_j, e_m], j horizontal, m in layer-1 components
        block = C[s_cur, : growth.h, s_prev]  # (h_i, h, h_{i-1})
        mat = block.reshape(hi, -1)
        rank = np.linalg.matrix_rank(mat, tol=RANK_TOL)
        if rank < hi:
            raise NotGenerating(
                f"[H_1, H_{layer - 1}] spans only {rank} of {hi} "
                f"dimensions of layer {layer}"
            )


def build_group(growth, constants, name: str | None = None) -> CarnotGroup:
    """Assemble and validate a group from sparse structure constants.

    ``constants`` is an iterable of (R, I, J, value) with 1-based indices;
    each entry also fixes the skew partner (R, J, I, -value). Conflicting or
    ungraded entries raise with the offending triple named. Validation order:
    skew assembly, grading, Jacobi (tolerance 1e-12), generativity.
    """
    gv = growth if isinstance(growth, GrowthVector) else GrowthVector(growth)
    n = gv.n
    C = np.zeros((n, n, n))
    seen: dict[tuple[int, int, int], float] = {}
    for entry in constants:
        R, I, J, val = entry
        R, I, J, val = int(R) - 1, int(I) - 1, int(J) - 1, float(val)
        if not (0 <= R < n and 0 <= I < n and 0 <= J < n):
            raise ValueError(f"index out of range in {_triple(R, I, J)}")
        if val == 0.0:
            continue
        if I == J:
            raise SkewViolation(
                f"nonzero constant at {_triple(R, I, J)} with I = J"
            )
        if gv.ord[R] != gv.ord[I] + gv.ord[J]:
            raise GradingViolation(
                f"constant at {_triple(R, I, J)} violates the grading: "
                f"ord {gv.ord[R]} != {gv.ord[I]} + {gv.ord[J]}"
            )
        for key, want in (((R, I, J), val), ((R, J, I), -val)):
            if key in seen and seen[key] != want:
                raise SkewViolation(
                    f"conflicting values at {_triple(*key)}: "
                    f"{seen[key]} vs {want}"
                )
            seen[key] = want
        C[R, I, J] = val
        C[R, J, I] = -val
    _validate_jacobi(C)
    _validate_generating(gv, C)
    return CarnotGroup(gv, C, name)


@cache
def _bernoulli(k: int) -> tuple:
    """b_0, ..., b_k of z / (1 - e^{-z}) = sum_j b_j z^j: 1, 1/2, 1/12, 0, -1/720, ..."""
    b = [Fraction(1)]
    for m in range(1, k + 1):
        b.append(-sum(b[m - j] * Fraction((-1) ** j, factorial(j + 1)) for j in range(1, m + 1)))
    return tuple(float(c) for c in b)


def _compositions(m: int, parts: int):
    """Ordered tuples of ``parts`` positive integers that sum to m."""
    for cuts in combinations(range(1, m), parts - 1):
        yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (m,)))


def _bracket(group: CarnotGroup, a, b) -> np.ndarray:
    """[a, b] as a full vector; its horizontal part is zero."""
    out = np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b)))
    out[..., group.h :] = np.einsum("bij,...i,...j->...b", group.CV, a, b)
    return out


def group_product(group: CarnotGroup, x, y) -> np.ndarray:
    """BCH product x * y, summed up to the step. Supports batching.

    Z_1 = x + y and Z_2 = [x, y]/2 start Varadarajan's recursion for the
    homogeneous parts of log(e^x e^y),

        (m+1) Z_{m+1} = [x - y, Z_m]/2
                        + sum_p b_2p sum_{k_1+...+k_2p=m} [Z_k1, [..., [Z_k2p, x + y]]],

    and every Z_m above the step vanishes.
    """
    x = group.point(x)
    y = group.point(y)
    b = _bernoulli(group.step)
    Z = [x + y, -0.5 * _bracket(group, y, x)]
    for m in range(2, group.step):
        acc = 0.5 * _bracket(group, x - y, Z[m - 1])
        for p in range(2, m + 1, 2):
            for ks in _compositions(m, p):
                if ks[-1] == 1:
                    continue  # [Z_1, x + y] = 0
                inner = Z[0]
                for k in reversed(ks):
                    inner = _bracket(group, Z[k - 1], inner)
                acc = acc + b[p] * inner
        Z.append(acc / (m + 1))
    z = Z[0]
    for part in Z[1:]:
        z[..., group.h :] += part[..., group.h :]
    return z


def left_frame(group: CarnotGroup, x) -> np.ndarray:
    """Frame matrix L(x) with columns X_I(x); det L = 1. Supports batching.

    L(x) = I + sum_k (-1)^k b_k D^k, with D the matrix of v -> [v, x].
    """
    x = group.point(x)
    n, h = group.n, group.h
    b = _bernoulli(group.step)
    D = np.zeros(x.shape[:-1] + (n, n))
    D[..., h:, :] = np.einsum("bij,...j->...bi", group.CV, x)  # (C^b x)_I
    L = np.broadcast_to(np.eye(n), D.shape).copy()
    L += -b[1] * D
    Dk = D
    for k in range(2, group.step):
        Dk = Dk @ D
        L += (-1) ** k * b[k] * Dk
    return L


def _nilpotent_apply(group: CarnotGroup, x, w) -> np.ndarray:
    """N(x) w where L(x) = I + N(x); result has vertical rows only.

    N(x) w = sum_{k=1}^{s-1} b_k ad_x^k w. Each term brackets the previous
    one with x on the right, [v, x] = -ad_x v, so the signs alternate.
    ``w`` holds n components, or only its h horizontal ones when the rest
    are zero; the first term then runs over the horizontal rows alone.
    """
    b = _bernoulli(group.step)
    first = group.CVh if w.shape[-1] == group.h else group.CV
    term = np.einsum("bij,...i,...j->...b", first, w, x)
    out = -b[1] * term
    for k in range(2, group.step):
        term = np.einsum("bij,...i,...j->...b", group.CVv, term, x)
        out = out + (-1) ** k * b[k] * term
    return out


def frame_apply(group: CarnotGroup, x, w) -> np.ndarray:
    """L(x) w without forming the frame matrix. Supports batching."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    shape = np.broadcast_shapes(x.shape, w.shape)
    out = np.broadcast_to(w, shape).copy()
    out[..., group.h :] += _nilpotent_apply(group, x, w)
    return out


def frame_solve(group: CarnotGroup, x, w) -> np.ndarray:
    """L(x)^{-1} w, exact: the frame is unipotent, so the Neumann series
    sum_k (-N)^k w terminates at the step."""
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    shape = np.broadcast_shapes(x.shape, w.shape)
    out = np.broadcast_to(w, shape).copy()
    term = np.broadcast_to(w, shape)
    for _ in range(1, group.step):
        nw = -_nilpotent_apply(group, x, term)
        out[..., group.h :] += nw
        term = np.zeros(shape)
        term[..., group.h :] = nw
    return out


def dilate(group: CarnotGroup, a: float, x) -> np.ndarray:
    """Anisotropic dilation x_I -> a^ord(I) x_I."""
    a = float(a)
    if a <= 0.0:
        raise NonPositiveScale(f"dilation scale must be positive, got {a}")
    x = group.point(x)
    return x * a ** group.growth.ord.astype(float)


def c_operator(group: CarnotGroup, z, horizontal: bool = False) -> np.ndarray:
    """Contract a vertical covector with the structure tensor.

    Returns the n x n matrix C(Z) = sum_{alpha vertical} z_alpha C^alpha, or
    with ``horizontal=True`` the h x h matrix C_H(Z) built from the
    second-layer slice of z only.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != group.v:
        raise ValueError(f"expected {group.v} vertical components, got {z.shape[-1]}")
    if horizontal:
        h2 = group.CH.shape[0]
        return np.einsum("...a,aij->...ij", z[..., :h2], group.CH)
    return np.einsum("...a,aij->...ij", z, group.CV)


def h1() -> CarnotGroup:
    """First Heisenberg group, growth (2, 1), [e1, e2] = e3."""
    return build_group((2, 1), [(3, 1, 2, 1.0)], name="h1")


def hn(n: int) -> CarnotGroup:
    """n-th Heisenberg group, growth (2n, 1), [e_{2i-1}, e_{2i}] = e_{2n+1}."""
    n = int(n)
    if n < 1:
        raise ValueError("hn needs n >= 1")
    consts = [(2 * n + 1, 2 * i + 1, 2 * i + 2, 1.0) for i in range(n)]
    return build_group((2 * n, 1), consts, name=f"h{n}")


def engel() -> CarnotGroup:
    """Engel group, growth (2, 1, 1), [e1, e2] = e3, [e1, e3] = e4."""
    return build_group((2, 1, 1), [(3, 1, 2, 1.0), (4, 1, 3, 1.0)], name="engel")


def load_group(path) -> CarnotGroup:
    """Read a group spec file, JSON or line-oriented.

    JSON form: {"name": ..., "growth": [2, 1], "constants": [[3, 1, 2, 1.0]]}.
    Line form: a "growth: 2 1" line, then one "R I J value" line per constant;
    blank lines and lines starting with '#' are skipped.
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path}: {e}") from e
        if "growth" not in data:
            raise ValueError(f"{path}: missing 'growth'")
        return build_group(
            data["growth"],
            [tuple(row) for row in data.get("constants", [])],
            name=data.get("name"),
        )
    growth = None
    consts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("growth:"):
            growth = [int(tok) for tok in line.split(":", 1)[1].split()]
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(f"{path}:{lineno}: expected 'R I J value', got {raw!r}")
        consts.append((int(parts[0]), int(parts[1]), int(parts[2]), float(parts[3])))
    if growth is None:
        raise ValueError(f"{path}: missing 'growth:' line")
    return build_group(growth, consts)


def random_two_step(
    h: int | None = None,
    v: int | None = None,
    rng: np.random.Generator | None = None,
) -> CarnotGroup:
    """Random valid 2-step group with independent bracket forms.

    Draws v skew h x h matrices with unit Frobenius scale and redraws until
    their vectorizations are safely linearly independent, which is exactly
    generativity for step 2 (Jacobi and grading are automatic there).
    """
    rng = np.random.default_rng() if rng is None else rng
    if h is None:
        h = int(rng.integers(2, 7))
    if v is None:
        v = int(rng.integers(1, min(3, h * (h - 1) // 2) + 1))
    if not 1 <= v <= h * (h - 1) // 2:
        raise ValueError(f"need 1 <= v <= h(h-1)/2, got h={h}, v={v}")
    iu = np.triu_indices(h, k=1)
    while True:
        vecs = rng.standard_normal((v, len(iu[0])))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        if v == 1 or np.linalg.svd(vecs, compute_uv=False)[-1] > 0.1:
            break
    consts = []
    for a in range(v):
        for i, j, val in zip(*iu, vecs[a]):
            if val != 0.0:
                consts.append((h + 1 + a, i + 1, j + 1, float(val)))
    return build_group((h, v), consts, name=f"random-2step-h{h}v{v}")
