"""Normal geodesic flow and its layer-by-layer integration.

The normal equations on momentum space are

    dx/dt = sum_i P_i X_i(x),      dP/dt = -C(P_V) PH,

with PH the momentum's horizontal part zero-padded to length n. The flow
conserves |P_H| and the energy |P_H|^2 / 2, and the top-layer momentum
components are constant because the grading leaves no structure constants
that could move them.

``integrate_normal`` is a fixed-step RK4 scheme over a uniform grid; initial
data may carry leading batch axes, in which case the whole batch is advanced
in lock step (the acceptance sweeps rely on this). ``integrate_stepwise``
exploits the grading instead, on any step k: the momentum of layer k - 1 is
an algebraic function of position, so only x and the momentum layers below
k - 1 are integrated; on step 2 that leaves an ODE in x alone.

Both step one kernel (``_normal_flow``), built once per call. It writes
(dx, dP) into a single (..., 2, n) array and touches only the blocks that
can be nonzero: dx_H = P_H; dx_V is the frame's series N(x) P_H, whose first
term contracts the rows C^alpha_{IJ} with I horizontal and whose later terms
stay on the vertical rows; dP = -C(P_V) P_H contracts the horizontal columns
of C only. So no RK4 stage pads P_H with zeros, copies it through
``frame_apply`` or stacks dx and dP, and the bits are those of the padded
form: dropping exact zeros from a sum leaves it unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import groups
from .errors import NonFiniteState, TooFewSamples
# frame_apply is not called here; perfbench/spans.py wraps it in every module
# that imports it, and its self-tests look it up in this one
from .groups import CarnotGroup, frame_apply  # noqa: F401

__all__ = [
    "GeodesicTrace",
    "normal_rhs",
    "integrate_normal",
    "integrate_stepwise",
]


@dataclass
class GeodesicTrace:
    """Sampled trajectory: times (m,), xs and ps (m, ..., n), diagnostics.

    ``group`` is the structure the trace was integrated on; callers that
    assemble traces by hand should set it so that curve-level operators
    (covariant derivatives, action quadrature) can resolve the frame.
    """

    times: np.ndarray
    xs: np.ndarray
    ps: np.ndarray
    meta: dict = field(default_factory=dict)
    group: CarnotGroup | None = field(default=None, repr=False, compare=False)

    def __len__(self):
        return len(self.times)

    def as_table(self) -> str:
        """Whitespace table: t, x1..xn, P1..Pn. Single trajectories only."""
        if self.xs.ndim != 2:
            raise ValueError("tabular export needs an unbatched trace")
        n = self.xs.shape[1]
        header = (
            ["t"]
            + [f"x{i + 1}" for i in range(n)]
            + [f"P{i + 1}" for i in range(n)]
        )
        rows = [" ".join(header)]
        for t, x, p in zip(self.times, self.xs, self.ps):
            vals = np.concatenate(([t], x, p))
            rows.append(" ".join(f"{w:.12e}" for w in vals))
        return "\n".join(rows) + "\n"

    def as_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "x": self.xs.tolist(),
            "P": self.ps.tolist(),
            "meta": self.meta,
        }

    def as_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def _stacked(x, P) -> np.ndarray:
    """The state y = (x, P), broadcast together and stacked on axis -2."""
    shape = np.broadcast_shapes(x.shape, P.shape)
    return np.stack([np.broadcast_to(x, shape), np.broadcast_to(P, shape)], axis=-2)


def _normal_flow(group: CarnotGroup):
    """The fused kernel of the module docstring: ``rhs(y, s)`` maps
    y = (x, P), stacked on axis -2, to (dx, dP) stacked the same way. Its
    bits are those of ``frame_apply`` and of the full contraction with C on
    the zero-padded P_H."""
    h = group.h
    CVH = group.CV[:, :, :h]

    def rhs(y, _=None):
        x, ph, pv = y[..., 0, :], y[..., 1, :h], y[..., 1, h:]
        out = np.empty(y.shape)
        out[..., 0, :h] = ph
        # frame_apply adds N to the padding's zeros, so add it to 0.0 (a -0.0
        # in N reads +0.0). The series is looked up on groups at each call,
        # so that a patched groups._nilpotent_apply takes effect here too.
        np.add(0.0, groups._nilpotent_apply(group, x, ph), out=out[..., 0, h:])
        dP = out[..., 1, :]
        np.einsum("aij,...a,...j->...i", CVH, pv, ph, out=dP)
        np.negative(dP, out=dP)
        return out

    return rhs


def normal_rhs(group: CarnotGroup, x, P):
    """Right-hand side (dx, dP) of the normal system. Batch-friendly; dx and
    dP are the two halves of one (..., 2, n) array."""
    y = _stacked(np.asarray(x, dtype=float), np.asarray(P, dtype=float))
    out = _normal_flow(group)(y)
    return out[..., 0, :], out[..., 1, :]


def _grid(T, steps):
    """The uniform grid 0..T of ``steps`` steps; NonFiniteState unless T is
    finite."""
    T = float(T)
    if not np.isfinite(T):
        raise NonFiniteState("T must be finite, got %r" % T)
    return np.linspace(0.0, T, max(int(steps), 0) + 1)


def _rk4(rhs, y0, times):
    """Fixed-step RK4 on the uniform grid ``times``, storing every node; y
    may have any shape. ``rhs(y, s)`` also gets the stage's index s on the
    half-step grid: 2i at node i, 2i + 1 at the midpoint after it."""
    steps = len(times) - 1
    if steps < 1:
        raise TooFewSamples("integration needs at least one step")
    dt = float(times[1] - times[0])
    ys = np.empty((steps + 1,) + y0.shape)
    ys[0] = y0
    y = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            k1 = rhs(y, 2 * i)
            k2 = rhs(y + 0.5 * dt * k1, 2 * i + 1)
            k3 = rhs(y + 0.5 * dt * k2, 2 * i + 1)
            k4 = rhs(y + dt * k3, 2 * i + 2)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ys[i + 1] = y
    if not np.all(np.isfinite(ys[-1])):
        raise NonFiniteState("integration produced non-finite values")
    return ys


def _conservation_meta(group: CarnotGroup, times, xs, ps) -> dict:
    h = group.h
    T = float(times[-1] - times[0]) or 1.0
    ph_norm = np.linalg.norm(ps[..., :h], axis=-1)
    energy = 0.5 * ph_norm**2
    top = group.growth.layer_slice(group.step)
    top_drift = (
        0.0
        if group.step == 1
        else float(np.max(np.abs(ps[..., top] - ps[0, ..., top])))
    )
    return {
        "energy_drift_per_unit_time": float(np.max(np.abs(energy - energy[0])))
        / abs(T),
        "ph_norm_drift_per_unit_time": float(np.max(np.abs(ph_norm - ph_norm[0])))
        / abs(T),
        "top_layer_drift": top_drift,
    }


def integrate_normal(
    group: CarnotGroup, x0, P0, T: float, steps: int
) -> GeodesicTrace:
    """RK4 integration of the normal system on a uniform grid.

    ``x0`` and ``P0`` broadcast against each other and may carry batch axes;
    the sampled arrays then have shape (steps+1, ..., n). A non-finite T,
    or a flow that leaves the floats, raises NonFiniteState.
    """
    x0 = group.point(np.asarray(x0, dtype=float))
    P0 = group.point(np.asarray(P0, dtype=float))
    times = _grid(T, steps)
    ys = _rk4(_normal_flow(group), _stacked(x0, P0), times)
    xs = ys[..., 0, :]
    ps = ys[..., 1, :]
    meta = {
        "group": group.name,
        "method": "rk4-normal",
        "steps": int(steps),
        **_conservation_meta(group, times, xs, ps),
    }
    return GeodesicTrace(times, xs, ps, meta, group=group)


def integrate_stepwise(
    group: CarnotGroup, x0, P0, T: float, steps: int
) -> GeodesicTrace:
    """Layer-by-layer integration of the normal flow, any step k.

    The top-layer momentum P_k is constant, and the grading makes the layer
    below it algebraic: P_{k-1}(t) = P_{k-1}(0) - (C(P_k)(x(t) - x(0)))_{k-1}.
    So RK4 advances x and only the momentum layers below k - 1; on step 2
    that is x alone. Results land on the same uniform grid as
    ``integrate_normal`` for direct comparison, with its NonFiniteState.
    """
    x0 = group.point(np.asarray(x0, dtype=float))
    P0 = group.point(np.asarray(P0, dtype=float))
    shape = np.broadcast_shapes(x0.shape, P0.shape)
    x0 = np.broadcast_to(x0, shape)
    P0 = np.broadcast_to(P0, shape)
    n, k = group.n, group.step
    # P[:lo] is integrated, P[lo:hi] algebraic; on step 1 both are empty
    lo = group.growth.layer_slice(max(k - 1, 1)).start
    hi = group.growth.layer_slice(k).start
    Ctop = np.einsum("...a,aij->...ij", P0[..., hi:], group.C[hi:, lo:hi])
    flow = _normal_flow(group)

    def state(x, p_low):
        """(x, P) stacked on axis -2, P rebuilt from x and P[:lo]."""
        z = np.empty(x.shape[:-1] + (2, n))
        z[..., 0, :] = x
        P = z[..., 1, :]
        P[...] = P0
        P[..., :lo] = p_low
        P[..., lo:hi] -= np.einsum("...ij,...j->...i", Ctop, x - x0)
        return z

    def rhs(y, _):
        d = flow(state(y[..., :n], y[..., n:]))
        # dx and dP[:lo] are the first n + lo entries of the flattened pair
        return d.reshape(d.shape[:-2] + (2 * n,))[..., : n + lo]

    y0 = np.concatenate([x0, P0[..., :lo]], axis=-1)
    times = _grid(T, steps)
    ys = _rk4(rhs, y0, times)
    xs = ys[..., :n]
    ps = state(xs, ys[..., n:])[..., 1, :]
    meta = {
        "group": group.name,
        "method": "stepwise",
        "steps": int(steps),
        **_conservation_meta(group, times, xs, ps),
    }
    return GeodesicTrace(times, xs, ps, meta, group=group)

