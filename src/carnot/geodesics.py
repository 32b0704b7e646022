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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteState, TooFewSamples
from .groups import CarnotGroup, frame_apply

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


def normal_rhs(group: CarnotGroup, x, P):
    """Right-hand side (dx, dP) of the normal system. Batch-friendly."""
    x = np.asarray(x, dtype=float)
    P = np.asarray(P, dtype=float)
    h = group.h
    PH = P.copy()
    PH[..., h:] = 0.0
    dx = frame_apply(group, x, PH)
    dP = -np.einsum("aij,...a,...j->...i", group.CV, P[..., h:], PH)
    return dx, dP


def _rk4(rhs, y0, T, steps):
    """Fixed-step RK4 storing every node; y may have any shape."""
    if steps < 1:
        raise TooFewSamples("integration needs at least one step")
    dt = T / steps
    ys = np.empty((steps + 1,) + y0.shape)
    ys[0] = y0
    y = y0
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(steps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * dt * k1)
            k3 = rhs(y + 0.5 * dt * k2)
            k4 = rhs(y + dt * k3)
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ys[i + 1] = y
    if not np.all(np.isfinite(ys[-1])):
        raise NonFiniteState("integration produced non-finite values")
    return np.linspace(0.0, T, steps + 1), ys


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
    the sampled arrays then have shape (steps+1, ..., n).
    """
    x0 = group.point(np.asarray(x0, dtype=float))
    P0 = group.point(np.asarray(P0, dtype=float))
    shape = np.broadcast_shapes(x0.shape, P0.shape)
    y0 = np.stack(
        [np.broadcast_to(x0, shape), np.broadcast_to(P0, shape)], axis=-2
    )

    def rhs(y):
        dx, dP = normal_rhs(group, y[..., 0, :], y[..., 1, :])
        return np.stack([dx, dP], axis=-2)

    times, ys = _rk4(rhs, y0, float(T), int(steps))
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
    ``integrate_normal`` for direct comparison.
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

    def momentum(x, p_low):
        P = np.broadcast_to(P0, x.shape).copy()
        P[..., :lo] = p_low
        P[..., lo:hi] -= np.einsum("...ij,...j->...i", Ctop, x - x0)
        return P

    def rhs(y):
        x = y[..., :n]
        dx, dP = normal_rhs(group, x, momentum(x, y[..., n:]))
        return np.concatenate([dx, dP[..., :lo]], axis=-1)

    y0 = np.concatenate([x0, P0[..., :lo]], axis=-1)
    times, ys = _rk4(rhs, y0, float(T), int(steps))
    xs = ys[..., :n]
    ps = momentum(xs, ys[..., n:])
    meta = {
        "group": group.name,
        "method": "stepwise",
        "steps": int(steps),
        **_conservation_meta(group, times, xs, ps),
    }
    return GeodesicTrace(times, xs, ps, meta, group=group)

