"""Discrete-spacetime Feynman propagator of the Shift circuit.

Two i*epsilon prescriptions are provided, matching the two closed forms the
free solution admits: ``feynman_momentum`` puts +i*epsilon in the denominator,
while the contour identity uses the complexified phase theta - i*epsilon. They
agree as epsilon -> 0+.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureNotConverged
from .kinematics import (LatticeParams, _require_zone, _unwrap, cosine_symbol, dispersion_theta,
                         omega, validate_momentum)
from .quadrature import fsum_complex, midpoint_nodes

__all__ = [
    "PropagatorQuery",
    "feynman_momentum",
    "contour_identity_residual",
    "equal_time",
]


@dataclass(frozen=True)
class PropagatorQuery:
    """Momentum-space evaluation points (p0, p) with an i*epsilon regulator.

    ``p0`` has shape (...) and ``p`` shape (..., d) (a bare scalar is one d=1
    momentum); the two broadcast against each other.
    """

    params: LatticeParams
    p0: np.ndarray
    p: np.ndarray
    epsilon: float

    def __post_init__(self):
        if not self.epsilon > 0:  # NaN fails too
            raise ValueError("epsilon must be positive")
        p0 = np.asarray(self.p0, dtype=float)
        _require_zone(p0, self.params.dt, "p0 must lie in (-pi/dt, pi/dt]")
        p = validate_momentum(self.params, self.p)
        np.broadcast_shapes(p0.shape, p.shape[:-1])  # ValueError if they do not broadcast
        object.__setattr__(self, "p0", p0)
        object.__setattr__(self, "p", p)


def feynman_momentum(query: PropagatorQuery):
    """D_F(p) = (dt^2/2) * i / (cos(theta dt) - cos(p0 dt) + i eps).

    cos(theta(p) dt) is exactly the cosine symbol c(p), so the denominator is
    evaluated without any inverse trigonometry. Even under p -> -p. Returns a
    complex for a single point, else an array of the broadcast shape.
    """
    c = cosine_symbol(query.params, query.p)
    dt = query.params.dt
    return _unwrap((dt * dt / 2.0) * 1j / (c - np.cos(query.p0 * dt) + 1j * query.epsilon))


def _contour_rhs(params: LatticeParams, ctheta_eps: complex, t: float, n: int) -> complex:
    dt = params.dt
    p0 = midpoint_nodes(n, math.pi / dt)
    terms = 1j * np.exp(-1j * p0 * t) / (ctheta_eps - np.cos(p0 * dt))
    return fsum_complex(terms) / n


def contour_identity_residual(
    params: LatticeParams,
    p,
    t_steps: int,
    epsilon: float,
    n_quad: int,
    conv_rtol: float | None = 1e-6,
) -> float:
    """Relative defect of the p0 contour identity at t = t_steps * dt.

    Left side: exp(-i theta_eps |t|)/sin(theta_eps dt) with theta_eps =
    theta - i*epsilon. Right side: dt * integral over p0 in (-pi/dt, pi/dt] of
    i exp(-i p0 t) / (cos(theta_eps dt) - cos(p0 dt)) / (2 pi), evaluated by
    the periodic trapezoid rule with n_quad nodes.

    Raises QuadratureNotConverged when doubling n_quad moves the quadrature by
    more than conv_rtol relative to the left side (pass None to skip).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n_quad < 2 or n_quad & (n_quad - 1):
        raise ValueError("n_quad must be a power of two")
    theta_eps = dispersion_theta(params, p) - 1j * epsilon  # requires m > 0
    dt = params.dt
    t = t_steps * dt
    lhs = cmath.exp(-1j * theta_eps * abs(t)) / cmath.sin(theta_eps * dt)
    ctheta = cmath.cos(theta_eps * dt)
    rhs = _contour_rhs(params, ctheta, t, n_quad)
    if conv_rtol is not None:
        rhs_fine = _contour_rhs(params, ctheta, t, 2 * n_quad)
        if abs(rhs_fine - rhs) > conv_rtol * abs(lhs):
            raise QuadratureNotConverged(
                f"doubling n_quad={n_quad} moved the integral by "
                f"{abs(rhs_fine - rhs) / abs(lhs):.3e} relative"
            )
        rhs = rhs_fine
    return abs(rhs - lhs) / abs(lhs)


def _equal_time_sum(params: LatticeParams, offset: np.ndarray, n: int) -> complex:
    d, a = params.d, params.a
    line = midpoint_nodes(n, math.pi / a)
    points = np.stack(np.meshgrid(*([line] * d), indexing="ij"), axis=-1)
    terms = np.exp(1j * (points * (offset * a)).sum(axis=-1)) / (2.0 * omega(params, points))
    return fsum_complex(terms) / (n * a) ** d


def equal_time(
    params: LatticeParams, x_minus_y, L_quad: int, conv_rtol: float | None = None
) -> complex:
    """Equal-time vacuum correlator as a zone integral of 1/(2 omega(p)).

    ``x_minus_y`` is an integer site offset (scalar for d=1). The result is
    real up to the p -> -p cancellation noise of the quadrature; the complex
    value is returned so callers can assert that.
    """
    if params.m <= 0:
        raise ValueError("equal-time propagator requires m > 0")
    offset = np.atleast_1d(np.asarray(x_minus_y, dtype=float))
    if offset.shape != (params.d,):
        raise ValueError(f"offset must have {params.d} component(s)")
    value = _equal_time_sum(params, offset, L_quad)
    if conv_rtol is not None:
        fine = _equal_time_sum(params, offset, 2 * L_quad)
        if abs(fine - value) > conv_rtol * max(abs(value), 1e-300):
            raise QuadratureNotConverged(
                f"doubling L_quad={L_quad} moved the integral by {abs(fine - value):.3e}"
            )
        value = fine
    return value
