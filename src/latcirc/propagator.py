"""Discrete-spacetime Feynman propagator of the Shift circuit.

Two i*epsilon prescriptions match the two closed forms the free solution admits:
``feynman_momentum(params, p0, p, epsilon)`` puts +i*epsilon in the denominator and checks
epsilon, p0 and p once each; the contour identity uses the phase theta - i*epsilon. They agree
as epsilon -> 0+. The contour and equal-time integrands are even in every momentum component,
so their zone sums run over the nodes p >= 0 only (``quadrature.folded_nodes``).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import BYTE_BUDGET, _require_int, _require_real, require
from .kinematics import (LatticeParams, _nondegenerate, _require_zone, _symbol, _unwrap,
                         cosine_symbol, dispersion_theta)
from .quadrature import folded_nodes, fsum_complex, fsum_real, refined

__all__ = [
    "feynman_momentum",
    "contour_identity_residual",
    "equal_time",
]


def feynman_momentum(params: LatticeParams, p0, p, epsilon: float):
    """D_F(p) = (dt^2/2) * i / (cos(theta dt) - cos(p0 dt) + i eps).

    ``p0`` has shape (...) and ``p`` shape (..., d) (a bare scalar is one d=1
    momentum); the two broadcast against each other. cos(theta(p) dt) is exactly
    the cosine symbol c(p), so the denominator is evaluated without any inverse
    trigonometry. Even under p -> -p. Returns a complex for a single point, else
    an array of the broadcast shape.
    """
    _require_real(epsilon, "epsilon")
    p0 = np.asarray(p0, dtype=float)
    _require_zone(p0, params.dt, "p0 must lie in (-pi/dt, pi/dt]")
    c = cosine_symbol(params, p)  # checks p in the zone
    dt = params.dt
    return _unwrap((dt * dt / 2.0) * 1j / (c - np.cos(p0 * dt) + 1j * epsilon))


def _contour_rhs(params: LatticeParams, ctheta_eps: complex, t: float, n: int) -> complex:
    p0, weights = folded_nodes(n, math.pi / params.dt)
    terms = weights * np.cos(p0 * t) / (ctheta_eps - np.cos(p0 * params.dt))
    return 1j * fsum_complex(terms) / n


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
    the periodic trapezoid rule with n_quad nodes, summed over p0 >= 0 as 2i cos(p0 t).

    Raises ConvergenceFailure when doubling n_quad moves the quadrature by
    more than conv_rtol relative to the left side (pass None to skip).
    """
    _require_real(epsilon, "epsilon")
    t_steps = _require_int(t_steps, -math.inf, "t_steps")
    n_quad = _require_int(n_quad, 2, "n_quad")
    if n_quad & (n_quad - 1):
        raise ValueError("n_quad must be a power of two")
    fine = n_quad if conv_rtol is None else 2 * n_quad  # ~34 bytes per node (measured)
    require(48 * fine, BYTE_BUDGET, "contour quadrature bytes")
    theta_eps = dispersion_theta(params, p) - 1j * epsilon  # requires m > 0
    dt = params.dt
    t = t_steps * dt
    lhs = cmath.exp(-1j * theta_eps * abs(t)) / cmath.sin(theta_eps * dt)
    ctheta = cmath.cos(theta_eps * dt)
    rhs = refined(lambda n: _contour_rhs(params, ctheta, t, n), n_quad, conv_rtol,
                  "contour identity quadrature", scale=abs(lhs))
    return abs(rhs - lhs) / abs(lhs)


def _equal_time_sum(params: LatticeParams, offset: list[int], n: int) -> float:
    a = params.a
    line, weights = folded_nodes(n, math.pi / a)
    c = _nondegenerate(_symbol(params, np.ix_(*[line] * params.d)))
    numerator = math.prod(np.ix_(*[weights * np.cos(line * (x * a)) for x in offset]))
    return fsum_real(numerator * params.dt / (2.0 * np.sqrt(1.0 - c * c))) / (n * a) ** params.d


def equal_time(
    params: LatticeParams, x_minus_y, L_quad: int, conv_rtol: float | None = None
) -> float:
    """Equal-time vacuum correlator as a zone integral of 1/(2 omega(p)).

    ``x_minus_y`` is an integer site offset (scalar for d=1). The value is exactly
    real, a float: the p -> -p pairs are summed as cosines, never as exponentials,
    so it is also bitwise even in the offset. ``conv_rtol`` refines it once.
    """
    _require_real(params.m, "m of the equal-time propagator")
    offset = np.atleast_1d(np.asarray(x_minus_y, dtype=object))  # components as given
    if offset.shape != (params.d,):
        raise ValueError(f"offset must have {params.d} component(s)")
    offset = [_require_int(x, -math.inf, "x_minus_y") for x in offset]
    L_quad = _require_int(L_quad, 1, "L_quad")
    half = (L_quad + 1) // 2 if conv_rtol is None else L_quad  # the fine grid's folded half
    require(40 * half**params.d, BYTE_BUDGET, "equal-time quadrature bytes")  # ~33 measured
    return refined(lambda n: _equal_time_sum(params, offset, n), L_quad, conv_rtol,
                   "equal-time quadrature")
