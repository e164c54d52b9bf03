"""Exact symplectic simulation of the free (lambda = 0) circuits.

The free circuits are quadratic, so Heisenberg evolution acts linearly on the
pair (phi, pi). We track that linear action in the *coefficient* convention:
a functional  f_phi . phi + f_pi . pi  evolves by one timestep as
(f_phi, f_pi) -> B (f_phi, f_pi), where B is the 2x2 per-momentum block (or
the 2L x 2L real-space map). In this convention the annihilation-operator
coefficients (alpha, beta) are literally an eigenvector of B. Blocks and maps
are plain arrays, and the mode coefficients are the pair (alpha, beta).

In real space each free step is one range-1 periodic stencil (``_free_step``,
built from ``np.roll`` hops), the only definition of the step: the dense map is
the stencil applied to the identity, the light cone evolves one or two start
columns in O(L) memory and O(L tau) time, and the per-momentum blocks of a map
are one FFT of each block's first column.

Timestep convention: the per-mode blocks use dt in their off-diagonal entries
(they coincide with the lattice-spacing form whenever dt = a, the circuits'
native operating point), which keeps the mode normalization and the eigenvalue
identities exact for any dt/a.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BYTE_BUDGET, ConvergenceFailure, _require_int, require
from .kinematics import LatticeParams, cosine_symbol, dispersion_theta, validate_momentum

__all__ = [
    "shift_block",
    "strang_block",
    "bogoliubov_modes",
    "realspace_map",
    "momentum_blocks_of_map",
    "mover_shift_check",
    "lightcone_radius",
    "symplectic_defect",
    "block_phase",
]

CONE_THRESHOLD = 1e-13  # double-precision noise floor with safety margin


def _one_momentum(params: LatticeParams, p) -> np.ndarray:
    """``p`` checked as one d-component momentum: blocks and modes are per momentum."""
    arr = validate_momentum(params, p)
    if arr.shape != (params.d,):
        raise ValueError(f"expected one {params.d}-component momentum, got shape {arr.shape}")
    return arr


def shift_block(params: LatticeParams, p) -> np.ndarray:
    """Free Shift-circuit block [[c, (c^2-1)/dt], [dt, c]] acting on (phi(p), pi(p))."""
    c = cosine_symbol(params, _one_momentum(params, p))
    dt = params.dt
    return np.array([[c, (c * c - 1.0) / dt], [dt, c]])


def strang_block(params: LatticeParams, p) -> np.ndarray:
    """Strang-split block: X-shear (half step) . P-shear . X-shear (half step).

    The X-shear curvature is the lattice-Laplacian symbol
    m^2 + sum_i 4 sin^2(p_i a / 2)/a^2.
    """
    arr, a, dt = _one_momentum(params, p), params.a, params.dt
    # squares as products: a Python float power past the range raises OverflowError
    curv = params.m * params.m + float(np.sum(4.0 * np.sin(arr * a / 2.0) ** 2)) / a / a
    x_half = np.array([[1.0, -0.5 * dt * curv], [0.0, 1.0]])
    p_full = np.array([[1.0, 0.0], [dt, 1.0]])
    return x_half @ p_full @ x_half


def block_phase(block: np.ndarray) -> float:
    """Positive eigenphase theta*dt of a 2x2 block, from its eigenvalues."""
    eig = np.linalg.eigvals(block)
    phase = float(np.max(np.abs(np.angle(eig))))
    if phase <= 0.0 or phase >= math.pi:
        raise ValueError("block has no elliptic eigenphase in (0, pi)")
    return phase


def bogoliubov_modes(params: LatticeParams, p) -> tuple[float, complex]:
    """Mode pair (alpha, beta) = (sqrt(sin(theta dt)/(2 dt)), i*sqrt(dt/(2 sin(theta dt)))).

    These satisfy alpha*conj(beta) - conj(alpha)*beta = -i and are an
    eigenvector of :func:`shift_block` with eigenvalue exp(-i theta dt).
    """
    theta = dispersion_theta(params, _one_momentum(params, p))  # ValueError at |c| >= 1
    s = math.sin(theta * params.dt)
    return math.sqrt(s / (2.0 * params.dt)), 1j * math.sqrt(params.dt / (2.0 * s))


def _check_chain(params: LatticeParams, L: int, kind: str = "Shift") -> None:
    if params.d != 1:
        raise ValueError("real-space maps are implemented for d=1 only")
    _require_int(L, 2, "L")
    if kind not in ("Shift", "Strang"):
        raise ValueError(f"unknown circuit kind {kind!r}")


def _hop(v: np.ndarray) -> np.ndarray:
    """(T + T^dagger) v on a periodic chain along axis 0."""
    return np.roll(v, 1, axis=0) + np.roll(v, -1, axis=0)


def _free_step(params: LatticeParams, kind: str, coeffs: np.ndarray) -> np.ndarray:
    """One free step S @ coeffs for coefficient columns of shape (2L, ...).

    The only definition of the real-space step: a range-1 periodic stencil.
    """
    L = coeffs.shape[0] // 2
    phi, pi = coeffs[:L], coeffs[L:]
    dt = params.dt
    if kind == "Shift":
        # c-operator: M cos(pa) <-> (M/2)(T + T^dagger)
        half_m = params.M / 2.0
        c_pi = half_m * _hop(pi)
        return np.concatenate([half_m * _hop(phi) + (half_m * _hop(c_pi) - pi) / dt,
                               dt * phi + c_pi])
    # Strang: half X-shear, P-shear, half X-shear; curvature m^2 + (2 - hop)/a^2
    curv0, inv_a2 = params.m * params.m + 2.0 / params.a / params.a, 1.0 / params.a / params.a
    phi = phi - 0.5 * dt * (curv0 * pi - inv_a2 * _hop(pi))
    pi = pi + dt * phi
    return np.concatenate([phi - 0.5 * dt * (curv0 * pi - inv_a2 * _hop(pi)), pi])


def realspace_map(params: LatticeParams, L: int, kind: str) -> np.ndarray:
    """Position-space one-step coefficient map for a periodic d=1 chain of L sites.

    The map is 2L x 2L real with site blocks ordered (phi_0..phi_{L-1},
    pi_0..pi_{L-1}); it is block-circulant by translation invariance. Its DFT
    block-diagonalization reproduces :func:`shift_block` or
    :func:`strang_block` at every grid momentum.
    """
    _check_chain(params, L, kind)
    return _free_step(params, kind, np.eye(2 * L))


def momentum_blocks_of_map(params: LatticeParams,
                           rmap: np.ndarray) -> list[tuple[float, np.ndarray]]:
    """DFT-diagonalize a 2L x 2L block-circulant map into per-momentum 2x2 blocks.

    Returns (p_k, block) pairs for p_k = 2*pi*k/(L*a), k = 0..L-1, with L =
    len(rmap) // 2 and a from ``params``. A circulant block's eigenvalue at
    plane wave k is the FFT of its first column.
    """
    L = len(rmap) // 2
    first_columns = rmap.reshape(2, L, 2, L)[..., 0]  # (row block, site, col block)
    blocks = np.fft.fft(first_columns, axis=1).transpose(1, 0, 2)
    p_k = 2.0 * math.pi * np.arange(L) / (L * params.a)
    return list(zip(p_k.tolist(), blocks))


def symplectic_defect(mat: np.ndarray) -> float:
    """max |S^T J S - J| for a 2L x 2L map in (phi-block, pi-block) order."""
    L = mat.shape[0] // 2
    j = np.block([[np.zeros((L, L)), np.eye(L)], [-np.eye(L), np.zeros((L, L))]])
    return float(np.max(np.abs(mat.T @ j @ mat - j)))


def mover_shift_check(params: LatticeParams, L: int) -> float:
    """Max |S l_{L,n} - l_{L,n+1}| and |S l_{R,n} - l_{R,n-1}| over all sites.

    The mover at site n is pi_n/2 plus or minus the central difference of phi. Left movers
    advance one site per step and right movers retreat one: the residual is exactly zero at
    m = 0 with dt = a, and genuinely nonzero elsewhere. The stencil is translation invariant,
    so the movers at site 0 carry every site's residual entries: O(L) memory.
    """
    _check_chain(params, L)
    # ~12 length-L arrays at the peak
    require(12 * 8 * L, BYTE_BUDGET, f"bytes for the mover residual on {L} sites")
    site0 = np.eye(1, L)[0]
    diff = (np.roll(site0, 1) - np.roll(site0, -1)) / (4.0 * params.a)
    res = 0.0
    for sign, shift in ((1.0, 1), (-1.0, -1)):  # left movers advance, right movers retreat
        mover = np.concatenate([sign * diff, 0.5 * site0])
        image = _free_step(params, "Shift", mover)
        target = np.roll(mover.reshape(2, L), shift, axis=1).ravel()  # the mover one site on
        res = max(res, float(np.max(np.abs(image - target))))
    return res


def lightcone_radius(
    params: LatticeParams, L: int, kind: str, tau: int, observable: str = "phi"
) -> int:
    """Causal-cone radius of a single-site perturbation after tau steps.

    Evolves the Heisenberg functional of one site's field (``"phi"``, default),
    momentum (``"pi"``) or both, and returns the largest circular site offset
    carrying any coefficient above the support threshold: tau for ``"phi"``, tau + 1
    for the others (Shift's sites decouple at M = 0). Each step's two range-1 X-layers
    bound it by 2*tau, so 4*tau + 3 sites rule out wrap-around.
    """
    tau = _require_int(tau, 0, "tau")
    _check_chain(params, L, kind)  # before the wrap-around check: L = 0 is no chain at all
    require(4 * tau + 3, L, "4*tau + 3 sites to rule out wrap-around, against L")
    if observable not in ("phi", "pi", "both"):
        raise ValueError("observable must be 'phi', 'pi' or 'both'")
    n0 = L // 2
    rows = {"phi": [n0], "pi": [L + n0], "both": [n0, L + n0]}[observable]
    # ~8 length-L arrays per evolved column at the peak (measured)
    require(8 * 8 * L * len(rows), BYTE_BUDGET, f"bytes for the light cone on {L} sites")
    coeffs = np.zeros((2 * L, len(rows)))
    coeffs[rows, range(len(rows))] = 1.0
    for _ in range(tau):
        coeffs = _free_step(params, kind, coeffs)
    if not np.isfinite(coeffs).all():  # a NaN would read as no support, radius 0
        raise ConvergenceFailure(
            f"the light cone's coefficients are not all finite after {tau} steps")
    support = np.abs(coeffs.reshape(2, L, -1)).max(axis=(0, 2)) > CONE_THRESHOLD
    dist = np.abs(np.arange(L) - n0)
    return int(np.max(np.minimum(dist, L - dist)[support], initial=0))
