"""Truncated field-grid Hilbert-space simulator for d=1 chains.

Each site carries an n_points-value field grid; conjugate momenta come from
the centered unitary DFT (clock/shift discretization), which makes every
momentum layer exactly unitary. Everything is phrased in the dimensionless
site variables x = phi (d=1), p = a*pi, where one step of the Strang circuit
is exp(-i kappa Vt(x)/2) * exp(-i kappa p^2/2) * exp(-i kappa Vt(x)/2) with
kappa = dt/a and

    Vt(x) = sum_n [ (x_{n+1}-x_n)^2/2 + (m a)^2 x_n^2/2 + (lambda a^2) x_n^4/24 ].

The Shift circuit's X-layer is exp(+i[(M/2) sum x_n x_{n+1} +
(lambda a^2/24) sum x_n^4]) and its momentum layer the quarter rotation
exp(-i pi (X^2 + P^2)/4), built by dense per-site diagonalization.

A step is built once (``CircuitStep``): the X layer as a product of one n x n
bond table over neighbours, and the per-site momentum kernel K, cached on
(grid, kind, kappa) and applied by one batched matmul per site axis. Its elements
layer[y] prod_s K[y_s, x_s] layer[x] give the dense step on the open index grid
and each brute-force path-sum term as a product over time slices.

Sizes are capped in ``errors``: a state holds at most STATE_CAP amplitudes, a
dense step DENSE_CAP rows, and a brute-force sum PATH_TERM_CAP terms, which
``_time_slices`` checks before its caller builds any state.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DENSE_CAP, PATH_TERM_CAP, STATE_CAP, BruteForceCap, require
from .kinematics import LatticeParams

__all__ = [
    "FieldGrid",
    "TruncatedLattice",
    "build_site_operators",
    "build_step",
    "apply_step",
    "amplitude_circuit",
    "amplitude_path_sum",
    "amplitude_action_form",
    "kernel_gaussian_check",
    "interaction_picture_check",
    "KINDS",
]

KINDS = ("Strang", "Trotter", "Shift")


@dataclass(frozen=True)
class FieldGrid:
    """Uniform symmetric on-site field grid phi_j = (j - n/2) * delta_phi."""

    n_points: int
    delta_phi: float

    def __post_init__(self):
        if self.n_points < 8 or self.n_points % 2:
            raise ValueError("n_points must be an even integer >= 8")
        if self.delta_phi <= 0:
            raise ValueError("delta_phi must be positive")

    @classmethod
    def for_mass(cls, m: float, n_points: int, extent: float | None = None) -> "FieldGrid":
        """Grid whose extent keeps the free ground state well interior.

        Default half-width 6/sqrt(2m), roughly six ground-state widths.
        """
        if extent is None:
            if m <= 0:
                raise ValueError("automatic extent needs m > 0")
            extent = 6.0 / math.sqrt(2.0 * m)
        return cls(n_points, 2.0 * extent / n_points)

    @classmethod
    def dual(cls, n_points: int) -> "FieldGrid":
        """Momentum-dual grid, delta_phi = delta_p = sqrt(2 pi / n).

        On this family the kappa = 1 momentum layer is an exact discrete
        Fresnel transform (a complete quadratic Gauss sum): the one-step
        kernel equals -i * sqrt(i/(2 pi)) exp(i (y-z)^2/2) * delta_phi with
        plain value differences and no wrap-around images. It is the
        refinement family on which the continuum-field limit of the
        path-integral identity can be tested to machine precision.
        """
        return cls(n_points, math.sqrt(2.0 * math.pi / n_points))

    @property
    def values(self) -> np.ndarray:
        n = self.n_points
        return (np.arange(n) - n // 2) * self.delta_phi

    @property
    def momenta(self) -> np.ndarray:
        """Conjugate momentum grid, spacing 2*pi/(n*delta_phi)."""
        n = self.n_points
        return (np.arange(n) - n // 2) * (2.0 * math.pi / (n * self.delta_phi))


def _dft(grid: FieldGrid) -> np.ndarray:
    """Centered unitary DFT, F[k, j] = exp(-i p_k phi_j)/sqrt(n)."""
    n = grid.n_points
    return np.exp(-1j * np.outer(grid.momenta, grid.values)) / math.sqrt(n)


def build_site_operators(grid: FieldGrid) -> tuple[np.ndarray, np.ndarray]:
    """Dense Hermitian (X, P) for one site; P = F^dagger diag(momenta) F."""
    f = _dft(grid)
    x = np.diag(grid.values).astype(complex)
    p = f.conj().T @ np.diag(grid.momenta).astype(complex) @ f
    return x, p


@dataclass(frozen=True)
class TruncatedLattice:
    """Periodic d=1 chain of L sites with an on-site field grid."""

    L: int
    grid: FieldGrid
    params: LatticeParams
    dim: int = field(init=False)

    def __post_init__(self):
        if self.L < 2:
            raise ValueError("L must be >= 2 (L = 1 self-couples degenerately)")
        if self.params.d != 1:
            raise ValueError("the state-vector simulator is d=1 only")
        dim = require(self.grid.n_points**self.L, STATE_CAP, "state-vector dimension")
        object.__setattr__(self, "dim", dim)

    def config_index(self, config) -> int:
        return int(np.ravel_multi_index(tuple(config), (self.grid.n_points,) * self.L))


def _quartic_sum(lat: TruncatedLattice) -> np.ndarray:
    """sum_n x_n^4 over configs (flattened)."""
    n, L = lat.grid.n_points, lat.L
    total = np.zeros((n,) * L)
    for site in range(L):  # trailing unit axes place x_site on axis `site`
        total = total + (lat.grid.values**4).reshape((n,) + (1,) * (L - site - 1))
    return total.ravel()


def quartic_interaction_phase(lat: TruncatedLattice, kind: str, lam: float) -> np.ndarray:
    """Phase angle theta of the diagonal interaction factor U_int = e^{i theta}.

    Returned as a real array so half steps can be taken by halving the angle
    (the principal square root would pick the wrong branch for |theta| > pi).
    """
    lam_eff = lam * lat.params.a**2
    quart = lam_eff / 24.0 * _quartic_sum(lat)
    if kind in ("Strang", "Trotter"):
        return -lat.params.kappa * quart
    if kind == "Shift":
        return 2.0 * quart
    raise ValueError(f"unknown circuit kind {kind!r}")


def _x_layer(lat: TruncatedLattice, kind: str, lam: float) -> np.ndarray:
    """Diagonal of one X layer (the half layer for Strang and Shift), flattened.

    Every term of the phase couples only x_n and x_{n+1} (on-site terms ride
    on x_n), so the layer is the product over bonds of one n x n table
    exp(i angle(x_n, x_{n+1})), gathered on the open configuration grid.
    """
    x, y = lat.grid.values[:, None], lat.grid.values[None, :]
    quartic = lam * lat.params.a**2 / 24.0 * x**4
    if kind in ("Strang", "Trotter"):
        weight = 0.5 * lat.params.kappa if kind == "Strang" else lat.params.kappa
        msq = (lat.params.m * lat.params.a) ** 2
        angle = -weight * (0.5 * (y - x) ** 2 + 0.5 * msq * x**2 + quartic)
    elif kind == "Shift":
        angle = 0.5 * lat.params.M * x * y + quartic
    else:
        raise ValueError(f"unknown circuit kind {kind!r}")
    table = np.exp(1j * angle)
    sites = np.ix_(*[np.arange(lat.grid.n_points)] * lat.L)
    bonds = [table[sites[s], sites[(s + 1) % lat.L]] for s in range(lat.L)]
    return functools.reduce(operator.mul, bonds).ravel()


@functools.lru_cache(maxsize=8)
def _momentum_kernel(grid: FieldGrid, kind: str, kappa: float) -> np.ndarray:
    """One-site momentum-layer matrix, read-only and cached on its only inputs."""
    f = _dft(grid)
    if kind in ("Strang", "Trotter"):
        phases = np.exp(-0.5j * kappa * grid.momenta**2)
        kernel = f.conj().T @ (phases[:, None] * f)
    elif kind == "Shift":
        x, p = build_site_operators(grid)
        h = (x @ x + p @ p).astype(complex)
        w, v = np.linalg.eigh(h)
        kernel = (v * np.exp(-0.25j * math.pi * w)) @ v.conj().T
    else:
        raise ValueError(f"unknown circuit kind {kind!r}")
    kernel.setflags(write=False)
    return kernel


def _apply_site_kernel(kernel: np.ndarray, vec: np.ndarray, sites: int) -> np.ndarray:
    """Apply ``kernel`` to every one of ``sites`` tensor axes of a flat vector."""
    n = kernel.shape[0]
    for axis in range(sites):
        vec = np.matmul(kernel, vec.reshape(n**axis, n, n ** (sites - axis - 1)))
    return vec.ravel()


class CircuitStep:
    """One circuit step, built once: layer * K * layer for Strang and Shift,
    K * layer for Trotter, with K the momentum kernel on every site."""

    def __init__(self, lat: TruncatedLattice, kind: str, lam: float):
        self.lat, self.kind = lat, kind
        self.layer = _x_layer(lat, kind, lam)
        self.kernel = _momentum_kernel(lat.grid, kind, lat.params.kappa)

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = _apply_site_kernel(self.kernel, self.layer * psi, self.lat.L)
        return out if self.kind == "Trotter" else self.layer * out

    def element(self, y, x) -> np.ndarray:
        """<y|U|x> for configurations given per site as broadcastable index arrays."""
        layer = self.layer.reshape((self.lat.grid.n_points,) * self.lat.L)
        out = functools.reduce(operator.mul, [self.kernel[ys, xs] for ys, xs in zip(y, x)])
        if self.kind != "Trotter":
            out = layer[tuple(y)] * out
        return out * layer[tuple(x)]


def apply_step(lat: TruncatedLattice, kind: str, lam: float, psi: np.ndarray) -> np.ndarray:
    """Apply one circuit step to a state vector without storing the operator."""
    return CircuitStep(lat, kind, lam).apply(psi)


def build_step(lat: TruncatedLattice, kind: str, lam: float) -> np.ndarray:
    """Dense one-step operator from the step's local factors (DimensionCap above DENSE_CAP)."""
    require(lat.dim, DENSE_CAP, "dense operator dimension")
    grid = np.ix_(*[np.arange(lat.grid.n_points)] * (2 * lat.L))
    step = CircuitStep(lat, kind, lam).element(grid[: lat.L], grid[lat.L :])
    return step.reshape(lat.dim, lat.dim)


def amplitude_circuit(lat, kind: str, lam: float, phi_i, phi_f, tau: int) -> complex:
    """<phi_f | U^tau | phi_i> by repeated matrix-free application."""
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    psi = np.zeros(lat.dim, dtype=complex)
    psi[lat.config_index(phi_i)] = 1.0
    step = CircuitStep(lat, kind, lam)
    for _ in range(tau):
        psi = step.apply(psi)
    return complex(psi[lat.config_index(phi_f)])


def amplitude_path_sum(lat, kind: str, lam: float, phi_i, phi_f, tau: int) -> complex:
    """Explicit sum over intermediate configurations of one-step elements.

    Every path phi_i -> ... -> phi_f is enumerated and weighted by the product
    of its tau step elements, so this really is the brute-force
    insertion-of-identity sum, not a matrix-product shortcut.
    """
    if tau < 1:
        raise ValueError("path sum needs tau >= 1")
    paths = _time_slices(lat.grid.n_points, phi_i, phi_f, tau)
    step = CircuitStep(lat, kind, lam)
    total = 0.0 + 0.0j
    for slices, _ in paths:
        steps = (step.element(y, x) for x, y in zip(slices, slices[1:]))
        total += np.sum(functools.reduce(operator.mul, steps))
    return complex(total)


def _time_slices(n: int, first, last, tau: int, n_extra: int = 0, chunk: int = 1 << 18):
    """Enumerate every path first -> (tau - 1 summed slices) -> last in chunks.

    The path count is checked against PATH_TERM_CAP at the call, before any chunk
    exists. Each chunk holds the tau + 1 slices as per-site index arrays (sites, k),
    the ends as (sites, 1), and the (n_extra, k) digits of further summed variables.
    """
    first, last = np.asarray(first)[:, None], np.asarray(last)[:, None]
    inner = first.shape[0] * (tau - 1)
    total = require(n ** (inner + n_extra), PATH_TERM_CAP, "brute-force sum terms", BruteForceCap)
    # int32 divides fastest, exact since the capped path count is below 2**31
    powers = n ** np.arange(inner + n_extra, dtype=np.int32)[::-1, None]

    def block(start):
        digits = np.arange(start, min(start + chunk, total), dtype=np.int32) // powers % n
        slices = digits[:inner].reshape(tau - 1, first.shape[0], digits.shape[1])
        return [first, *slices, last], digits[inner:]

    return map(block, range(0, total, chunk))


def amplitude_action_form(lat, lam: float, phi_i, phi_f, tau: int) -> complex:
    """Riemann sum of the discrete action e^{iS} over intermediate configs.

    Strang kind only. The measure is sqrt(i/(2 pi kappa)) * delta_phi per
    site per timestep: the sqrt factors are the Gaussian kernel
    normalizations, the delta_phi of the L*(tau-1) intermediate variables are
    their Riemann weights, and the remaining delta_phi^L converts the
    delta-normalized field states of the continuum identity into the grid's
    orthonormal configuration kets.

    On :meth:`FieldGrid.dual` grids (kappa = 1) this equals
    (-i)^(tau*L) * amplitude_circuit exactly, the constant being the
    metaplectic phase of the discrete Fresnel kernel. On generic grids the
    two differ by wrap-around image interference that does not vanish at
    fixed extent (real-time kernels have distance-independent modulus).
    """
    if tau < 1:
        raise ValueError("action form needs tau >= 1")
    n, L = lat.grid.n_points, lat.L
    kappa = lat.params.kappa
    paths = _time_slices(n, phi_i, phi_f, tau)
    vals = lat.grid.values
    msq = (lat.params.m * lat.params.a) ** 2
    lam_eff = lam * lat.params.a**2

    def potential(x_slice: np.ndarray) -> np.ndarray:
        # x_slice shape (L, k): site potential summed over the chain
        total = 0.0
        for site in range(L):
            x, x_next = x_slice[site], x_slice[(site + 1) % L]
            total = total + 0.5 * (x_next - x) ** 2 + 0.5 * msq * x**2 + lam_eff / 24.0 * x**4
        return total

    measure = (cmath.sqrt(1j / (2.0 * math.pi * kappa)) * lat.grid.delta_phi) ** (tau * L)
    total = 0.0 + 0.0j
    for slices, _ in paths:
        x = [vals[s] for s in slices]
        v = [potential(x_slice) for x_slice in x]  # once per slice, though two steps use it
        action = 0.0
        for nu in range(tau):
            kinetic = np.sum((x[nu + 1] - x[nu]) ** 2, axis=0) / (2.0 * kappa)
            action = action + kinetic - 0.5 * kappa * (v[nu] + v[nu + 1])
        total += np.sum(np.exp(1j * action))
    return complex(measure * total)


def kernel_gaussian_check(grid: FieldGrid, match_phase: bool = False) -> float:
    """Max relative deviation of the DFT kernel from the Fresnel kernel.

    Compares <y|exp(-i P^2/2)|z> built from the grid DFT against
    sqrt(i/(2 pi)) exp(i (y-z)^2/2) * delta_phi for y, z in the inner half of
    the grid. With ``match_phase`` the comparison allows one global phase,
    fixed from the central diagonal element; on :meth:`FieldGrid.dual` grids
    that phase is exactly -i and the adjusted deviation is pure roundoff,
    while on generic grids wrap-around images keep the deviation at order
    one regardless of n_points.
    """
    f = _dft(grid)
    kernel = f.conj().T @ (np.exp(-0.5j * grid.momenta**2)[:, None] * f)
    target_unit = cmath.sqrt(1j / (2.0 * math.pi)) * grid.delta_phi
    vals = grid.values
    half = 0.25 * grid.n_points * grid.delta_phi
    inner = np.abs(vals) <= half
    target = target_unit * np.exp(0.5j * np.subtract.outer(vals, vals) ** 2)
    if match_phase:
        mid = grid.n_points // 2
        ratio = kernel[mid, mid] / target[mid, mid]
        target = target * (ratio / abs(ratio))
    diff = kernel - target
    return float(np.max(np.abs(diff[np.ix_(inner, inner)])) / abs(target_unit))


def interaction_picture_check(lat, kind: str, lam: float, tau: int) -> float:
    """Operator-norm deviation of the interaction-picture product identity.

    For the symmetric factorization U = U_int^{1/2} U_0 U_int^{1/2} (Strang and
    Shift), U_0^{-tau} U^tau must equal
    U_{int,I}^{1/2}(tau) U_{int,I}(tau-1) ... U_{int,I}(1) U_{int,I}^{1/2}(0);
    for the Trotter ordering U = U_0 U_int it is the plain ordered product of
    the full U_{int,I}(nu), nu = tau-1 .. 0. Returns the max deviation over
    1..tau steps.
    """
    step = build_step(lat, kind, lam)
    free = build_step(lat, kind, 0.0)
    int_phase = quartic_interaction_phase(lat, kind, lam)
    free_dag = free.conj().T

    def int_picture(nu: int, half: bool) -> np.ndarray:
        diag = np.exp(1j * int_phase * (0.5 if half else 1.0))
        fwd = np.linalg.matrix_power(free, nu)
        return np.linalg.matrix_power(free_dag, nu) @ (diag[:, None] * fwd)

    worst = 0.0
    for steps in range(1, tau + 1):
        lhs = np.linalg.matrix_power(free_dag, steps) @ np.linalg.matrix_power(step, steps)
        if kind == "Trotter":
            rhs = np.eye(lat.dim, dtype=complex)
            for nu in range(steps - 1, -1, -1):
                rhs = rhs @ int_picture(nu, half=False)
        else:
            rhs = int_picture(steps, half=True)
            for nu in range(steps - 1, 0, -1):
                rhs = rhs @ int_picture(nu, half=False)
            rhs = rhs @ int_picture(0, half=True)
        worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
    return worst
