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

A step (``CircuitStep``) holds the X layer's bond angle over neighbours and the
per-site momentum kernel K, cached on (grid, kind, kappa) and applied by one GEMM
per site that contracts the trailing axis and returns it as the leading one; the
layer's ``dim`` values are built only when a whole state is stepped. The step's
elements layer[y] prod_s K[y_s, x_s] layer[x], each layer from the bond factors at
its own indices, give the dense step on the open index grid and each brute-force
path-sum term as a product over time slices. Circuit amplitudes work from their
basis-ket ends through the same GEMM: U|x> from the one-column kernel slices K[:, [x_s]],
<y|U|psi> from the one-row slices K[[y_s]], and one step is one element.

The brute-force sums (the path sum, the action form and the gauge Wilson sum)
take their terms from ``_path_blocks``: blocks of consecutive terms whose
trailing summed variables are open index axes, so each local factor is computed
once per value of the few variables it reads, not once per term.

Sizes are capped in ``errors``: a state holds at most STATE_CAP amplitudes, a
dense step DENSE_CAP rows, and a brute-force sum PATH_TERM_CAP terms, which
``_path_blocks`` checks before its caller builds any state.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import (DENSE_CAP, PATH_TERM_CAP, STATE_CAP, ConvergenceFailure, _order, _require_int,
                     _require_power, _require_real, require)
from .kinematics import LatticeParams
from .quadrature import fsum_complex

__all__ = [
    "FieldGrid",
    "TruncatedLattice",
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
        object.__setattr__(self, "n_points", _require_int(self.n_points, 8, "n_points"))
        if self.n_points % 2:
            raise ValueError(f"n_points must be even, got {self.n_points}")
        _require_real(self.delta_phi, "delta_phi")

    @classmethod
    def for_mass(cls, m: float, n_points: int) -> "FieldGrid":
        """Grid of half-width 6/sqrt(2m), roughly six ground-state widths, which keeps the free
        ground state well interior; m must be positive."""
        _require_real(m, "m of a mass grid")
        n_points = _require_int(n_points, 8, "n_points")
        return cls(n_points, 2.0 * (6.0 / math.sqrt(2.0 * m)) / n_points)

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
        n_points = _require_int(n_points, 8, "n_points")
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


def _circulant(column: np.ndarray) -> np.ndarray:
    """The circulant matrix C[j, k] = column[(j - k) mod n], by one index gather."""
    d = np.arange(len(column))
    return column[np.subtract.outer(d, d)]  # negative differences wrap


def _momentum_function(symbol: np.ndarray) -> np.ndarray:
    """F^dagger diag(symbol) F for the centered unitary DFT F[k, j] = exp(-i p_k phi_j)/sqrt(n).

    Element [j, k] is (1/n) sum_m symbol_m exp(2 pi i (m - n/2)(j - k)/n), a function of
    j - k alone: the circulant of c = (-1)^d ifft(symbol), the sign undoing the centering.
    """
    return _circulant(np.fft.ifft(symbol) * (-1.0) ** np.arange(len(symbol)))


@dataclass(frozen=True)
class TruncatedLattice:
    """Periodic d=1 chain of L sites with an on-site field grid."""

    L: int
    grid: FieldGrid
    params: LatticeParams
    dim: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "L", _require_int(self.L, 2, "L"))  # L = 1 is its own neighbour
        if self.params.d != 1:
            raise ValueError("the state-vector simulator is d=1 only")
        dim = _require_power(self.grid.n_points, self.L, STATE_CAP, "state-vector dimension")
        object.__setattr__(self, "dim", dim)

    def config_index(self, config) -> int:
        """Row-major index of L grid indices in [0, n_points) (``_config_index``)."""
        return _config_index(config, self.grid.n_points, self.L, f"{self.L} grid indices")


def _config_index(config, n: int, length: int, what: str) -> int:
    """Row-major index of ``length`` integers in [0, n): a Horner sum in Python ints, any
    length. A wrong length, a non-integer (a bool too) or a value out of range is a
    ValueError naming ``what``, never a wrapped or truncated index."""
    try:
        digits = [operator.index(v) for v in config]
    except TypeError:  # a non-integer value, or no sequence at all
        digits = None
    if (digits is None or len(digits) != length or any(isinstance(v, bool) for v in config)
            or not all(0 <= v < n for v in digits)):
        raise ValueError(f"configuration {config!r} is not {what} in [0, {n})")
    return functools.reduce(lambda index, v: index * n + v, digits, 0)


def quartic_interaction_phase(lat: TruncatedLattice, lam: float) -> np.ndarray:
    """Kind-free angle theta = (lambda a^2/24) sum_n x_n^4 per configuration (flattened, sites
    added in site order); U_int = e^{i w theta}, w = 2 for Shift, -kappa for Strang and Trotter.

    Returned as a real array so half steps can be taken by halving the angle
    (the principal square root would pick the wrong branch for |theta| > pi).
    """
    lam_eff = lam * (lat.params.a * lat.params.a)  # a product: a**2 raises OverflowError
    return lam_eff / 24.0 * functools.reduce(np.add.outer, [lat.grid.values**4] * lat.L).ravel()


def _bond_angle(lat: TruncatedLattice, kind: str, lam: float):
    """angle(i, j) of one X layer's bond factor exp(i angle(x_i, x_j)) at grid indices i, j,
    ints or broadcastable index arrays.

    Every term of the layer's phase couples only x_n and x_{n+1} (on-site terms ride
    on x_n), so the layer at a configuration is the product of its L bond factors. Squares
    are products and x^4 is tabulated, so an angle rounds alike at every array shape.
    """
    x = lat.grid.values
    quartic = lam * (lat.params.a * lat.params.a) / 24.0 * x**4
    if kind == "Shift":
        return lambda i, j: 0.5 * lat.params.M * x[i] * x[j] + quartic[i]
    if kind not in ("Strang", "Trotter"):
        raise ValueError(f"unknown circuit kind {kind!r}")
    weight = 0.5 * lat.params.kappa if kind == "Strang" else lat.params.kappa
    ma = lat.params.m * lat.params.a
    msq = ma * ma
    return lambda i, j: -weight * (0.5 * ((x[j] - x[i]) * (x[j] - x[i]))
                                   + 0.5 * msq * (x[i] * x[i]) + quartic[i])


def _layer_at(angle, config) -> np.ndarray:
    """The X layer at configurations given per site as broadcastable index arrays: the
    L bond factors evaluated there and multiplied in site order.

    ``np.multiply`` keeps single configurations on the array loop, which rounds complex
    products unlike the scalar ``*``, so every value is bitwise the full layer's.
    """
    L = len(config)
    return functools.reduce(np.multiply, [np.exp(1j * angle(config[s], config[(s + 1) % L]))
                                          for s in range(L)])


@functools.lru_cache(maxsize=8)
def _momentum_kernel(grid: FieldGrid, kind: str, kappa: float) -> np.ndarray:
    """One-site momentum-layer matrix, read-only and cached on its only inputs."""
    if kind in ("Strang", "Trotter"):
        kernel = _momentum_function(np.exp(-0.5j * kappa * grid.momenta**2))
    else:  # Shift: CircuitStep's _bond_angle has refused any other kind
        h = _momentum_function(grid.momenta**2) + np.diag(grid.values**2)
        w, v = np.linalg.eigh(h)
        kernel = (v * np.exp(-0.25j * math.pi * w)) @ v.conj().T
    kernel.setflags(write=False)
    return kernel


def _apply_site_kernels(kernels: list[np.ndarray], vec: np.ndarray) -> np.ndarray:
    """Apply the r x n ``kernels[s]`` to tensor axis s of a flat vector, one axis per kernel:
    the axis of length n becomes one of length r, so a one-column slice K[:, [x]] expands a
    unit axis into a site axis and a one-row slice K[[y]] contracts a site axis to a unit one.

    Each pass is one GEMM that contracts the trailing axis and returns it as the leading
    one, so the last kernel goes first and after one pass per kernel the axes are back in
    order. The transposed operand is a strided view that BLAS reads in place; the other
    orientation, ``vec.reshape(n, -1).T @ kernel.T``, costs a second BLAS thread a packing
    buffer (about 8 MiB of RSS at n=16, sites=5).
    """
    for kernel in reversed(kernels):
        vec = kernel @ vec.reshape(-1, kernel.shape[1]).T
    return vec.ravel()


class CircuitStep:
    """One circuit step: layer * K * layer for Strang and Shift, K * layer for Trotter,
    with K the momentum kernel on every site. It holds the layer's bond angle; the
    ``dim``-sized layer is built on first use by a whole-state method, never by ``element``.
    """

    def __init__(self, lat: TruncatedLattice, kind: str, lam: float):
        self.lat, self.kind = lat, kind
        self.angle = _bond_angle(lat, kind, _require_real(lam, "lambda", "nonnegative"))
        self.kernel = _momentum_kernel(lat.grid, kind, lat.params.kappa)

    @functools.cached_property
    def layer(self) -> np.ndarray:
        n, L = self.lat.grid.n_points, self.lat.L
        return _layer_at(self.angle, np.ix_(*[np.arange(n)] * L)).ravel()

    def apply(self, psi: np.ndarray) -> np.ndarray:
        out = _apply_site_kernels([self.kernel] * self.lat.L, self.layer * psi)
        return out if self.kind == "Trotter" else self.layer * out

    def element(self, y, x) -> np.ndarray:
        """<y|U|x> for configurations given per site as broadcastable index arrays."""
        out = functools.reduce(operator.mul, [self.kernel[ys, xs] for ys, xs in zip(y, x)])
        if self.kind != "Trotter":
            out = _layer_at(self.angle, y) * out
        return out * _layer_at(self.angle, x)


def apply_step(lat: TruncatedLattice, kind: str, lam: float, psi: np.ndarray) -> np.ndarray:
    """Apply one circuit step to a state vector without storing the operator."""
    return CircuitStep(lat, kind, lam).apply(psi)


def build_step(lat: TruncatedLattice, kind: str, lam: float) -> np.ndarray:
    """Dense one-step operator from the step's local factors (CapExceeded above DENSE_CAP)."""
    require(lat.dim, DENSE_CAP, "dense operator dimension")
    grid = np.ix_(*[np.arange(lat.grid.n_points)] * (2 * lat.L))
    step = CircuitStep(lat, kind, lam).element(grid[: lat.L], grid[lat.L :])
    return step.reshape(lat.dim, lat.dim)


def amplitude_circuit(lat, kind: str, lam: float, phi_i, phi_f, tau: int) -> complex:
    """<phi_f | U^tau | phi_i> from its basis-ket ends: a Kronecker delta at tau = 0, one
    step element (O(L)) at tau = 1, else U|phi_i> from the kernel columns K[:, [x_s]], tau - 2
    full steps and <phi_f|U from the rows K[[y_s]], both ends by ``_apply_site_kernels``."""
    start, end = lat.config_index(phi_i), lat.config_index(phi_f)  # a bad end is refused
    tau = _require_int(tau, 0, "tau")
    step = CircuitStep(lat, kind, lam)  # refuses a bad kind or lambda at tau = 0 too
    if tau == 0:
        return complex(start == end)
    if tau == 1:
        return complex(step.element(phi_f, phi_i))
    at_x = np.atleast_1d(_layer_at(step.angle, phi_i))
    psi = _apply_site_kernels([step.kernel[:, [xs]] for xs in phi_i], at_x)
    if kind != "Trotter":
        psi *= step.layer
    for _ in range(tau - 2):
        psi = step.apply(psi)
    psi *= step.layer
    out = _apply_site_kernels([step.kernel[[ys]] for ys in phi_f], psi)[0]
    return complex(out if kind == "Trotter" else _layer_at(step.angle, phi_f) * out)


def amplitude_path_sum(lat, kind: str, lam: float, phi_i, phi_f, tau: int) -> complex:
    """Explicit sum over intermediate configurations of one-step elements.

    Every path phi_i -> ... -> phi_f is enumerated and weighted by the product
    of its tau step elements, so this really is the brute-force
    insertion-of-identity sum, not a matrix-product shortcut.
    """
    lat.config_index(phi_i)  # both ends are refused before any work, never wrapped
    lat.config_index(phi_f)
    tau = _require_int(tau, 1, "tau")
    blocks = _path_blocks(lat.grid.n_points, phi_i, phi_f, tau)
    step = CircuitStep(lat, kind, lam)
    totals = []
    for slices, _ in blocks:
        steps = (step.element(y, x) for x, y in zip(slices, slices[1:]))
        totals.append(np.sum(functools.reduce(operator.mul, steps).ravel()))
    return fsum_complex(totals)


def _path_blocks(n: int, first, last, tau: int, n_extra: int = 0, chunk: int = 1 << 18):
    """Enumerate every path first -> (tau - 1 summed slices) -> last in blocks of terms.

    The term count is checked against PATH_TERM_CAP at the call, before any block exists.
    A block is c * n**j consecutive terms: n**j the largest power of n within ``chunk``
    (or every term, if fewer), j <= log2(chunk) even at n = 1, and c the largest divisor
    of n that keeps the block within it. Its leading summed variables are ints, the next
    runs over c values and the last j are the open axes of one reused index grid, so a
    factor of a few variables is computed on their axes only, and the block's terms,
    raveled in C order, are in term order. Each block holds the tau + 1 slices as per-site
    index lists (the ends as ints) and the n_extra further summed variables.
    """
    first, last = [int(v) for v in first], [int(v) for v in last]
    inner = len(first) * (tau - 1)
    n_vars = inner + n_extra
    _require_power(n, n_vars, PATH_TERM_CAP, "brute-force sum terms")
    j = 0
    while j < min(n_vars, chunk.bit_length() - 1) and n ** (j + 1) <= chunk:
        j += 1
    grid = [np.arange(n).reshape((n,) + (1,) * k) for k in reversed(range(j))]
    heads = [[]]
    if j < n_vars:
        c = max(c for c in range(1, n + 1) if n % c == 0 and c * n**j <= chunk)
        partial = [np.arange(d, d + c).reshape((c,) + (1,) * j) for d in range(0, n, c)]
        heads = ([*digits, axis] for digits in itertools.product(range(n), repeat=n_vars - j - 1)
                 for axis in partial)

    def block(head):
        variables = head + grid
        slices = [variables[s : s + len(first)] for s in range(0, inner, len(first))]
        return [first, *slices, last], variables[inner:]

    return map(block, heads)


def amplitude_action_form(lat, lam: float, phi_i, phi_f, tau: int) -> complex:
    """Riemann sum of the discrete action e^{iS} over intermediate configs.

    Strang kind only. The measure is sqrt(i/(2 pi kappa)) * delta_phi per
    site per timestep: the sqrt factors are the Gaussian kernel
    normalizations, the delta_phi of the L*(tau-1) intermediate variables are
    their Riemann weights, and the remaining delta_phi^L converts the
    delta-normalized field states of the continuum identity into the grid's
    orthonormal configuration kets.

    On :meth:`FieldGrid.dual` grids (kappa = 1) amplitude_circuit equals
    (-i)^(tau*L) times this exactly, the constant being the metaplectic phase
    of the tau*L discrete Fresnel kernels; so this is i^(tau*L) times the
    circuit amplitude, which is (-i)^(tau*L) times it only when tau*L is even.
    On generic grids the
    two differ by wrap-around image interference that does not vanish at
    fixed extent (real-time kernels have distance-independent modulus).
    """
    lat.config_index(phi_i)  # both ends are refused before any work, never wrapped
    lat.config_index(phi_f)
    tau = _require_int(tau, 1, "tau")
    _require_real(lam, "lambda", "nonnegative")
    L, kappa = lat.L, lat.params.kappa
    blocks = _path_blocks(lat.grid.n_points, phi_i, phi_f, tau)
    vals = lat.grid.values
    ma = lat.params.m * lat.params.a
    msq, lam_eff = ma * ma, lam * (lat.params.a * lat.params.a)
    # per-site factors tabulated once on the grid values, then gathered: per term only
    # +, -, * and / remain, which round alike at every array shape
    diff_sq = (vals[None, :] - vals[:, None]) ** 2  # [x, x_next] -> (x_next - x)^2
    half_sq, mass, quartic = 0.5 * diff_sq, 0.5 * msq * vals**2, lam_eff / 24.0 * vals**4

    def potential(x):
        # x: one slice's per-site indices; site potentials summed over the chain
        total = 0.0
        for site in range(L):
            total = total + half_sq[x[site], x[(site + 1) % L]] + mass[x[site]] + quartic[x[site]]
        return total

    # the complex power raises past the float range, so its size is refused from logarithms
    order = tau * L * (math.log10(lat.grid.delta_phi) - 0.5 * math.log10(2 * math.pi * kappa))
    if order > math.log10(np.finfo(float).max):
        raise ConvergenceFailure(f"the action-form measure (sqrt(i/(2 pi kappa)) delta_phi)^(tau L)"
                                 f" {_order(order)} is past the float range")
    measure = (cmath.sqrt(1j / (2.0 * math.pi * kappa)) * lat.grid.delta_phi) ** (tau * L)
    totals = []
    for x, _ in blocks:
        v = [potential(x_slice) for x_slice in x]  # once per slice, though two steps use it
        action = 0.0
        for nu in range(tau):
            # sites added in site order, the association of np.sum over a site axis
            kinetic = sum(diff_sq[a, b] for a, b in zip(x[nu], x[nu + 1])) / (2.0 * kappa)
            action = action + kinetic - 0.5 * kappa * (v[nu] + v[nu + 1])
        totals.append(complex(np.sum(np.cos(action)), np.sum(np.sin(action))))  # SIMD, unlike exp
    return complex(measure * fsum_complex(totals))


def kernel_gaussian_check(grid: FieldGrid, match_phase: bool = False) -> float:
    """Max relative deviation of the DFT kernel from the Fresnel kernel.

    Compares <y|exp(-i P^2/2)|z> built from the grid DFT against
    sqrt(i/(2 pi)) exp(i (y-z)^2/2) * delta_phi for y, z in the inner half of
    the grid. With ``match_phase`` the comparison allows one global phase,
    fixed from the central diagonal element; on :meth:`FieldGrid.dual` grids
    that phase is exactly -i and the adjusted deviation is pure roundoff,
    while on generic grids wrap-around images keep the deviation at order
    one regardless of n_points. The target is built on the inner block only;
    at its centre it is ``target_unit`` itself, since exp(0j) is exactly 1.
    """
    kernel = _momentum_kernel(grid, "Strang", 1.0)
    target_unit = cmath.sqrt(1j / (2.0 * math.pi)) * grid.delta_phi
    vals = grid.values
    inner = np.abs(vals) <= 0.25 * grid.n_points * grid.delta_phi
    target = target_unit * np.exp(0.5j * np.subtract.outer(vals[inner], vals[inner]) ** 2)
    if match_phase:
        mid = grid.n_points // 2
        ratio = kernel[mid, mid] / target_unit
        target = target * (ratio / abs(ratio))
    return float(np.max(np.abs(kernel[np.ix_(inner, inner)] - target)) / abs(target_unit))


def interaction_picture_check(lat, kind: str, lam: float, tau: int) -> float:
    """Operator-norm deviation of the interaction-picture product identity.

    Every kind is U = D^s U_0 D^(1-s), with D = U_int the diagonal interaction factor
    and s = 1/2 (Strang, Shift) or 0 (Trotter). With U_I(nu) = U_0^-nu D U_0^nu,
    U_0^-k U^k must equal U_I(k)^s U_I(k-1) ... U_I(1) D^(1-s). U_0^k times that product
    is the circuit's own time order D^s (U_0 D)^(k-1) U_0 D^(1-s), and U_0 is unitary, so
    U^k minus it has the defect's operator norm: only U^k and (U_0 D)^(k-1) U_0 are carried.
    Returns the max over k = 1..tau of that norm, from its Gram matrix's spectrum (``_op_norm``).
    """
    tau = _require_int(tau, 1, "tau")
    step, free = build_step(lat, kind, lam), build_step(lat, kind, 0.0)
    phase = (2.0 if kind == "Shift" else -lat.params.kappa) * quartic_interaction_phase(lat, lam)
    s = 0.0 if kind == "Trotter" else 0.5
    lead, full, trail = (np.exp(1j * power * phase) for power in (s, 1.0, 1.0 - s))
    step_k, ordered = step, free
    worst = 0.0
    for k in range(1, tau + 1):
        worst = max(worst, _op_norm(step_k - lead[:, None] * ordered * trail))
        if k < tau:  # one more step: U on U^k, the kick D then U_0 on the ordered product
            ordered, step_k = (free * full) @ ordered, step @ step_k
    return worst


def _op_norm(x: np.ndarray) -> float:
    """The spectral norm of a C-contiguous complex matrix x as sqrt of the largest eigenvalue
    of y^H y, y = x / max|x|: a Hermitian eigenvalue problem in place of the full SVD behind
    ``np.linalg.norm(x, 2)``. The scaling keeps the Gram matrix from underflowing or
    overflowing. It divides the real and imaginary parts: numpy's complex division by
    scale would multiply by 1/scale, which overflows for a subnormal max|x|."""
    scale = float(np.max(np.abs(x)))
    if scale == 0.0:
        return 0.0
    y = (x.view(float) / scale).view(complex)
    return scale * math.sqrt(max(float(np.linalg.eigvalsh(y.conj().T @ y)[-1]), 0.0))
