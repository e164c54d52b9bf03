"""Z_N lattice gauge theory in d=2: transfer operator vs. Wilson path integral.

The gauge group is the cyclic group Z_N embedded as k -> exp(2 pi i k/N), so
Re tr[U_k] = cos(2 pi k/N) and the Haar integral is the exact uniform average
(1/N) sum_k. Link states are the orthonormal kets |u>, u = 0..N-1; the
transfer operator is T = W_el W_mag with

    W_mag = diag exp(-i (2 kappa/g^2) sum_{spatial plaquettes} cos(2 pi h/N))
    W_el  = prod_links (1/N) sum_v exp(-i (2/(kappa g^2)) cos(2 pi v/N)) L(v)

where L(v)|u> = |u - v mod N> and h is the plaquette holonomy. W_mag is built
from its local factors: one cos(2 pi h_p/N) per plaquette, read from an N-entry
table and summed on the open link grid, with no configuration table; the
Wilson sum adds the same factors on blocks of the open grid of its summed
variables, each time slice's action on that slice's own few axes, so only the
sum over slices runs at block size. A Z_N block's actions take few distinct
values, so its phases e^{-iS} are tallied: cos S and sin S once per value,
times the value's count. For finite N
the path-integral equality is an exact algebraic identity and is checked here
by brute force. Note that W_el is *not* unitary in general: its per-link
eigenvalues are Fourier coefficients of exp(-i beta cos), which have unit
modulus only for N = 1; ``unitarity_report`` measures this instead of
assuming it, and the equivalence identity does not depend on it.

A gauge transform D(Omega) is a layer of single-link cyclic shifts, u_{x,e} -> u_{x,e} +
omega_x - omega_{x+e}. The Gauss projector only ever meets one basis ket |u>, so it is that
ket's orbit average P_G|u> = N^-sites sum_Omega D(Omega)|u>: a histogram of N^sites images.

The configuration space shares the state-vector cap ``errors.STATE_CAP``, and a
Wilson sum over PATH_TERM_CAP terms is refused before the left side is built.

Amplitude convention: basis kets in the equivalence check are delta-normalized
against the Haar measure (<v|u> = N delta_{uv} per link), the convention in
which the transfer-operator matrix elements carry no 1/N factors and the path
integral has one 1/N per summed link variable. The quoted left side is
therefore N^{n_links} times the orthonormal-basis matrix element.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DENSE_CAP, PATH_TERM_CAP, STATE_CAP, _require_int, _require_power,
                     _require_real, require)
from .quadrature import fsum_complex
from .statevector import _apply_site_kernels, _circulant, _config_index, _path_blocks

__all__ = [
    "GaugeGroupZN",
    "GaugeLattice",
    "GaugeOperator",
    "build_wmag",
    "build_wel",
    "wel_link_matrix",
    "plaquette_coloring",
    "gauge_transform",
    "apply_transfer",
    "amplitude_equiv_check",
    "unitarity_report",
]


@dataclass(frozen=True)
class GaugeGroupZN:
    """Cyclic group of order N with the defining U(1) embedding."""

    N: int

    def __post_init__(self):
        object.__setattr__(self, "N", _require_int(self.N, 1, "group order N"))

    def retrace(self, k) -> np.ndarray:
        """Re tr[U_k] = cos(2 pi k / N)."""
        return np.cos(2.0 * math.pi * np.asarray(k) / self.N)


@dataclass(frozen=True)
class GaugeLattice:
    """Periodic Lx x Ly spatial lattice (d=2); links indexed 2*site + dir."""

    Lx: int
    Ly: int
    n_sites: int = field(init=False)
    n_links: int = field(init=False)

    def __post_init__(self):
        for name in ("Lx", "Ly"):
            object.__setattr__(self, name, _require_int(getattr(self, name), 1, name))
        object.__setattr__(self, "n_sites", self.Lx * self.Ly)
        object.__setattr__(self, "n_links", 2 * self.Lx * self.Ly)

    def site(self, x: int, y: int) -> int:
        return (x % self.Lx) * self.Ly + (y % self.Ly)

    def link(self, x: int, y: int, direction: int) -> int:
        return 2 * self.site(x, y) + direction

    @functools.cached_property
    def endpoints(self) -> np.ndarray:
        """Row 2*site + d is that link's (from_site, to_site): one read-only table per lattice."""
        ends = np.array([(self.site(x, y), self.site(x + 1, y) if d == 0 else self.site(x, y + 1))
                         for x in range(self.Lx) for y in range(self.Ly) for d in (0, 1)])
        ends.setflags(write=False)
        return ends

    def plaquettes(self) -> list[tuple[int, int, int, int]]:
        """Per site (x, y): links traversed as +x, +y(x+1), -x(y+1), -y.

        Holonomy of config u is u[l0] + u[l1] - u[l2] - u[l3] mod N.
        """
        return [(self.link(x, y, 0), self.link(x + 1, y, 1), self.link(x, y + 1, 0),
                 self.link(x, y, 1)) for x in range(self.Lx) for y in range(self.Ly)]


_MAX_AXES = 64  # NPY_MAXDIMS from numpy 2.0, the floor pyproject.toml declares
_BLOCK_TERMS = 1 << 16  # the Wilson sum runs in blocks of up to this many terms


def _state_dim(lat: GaugeLattice, group: GaugeGroupZN) -> int:
    require(lat.n_links, _MAX_AXES, "link tensor axes")
    return require(group.N**lat.n_links, STATE_CAP, "link configuration space dimension")


def config_index(lat: GaugeLattice, group: GaugeGroupZN, config) -> int:
    """Row-major index of n_links link values in [0, N) (``statevector._config_index``)."""
    return _config_index(config, group.N, lat.n_links, f"{lat.n_links} link values")


@dataclass
class GaugeOperator:
    """Operator on the link configuration space: diagonal phases (W_mag), or a product of
    one N x N factor per link, W_el's circulant or D(Omega)'s cyclic shift. ``apply`` works
    matrix-free in both shapes; ``dense()`` applies it to each basis ket of a small operator.
    """

    dim: int
    diag: np.ndarray | None = None
    link_matrices: list[np.ndarray] | None = None  # factor l acts on link axis l

    def apply(self, vec: np.ndarray) -> np.ndarray:
        if self.diag is not None:
            return self.diag * vec
        return _apply_site_kernels(self.link_matrices, vec)

    def dense(self) -> np.ndarray:
        """The matrix of ``apply``: row i of one identity becomes the image of basis ket i."""
        require(self.dim, DENSE_CAP, "dense gauge operator dimension")
        mat = np.eye(self.dim, dtype=complex)
        for row in mat:
            row[:] = self.apply(row)
        return mat.T


def _plaquette_action(lat: GaugeLattice, retrace: np.ndarray, links) -> np.ndarray:
    """sum_p cos(2 pi h_p/N), read from the N-entry table ``retrace``, for per-link indexable
    ``links`` (broadcastable index arrays)."""
    total = 0.0
    for l0, l1, l2, l3 in lat.plaquettes():
        total = total + retrace[(links[l0] + links[l1] - links[l2] - links[l3]) % len(retrace)]
    return total


def _couplings(g: float, kappa: float) -> tuple[float, float]:
    """(2 kappa/g/g, 2/kappa/g/g), the plaquette coefficients of a finite and positive g and
    kappa, each formed once (no g**2 to overflow or round to 0) and returned as checked."""
    g, kappa = _require_real(g, "g"), _require_real(kappa, "kappa")
    coeff_s, coeff_t = 2 * kappa / g / g, 2 / kappa / g / g
    if not (0 < coeff_s < math.inf and 0 < coeff_t < math.inf):
        raise ValueError(f"both coefficients must be finite and positive, got g={g}, kappa={kappa}")
    return coeff_s, coeff_t


def _wilson_terms(lat: GaugeLattice, group: GaugeGroupZN, tau: int, pairs: int = 1) -> int:
    """One Wilson sum's N^links terms: tau - 1 inner slices' links, a temporal one per site, step.
    CapExceeded by arithmetic alone, in this order: the axis and state caps (``_state_dim``),
    PATH_TERM_CAP terms, and ``pairs`` checks of max(terms, amplitudes, one block) past it."""
    dim = _state_dim(lat, group)
    terms = _require_power(group.N, lat.n_links * (tau - 1) + lat.n_sites * tau, PATH_TERM_CAP,
                           "brute-force sum terms")
    require(pairs * max(terms, dim, _BLOCK_TERMS), PATH_TERM_CAP,
            f"terms or amplitudes of {pairs} pairs")
    return terms


def build_wmag(
    lat: GaugeLattice, group: GaugeGroupZN, g: float, kappa: float = 1.0
) -> GaugeOperator:
    """Diagonal plaquette layer exp(-i (2 kappa/g^2) sum_ps cos(2 pi h/N))."""
    coeff_s, _ = _couplings(g, kappa)
    dim = _state_dim(lat, group)
    return GaugeOperator(dim, diag=_wmag_diag(lat, group, coeff_s))


@functools.lru_cache(maxsize=1)
def _wmag_diag(lat: GaugeLattice, group: GaugeGroupZN, coeff_s: float) -> np.ndarray:
    """W_mag's diagonal, read-only and cached on its only inputs: one build per run."""
    grid = np.ix_(*[np.arange(group.N)] * lat.n_links)
    action = _plaquette_action(lat, group.retrace(np.arange(group.N)), grid)
    diag = np.exp(-1j * coeff_s * action).ravel()
    diag.setflags(write=False)
    return diag


def wel_link_matrix(group: GaugeGroupZN, g: float, kappa: float = 1.0) -> np.ndarray:
    """Per-link electric factor (1/N) sum_v exp(-i (2/(kappa g^2)) cos(2 pi v/N)) L(v).

    Entry [r, u] is the weight of v = u - r mod N: circulant, so it commutes with D(Omega).
    """
    n = group.N
    _, beta = _couplings(g, kappa)
    weights = np.exp(-1j * beta * group.retrace(np.arange(n))) / n
    return _circulant(weights[-np.arange(n)])  # column entry r - u holds weights[u - r]


def build_wel(
    lat: GaugeLattice, group: GaugeGroupZN, g: float, kappa: float = 1.0
) -> GaugeOperator:
    link_matrix = wel_link_matrix(group, g, kappa)
    return GaugeOperator(_state_dim(lat, group), link_matrices=[link_matrix] * lat.n_links)


def apply_transfer(
    lat: GaugeLattice, group: GaugeGroupZN, g: float, kappa: float, vec: np.ndarray
) -> np.ndarray:
    """One application of T = W_el W_mag, matrix-free."""
    return build_wel(lat, group, g, kappa).apply(build_wmag(lat, group, g, kappa).apply(vec))


def plaquette_coloring(lat: GaugeLattice) -> tuple[list[int], list[int]]:
    """Chessboard split of plaquette indices into two link-disjoint layers."""
    if lat.Lx % 2 or lat.Ly % 2:
        raise ValueError("chessboard coloring needs even Lx and Ly")
    return tuple([idx for idx in range(lat.n_sites) if sum(divmod(idx, lat.Ly)) % 2 == color]
                 for color in (0, 1))


def gauge_transform(lat: GaugeLattice, group: GaugeGroupZN, omega) -> GaugeOperator:
    """D(Omega): u_{x,e} -> omega_x + u_{x,e} - omega_{x+e}, as one N x N cyclic shift
    |u> -> |u + omega_x - omega_{x+e} mod N> per link (x, e)."""
    if np.shape(omega) != (lat.n_sites,):
        raise ValueError(f"omega must assign one group element per site ({lat.n_sites})")
    omega = np.array([_require_int(v, -math.inf, "omega") % group.N for v in omega])
    dim, eye = _state_dim(lat, group), np.eye(group.N, dtype=complex)
    shifts = omega[lat.endpoints[:, 0]] - omega[lat.endpoints[:, 1]]
    return GaugeOperator(dim, link_matrices=[np.roll(eye, s, axis=0) for s in shifts])


def _gauss_orbit_average(lat: GaugeLattice, group: GaugeGroupZN, config) -> np.ndarray:
    """P_G|config> = N^-sites sum_Omega D(Omega)|config>, one image per site assignment."""
    dim = _state_dim(lat, group)  # the cap before any image exists
    omegas = np.indices((group.N,) * lat.n_sites).reshape(lat.n_sites, -1)
    images = (config[:, None] + omegas[lat.endpoints[:, 0]] - omegas[lat.endpoints[:, 1]]) % group.N
    index = group.N ** np.arange(lat.n_links - 1, -1, -1) @ images  # row-major ravel
    return np.bincount(index, minlength=dim) / len(index)


def unitarity_report(group: GaugeGroupZN, g: float, kappa: float = 1.0) -> float:
    """Operator-norm deviation ||w^dagger w - 1|| of the per-link W_el factor.

    Zero only at N = 1; for N = 2 the eigenvalue moduli are |cos beta| and
    |sin beta| with beta = 2/(kappa g^2). A genuine finding, reported as is.
    """
    w = wel_link_matrix(group, g, kappa)
    return float(np.linalg.norm(w.conj().T @ w - np.eye(group.N), 2))


def amplitude_equiv_check(
    lat: GaugeLattice,
    group: GaugeGroupZN,
    g: float,
    kappa: float,
    u_i,
    u_f,
    tau: int,
) -> tuple[complex, complex, float]:
    """Transfer-operator amplitude vs. brute-force Wilson path integral.

    Left side: N^{n_links} <u_f| T^tau P_G |u_i> (delta-normalized kets; the
    Gauss projector is inserted because basis configurations are not
    individually gauge invariant). Right side: exact group sum over all
    intermediate spatial links and all temporal links of e^{iS}, one factor
    1/N per summed variable, where e^{iS} carries one phase
    exp(-i (2 kappa/g^2) cos) per spatial plaquette at times 0..tau-1 and one
    exp(-i (2/(kappa g^2)) cos) per temporal plaquette. Returns (lhs, rhs,
    |lhs - rhs|); the equality is exact for every finite N.
    """
    tau = _require_int(tau, 1, "tau")
    coeff_s, coeff_t = _couplings(g, kappa)
    n = group.N
    config_index(lat, group, u_i)  # both ends refused before any work, never wrapped
    end = config_index(lat, group, u_f)

    blocks = _path_blocks(n, u_i, u_f, tau, lat.n_sites * tau, chunk=_BLOCK_TERMS)  # cap first

    # left side: the projected ket, then T = W_el W_mag applied tau times
    psi = _gauss_orbit_average(lat, group, np.asarray(u_i, dtype=int))
    for _ in range(tau):
        psi = apply_transfer(lat, group, g, kappa, psi)
    lhs = complex(psi[end]) * n**lat.n_links

    # right side: chunked enumeration of all summed link variables
    retrace, endpoints = group.retrace(np.arange(n)), lat.endpoints.tolist()
    chunks = []
    for slices, temporal in blocks:
        action = 0.0
        for nu in range(tau):
            t_now = temporal[nu * lat.n_sites : (nu + 1) * lat.n_sites]
            electric = 0.0
            for link, (frm, to) in enumerate(endpoints):
                h = (t_now[frm] + slices[nu][link] - t_now[to] - slices[nu + 1][link]) % n
                electric = electric + retrace[h]
            # slice nu's action on its own axes: only the sum over slices is block-sized
            action = action + (coeff_s * _plaquette_action(lat, retrace, slices[nu])
                               + coeff_t * electric)
        values, counts = np.unique(action, return_counts=True)  # cos, sin once per value
        chunks.append(complex(np.sum(counts * np.cos(values)), -np.sum(counts * np.sin(values))))
    rhs = complex(fsum_complex(chunks)) / _wilson_terms(lat, group, tau)
    return lhs, rhs, abs(lhs - rhs)
