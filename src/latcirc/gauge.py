"""Z_N lattice gauge theory in d=2: transfer operator vs. Wilson path integral.

The gauge group is the cyclic group Z_N embedded as k -> exp(2 pi i k/N), so
Re tr[U_k] = cos(2 pi k/N) and the Haar integral is the exact uniform average
(1/N) sum_k. Link states are the orthonormal kets |u>, u = 0..N-1; the
transfer operator is T = W_el W_mag with

    W_mag = diag exp(-i (2 kappa/g^2) sum_{spatial plaquettes} cos(2 pi h/N))
    W_el  = prod_links (1/N) sum_v exp(-i (2/(kappa g^2)) cos(2 pi v/N)) L(v)

where L(v)|u> = |u - v mod N> and h is the plaquette holonomy. Every holonomy,
spatial or temporal, is formed by one rule (``_plaquette_action``) and its cos(2 pi h/N)
read from an N-entry table: summed on the open link grid, W_mag's diagonal, built anew
for each full transfer; on blocks of the open grid of the Wilson sum's summed variables,
each time slice's action on that slice's own few axes, so only the sum over slices runs
at block size. A Z_N block's actions take few distinct values, so its phases e^{-iS}
are tallied: cos S and sin S once per value, times the value's count. For finite N
the path-integral equality is an exact algebraic identity and is checked here
by brute force. Note that W_el is *not* unitary in general: its per-link
eigenvalues are Fourier coefficients of exp(-i beta cos), which have unit
modulus only for N = 1; ``unitarity_report`` measures this instead of
assuming it, and the equivalence identity does not depend on it.

A gauge transform D(Omega) is a layer of single-link cyclic shifts, u_{x,e} -> u_{x,e} +
omega_x - omega_{x+e}. T commutes with each, so the equivalence check reads the Gauss projector
P_G = N^-sites sum_Omega D(Omega) at the bra, as a mean over the N^sites images of u_f. Each
image's read at tau = 1 is one element of T, W_mag at u_i times one W_el entry per link; at
tau >= 2 the check starts from T|u_i>, that phase times the product state of W_el's columns.

The configuration space shares the state-vector cap ``errors.STATE_CAP``; it and the Wilson
sum's PATH_TERM_CAP are checked before the left side is built.

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
from .statevector import _apply_site_kernels, _circulant, _path_blocks, _read_config

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


def _plaquette_action(plaquettes, retrace: np.ndarray, values) -> np.ndarray:
    """sum_p cos(2 pi h_p/N) over index 4-tuples p of ``values`` (ints or broadcastable index
    arrays), h_p = v0 + v1 - v2 - v3 read from the N-entry table ``retrace``: the spatial
    plaquettes of ``lat.plaquettes()`` on link values, or the Wilson sum's temporal ones."""
    total = 0.0
    for i0, i1, i2, i3 in plaquettes:
        total = total + retrace[(values[i0] + values[i1] - values[i2] - values[i3]) % len(retrace)]
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


def _wmag_diag(lat: GaugeLattice, group: GaugeGroupZN, coeff_s: float) -> np.ndarray:
    """W_mag's diagonal: the plaquette action on the open link grid, built on each call."""
    grid = np.ix_(*[np.arange(group.N)] * lat.n_links)
    action = _plaquette_action(lat.plaquettes(), group.retrace(np.arange(group.N)), grid)
    return np.exp(-1j * coeff_s * action).ravel()


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
    u_i, u_f = (_read_config(end, n, lat.n_links, f"{lat.n_links} link values")
                for end in (u_i, u_f))  # both refused before any work; ints, so no sum wraps
    terms = _wilson_terms(lat, group, tau)  # axes, states, terms: all before any state

    # left side: P_G commutes with T, so it is read at the bra, as the mean of T^tau|u_i> over
    # the N^sites images of u_f; T|u_i> is W_mag at u_i times W_el's columns at u_i's links
    sites, links, plaquettes = lat.n_sites, lat.n_links, lat.plaquettes()
    retrace, wel = group.retrace(np.arange(n)), wel_link_matrix(group, g, kappa)
    at_u = np.exp(-1j * coeff_s * _plaquette_action(plaquettes, retrace, u_i))  # W_mag at u_i
    omegas = np.indices((n,) * sites).reshape(sites, -1)  # one column per Omega
    shifts = omegas[lat.endpoints[:, 0]] - omegas[lat.endpoints[:, 1]]
    images = (np.array(u_f)[:, None] + shifts) % n  # link values, one column per image
    if tau == 1:  # one element of T per image: W_mag at u_i times W_el's entries per link
        reads = at_u * np.prod(wel[images, np.array(u_i)[:, None]], axis=0)
    else:
        psi = _apply_site_kernels([wel[:, [u]] for u in u_i], np.atleast_1d(at_u))
        for _ in range(tau - 1):
            psi = apply_transfer(lat, group, g, kappa, psi)
        reads = psi[n ** np.arange(links - 1, -1, -1) @ images]
    # N^links times the mean of the N^sites reads is N^(links - sites) times their sum
    lhs = fsum_complex(reads) * n ** (links - sites)

    # right side: chunked enumeration of all summed link variables; temporal plaquette
    # (x, x + e) at slice nu reads t_nu[x] + u_nu[x, e] - t_nu[x + e] - u_nu+1[x, e]
    temporal_plaquettes = [(frm, sites + link, to, sites + links + link)
                           for link, (frm, to) in enumerate(lat.endpoints.tolist())]
    chunks = []
    for slices, temporal in _path_blocks(n, u_i, u_f, tau, sites * tau, chunk=_BLOCK_TERMS):
        action = 0.0
        for nu in range(tau):
            at_nu = [*temporal[nu * sites : (nu + 1) * sites], *slices[nu], *slices[nu + 1]]
            electric = _plaquette_action(temporal_plaquettes, retrace, at_nu)
            # slice nu's action on its own axes: only the sum over slices is block-sized
            action = action + (coeff_s * _plaquette_action(plaquettes, retrace, slices[nu])
                               + coeff_t * electric)
        values, counts = np.unique(action, return_counts=True)  # cos, sin once per value
        chunks.append(complex(np.sum(counts * np.cos(values)), -np.sum(counts * np.sin(values))))
    rhs = complex(fsum_complex(chunks)) / terms
    return lhs, rhs, abs(lhs - rhs)
