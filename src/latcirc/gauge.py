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
variables, each factor on its own few axes, and takes each block's phases
e^{-iS} as the sums of cos S and sin S (numpy's real cos and sin run on SIMD
loops, its complex exp does not). For finite N
the path-integral equality is an exact algebraic identity and is checked here
by brute force. Note that W_el is *not* unitary in general: its per-link
eigenvalues are Fourier coefficients of exp(-i beta cos), which have unit
modulus only for N = 1; ``unitarity_report`` measures this instead of
assuming it, and the equivalence identity does not depend on it.

A gauge transform D(Omega) rolls the link index tensor along each shifted link
axis. The Gauss projector only ever meets one basis ket |u>, so it is that ket's
orbit average P_G|u> = N^-sites sum_Omega D(Omega)|u>: a histogram of N^sites images.

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

from .errors import DENSE_CAP, STATE_CAP, OddLattice, _require_int, require
from .quadrature import fsum_complex
from .statevector import _apply_site_kernel, _circulant, _config_index, _path_blocks

__all__ = [
    "GaugeGroupZN",
    "GaugeLattice",
    "GaugeOperator",
    "build_wmag",
    "build_wel",
    "wel_link_matrix",
    "plaquette_coloring",
    "gauge_transform",
    "gauss_commutator_max",
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

    def link_endpoints(self, link: int) -> tuple[int, int]:
        """(from_site, to_site) of a link."""
        site, direction = divmod(link, 2)
        x, y = divmod(site, self.Ly)
        return site, self.site(x + 1, y) if direction == 0 else self.site(x, y + 1)

    def plaquettes(self) -> list[tuple[int, int, int, int]]:
        """Per site (x, y): links traversed as +x, +y(x+1), -x(y+1), -y.

        Holonomy of config u is u[l0] + u[l1] - u[l2] - u[l3] mod N.
        """
        out = []
        for x in range(self.Lx):
            for y in range(self.Ly):
                out.append(
                    (
                        self.link(x, y, 0),
                        self.link(x + 1, y, 1),
                        self.link(x, y + 1, 0),
                        self.link(x, y, 1),
                    )
                )
        return out


_MAX_AXES = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32  # NPY_MAXDIMS


def _state_dim(lat: GaugeLattice, group: GaugeGroupZN) -> int:
    require(lat.n_links, _MAX_AXES, "link tensor axes")
    return require(group.N**lat.n_links, STATE_CAP, "link configuration space dimension")


def config_index(lat: GaugeLattice, group: GaugeGroupZN, config) -> int:
    """Row-major index of n_links link values in [0, N) (``statevector._config_index``)."""
    return _config_index(config, group.N, lat.n_links, f"{lat.n_links} link values")


@dataclass
class GaugeOperator:
    """Operator on the link configuration space in one of three shapes:

    diagonal phases (W_mag), an index permutation (D(Omega)), or a product of
    one per-link factor (W_el). ``apply`` works matrix-free in all three shapes;
    ``dense()`` applies it to each basis ket of a small operator.
    """

    dim: int
    diag: np.ndarray | None = None
    perm: np.ndarray | None = None
    link_matrix: np.ndarray | None = None  # per-link factor of a product operator
    lat: GaugeLattice | None = None

    def apply(self, vec: np.ndarray) -> np.ndarray:
        if self.diag is not None:
            return self.diag * vec
        if self.perm is not None:
            out = np.empty_like(vec)
            out[self.perm] = vec
            return out
        return _apply_site_kernel(self.link_matrix, vec, self.lat.n_links)

    def dense(self) -> np.ndarray:
        """The matrix of ``apply``: row i of one identity becomes the image of basis ket i."""
        require(self.dim, DENSE_CAP, "dense gauge operator dimension")
        mat = np.eye(self.dim, dtype=complex)
        for row in mat:
            row[:] = self.apply(row)
        return mat.T


def _plaquette_action(lat: GaugeLattice, group: GaugeGroupZN, links) -> np.ndarray:
    """sum_p cos(2 pi h_p/N) for per-link indexable ``links`` (broadcastable index arrays)."""
    retrace = group.retrace(np.arange(group.N))
    total = 0.0
    for l0, l1, l2, l3 in lat.plaquettes():
        total = total + retrace[(links[l0] + links[l1] - links[l2] - links[l3]) % group.N]
    return total


def _couplings(g: float, kappa: float) -> tuple[float, float]:
    """(2 kappa/g^2, 2/(kappa g^2)): the spatial and temporal plaquette coefficients, checked
    finite and positive by dividing by g twice, before g**2 can overflow or round to 0."""
    if not (g > 0 and kappa > 0 and 0 < 2.0 * kappa / g / g < math.inf
            and 0 < 2.0 / kappa / g / g < math.inf):  # NaN fails too
        raise ValueError(f"g, kappa and both coefficients must be finite and positive, "
                         f"got g={g}, kappa={kappa}")
    return 2.0 * kappa / g**2, 2.0 / (kappa * g**2)


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
    action = _plaquette_action(lat, group, np.ix_(*[np.arange(group.N)] * lat.n_links))
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
    return GaugeOperator(_state_dim(lat, group), link_matrix=link_matrix, lat=lat)


def apply_transfer(
    lat: GaugeLattice, group: GaugeGroupZN, g: float, kappa: float, vec: np.ndarray
) -> np.ndarray:
    """One application of T = W_el W_mag, matrix-free."""
    return build_wel(lat, group, g, kappa).apply(build_wmag(lat, group, g, kappa).apply(vec))


def plaquette_coloring(lat: GaugeLattice) -> tuple[list[int], list[int]]:
    """Chessboard split of plaquette indices into two link-disjoint layers."""
    if lat.Lx % 2 or lat.Ly % 2:
        raise OddLattice("chessboard coloring needs even Lx and Ly")
    layers: tuple[list[int], list[int]] = ([], [])
    for idx in range(lat.n_sites):
        x, y = divmod(idx, lat.Ly)
        layers[(x + y) % 2].append(idx)
    return layers


def _roll_links(lat: GaugeLattice, tensor: np.ndarray, omega, n: int) -> np.ndarray:
    """``tensor`` (one axis per link) rolled by omega_{x+e} - omega_x along each link axis."""
    ends = np.array([lat.link_endpoints(link) for link in range(lat.n_links)])
    shifts = omega[ends[:, 1]] - omega[ends[:, 0]]
    # one axis per roll: a multi-axis np.roll copies 2^(shifted axes) separate blocks
    for axis in np.flatnonzero(shifts % n):
        tensor = np.roll(tensor, shifts[axis], axis=axis)
    return tensor


def gauge_transform(lat: GaugeLattice, group: GaugeGroupZN, omega) -> GaugeOperator:
    """Permutation operator D(Omega): u_{x,e} -> omega_x + u_{x,e} - omega_{x+e}.

    ``perm[i]`` is the index of configuration i's image: the index tensor rolled by
    omega_{x+e} - omega_x on each link axis.
    """
    omega = np.asarray(omega, dtype=int)
    if omega.shape != (lat.n_sites,):
        raise ValueError(f"omega must assign one group element per site ({lat.n_sites})")
    dim = _state_dim(lat, group)
    index = np.arange(dim).reshape((group.N,) * lat.n_links)
    return GaugeOperator(dim, perm=_roll_links(lat, index, omega, group.N).ravel())


def _gauss_orbit_average(lat: GaugeLattice, group: GaugeGroupZN, config) -> np.ndarray:
    """P_G|config> = N^-sites sum_Omega D(Omega)|config>, one image per site assignment."""
    ends = np.array([lat.link_endpoints(link) for link in range(lat.n_links)])
    omegas = np.indices((group.N,) * lat.n_sites).reshape(lat.n_sites, -1)
    images = (config[:, None] + omegas[ends[:, 0]] - omegas[ends[:, 1]]) % group.N
    index = group.N ** np.arange(lat.n_links - 1, -1, -1) @ images  # row-major ravel
    return np.bincount(index, minlength=_state_dim(lat, group)) / len(index)


def gauss_commutator_max(
    lat: GaugeLattice, group: GaugeGroupZN, g: float, kappa: float = 1.0
) -> float:
    """Deviation of T = W_el W_mag from commuting with each D(e_x): the largest change of
    W_mag under a generator, or of the per-link W_el factor from a circulant (0 up to rounding)."""
    wmag = build_wmag(lat, group, g, kappa).diag.reshape((group.N,) * lat.n_links)
    comm = max(float(np.max(np.abs(_roll_links(lat, wmag, -site, group.N) - wmag)))
               for site in np.eye(lat.n_sites, dtype=int))
    w = wel_link_matrix(group, g, kappa)
    rows, cols = np.indices(w.shape)
    return max(comm, float(np.max(np.abs(w - w[(rows - cols) % group.N, 0]))))


def unitarity_report(
    lat: GaugeLattice, group: GaugeGroupZN, g: float, kappa: float = 1.0
) -> float:
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

    n_temporal_vars = lat.n_sites * tau
    n_vars = lat.n_links * (tau - 1) + n_temporal_vars
    blocks = _path_blocks(n, u_i, u_f, tau, n_temporal_vars, chunk=1 << 16)  # BruteForceCap first

    # left side: the projected ket, then T = W_el W_mag applied tau times
    wmag, wel = build_wmag(lat, group, g, kappa), build_wel(lat, group, g, kappa)
    psi = _gauss_orbit_average(lat, group, np.asarray(u_i, dtype=int))
    for _ in range(tau):
        psi = wel.apply(wmag.apply(psi))
    lhs = complex(psi[end]) * n**lat.n_links

    # right side: chunked enumeration of all summed link variables
    endpoints = [lat.link_endpoints(link) for link in range(lat.n_links)]
    retrace = group.retrace(np.arange(n))
    chunks = []
    for slices, temporal in blocks:
        action = 0.0
        for nu in range(tau):
            action = action + coeff_s * _plaquette_action(lat, group, slices[nu])
            t_now = temporal[nu * lat.n_sites : (nu + 1) * lat.n_sites]
            for link, (frm, to) in enumerate(endpoints):
                h = (t_now[frm] + slices[nu][link] - t_now[to] - slices[nu + 1][link]) % n
                action = action + coeff_t * retrace[h]
        chunks.append(complex(np.sum(np.cos(action)), -np.sum(np.sin(action))))
    rhs = complex(fsum_complex(chunks)) / n**n_vars
    return lhs, rhs, abs(lhs - rhs)
