"""Closed-form lattice kinematics shared by every other module.

All functions here are pure and total over validated inputs: parameter
validation happens once, at :class:`LatticeParams` construction, and momenta
are checked against the Brillouin zone by the operations that consume them.

Momenta are arrays of shape (..., d): the last axis holds the components and
the leading axes index points, so one call evaluates a whole grid. A bare
scalar counts as one d=1 momentum. Each function checks the zone once per
array and returns values of shape (...), a plain float for a single momentum.
Conventions: the zone is the half-open box (-pi/a, pi/a]^d (the edge +pi/a is
included, -pi/a excluded), and arccos is taken on the principal branch [0, pi]
so the one-step phase theta is positive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import _require_int, _require_real

__all__ = [
    "LatticeParams",
    "momentum_grid",
    "validate_momentum",
    "cosine_symbol",
    "dispersion_theta",
    "omega",
    "reference_energies",
    "smear_form_factor",
]


@dataclass(frozen=True)
class LatticeParams:
    """Spacetime discretization and couplings.

    Parameters
    ----------
    a : float
        Spatial lattice spacing (length).
    dt : float, optional
        Timestep. Defaults to ``a`` (the delta-t = a operating point).
    d : int
        Spatial dimension; the spacetime dimension is D = d + 1.
    m : float
        Bare mass, >= 0.
    lam : float
        Quartic coupling, >= 0.

    The mass parameter M = 1 - m^2 a^2 / 2 and the anisotropy kappa = dt/a
    are always recomputed from the stored fields, never stored independently.
    """

    a: float
    dt: float | None = None
    d: int = 1
    m: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if self.dt is None:
            object.__setattr__(self, "dt", self.a)
        _require_real(self.a, "a")
        _require_real(self.dt, "dt")
        _require_real(self.m, "m", "nonnegative")
        _require_real(self.lam, "lambda", "nonnegative")
        object.__setattr__(self, "d", _require_int(self.d, 1, "spatial dimension d"))

    @property
    def M(self) -> float:
        return 1.0 - 0.5 * (self.m * self.a) * (self.m * self.a)  # no m^2 a^2 over/underflow

    @property
    def kappa(self) -> float:
        return self.dt / self.a


def _require_zone(x: np.ndarray, spacing: float, what: str) -> None:
    """Raise ValueError unless every entry of ``x`` lies in (-pi/spacing, pi/spacing]."""
    edge = math.pi / spacing
    if x.size and not (x.min() > -edge and x.max() <= edge):  # NaN fails too
        raise ValueError(f"{what} = (-{edge:g}, {edge:g}]")


def validate_momentum(params: LatticeParams, p) -> np.ndarray:
    """Return ``p`` as a float array of shape (..., d) (a scalar gives (1,)), checked in the zone."""
    arr = np.asarray(p, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.shape[-1] != params.d:
        raise ValueError(f"momentum must have {params.d} component(s), got shape {arr.shape}")
    _require_zone(arr, params.a, "momentum components must lie in (-pi/a, pi/a]")
    return arr


def _unwrap(x):
    """A plain Python number for a single point, else the array itself."""
    return x.item() if np.ndim(x) == 0 else x


def _fold_to_zone(p: np.ndarray, a: float) -> np.ndarray:
    """Map momenta into (-pi/a, pi/a] by 2*pi/a shifts; roundoff above pi/a lands on it."""
    period, edge = 2.0 * math.pi / a, math.pi / a
    folded = np.mod(p, period)
    return np.where(folded > edge + 1e-15 * period, folded - period, np.minimum(folded, edge))


def momentum_grid(params: LatticeParams, L: int) -> np.ndarray:
    """The L^d momenta p_k = 2*pi*k/(L*a) folded into the Brillouin zone.

    The points have shape (L**d, d) and are sorted lexicographically, which
    makes every consumer of the grid deterministic.
    """
    L = _require_int(L, 1, "L")
    line = _fold_to_zone(2.0 * math.pi * np.arange(L) / (L * params.a), params.a)
    axes = np.meshgrid(*[np.sort(line)] * params.d, indexing="ij")
    return np.stack([x.ravel() for x in axes], axis=-1)


def cosine_symbol(params: LatticeParams, p):
    """c(p) = M * prod_i cos(p_i a); even in every momentum component."""
    arr = validate_momentum(params, p)
    return _unwrap(_symbol(params, (arr[..., i] for i in range(params.d))))


def _symbol(params: LatticeParams, axes):
    """c from each axis' momenta, in axis order: a point array's columns or np.ix_ grid lines."""
    return params.M * math.prod(np.cos(x * params.a) for x in axes)


def _nondegenerate(c):
    worst = np.abs(c).max()
    if worst >= 1.0:
        raise ValueError(f"|c(p)| = {worst} >= 1; real theta requires m > 0 and m a < 2")
    return c


def dispersion_theta(params: LatticeParams, p):
    """One-step phase theta(p) = arccos(c(p)) / dt, in (0, pi/dt).

    Raises
    ------
    ValueError
        If any |c(p)| >= 1, which happens at m = 0 and at m a >= 2 (|M| >= 1).
    """
    return _unwrap(np.arccos(_nondegenerate(cosine_symbol(params, p))) / params.dt)


def omega(params: LatticeParams, p):
    """Equal-time energy factor omega(p) = sin(theta dt)/dt = sqrt(1-c^2)/dt."""
    c = _nondegenerate(cosine_symbol(params, p))
    return _unwrap(np.sqrt(1.0 - c * c) / params.dt)


def reference_energies(params: LatticeParams, p) -> tuple:
    """Continuum and lattice-Hamiltonian dispersions (E, E_latt).

    E = sqrt(|p|^2 + m^2); E_latt = sqrt(m^2 + sum_i 4 sin^2(p_i a/2)/a^2).
    """
    arr = validate_momentum(params, p)
    lattice = 2.0 * np.sin(arr * params.a / 2.0) / params.a  # hypots: no square overflows
    return tuple(_unwrap(np.hypot(np.hypot.reduce(k, axis=-1), params.m)) for k in (arr, lattice))


def smear_form_factor(params: LatticeParams, p):
    """Vertex form factor prod_i (1 + cos(p_i a))/2, in [0, 1] on the zone."""
    arr = validate_momentum(params, p)
    return _unwrap(((1.0 + np.cos(arr * params.a)) / 2.0).prod(axis=-1))
