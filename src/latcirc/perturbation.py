"""Discrete Feynman-rules evaluator over a closed diagram catalog.

The catalog holds exactly the three diagrams needed at one loop: the tree
2->2 vertex, the tadpole mass correction and the s-channel bubble. Symmetry
factors are hard-coded per entry (1 for the tree, 1/2 for tadpole and bubble);
vacuum bubbles and external-leg loops are excluded by construction.

One-loop mass corrections are evaluated for three regulators in D = 2:

* ``ContinuumCutoff``: (lambda/(8 pi)) * integral_{-L}^{L} dp / sqrt(p^2+m^2)
* ``ShiftPlain``:      (lambda/4) * integral dp/(2 pi) a / sqrt(1 - M^2 cos^2(pa))
* ``ShiftSmeared``:    the same with vertex form factors on all four legs

The plain Shift integral equals (lambda/(2 pi)) K(M) with K the complete
elliptic integral of the first kind, which gives the slope-doubling pathology
its clean closed form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BYTE_BUDGET, DomainError, IllConditionedFit, UnknownDiagram, require
from .kinematics import LatticeParams, _fold_to_zone, smear_form_factor
from .propagator import PropagatorQuery, feynman_momentum
from .quadrature import fsum_complex, fsum_real, gauss_legendre_panels, midpoint_nodes, refined

__all__ = [
    "DiagramSpec",
    "vertex_factor",
    "evaluate_diagram",
    "one_loop_mass",
    "elliptic_K",
    "log_slope",
    "REGULATORS",
]

REGULATORS = ("ContinuumCutoff", "ShiftPlain", "ShiftSmeared")
_INCOMING = {"Tree2to2": 2, "TadpoleMass": 1, "BubbleSChannel": 2}  # kind -> incoming momenta
_ROWS = 32  # q0 rows summed per chunk by numpy; fsum adds the chunk totals
_CONV_RTOL = 1e-9  # largest relative change of Pi when one_loop_mass refines its nodes


@dataclass(frozen=True)
class DiagramSpec:
    """One catalog entry: diagram kind, smearing flag and external momenta.

    ``incoming`` lists D-momenta as (p0, p1, ..., pd) tuples; outgoing momenta
    equal the incoming ones (forward kinematics), which conserves total
    energy-momentum trivially. ``epsilon`` is the dimensionless denominator
    regulator of the propagators; ``resolution`` the trapezoid nodes per axis.
    """

    kind: str
    incoming: tuple = field(default_factory=tuple)
    smeared: bool = False
    resolution: int = 1024
    epsilon: float = 0.05

    def __post_init__(self):
        if self.kind not in _INCOMING:
            raise UnknownDiagram(f"kind must be one of {tuple(_INCOMING)}, got {self.kind!r}")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        object.__setattr__(
            self, "incoming", tuple(tuple(float(c) for c in p) for p in self.incoming)
        )


def vertex_factor(params: LatticeParams, line_momenta, smeared: bool = False) -> complex:
    """Vertex value for four joined lines with D-momenta (p0, p1, ..., pd).

    Plain: the constant -i*lambda. Smeared: -i*lambda times one form factor
    per line, evaluated on the spatial components.
    """
    lines = np.asarray(list(line_momenta), dtype=float)
    if len(lines) != 4:
        raise ValueError("a quartic vertex joins exactly four lines")
    value = -1j * params.lam
    if smeared:
        value *= float(np.prod(smear_form_factor(params, lines[:, 1:])))
    return value


def elliptic_K(x: float) -> float:
    """Complete elliptic integral of the first kind via the AGM iteration.

    K(x) = integral_0^{pi/2} dt / sqrt(1 - x^2 sin^2 t) = pi / (2 agm(1, x')),
    x' = sqrt(1 - x^2). Converges quadratically; iterated to 1e-14.
    """
    if not 0.0 <= x < 1.0:
        raise DomainError(f"elliptic_K requires 0 <= x < 1, got {x}")
    a, b = 1.0, math.sqrt(1.0 - x * x)
    for _ in range(64):  # quadratic convergence; stops at the roundoff plateau
        if abs(a - b) <= 1e-15 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _require_two_dimensional(params: LatticeParams):
    if params.d != 1:
        raise ValueError("one-loop corrections are computed in D = 2 (d = 1)")
    if params.m <= 0:
        raise ValueError("one-loop corrections require m > 0")


@functools.lru_cache(maxsize=8)
def _shift_grid(n: int, smeared: bool):
    """The M-independent parts of the Shift integrand on n zone nodes, read-only."""
    cos = np.cos(midpoint_nodes(n, math.pi))
    cos2 = cos**2
    cos2.flags.writeable = False
    if not smeared:
        return 1.0, cos2
    weight = (1.0 + cos) ** 2
    weight.flags.writeable = False
    return weight, cos2


def _shift_loop_integral(params: LatticeParams, n: int, smeared: bool) -> float:
    """Zone integral of 1/sqrt(1 - M^2 cos^2), optionally weighted by (1+cos)^2."""
    weight, cos2 = _shift_grid(n, smeared)
    vals = weight / np.sqrt(1.0 - params.M**2 * cos2)
    return fsum_real(vals) / n


def one_loop_mass(regulator: str, params: LatticeParams, p_in: float = 0.0,
                  resolution: int = 8192, cutoff: float | None = None) -> float:
    """Real one-loop mass correction Pi for the chosen regulator (D = 2), refined once."""
    _require_two_dimensional(params)
    if not math.isfinite(p_in):
        raise ValueError(f"p_in must be finite, got {p_in}")
    lam, m, a = params.lam, params.m, params.a

    if regulator == "ContinuumCutoff":
        n, fine_n = resolution // 256 + 16, resolution // 128 + 32  # not always 2 n
        # leggauss diagonalizes an n x n companion matrix and holds one copy of it
        require(2 * 8 * fine_n**2, BYTE_BUDGET, f"bytes for {fine_n} Gauss-Legendre nodes")
        lim = math.pi / a if cutoff is None else cutoff

        def correction(n):
            panels = [0.0, min(m, lim)]
            while panels[-1] < lim:
                panels.append(min(2.0 * panels[-1], lim))
            return lam / (8.0 * math.pi) * (2.0 * gauss_legendre_panels(
                lambda p: 1.0 / np.sqrt(p * p + m * m), 0.0, lim, n, panels))
    elif regulator in ("ShiftPlain", "ShiftSmeared"):
        # 1/sqrt(1 - M^2 cos^2) is real only for |M| < 1; an M that overflows stays a
        # non-finite result, refused where it is written
        if math.isfinite(params.M) and params.M <= -1.0:
            raise ValueError(f"the Shift regulators need |M| < 1, i.e. m a < 2, got m a = {m * a}")
        n, fine_n = resolution, 2 * resolution
        # the fine grid: the cached cos^2 and weights of both grids and the
        # integrand's temporaries make about eight arrays of it
        require(8 * 8 * fine_n, BYTE_BUDGET, f"bytes for the Shift zone grid of {fine_n} nodes")
        smeared = regulator == "ShiftSmeared"
        prefactor = lam / 4.0
        if smeared:
            prefactor *= (1.0 + math.cos(p_in * a)) ** 2 / 16.0

        def correction(n):
            return prefactor * _shift_loop_integral(params, n, smeared)
    else:
        raise ValueError(f"regulator must be one of {REGULATORS}, got {regulator!r}")
    return refined(correction, n, _CONV_RTOL, regulator, fine_n)


def evaluate_diagram(spec: DiagramSpec, params: LatticeParams) -> complex:
    """Value of one catalog diagram under the discrete Feynman rules.

    Tree2to2 is the bare vertex -i*lambda (times form factors when smeared).
    TadpoleMass and BubbleSChannel integrate over the undetermined loop
    momentum with the zone measure d^D q / (2 pi)^D on a trapezoid grid.
    """
    lam, n_in = params.lam, _INCOMING[spec.kind]
    if len(spec.incoming) != n_in:
        raise ValueError(f"{spec.kind} takes {n_in} incoming momentum(s)")
    if spec.kind == "Tree2to2":
        return vertex_factor(params, _external_legs(spec), spec.smeared)

    _require_two_dimensional(params)
    n, eps = spec.resolution, spec.epsilon
    q0 = midpoint_nodes(n, math.pi / params.dt)[:, None]  # one row per loop energy
    q1 = midpoint_nodes(n, math.pi / params.a)[:, None]  # n one-component momenta
    measure = 1.0 / (n * params.dt) / (n * params.a)

    def form(p):
        return smear_form_factor(params, p) if spec.smeared else 1.0

    external = float(np.prod(form(np.asarray(_external_legs(spec))[:, 1:])))
    if spec.kind == "TadpoleMass":
        factor = -1j * lam / 2.0 * external
        weight = form(q1) ** 2

        def chunk(rows):
            return feynman_momentum(PropagatorQuery(params, q0[rows], q1, eps)) * weight

    else:  # BubbleSChannel
        factor = (-1j * lam) ** 2 / 2.0 * external
        back0 = _fold_to_zone(spec.incoming[0][0] + spec.incoming[1][0] - q0, params.dt)
        back1 = _fold_to_zone(spec.incoming[0][1] + spec.incoming[1][1] - q1, params.a)
        weight = (form(q1) * form(back1)) ** 2

        def chunk(rows):
            fwd = feynman_momentum(PropagatorQuery(params, q0[rows], q1, eps))
            back = feynman_momentum(PropagatorQuery(params, back0[rows], back1, eps))
            return fwd * back * weight

    # numpy's pairwise sum within a fixed chunk of rows, fsum over the chunk
    # totals: deterministic, and memory bounded by _ROWS * n
    totals = [np.sum(chunk(slice(start, start + _ROWS))) for start in range(0, n, _ROWS)]
    return factor * fsum_complex(totals) * measure


def _external_legs(spec: DiagramSpec):
    # outgoing momenta equal incoming: four legs for 2->2, two for the tadpole
    return list(spec.incoming) + list(spec.incoming)


def log_slope(series) -> float:
    """Least-squares slope of Pi against ln(1/a) for a list of (a, Pi) pairs."""
    pts = [(float(a), float(pi)) for a, pi in series]
    if len(pts) < 4:
        raise ValueError("need at least 4 points")
    spacings = [a for a, _ in pts]
    if len(set(spacings)) != len(spacings):
        raise ValueError("lattice spacings must be distinct")
    xs = np.log([1.0 / a for a in spacings])
    if xs.max() - xs.min() < math.log(10.0):
        raise IllConditionedFit("ln(1/a) must span at least one decade")
    return float(np.polyfit(xs, [pi for _, pi in pts], 1)[0])
