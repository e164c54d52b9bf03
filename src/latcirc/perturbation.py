"""Discrete Feynman-rules evaluator over a closed diagram catalog.

The catalog holds exactly the three diagrams needed at one loop: the tree
2->2 vertex (``evaluate_diagram`` of a "Tree2to2" spec), the tadpole mass
correction and the s-channel bubble. Symmetry factors are hard-coded per entry
(1 for the tree, 1/2 for tadpole and bubble); vacuum bubbles and external-leg
loops are excluded by construction.

One-loop mass corrections are evaluated for three regulators in D = 2:

* ``ContinuumCutoff``: (lambda/(8 pi)) * integral_{-L}^{L} dp / sqrt(p^2+m^2)
                       = (lambda/(4 pi)) * asinh(L/m), in closed form at L = pi/a
* ``ShiftPlain``:      (lambda/4) * integral dp/(2 pi) a / sqrt(1 - M^2 cos^2(pa))
                       = (lambda/(2 pi)) K(M)
* ``ShiftSmeared``:    the same with vertex form factors on all four legs
                       = (lambda/4) ((1 + cos p_in a)^2/16) (2/pi) [K(M) + D(M)]

K is the complete elliptic integral of the first kind, E of the second and
D = (K - E)/M^2; the smeared weight (1 + cos)^2 = 1 + 2 cos + cos^2 gives K, zero
and D. Both come from one AGM pass (Abramowitz & Stegun 17.5-17.6), which gives
the slope-doubling pathology its clean closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BYTE_BUDGET, _require_int, _require_real, require
from .kinematics import LatticeParams, _fold_to_zone, smear_form_factor
from .propagator import feynman_momentum
from .quadrature import folded_nodes, fsum_complex, midpoint_nodes

__all__ = [
    "DiagramSpec",
    "evaluate_diagram",
    "one_loop_mass",
    "elliptic_K",
    "log_slope",
    "REGULATORS",
]

REGULATORS = ("ContinuumCutoff", "ShiftPlain", "ShiftSmeared")
_INCOMING = {"Tree2to2": 2, "TadpoleMass": 1, "BubbleSChannel": 2}  # kind -> incoming momenta
_ROWS = 32  # q0 rows summed per chunk by numpy; fsum adds the chunk totals


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
            raise ValueError(f"kind must be one of {tuple(_INCOMING)}, got {self.kind!r}")
        _require_real(self.epsilon, "epsilon")
        object.__setattr__(self, "resolution", _require_int(self.resolution, 1, "resolution"))
        object.__setattr__(self, "incoming", tuple(
            tuple(float(_require_real(c, "incoming momentum component", "")) for c in p)
            for p in self.incoming))


def _elliptic_KD(k2: float, kc: float) -> tuple[float, float]:
    """K and D = (K - E)/k^2 of modulus k = sqrt(k2), from one AGM pass of (1, kc), kc the
    complementary modulus sqrt(1 - k^2) (A&S 17.6).

    K = pi / (2 agm(1, kc)) and K - E = K sum_n 2^(n-1) c_n^2 with c_0^2 = k2 and
    c_(n+1) = c_n^2 / (4 a_(n+1)), so c_1 = k2 / (2 (1 + kc)) and every term of D is
    formed from k2 and kc without cancellation; D(0) = pi/4.
    """
    a, b = 1.0, kc
    c2, term, weight, total = k2, 1.0, 0.5, 0.5  # c_n^2, c_n^2 / k2, 2^(n-1), the sum
    for _ in range(64):  # quadratic convergence; stops at the roundoff plateau
        if abs(a - b) <= 1e-15 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        ratio = c2 / (16.0 * a * a)
        c2, term, weight = c2 * ratio, term * ratio, 2.0 * weight
        total += weight * term
    k = math.pi / (2.0 * a)
    return k, k * total


def elliptic_K(x: float) -> float:
    """Complete elliptic integral of the first kind via the AGM iteration.

    K(x) = integral_0^{pi/2} dt / sqrt(1 - x^2 sin^2 t) = pi / (2 agm(1, x')),
    x' = sqrt(1 - x^2). Converges quadratically; iterated to 1e-14.
    """
    if not 0.0 <= x < 1.0:
        raise ValueError(f"elliptic_K requires 0 <= x < 1, got {x}")
    return _elliptic_KD(x * x, math.sqrt(1.0 - x * x))[0]


def _require_two_dimensional(params: LatticeParams):
    if params.d != 1:
        raise ValueError("one-loop corrections are computed in D = 2 (d = 1)")
    _require_real(params.m, "m of a one-loop correction")


def one_loop_mass(regulator: str, params: LatticeParams, p_in: float = 0.0) -> float:
    """Real one-loop mass correction Pi for the chosen regulator (D = 2), in closed form.

    ``ContinuumCutoff`` is (lambda/(4 pi)) asinh(L/m) at the zone edge L = pi/a. The Shift
    regulators are K and D of modulus M = 1 - (m a)^2/2, with the complementary modulus
    taken from m a, sqrt(1 - M^2) = m a sqrt(1 - (m a)^2/4), so a tiny m a keeps it.
    """
    _require_two_dimensional(params)
    _require_real(p_in, "p_in", "")
    lam, m, a = params.lam, params.m, params.a
    if regulator == "ContinuumCutoff":
        return lam / (4.0 * math.pi) * math.asinh(math.pi / a / m)
    if regulator not in ("ShiftPlain", "ShiftSmeared"):
        raise ValueError(f"regulator must be one of {REGULATORS}, got {regulator!r}")
    ma, big_m = m * a, params.M
    # an m a that underflows to 0 (K diverges) or overflows when squared has no finite
    # moduli: the result is non-finite, refused where it is written
    if ma == 0.0 or not math.isfinite(big_m):
        return math.nan
    # 1/sqrt(1 - M^2 cos^2) is real only for |M| < 1
    if big_m <= -1.0:
        raise ValueError(f"the Shift regulators need |M| < 1, i.e. m a < 2, got m a = {ma}")
    k, d = _elliptic_KD(big_m * big_m, ma * math.sqrt(1.0 - 0.25 * ma * ma))
    if regulator == "ShiftPlain":
        return lam / (2.0 * math.pi) * k
    return lam / 4.0 * (1.0 + math.cos(p_in * a)) ** 2 / 16.0 * (2.0 / math.pi) * (k + d)


def evaluate_diagram(spec: DiagramSpec, params: LatticeParams) -> complex:
    """Value of one catalog diagram under the discrete Feynman rules.

    Tree2to2 is the vertex -i*lambda times the form factors of its four legs (1 unsmeared).
    TadpoleMass and BubbleSChannel integrate over the undetermined loop momentum with the zone
    measure d^D q / (2 pi)^D on a trapezoid grid; the tadpole, even in q0, q1, on q0, q1 >= 0 only.
    """
    lam, n_in = params.lam, _INCOMING[spec.kind]
    if len(spec.incoming) != n_in:
        raise ValueError(f"{spec.kind} takes {n_in} incoming momentum(s)")
    n, eps = spec.resolution, spec.epsilon
    if spec.kind != "Tree2to2":  # a loop's refusals come before its legs are read
        _require_two_dimensional(params)
        # memory is bounded by chunks of _ROWS rows: ~70 bytes per chunk term (measured)
        require(96 * _ROWS * n, BYTE_BUDGET, f"bytes for {_ROWS} loop-integral rows of {n} nodes")
        measure = 1.0 / (n * params.dt) / (n * params.a)

    def form(p):
        return smear_form_factor(params, p) if spec.smeared else 1.0

    # outgoing momenta equal incoming: four legs for 2->2, two for the tadpole
    external = float(np.prod(form(np.asarray(spec.incoming * 2)[:, 1:])))
    if spec.kind == "Tree2to2":
        return -1j * lam * external
    if spec.kind == "TadpoleMass":
        factor = -1j * lam / 2.0 * external
        (q0, w0), (q1, w1) = (folded_nodes(n, math.pi / s) for s in (params.dt, params.a))
        q0, q1, w0, weight = q0[:, None], q1[:, None], w0[:, None], w1 * form(q1[:, None]) ** 2

        def chunk(rows):
            return feynman_momentum(params, q0[rows], q1, eps) * weight * w0[rows]

    else:  # BubbleSChannel
        factor = (-1j * lam) ** 2 / 2.0 * external
        q0 = midpoint_nodes(n, math.pi / params.dt)[:, None]  # one row per loop energy
        q1 = midpoint_nodes(n, math.pi / params.a)[:, None]  # n one-component momenta
        back0 = _fold_to_zone(spec.incoming[0][0] + spec.incoming[1][0] - q0, params.dt)
        back1 = _fold_to_zone(spec.incoming[0][1] + spec.incoming[1][1] - q1, params.a)
        weight = (form(q1) * form(back1)) ** 2

        def chunk(rows):
            fwd = feynman_momentum(params, q0[rows], q1, eps)
            back = feynman_momentum(params, back0[rows], back1, eps)
            return fwd * back * weight

    # numpy's pairwise sum within a fixed chunk of rows, fsum over the totals: deterministic
    totals = [np.sum(chunk(slice(start, start + _ROWS))) for start in range(0, len(q0), _ROWS)]
    return factor * fsum_complex(totals) * measure


def log_slope(series) -> float:
    """Least-squares slope of Pi against ln(1/a) for a list of (a, Pi) pairs."""
    pts = [(float(_require_real(a, "a")), float(_require_real(pi, "Pi", ""))) for a, pi in series]
    if len(pts) < 4:
        raise ValueError("need at least 4 points")
    spacings = [a for a, _ in pts]
    if len(set(spacings)) != len(spacings):
        raise ValueError("lattice spacings must be distinct")
    xs = np.log([1.0 / a for a in spacings])
    if xs.max() - xs.min() < math.log(10.0):
        raise ValueError("ln(1/a) must span at least one decade")
    return float(np.polyfit(xs, [pi for _, pi in pts], 1)[0])
