"""Deterministic quadrature primitives.

Periodic integrands use the trapezoid rule on uniform midpoint-offset nodes
(spectrally accurate on the torus); non-periodic finite intervals use
composite Gauss-Legendre panels. Reductions are correctly rounded: each
returns the double nearest the exact sum of its terms, the same double as
``math.fsum``, and so independent of evaluation order. Large arrays are summed
exactly from their integer significands in numpy; small, non-finite or
near-overflow ones go to ``math.fsum`` itself.

``refined`` is the package's one refinement rule: a quadrature that moves by more
than its tolerance between two node counts raises ``QuadratureNotConverged``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import QuadratureNotConverged

__all__ = ["midpoint_nodes", "fsum_complex", "fsum_real", "gauss_legendre_panels", "refined"]

_CROSSOVER = 1536  # below this many terms math.fsum of a list is the faster route
_CHUNK = 16384  # terms per numpy pass, so the pass's temporaries stay in cache
_EXACT_TERMS = 2**26  # bin sums of significand halves (< 2^27) are exact below this
_SPLIT = 1.5 * 2.0**79  # adding and subtracting it rounds |m| < 2^53 to a multiple of 2^27
_OFFSET = 1074  # frexp exponents of nonzero doubles run from -1073 to 1024
_BINS = _OFFSET + 1025


def midpoint_nodes(n: int, halfwidth: float) -> np.ndarray:
    """n uniform nodes on (-halfwidth, halfwidth), symmetric under negation."""
    if n < 1:
        raise ValueError("need at least one node")
    step = 2.0 * halfwidth / n
    return -halfwidth + step * (np.arange(n) + 0.5)


def _exact_sum(x: np.ndarray) -> float | None:
    """Correctly rounded sum of a 1-D float64 array, or None to defer to math.fsum.

    Each term is m * 2^(e - 53) with an integer significand |m| < 2^53 (frexp
    normalizes subnormals too). m splits exactly into a multiple of 2^27 and
    a remainder of at most 2^26; numpy sums each part per exponent e, exactly
    while there are fewer than 2^26 terms, and Python ints add the bins.
    """
    hi_bins = lo_bins = 0.0
    top = 0
    with np.errstate(invalid="ignore"):  # the split of an infinity gives inf - inf
        for start in range(0, x.size, _CHUNK):
            lo, expo = np.frexp(x[start:start + _CHUNK])
            lo *= 2.0**53
            hi = lo + _SPLIT
            hi -= _SPLIT
            lo -= hi
            expo += _OFFSET
            hi_bins = hi_bins + np.bincount(expo, weights=hi, minlength=_BINS)
            lo_bins = lo_bins + np.bincount(expo, weights=lo, minlength=_BINS)
            top = max(top, int(expo.max()))
    # NaN bins mark a non-finite term. Near DBL_MAX math.fsum may overflow on a
    # partial sum, so it decides there; an exact zero defers the sign of zero.
    if math.isnan(lo_bins.sum()) or top - _OFFSET + x.size.bit_length() > 1021:
        return None
    used = np.flatnonzero(hi_bins + lo_bins)  # a + b == 0 only if a == -b exactly
    if used.size == 0:
        return None
    low = int(used[0])
    total = 0
    for shift, hi, lo in zip((used - low).tolist(), hi_bins[used].tolist(),
                             lo_bins[used].tolist()):
        total += (int(hi) + int(lo)) << shift
    if total == 0:
        return None
    scale = low - _OFFSET - 53
    return float(total << scale) if scale >= 0 else total / (1 << -scale)


def _fsum(x: np.ndarray) -> float:
    if _CROSSOVER <= x.size < _EXACT_TERMS:
        value = _exact_sum(x)
        if value is not None:
            return value
    return math.fsum(x.tolist())


def fsum_real(values) -> float:
    """The correctly rounded sum of ``values``, bitwise equal to ``math.fsum``."""
    return _fsum(np.asarray(values, dtype=float).ravel())


def fsum_complex(values) -> complex:
    """Correctly rounded real and imaginary sums, each equal to ``math.fsum``'s."""
    arr = np.asarray(values, dtype=complex).ravel()
    return complex(_fsum(arr.real), _fsum(arr.imag))


@functools.lru_cache(maxsize=16)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def gauss_legendre_panels(f, lo: float, hi: float, n_per_panel: int = 32, panels=None) -> float:
    """Integrate a smooth real function over [lo, hi] on explicit panels.

    ``panels`` is a sorted list of breakpoints including lo and hi; default is
    the single panel [lo, hi].
    """
    if panels is None:
        panels = [lo, hi]
    nodes, weights = _leggauss(n_per_panel)
    pieces = []
    for left, right in zip(panels[:-1], panels[1:]):
        mid, half = 0.5 * (left + right), 0.5 * (right - left)
        pieces.append(half * weights * f(mid + half * nodes))
    return fsum_real(pieces)


def refined(evaluate, n: int, rtol: float | None, what: str, fine_n: int | None = None,
            scale: float | None = None):
    """``evaluate(fine_n)`` (fine_n = 2 n by default), or QuadratureNotConverged if it is
    more than rtol * scale from ``evaluate(n)``, scale = max(|coarse|, 1e-300) by default.
    With ``rtol`` None, the coarse ``evaluate(n)`` unchecked."""
    coarse = evaluate(n)
    if rtol is None:
        return coarse
    fine_n = 2 * n if fine_n is None else fine_n
    fine = evaluate(fine_n)
    scale = max(abs(coarse), 1e-300) if scale is None else scale
    if abs(fine - coarse) > rtol * scale:
        raise QuadratureNotConverged(f"{what}: refining {n} to {fine_n} nodes moved the value "
                                     f"by {abs(fine - coarse) / scale:.3e} relative")
    return fine
