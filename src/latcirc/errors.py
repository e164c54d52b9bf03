"""The package's failure policy: exception types, their exit codes and the resource caps.

A failure has one type per exit code the CLI ends with: ValueError for a
validation error (1), ``ConvergenceFailure`` for a numerical-convergence failure
(2) and ``CapExceeded`` for a resource cap (3), each code's one-line message
prefix in ``EXIT_PREFIXES``. The caps bound what one entry point may enumerate
or allocate, and ``require`` checks an amount against its cap before the work starts.

Every count (a step count tau, a chain length, a grid size, a node count, a
lattice extent or dimension, an iteration budget) passes ``_require_int`` where
it enters, before any arithmetic uses it, and so does a signed step or site
offset, with least value -inf: a Python or numpy integer at or above the least
value is taken as an int; anything else, a bool and an integral float included,
is a ValueError (exit 1) reading ``<what> must be an integer >= k, got v``.

Every real input (a spacing, timestep, mass, coupling, regulator, tolerance or target) passes
``_require_real`` where it enters: a finite Python or numpy real within its bound (> 0, >= 0
or none) is taken as given; anything else, a bool or a string such as "0.3" included, is a
ValueError (exit 1) reading ``<what> must be finite and positive, got v`` (or ``nonnegative``).
"""

import math
import numbers
import sys

STATE_CAP = 2**22  # amplitudes of one complex state vector (64 MiB), statevector and gauge alike
DENSE_CAP = 4096  # largest dimension of an explicitly stored operator
PATH_TERM_CAP = 10**8  # terms of one brute-force sum
BYTE_BUDGET = 2**31  # largest estimated peak allocation, table text or trace of one entry point

EXIT_PREFIXES = {1: "error", 2: "numerical convergence failure", 3: "resource cap exceeded"}


class LatcircError(Exception):
    """Base class of the package's errors, exit 1 unless ``exit_code`` says otherwise."""


class ConvergenceFailure(LatcircError):
    """A refined quadrature moved too much, a descent diverged, or a result is NaN or inf."""

    exit_code = 2


class CapExceeded(LatcircError):
    """An amount exceeds its cap (raised by ``require``)."""

    exit_code = 3


def _order(log10: float) -> str:
    """~10^k, k the rounded ``log10``: how a message names a number of more than 30 digits, for
    str() of an int past 4300 digits raises, and thousands of digits are no message."""
    return f"~10^{round(log10)}"


def _shown(value) -> str:
    """``repr(value)``, but an int of more than 30 digits by its ``_order``."""
    if isinstance(value, int) and abs(value) >= 10**30:
        return "-" * (value < 0) + _order(math.log10(abs(value)))
    return repr(value)


def require(amount: int, cap: int, what: str) -> int:
    """Return ``amount``, or raise CapExceeded (exit 3) first when it exceeds ``cap``."""
    if amount > cap:
        raise CapExceeded(f"{what}: {_shown(amount)} exceeds the cap {cap}")
    return amount


def _require_power(base: int, exponent: int, cap: int, what: str) -> int:
    """``require`` on base ** exponent, refused from its logarithm past 30 digits, never formed."""
    if exponent * math.log10(base) > 30:
        raise CapExceeded(f"{what}: {_order(exponent * math.log10(base))} exceeds the cap {cap}")
    return require(base**exponent, cap, what)


def _require_int(value, least: float, what: str) -> int:
    """A count as an int, or ValueError unless it is an integer >= ``least``: a numpy
    integer passes, a bool or an integral float does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {_shown(value)}")
    return int(value)


def _require_real(value, what: str, sign: str = "positive"):
    """``value`` as given, or ValueError unless it is a finite real that is ``sign``: "positive",
    "nonnegative" or "" (any finite value); an int past the float range is not finite. A plain
    float or int skips the slower ABC check."""
    if type(value) in (float, int) or isinstance(value, numbers.Real) and type(value) is not bool:
        finite = abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value)
        if finite and (value > 0 or not sign or sign == "nonnegative" and value == 0):
            return value
    raise ValueError(f"{what} must be finite{' and ' + sign if sign else ''}, got {_shown(value)}")
