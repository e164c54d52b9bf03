"""The package's failure policy: exception types, their exit codes and the resource caps.

Every package error carries the exit code the CLI ends with (``exit_code``):
1 for validation errors, 2 for numerical-convergence failures, 3 for resource
caps; ``EXIT_PREFIXES`` holds the one-line message prefix of each code. The
caps bound what one entry point may enumerate or allocate, and ``require``
checks an amount against its cap before the work starts.

Every count (a step count tau, a chain length, a grid size, a node count, a
lattice extent or dimension, an iteration budget) passes ``_require_int`` where
it enters, before any arithmetic uses it: a Python or numpy integer at or above
the count's least value is taken as an int; anything else, a bool and an
integral float included, is a ValueError (exit 1) reading
``<what> must be an integer >= k, got v``.
"""

import math
import numbers

STATE_CAP = 2**22  # amplitudes of one complex state vector (64 MiB), statevector and gauge alike
DENSE_CAP = 4096  # largest dimension of an explicitly stored operator
PATH_TERM_CAP = 10**8  # terms of one brute-force sum
BYTE_BUDGET = 2**31  # largest estimated peak allocation of one entry point

EXIT_PREFIXES = {1: "error", 2: "numerical convergence failure", 3: "resource cap exceeded"}


class LatcircError(Exception):
    """Base class for all package-specific errors; a validation error (exit 1) by default."""

    exit_code = 1


class DegenerateDispersion(LatcircError):
    """|c(p)| >= 1, so the one-step phase has no real solution (m = 0 edge)."""


class QuadratureNotConverged(LatcircError):
    """Doubling the quadrature nodes moved the result more than the tolerance."""

    exit_code = 2


class LatticeTooSmall(LatcircError):
    """Lattice cannot hold the requested causal cone without wrap-around."""

    exit_code = 3


class DimensionCap(LatcircError):
    """A dimension or an estimated allocation exceeds its cap (raised by ``require``)."""

    exit_code = 3


class BruteForceCap(LatcircError):
    """A brute-force sum has more terms than PATH_TERM_CAP (raised by ``require``)."""

    exit_code = 3


class OddLattice(LatcircError):
    """Chessboard plaquette coloring needs even lattice extents."""


class IllConditionedFit(LatcircError):
    """Log-slope fit requested on too narrow a range of lattice spacings."""


class UnknownDiagram(LatcircError):
    """Diagram kind not in the closed catalog."""


class DomainError(LatcircError):
    """Argument outside a special function's domain."""


class ObservableFailure(LatcircError):
    """An observable could not be evaluated at the given parameter point."""


class Diverged(LatcircError):
    """Gradient descent cost increased for too many consecutive steps."""

    exit_code = 2


class NonFinite(LatcircError):
    """A numerical evaluation produced NaN or infinity."""

    exit_code = 2


def require(amount: int, cap: int, what: str, error: type[LatcircError] = DimensionCap) -> int:
    """Return ``amount``, or raise ``error`` (exit 3) first when it exceeds ``cap``; an
    amount of more than 30 digits is named as ~10^k, which a string of digits may not be."""
    if amount > cap:
        shown = f"~10^{round(math.log10(amount))}" if amount >= 10**30 else amount
        raise error(f"{what}: {shown} exceeds the cap {cap}")
    return amount


def _require_int(value, least: int, what: str) -> int:
    """A count as an int, or ValueError unless it is an integer >= ``least``: a numpy
    integer passes, a bool or an integral float does not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{what} must be an integer >= {least}, got {value!r}")
    return int(value)
