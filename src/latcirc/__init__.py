"""Numerical laboratory for discrete-time quantum-circuit lattice field dynamics.

Modules
-------
kinematics   closed-form dispersion and form factors of the one-step circuits
gaussian     exact symplectic simulation of the free circuits
propagator   discrete-spacetime Feynman propagator and contour-identity checks
perturbation discrete Feynman rules, one-loop mass corrections, elliptic K
statevector  truncated field-grid simulator and path-integral equivalence
gauge        Z_N gauge transfer operator vs. Wilson-action path integral
renorm       gradient-descent calibration of bare parameters
cli          command-line entry point emitting reproducible CSV/JSON artifacts
"""

from .kinematics import LatticeParams, momentum_grid

__version__ = "0.1.0"

__all__ = ["LatticeParams", "momentum_grid", "__version__"]
