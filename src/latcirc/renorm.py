"""Gradient-descent calibration of bare lattice parameters.

Observables are scalar functions of :class:`LatticeParams` (dispersion points,
one-loop mass corrections, ...). Given target values, the bare parameters
(any subset of {m, lam}) are tuned by plain gradient descent on the
sum-of-squares cost, with the gradient estimated by central finite
differences. The step size is fixed; an optional backtracking mode halves it
when a step would increase the cost. Every event (step, backtrack, converged,
max_iters) lands in the trace as one record of the point, cost, gradient and eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import Diverged, LatcircError, NonFinite, ObservableFailure, _require_int
from .kinematics import LatticeParams, dispersion_theta, omega
from .perturbation import one_loop_mass

__all__ = [
    "RenormProblem",
    "make_observable",
    "simulate_observables",
    "cost",
    "fd_gradient",
    "gradient_selfcheck",
    "calibrate",
]

TUNABLE = ("m", "lam")


def _require_massive(params: LatticeParams) -> LatticeParams:
    # dispersion observables presume a massive theory (theta real on the
    # whole zone), not just |c(p)| < 1 at the probe momentum
    if params.m <= 0:
        raise ValueError("dispersion observables require m > 0")
    return params


# the keys each observable kind reads, besides "kind"
_OBSERVABLE_KEYS = {"dispersion_theta": ("p",), "omega": ("p",), "one_loop": ("regulator", "p_in")}


def make_observable(kind: str, **kwargs):
    """Named observable factory used by the CLI problem files.

    Kinds: ``dispersion_theta`` / ``omega`` (needs ``p``), ``one_loop`` (needs
    ``regulator``, optional ``p_in``). A key the kind does not read is refused.
    """
    if kind not in _OBSERVABLE_KEYS:
        raise ValueError(f"unknown observable kind {kind!r}")
    unread = sorted(set(kwargs) - set(_OBSERVABLE_KEYS[kind]))
    if unread:
        raise ValueError(f"a {kind} entry of 'observables' has the key {unread[0]!r}, "
                         f"which it does not read")
    if kind == "one_loop":
        regulator, p_in = kwargs["regulator"], float(kwargs.get("p_in", 0.0))
        return lambda params: one_loop_mass(regulator, params, p_in=p_in)
    p = float(kwargs["p"])
    function = dispersion_theta if kind == "dispersion_theta" else omega
    return lambda params: function(_require_massive(params), p)


@dataclass(frozen=True)
class RenormProblem:
    """Calibration problem: observables, targets and descent hyperparameters."""

    base: LatticeParams
    observables: tuple
    targets: tuple
    init: dict
    eta: float = 0.05
    fd_step: float = 1e-4
    tol: float = 1e-8
    max_iters: int = 500
    backtracking: bool = False

    def __post_init__(self):
        object.__setattr__(self, "observables", tuple(self.observables))
        object.__setattr__(self, "targets", tuple(float(t) for t in self.targets))
        if len(self.observables) != len(self.targets):
            raise ValueError("need one target per observable")
        for index, target in enumerate(self.targets):
            if not math.isfinite(target):
                raise ValueError(f"'targets' entry {index} is {target!r}; targets must be finite")
        for key in ("eta", "fd_step", "tol"):
            if not 0 < getattr(self, key) < math.inf:  # NaN fails too
                raise ValueError(f"{key}={getattr(self, key)!r} must be positive and finite")
        object.__setattr__(self, "max_iters", _require_int(self.max_iters, 0, "'max_iters'"))
        bad = set(self.init) - set(TUNABLE)
        if bad:
            raise ValueError(f"tunable parameters are {TUNABLE}, got extra {sorted(bad)}")
        if not self.init:
            raise ValueError("need at least one tunable parameter")

    @property
    def names(self) -> tuple:
        return tuple(sorted(self.init))

    def params_at(self, g0: np.ndarray) -> LatticeParams:
        return replace(self.base, **dict(zip(self.names, (float(v) for v in g0))))

    def initial_vector(self) -> np.ndarray:
        return np.array([float(self.init[name]) for name in self.names])


def simulate_observables(g0, problem: RenormProblem) -> np.ndarray:
    """Evaluate every observable at the bare point g0; a failure names the point, and an
    invalid point (a negative mass, say) fails like an observable."""
    try:
        params = problem.params_at(np.asarray(g0, dtype=float))
        return np.array([float(obs(params)) for obs in problem.observables])
    except (LatcircError, ValueError) as exc:
        message = f"observable failed at {dict(zip(problem.names, map(float, g0)))}: {exc}"
        if getattr(exc, "exit_code", 1) != 1:  # a cap or convergence failure keeps its code
            raise type(exc)(message) from exc
        raise ObservableFailure(message) from exc


def cost(g0, problem: RenormProblem) -> float:
    sim = simulate_observables(g0, problem)
    return float(np.sum((np.array(problem.targets) - sim) ** 2))


def fd_gradient(g0, problem: RenormProblem, step: float | None = None) -> np.ndarray:
    """Central finite-difference gradient of the cost, one scaled step per axis."""
    g0 = np.asarray(g0, dtype=float)
    base_step = problem.fd_step if step is None else step
    grad = np.zeros_like(g0)
    for j in range(len(g0)):
        h = base_step * max(abs(g0[j]), 1.0)
        up, down = g0.copy(), g0.copy()
        up[j] += h
        down[j] -= h
        grad[j] = (cost(up, problem) - cost(down, problem)) / (2.0 * h)
    return grad


def gradient_selfcheck(g0, problem: RenormProblem) -> float:
    """Relative deviation of the FD gradient from its Richardson extrapolation."""
    coarse = fd_gradient(g0, problem, step=problem.fd_step)
    fine = fd_gradient(g0, problem, step=problem.fd_step / 2.0)
    richardson = (4.0 * fine - coarse) / 3.0
    scale = np.linalg.norm(richardson)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(fine - richardson) / scale)


def calibrate(problem: RenormProblem) -> tuple[np.ndarray, list[dict]]:
    """Fixed-step gradient descent until the gradient norm drops below tol.

    Returns the final bare parameters and the iteration trace, every entry written by
    ``record``. Raises Diverged if the cost increases on five consecutive accepted steps
    and NonFinite on any non-finite evaluation.
    """
    g0 = problem.initial_vector()
    eta = problem.eta
    trace: list[dict] = []
    current = cost(g0, problem)

    def record(iteration: int, grad_norm: float, event: str) -> None:
        trace.append({"iter": iteration, "g0": [float(v) for v in g0], "cost": current,
                      "grad_norm": grad_norm, "eta": eta, "event": event})

    bad_streak = 0
    for iteration in range(problem.max_iters):
        grad = fd_gradient(g0, problem)
        if not (np.all(np.isfinite(grad)) and math.isfinite(current)):
            raise NonFinite(f"non-finite evaluation at iteration {iteration}")
        gnorm = float(np.linalg.norm(grad))
        if gnorm < problem.tol:
            record(iteration, gnorm, "converged")
            return g0, trace
        record(iteration, gnorm, "step")
        candidate = g0 - eta * grad
        new_cost = cost(candidate, problem)
        if not math.isfinite(new_cost):
            raise NonFinite(f"non-finite cost at iteration {iteration}")
        while problem.backtracking and new_cost > current and eta > 1e-12:
            eta /= 2.0
            record(iteration, gnorm, "backtrack")
            candidate = g0 - eta * grad
            new_cost = cost(candidate, problem)
        # roundoff-floor jitter is stagnation, not divergence
        if new_cost - current > 1e-12 * max(1.0, current):
            bad_streak += 1
            if bad_streak >= 5:
                raise Diverged(
                    f"cost increased for {bad_streak} consecutive steps at iteration {iteration}"
                )
        else:
            bad_streak = 0
        g0, current = candidate, new_cost
    record(problem.max_iters, float(np.linalg.norm(fd_gradient(g0, problem))), "max_iters")
    return g0, trace
