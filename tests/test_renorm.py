import math

import numpy as np
import pytest

from latcirc.errors import Diverged, NonFinite, ObservableFailure
from latcirc.kinematics import LatticeParams, dispersion_theta
from latcirc.renorm import (
    RenormProblem,
    calibrate,
    cost,
    fd_gradient,
    gradient_selfcheck,
    make_observable,
    simulate_observables,
)

BASE = LatticeParams(a=0.1, m=1.0)
THETA_OBS = [make_observable("dispersion_theta", p=p) for p in (0.3, 0.6, 0.9)]


def theta_targets(m_true):
    helper = RenormProblem(BASE, THETA_OBS, [0.0] * 3, {"m": m_true})
    return simulate_observables([m_true], helper)


def test_problem_validation():
    with pytest.raises(ValueError):
        RenormProblem(BASE, THETA_OBS, [1.0], {"m": 1.0})  # target count mismatch
    with pytest.raises(ValueError):
        RenormProblem(BASE, THETA_OBS, [1.0] * 3, {"g": 1.0})  # not tunable
    with pytest.raises(ValueError):
        RenormProblem(BASE, THETA_OBS, [1.0] * 3, {})
    with pytest.raises(ValueError):
        RenormProblem(BASE, THETA_OBS, [1.0] * 3, {"m": 1.0}, eta=0.0)


def test_simulate_observables():
    prob = RenormProblem(BASE, THETA_OBS, [0.0] * 3, {"m": 1.0})
    vals = simulate_observables([1.0], prob)
    assert vals[0] == pytest.approx(dispersion_theta(BASE, 0.3), rel=1e-14)
    assert simulate_observables([1.0], RenormProblem(BASE, [], [], {"m": 1.0})).size == 0
    with pytest.raises(ObservableFailure):
        simulate_observables([-0.5], prob)  # invalid mass point
    with pytest.raises(ObservableFailure):
        simulate_observables([0.0], prob)  # m = 0 breaks the dispersion


def test_cost_properties():
    targets = theta_targets(1.0)
    prob = RenormProblem(BASE, THETA_OBS, targets, {"m": 1.0})
    assert cost([1.0], prob) == pytest.approx(0.0, abs=1e-24)
    single = RenormProblem(BASE, THETA_OBS[:1], [targets[0] + 0.1], {"m": 1.0})
    assert cost([1.0], single) == pytest.approx(0.01, rel=1e-10)
    # permutation invariance of (observable, target) pairs
    perm = RenormProblem(
        BASE, THETA_OBS[::-1], tuple(reversed(targets)), {"m": 1.2}
    )
    plain = RenormProblem(BASE, THETA_OBS, targets, {"m": 1.2})
    assert cost([1.2], perm) == pytest.approx(cost([1.2], plain), rel=1e-14)


def test_gradient_selfcheck_within_one_percent():
    prob = RenormProblem(BASE, THETA_OBS, theta_targets(1.0), {"m": 1.3}, fd_step=1e-4)
    assert gradient_selfcheck([1.3], prob) < 0.01


def test_mass_round_trip():
    prob = RenormProblem(
        BASE,
        THETA_OBS,
        theta_targets(1.0),
        {"m": 1.3},
        eta=0.05,
        fd_step=1e-4,
        tol=1e-8,
        max_iters=500,
    )
    final, trace = calibrate(prob)
    assert abs(final[0] - 1.0) < 1e-3
    assert len(trace) < 500
    assert trace[-1]["event"] == "converged"
    costs = [t["cost"] for t in trace if t["event"] in ("step", "converged")]
    assert all(c2 <= c1 * (1 + 1e-9) + 1e-18 for c1, c2 in zip(costs, costs[1:]))


def test_already_converged_needs_no_steps():
    prob = RenormProblem(BASE, THETA_OBS, theta_targets(1.0), {"m": 1.0}, tol=1e-6)
    final, trace = calibrate(prob)
    assert trace[-1]["event"] == "converged"
    assert trace[-1]["iter"] == 0
    assert final[0] == 1.0


def test_two_parameter_round_trip():
    base = LatticeParams(a=0.1, m=1.0, lam=0.5)
    observables = THETA_OBS + [
        make_observable("one_loop", regulator="ShiftSmeared", p_in=0.0, resolution=2048),
        make_observable("one_loop", regulator="ShiftSmeared", p_in=10.0, resolution=2048),
    ]
    helper = RenormProblem(base, observables, [0.0] * 5, {"m": 1.0, "lam": 0.5})
    targets = simulate_observables([0.5, 1.0], helper)  # names sorted: (lam, m)
    prob = RenormProblem(
        base,
        observables,
        targets,
        {"m": 1.2, "lam": 0.7},
        eta=0.4,
        fd_step=1e-4,
        tol=1e-10,
        max_iters=2000,
    )
    final, trace = calibrate(prob)
    truth = np.array([0.5, 1.0])
    assert np.all(np.abs(final - truth) / truth < 1e-2)
    assert trace[-1]["event"] == "converged"


def test_divergence_detection():
    prob = RenormProblem(
        BASE, THETA_OBS, theta_targets(1.0), {"m": 1.3}, eta=0.6, max_iters=200
    )
    with pytest.raises(Diverged):
        calibrate(prob)


def test_backtracking_rescues_large_eta():
    prob = RenormProblem(
        BASE,
        THETA_OBS,
        theta_targets(1.0),
        {"m": 1.3},
        eta=0.6,
        tol=1e-8,
        max_iters=300,
        backtracking=True,
    )
    final, trace = calibrate(prob)
    assert abs(final[0] - 1.0) < 1e-3
    assert any(t["event"] == "backtrack" for t in trace)


def calibrate_reference(problem):
    """calibrate with each trace entry written out as its own dict literal."""
    g0 = problem.initial_vector()
    eta = problem.eta
    trace = []
    current = cost(g0, problem)
    bad_streak = 0
    for iteration in range(problem.max_iters):
        grad = fd_gradient(g0, problem)
        if not (np.all(np.isfinite(grad)) and math.isfinite(current)):
            raise NonFinite(f"non-finite evaluation at iteration {iteration}")
        gnorm = float(np.linalg.norm(grad))
        trace.append(
            {
                "iter": iteration,
                "g0": [float(v) for v in g0],
                "cost": current,
                "grad_norm": gnorm,
                "eta": eta,
                "event": "step",
            }
        )
        if gnorm < problem.tol:
            trace[-1]["event"] = "converged"
            return g0, trace
        candidate = g0 - eta * grad
        new_cost = cost(candidate, problem)
        if not math.isfinite(new_cost):
            raise NonFinite(f"non-finite cost at iteration {iteration}")
        if problem.backtracking:
            while new_cost > current and eta > 1e-12:
                eta /= 2.0
                trace.append(
                    {
                        "iter": iteration,
                        "g0": [float(v) for v in g0],
                        "cost": current,
                        "grad_norm": gnorm,
                        "eta": eta,
                        "event": "backtrack",
                    }
                )
                candidate = g0 - eta * grad
                new_cost = cost(candidate, problem)
        if new_cost - current > 1e-12 * max(1.0, current):
            bad_streak += 1
            if bad_streak >= 5:
                raise Diverged(
                    f"cost increased for {bad_streak} consecutive steps at iteration {iteration}"
                )
        else:
            bad_streak = 0
        g0, current = candidate, new_cost
    trace.append(
        {
            "iter": problem.max_iters,
            "g0": [float(v) for v in g0],
            "cost": current,
            "grad_norm": float(np.linalg.norm(fd_gradient(g0, problem))),
            "eta": eta,
            "event": "max_iters",
        }
    )
    return g0, trace


@pytest.mark.parametrize("options, last_event", [
    ({"eta": 0.05, "max_iters": 500}, "converged"),
    ({"eta": 0.6, "max_iters": 300, "backtracking": True}, "converged"),
    ({"eta": 0.05, "max_iters": 7}, "max_iters"),
])
def test_trace_equals_dict_literal_reference(options, last_event):
    prob = RenormProblem(BASE, THETA_OBS, theta_targets(1.0), {"m": 1.3}, tol=1e-8, **options)
    final, trace = calibrate(prob)
    ref_final, ref_trace = calibrate_reference(prob)
    assert trace == ref_trace
    assert np.array_equal(final, ref_final)
    assert trace[-1]["event"] == last_event
    assert any(t["event"] == "backtrack" for t in trace) == options.get("backtracking", False)
