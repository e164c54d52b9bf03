"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import itertools
import json
import math

import numpy as np
import pytest

from latcirc.cli import run
from latcirc.gauge import (
    GaugeGroupZN,
    GaugeLattice,
    amplitude_equiv_check,
    build_wel,
    build_wmag,
    gauge_transform,
    plaquette_coloring,
    unitarity_report,
)
from latcirc.gaussian import lightcone_radius, mover_shift_check, realspace_map, symplectic_defect
from latcirc.kinematics import LatticeParams
from latcirc.perturbation import elliptic_K, log_slope, one_loop_mass
from latcirc.propagator import contour_identity_residual
from latcirc.renorm import (
    RenormProblem,
    calibrate,
    gradient_selfcheck,
    make_observable,
    simulate_observables,
)
from latcirc.statevector import (
    FieldGrid,
    TruncatedLattice,
    amplitude_action_form,
    amplitude_circuit,
    amplitude_path_sum,
    build_step,
    interaction_picture_check,
)


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_dispersion_reproduction(tmp_path):
    out = tmp_path / "dispersion.csv"
    assert run(["dispersion", "--a", "0.1", "--m", "1", "--L", "256", "--out", str(out)]) == 0
    rows = np.array(
        [[float(v) for v in line.split(",")] for line in out.read_text().strip().split("\n")[2:]]
    )
    half = rows[rows[:, 0] >= 0.0]
    p, theta, omega_col, e_cont = half[:, 0], half[:, 1], half[:, 2], half[:, 3]
    rel_theta = np.abs(theta - e_cont) / e_cont
    below_half_zone = rel_theta[p <= math.pi / 0.2]
    edge = np.abs(omega_col - e_cont) / e_cont
    near_edge = edge[p >= 0.9 * math.pi / 0.1]
    ok = rel_theta.max() < 0.05 and below_half_zone.max() < 0.005 and near_edge.min() > 0.20
    _report(
        1,
        ok,
        f"max|theta-E|/E = {rel_theta.max():.4f} (<0.05), "
        f"below pi/2a = {below_half_zone.max():.5f} (<0.005), "
        f"omega edge deviation = {near_edge.min():.2f} (>0.20)",
    )


def test_criterion_2_mover_shift():
    residual = mover_shift_check(LatticeParams(a=0.1, m=0.0), 8)
    _report(2, residual < 1e-12, f"mover residual = {residual:.3e} (<1e-12)")


def test_criterion_3_symplectic_causality():
    params = LatticeParams(a=0.1, m=1.0)
    worst_defect = 0.0
    for kind in ("Shift", "Strang"):
        step = realspace_map(params, 16, kind)
        power = np.eye(32)
        for _ in range(10):
            power = step @ power
            worst_defect = max(worst_defect, symplectic_defect(power))
    cone_ok = all(
        lightcone_radius(params, 4 * tau + 4, kind, tau, observable="both") <= 2 * tau
        for kind in ("Shift", "Strang")
        for tau in range(1, 6)
    )
    ok = worst_defect < 1e-10 and cone_ok
    _report(3, ok, f"max |S^T J S - J| over powers = {worst_defect:.3e} (<1e-10), cone <= 2tau")


def test_criterion_4_contour_identity():
    params = LatticeParams(a=0.1, m=1.0)
    eps = 1e-3 / params.dt  # 1e-3 in units of 1/dt
    residuals = [
        contour_identity_residual(params, 0.0, t, eps, 2**16, conv_rtol=1e-6)
        for t in (0, 1, 3)
    ]
    # geometric convergence under node doubling (before the roundoff floor)
    eps_coarse = 0.01 / params.dt
    errs = [
        contour_identity_residual(params, 0.3, 1, eps_coarse, n, conv_rtol=None)
        for n in (2**10, 2**11, 2**12)
    ]
    geometric = all(
        c / max(f, 1e-16) >= 10.0 for c, f in zip(errs, errs[1:]) if c > 1e-12
    )
    ok = max(residuals) < 1e-6 and geometric
    _report(
        4,
        ok,
        f"residuals t=0,1,3: {', '.join(f'{r:.2e}' for r in residuals)} (<1e-6), "
        f"doubling ratios {errs[0]/errs[1]:.1f}, {errs[1]/errs[2]:.1f} (>=10)",
    )


def test_criterion_5_one_loop_prefactors():
    lam = 1.0
    spacings = (0.2, 0.1, 0.05, 0.025, 0.0125)
    series = {reg: [] for reg in ("ShiftPlain", "ShiftSmeared", "ContinuumCutoff")}
    for a in spacings:
        params = LatticeParams(a=a, m=1.0, lam=lam)
        for reg in series:
            series[reg].append((a, one_loop_mass(reg, params, p_in=0.0)))
    slopes = {reg: log_slope(pts) for reg, pts in series.items()}
    targets = {
        "ShiftPlain": (1 / (2 * math.pi), 0.02),
        "ShiftSmeared": (1 / (4 * math.pi), 0.05),
        "ContinuumCutoff": (1 / (4 * math.pi), 0.02),
    }
    slope_ok = all(
        abs(slopes[reg] - tgt) / tgt <= tol for reg, (tgt, tol) in targets.items()
    )
    ratio = slopes["ShiftPlain"] / slopes["ShiftSmeared"]
    params01 = LatticeParams(a=0.1, m=1.0, lam=lam)
    agm_dev = abs(
        one_loop_mass("ShiftPlain", params01) - lam / (2 * math.pi) * elliptic_K(params01.M)
    )
    ok = slope_ok and abs(ratio - 2.0) <= 0.10 and agm_dev < 1e-10
    _report(
        5,
        ok,
        f"slopes plain={slopes['ShiftPlain']:.5f}, smeared={slopes['ShiftSmeared']:.5f}, "
        f"cutoff={slopes['ContinuumCutoff']:.5f}; ratio={ratio:.3f} (2 +- 5%); "
        f"AGM check {agm_dev:.1e} (<1e-10)",
    )


def test_criterion_6_scalar_path_integral():
    params = LatticeParams(a=0.5, m=1.0)
    # contraction-order equality at L=2, n=16, tau=2
    lat16 = TruncatedLattice(2, FieldGrid.for_mass(1.0, 16), params)
    circ = amplitude_circuit(lat16, "Strang", 0.1, (8, 8), (9, 7), 2)
    path = amplitude_path_sum(lat16, "Strang", 0.1, (8, 8), (9, 7), 2)
    contraction_dev = abs(circ - path)
    # action-form convergence over n = 16 -> 128 on the momentum-dual family
    worst_errs = {}
    for lam in (0.0, 0.1):
        errs = []
        for n in (16, 32, 64, 128):
            lat = TruncatedLattice(2, FieldGrid.dual(n), params)
            ci, cf = (n // 2, n // 2), (n // 2 + 1, n // 2 - 1)
            c_amp = amplitude_circuit(lat, "Strang", lam, ci, cf, 2)
            a_amp = amplitude_action_form(lat, lam, ci, cf, 2)
            errs.append(abs(c_amp - a_amp) / abs(c_amp))
        monotone = all(e2 <= max(e1, 1e-12) for e1, e2 in zip(errs, errs[1:]))
        worst_errs[lam] = (max(errs), monotone)
    # Strang rearrangement identity at tau = 3
    lam, tau = 0.3, 3
    strang = build_step(lat16, "Strang", lam)
    trott = build_step(lat16, "Trotter", lam)
    from latcirc.statevector import CircuitStep, _momentum_kernel

    half = CircuitStep(lat16, "Strang", lam).layer
    kernel = _momentum_kernel(lat16.grid, "Strang", lat16.params.kappa)
    rearranged = (
        half[:, None] * np.linalg.matrix_power(trott, tau - 1) @ np.kron(kernel, kernel)
        * half[None, :]
    )
    rearrange_dev = np.max(np.abs(np.linalg.matrix_power(strang, tau) - rearranged))
    ok = (
        contraction_dev < 1e-12
        and all(err < 5e-2 and mono for err, mono in worst_errs.values())
        and rearrange_dev < 1e-10
    )
    _report(
        6,
        ok,
        f"contraction dev = {contraction_dev:.2e} (<1e-12); action-form errors "
        f"lam=0: {worst_errs[0.0][0]:.2e}, lam=0.1: {worst_errs[0.1][0]:.2e} "
        f"(<5e-2, monotone to the roundoff floor); rearrangement dev = {rearrange_dev:.2e}",
    )


def test_criterion_7_interaction_picture():
    lat = TruncatedLattice(2, FieldGrid.for_mass(1.0, 12), LatticeParams(a=0.5, m=1.0))
    devs = {kind: interaction_picture_check(lat, kind, 0.3, 3) for kind in ("Strang", "Trotter")}
    ok = all(d < 1e-10 for d in devs.values())
    _report(
        7,
        ok,
        f"operator-norm deviations tau<=3: Strang {devs['Strang']:.2e}, "
        f"Trotter {devs['Trotter']:.2e} (<1e-10)",
    )


def test_criterion_8_gauge_equivalence():
    lat = GaugeLattice(2, 2)
    group = GaugeGroupZN(2)
    rng = np.random.default_rng(0)
    identity = np.zeros(lat.n_links, dtype=int)
    pairs = [(identity, identity)]
    while len(pairs) < 10:
        pairs.append((rng.integers(0, 2, lat.n_links), rng.integers(0, 2, lat.n_links)))
    worst = 0.0
    for tau in (1, 2):
        for u_i, u_f in pairs:
            _, _, dev = amplitude_equiv_check(lat, group, 1.0, 1.0, u_i, u_f, tau)
            worst = max(worst, dev)
    # exhaustive gauge covariance at Z_2
    transfer = build_wel(lat, group, 1.0).dense() @ build_wmag(lat, group, 1.0).dense()
    comm = max(
        float(
            np.max(
                np.abs(
                    transfer @ gauge_transform(lat, group, np.array(om)).dense()
                    - gauge_transform(lat, group, np.array(om)).dense() @ transfer
                )
            )
        )
        for om in itertools.product(range(2), repeat=4)
    )
    # chessboard decomposition reproduces W_mag
    layer_a, layer_b = plaquette_coloring(lat)
    digits = np.stack(np.unravel_index(np.arange(256), (2,) * 8), axis=1)
    plaqs = lat.plaquettes()
    prod = np.ones(256, dtype=complex)
    for layer in (layer_a, layer_b):
        action = np.zeros(256)
        for idx in layer:
            l0, l1, l2, l3 = plaqs[idx]
            h = np.mod(digits[:, l0] + digits[:, l1] - digits[:, l2] - digits[:, l3], 2)
            action += group.retrace(h)
        prod *= np.exp(-2j * action)
    coloring_dev = float(np.max(np.abs(prod - build_wmag(lat, group, 1.0).diag)))
    wel_dev = unitarity_report(group, 1.0)
    ok = worst < 1e-10 and comm < 1e-12 and coloring_dev < 1e-12
    _report(
        8,
        ok,
        f"path-integral deviation = {worst:.2e} (<1e-10, 10 pairs, tau in {{1,2}}); "
        f"[T,D] = {comm:.2e}; coloring dev = {coloring_dev:.2e}; "
        f"W_el unitarity deviation = {wel_dev:.4f} (reported finding)",
    )


def test_criterion_9_renormalization_round_trip():
    base = LatticeParams(a=0.1, m=1.0)
    theta_obs = [make_observable("dispersion_theta", p=p) for p in (0.3, 0.6, 0.9)]
    helper = RenormProblem(base, theta_obs, [0.0] * 3, {"m": 1.0})
    targets = simulate_observables([1.0], helper)
    problem = RenormProblem(
        base, theta_obs, targets, {"m": 1.3}, eta=0.05, fd_step=1e-4, tol=1e-8, max_iters=500
    )
    selfcheck = gradient_selfcheck([1.3], problem)
    final_m, trace_m = calibrate(problem)
    costs = [t["cost"] for t in trace_m if t["event"] in ("step", "converged")]
    monotone = all(c2 <= c1 * (1 + 1e-9) + 1e-18 for c1, c2 in zip(costs, costs[1:]))

    base2 = LatticeParams(a=0.1, m=1.0, lam=0.5)
    obs2 = theta_obs + [
        make_observable("one_loop", regulator="ShiftSmeared", p_in=0.0),
        make_observable("one_loop", regulator="ShiftSmeared", p_in=10.0),
    ]
    helper2 = RenormProblem(base2, obs2, [0.0] * 5, {"m": 1.0, "lam": 0.5})
    targets2 = simulate_observables([0.5, 1.0], helper2)
    problem2 = RenormProblem(
        base2, obs2, targets2, {"m": 1.2, "lam": 0.7},
        eta=0.4, fd_step=1e-4, tol=1e-10, max_iters=2000,
    )
    final2, _ = calibrate(problem2)
    rel2 = np.abs(final2 - np.array([0.5, 1.0])) / np.array([0.5, 1.0])
    ok = (
        abs(final_m[0] - 1.0) < 1e-3
        and len(trace_m) < 500
        and monotone
        and selfcheck < 0.01
        and np.all(rel2 < 1e-2)
    )
    _report(
        9,
        ok,
        f"m error = {abs(final_m[0] - 1.0):.2e} (<1e-3, {len(trace_m)} iters, monotone cost); "
        f"(lam, m) rel errors = {rel2[0]:.2e}, {rel2[1]:.2e} (<1e-2); "
        f"FD self-check = {selfcheck:.2e} (<1%)",
    )


def test_criterion_10_cli_determinism(tmp_path):
    problem = {
        "a": 0.1,
        "m": 1.0,
        "observables": [{"kind": "dispersion_theta", "p": 0.5}],
        "targets": [1.1276259652063807],
        "init": {"m": 1.1},
        "eta": 0.1,
        "tol": 1e-6,
        "max_iters": 200,
    }
    problem_path = tmp_path / "problem.json"
    problem_path.write_text(json.dumps(problem))
    cases = [
        ["dispersion", "--a", "0.1", "--m", "1", "--L", "64"],
        ["movers", "--L", "8"],
        ["lightcone", "--tau", "2", "--L", "16"],
        ["propagator", "--L", "8"],
        ["oneloop", "--a-series", "0.2,0.1,0.05,0.025"],
        ["pathint-check", "--n-points", "16"],
        ["gauge-check", "--tau", "1", "--pairs", "3", "--seed", "42"],
        ["renorm", "--problem", str(problem_path)],
    ]
    identical = True
    for idx, argv in enumerate(cases):
        first, second = tmp_path / f"{idx}_a", tmp_path / f"{idx}_b"
        assert run(argv + ["--out", str(first)]) == 0
        assert run(argv + ["--out", str(second)]) == 0
        identical = identical and first.read_bytes() == second.read_bytes()
    _report(10, identical, "all eight subcommands byte-identical on rerun")
