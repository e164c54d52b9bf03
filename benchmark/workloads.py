"""The benchmark's workloads: seeded per-round jobs with independent reference checks.

A round is a list of jobs. Each job is one public latcirc call: ``cli.run``
in-process, or a library entry point where the CLI cannot reach the size. The
round's physical parameters (a, m, lambda, configurations) are drawn from
``(seed, workload, round index)``, so no round can reuse an earlier result.
Every check is computed here, with numpy or scipy, never by asking latcirc
the same question twice; a check returns ``None`` when the output is right
and a one-line reason when it is not.

Why these two workloads:

* ``fixed`` runs the Fourier-space pipeline (kinematics, propagator,
  perturbation, quadrature, renorm and CSV output) and the large-dimension
  matrix-free evolution, the gauge transfer and projector and the dense
  Gaussian maps, at sizes that repeat every round while the parameters
  change, so a cache keyed on size hits. The Fourier-space layers do almost
  no work in ``verify``, so a change to them is predicted to move ``fixed``
  alone.
* ``verify`` runs small dense and brute-force identity checks through the same
  statevector, gauge and gaussian modules, cycling through three size sets
  inside each round, so a cache keyed on the last size misses and per-call
  set-up shows.

The Fourier-space and evolution jobs share ``fixed`` rather than each having a
workload of their own so that, within the benchmark's time budget, every run
can be long enough to be steady on a small shared host.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy import special

from latcirc import cli, gauge, perturbation, propagator, statevector
from latcirc.kinematics import LatticeParams

WORKLOADS = ("fixed", "verify")


@dataclass
class Job:
    """One public call, its drawn inputs and the check of its output."""

    name: str
    params: dict
    call: Callable[[], Any]
    check: Callable[[Any], str | None]
    out: str | None = None  # artifact path of a CLI job


def make_round(workload: str, seed: int, index: int, workdir: str) -> list[Job]:
    """Jobs of round ``index``; the same arguments always give the same inputs."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    return _BUILDERS[workload](rng, index, workdir)


# ---------------------------------------------------------------- helpers


def _midpoints(n: int, halfwidth: float) -> np.ndarray:
    return -halfwidth + (2.0 * halfwidth / n) * (np.arange(n) + 0.5)


def _rel(x: complex, ref: complex) -> float:
    return abs(x - ref) / max(abs(ref), 1e-300)


def _cli_job(name: str, argv: list, params: dict, workdir: str, index: int,
             verify: Callable[[Any], str | None], fmt: str) -> Job:
    """A CLI job: the call is ``cli.run``; the check reads and verifies its artifact."""
    out = os.path.join(workdir, f"{index:04d}-{name.replace(' ', '-')}.{fmt}")
    argv = [str(v) if not isinstance(v, float) else repr(v) for v in argv] + ["--out", out]

    def check(code):
        if code != 0:
            return f"exit code {code}"
        with open(out) as handle:
            header, body = handle.read().split("\n", 1)
        if not header.startswith("# config_hash="):
            return "artifact lacks the config hash line"
        if fmt == "csv":
            data = np.loadtxt(body.splitlines()[1:], delimiter=",", ndmin=2)
        else:
            data = json.loads(body)
        if _has_nan(data):
            return "NaN in artifact"
        return verify(data)

    return Job(name, params, lambda: cli.run(argv), check, out)


def _has_nan(data) -> bool:
    if isinstance(data, dict):
        return any(_has_nan(v) for v in data.values())
    if isinstance(data, (list, tuple)):
        return any(_has_nan(v) for v in data)
    if isinstance(data, np.ndarray):
        return not np.all(np.isfinite(data))
    return isinstance(data, float) and not math.isfinite(data)


def _lib_job(name: str, params: dict, call: Callable[[], Any],
             verify: Callable[[Any], str | None]) -> Job:
    def check(value):
        if _has_nan(np.asarray(value, dtype=complex)):
            return "non-finite result"
        return verify(value)

    return Job(name, params, call, check)


def _within(value: float, limit: float, what: str) -> str | None:
    return None if value <= limit else f"{what} {value:.3e} exceeds {limit:.0e}"


# ---------------------------------------------------------------- fixed: Fourier-space pipeline


def _check_propagator(a: float, m: float, n: int, eps: float):
    """The table equals (dt^2/2) i / (M cos(p1 a) - cos(p0 dt) + i eps)."""
    dt, big_m = a, 1.0 - 0.5 * m * m * a * a
    p0, p1 = np.meshgrid(_midpoints(n, math.pi / dt), _midpoints(n, math.pi / a), indexing="ij")
    ref = (dt * dt / 2.0) * 1j / (big_m * np.cos(p1 * a) - np.cos(p0 * dt) + 1j * eps)

    def verify(rows):
        if rows.shape != (n * n, 4):
            return f"table shape {rows.shape}"
        grid_err = np.max(np.abs(rows[:, :2] - np.stack([p0.ravel(), p1.ravel()], 1)))
        err = np.max(np.abs(rows[:, 2] + 1j * rows[:, 3] - ref.ravel()) / np.abs(ref.ravel()))
        return _within(grid_err, 1e-12, "momentum grid error") or _within(err, 1e-9, "D_F error")

    return verify


def _check_dispersion(a: float, m: float, n: int):
    """theta equals arccos(M cos(p a))/dt on the folded, sorted momentum grid."""
    p = 2.0 * math.pi * np.arange(n) / (n * a)
    p = np.sort(np.where(p > math.pi / a, p - 2.0 * math.pi / a, p))
    theta = np.arccos((1.0 - 0.5 * m * m * a * a) * np.cos(p * a)) / a

    def verify(rows):
        if rows.shape != (n, 5):
            return f"table shape {rows.shape}"
        return (_within(np.max(np.abs(rows[:, 0] - p)), 1e-12, "momentum error")
                or _within(np.max(np.abs(rows[:, 1] - theta) / theta), 1e-10, "theta error"))

    return verify


def _check_oneloop(lam: float, m: float, spacings: list[float]):
    """The ShiftPlain column equals lambda/(2 pi) K(M), K from scipy's ellipk(M^2)."""
    a = np.array(spacings)
    big_m = 1.0 - 0.5 * m * m * a * a
    ref = lam / (2.0 * math.pi) * special.ellipk(big_m**2)

    def verify(rows):
        if rows.shape != (len(spacings), 7):
            return f"table shape {rows.shape}"
        return _within(np.max(np.abs(rows[:, 2] - ref) / ref), 1e-9, "ShiftPlain error")

    return verify


def _smeared_loop(lam: float, m: float, a: float, n: int = 8192) -> float:
    big_m = 1.0 - 0.5 * m * m * a * a
    theta = _midpoints(n, math.pi)
    return lam / 16.0 * float(np.sum((1 + np.cos(theta)) ** 2
                                     / np.sqrt(1 - (big_m * np.cos(theta)) ** 2))) / n


def _renorm_job(rng, index: int, workdir: str) -> Job:
    """The README's one-parameter problem with targets made at a drawn true mass."""
    a, m_true = 0.1, rng.uniform(0.8, 1.2)
    lam, p = rng.uniform(0.5, 2.0), rng.uniform(0.2, 0.5)
    big_m = 1.0 - 0.5 * m_true**2 * a * a
    spec = {
        "a": a, "m": 1.0, "lam": lam,
        "observables": [{"kind": "dispersion_theta", "p": p},
                        {"kind": "one_loop", "regulator": "ShiftSmeared", "p_in": 0.0}],
        "targets": [math.acos(big_m * math.cos(p * a)) / a, _smeared_loop(lam, m_true, a)],
        "init": {"m": m_true + rng.uniform(0.15, 0.3)},
        "eta": 0.05, "fd_step": 1e-4, "tol": 1e-8, "max_iters": 500,
    }
    path = os.path.join(workdir, f"{index:04d}-renorm-problem.json")
    with open(path, "w") as handle:
        json.dump(spec, handle)

    def verify(report):
        if not report["converged"]:
            return f"renorm did not converge in {report['iterations']} iterations"
        return _within(abs(report["final"]["m"] - m_true), 1e-6, "recovered-mass error")

    return _cli_job("cli renorm", ["renorm", "--problem", path], {"spec": spec, "m_true": m_true},
                    workdir, index, verify, "json")


def _diagram_reference(spec: perturbation.DiagramSpec, params: LatticeParams) -> complex:
    """Zone sum of the tadpole or s-channel bubble, vectorized in blocks of q0 rows."""
    a, dt, big_m, lam = params.a, params.dt, params.M, params.lam
    kind, legs, n, eps = spec.kind, spec.incoming, spec.resolution, spec.epsilon
    q0_all, q1 = _midpoints(n, math.pi / dt), _midpoints(n, math.pi / a)

    def d_f(p0, p1):
        return (dt * dt / 2.0) * 1j / (big_m * np.cos(p1 * a) - np.cos(p0 * dt) + 1j * eps)

    def ff(p1):
        return (1.0 + np.cos(p1 * a)) / 2.0 if spec.smeared else 1.0

    total = 0.0 + 0.0j
    for start in range(0, n, 128):
        q0 = q0_all[start:start + 128, None]
        if kind == "TadpoleMass":
            total += np.sum(d_f(q0, q1) * ff(q1) ** 2)
        else:
            back0 = legs[0][0] + legs[1][0] - q0
            back1 = legs[0][1] + legs[1][1] - q1
            total += np.sum(d_f(q0, q1) * d_f(back0, back1) * (ff(q1) * ff(back1)) ** 2)
    if kind == "TadpoleMass":
        factor = -1j * lam / 2.0 * ff(legs[0][1]) ** 2
    else:
        factor = (-1j * lam) ** 2 / 2.0 * (ff(legs[0][1]) * ff(legs[1][1])) ** 2
    return factor * total / (n * dt) / (n * a)


def _equal_time_job(rng) -> Job:
    """equal_time at d=2 with refinement; offsets are even, since odd ones cancel to roundoff.

    m a stays above 0.1: below about 0.065 the d=2 integrand is too peaked for
    256 nodes to meet the 1e-9 refinement tolerance, and the call rightly fails.
    """
    d, n_quad = 2, 256
    a, m = rng.uniform(0.15, 0.3), rng.uniform(0.75, 2.0)
    offset = tuple(int(v) for v in 2 * rng.integers(0, 2, d))
    params = LatticeParams(a=a, m=m, d=d)

    def check(value, n=3 * n_quad):
        # zone sum of exp(i p.x) / (2 omega) with 1/(2 omega) = dt / (2 sqrt(1 - c^2)),
        # accumulated in blocks of rows of the first momentum axis
        line = _midpoints(n, math.pi / a)
        axes = [line[None, :]] * (d - 1)
        total = 0.0 + 0.0j
        for start in range(0, n, 128):
            grid = [line[start:start + 128, None]] + axes
            c = params.M * math.prod(np.cos(p * a) for p in grid)
            phase = sum(p * x * a for p, x in zip(grid, offset))
            total += np.sum(np.exp(1j * phase) * a / (2.0 * np.sqrt(1.0 - c * c)))
        ref = total / (n * a) ** d
        return _within(_rel(value, ref), 1e-9, "equal-time error")

    return _lib_job(f"propagator.equal_time d={d}", {"a": a, "m": m, "offset": offset},
                    lambda: propagator.equal_time(params, offset, n_quad, conv_rtol=1e-9), check)


def _spectral(rng, index: int, workdir: str) -> list[Job]:
    a, m, lam = rng.uniform(0.05, 0.2), rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
    eps = rng.uniform(5e-4, 2e-3)
    base = {"a": a, "m": m, "lam": lam}
    a0 = rng.uniform(0.2, 0.4)
    spacings = [a0 / 2**k for k in range(5)]
    params = LatticeParams(a=a, m=m, lam=lam)
    zone = math.pi / a
    legs = tuple((rng.uniform(-1, 1) * zone, rng.uniform(-0.9, 0.9) * zone) for _ in range(2))
    p_contour = rng.uniform(-0.9, 0.9) * zone
    eps_contour = 1e-3 / params.dt
    jobs = [
        _cli_job("cli propagator", ["propagator", "--a", a, "--m", m, "--L", 64,
                                    "--epsilon", eps],
                 {**base, "epsilon": eps}, workdir, index, _check_propagator(a, m, 64, eps),
                 "csv"),
        _cli_job("cli dispersion", ["dispersion", "--a", a, "--m", m, "--L", 2048], base,
                 workdir, index, _check_dispersion(a, m, 2048), "csv"),
        _cli_job("cli oneloop", ["oneloop", "--lambda", lam, "--m", m,
                                 "--a-series", ",".join(repr(s) for s in spacings)],
                 {**base, "a_series": spacings}, workdir, index,
                 _check_oneloop(lam, m, spacings), "csv"),
        _renorm_job(rng, index, workdir),
    ]
    for kind in ("TadpoleMass", "BubbleSChannel"):
        spec = perturbation.DiagramSpec(kind, legs[:1] if kind == "TadpoleMass" else legs,
                                        smeared=True, resolution=1024)
        ref = _diagram_reference(spec, params)
        jobs.append(_lib_job(
            f"perturbation.evaluate_diagram {kind}", {**base, "legs": legs},
            lambda spec=spec: perturbation.evaluate_diagram(spec, params),
            lambda value, ref=ref: _within(_rel(value, ref), 1e-9, "diagram error")))
    for t in (0, 1, 3):
        jobs.append(_lib_job(
            f"propagator.contour_identity_residual t={t}", {**base, "p": p_contour, "t": t},
            lambda t=t: propagator.contour_identity_residual(params, p_contour, t, eps_contour,
                                                             2**16),
            lambda value: _within(value, 1e-6, "contour residual")))

    jobs.append(_equal_time_job(rng))
    return jobs


# ---------------------------------------------------------------- fixed: matrix-free evolution


def _product_state(rng, n: int, sites: int) -> np.ndarray:
    psi = np.ones(1, dtype=complex)
    for _ in range(sites):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        psi = np.kron(psi, v / np.linalg.norm(v))
    return psi


def _amplitude_bounded(value) -> str | None:
    return _within(abs(value), 1.0 + 1e-12, "|amplitude|")


def _gauge_equal(value) -> str | None:
    lhs, rhs, _ = value
    return _within(abs(lhs - rhs) / max(1.0, abs(rhs)), 1e-10, "transfer vs Wilson deviation")


def _evolve(rng, index: int, workdir: str) -> list[Job]:
    a, m, lam = rng.uniform(0.3, 0.7), rng.uniform(0.5, 1.5), rng.uniform(0.0, 0.5)
    base = {"a": a, "m": m, "lam": lam}
    params = LatticeParams(a=a, m=m, lam=lam)
    big = statevector.TruncatedLattice(5, statevector.FieldGrid.dual(16), params)
    wide = statevector.TruncatedLattice(2, statevector.FieldGrid.dual(512), params)
    psi = _product_state(rng, 16, 5)
    norm = np.linalg.norm(psi)
    jobs = [_lib_job("statevector.apply_step Shift dim=2^20", base,
                     lambda: statevector.apply_step(big, "Shift", lam, psi),
                     lambda out: _within(abs(np.linalg.norm(out) - norm), 1e-12, "norm drift"))]
    phi = [tuple(int(v) for v in rng.integers(0, 16, 5)) for _ in range(2)]
    jobs.append(_lib_job("statevector.amplitude_circuit Strang dim=2^20 tau=3",
                         {**base, "phi": phi},
                         lambda: statevector.amplitude_circuit(big, "Strang", lam, *phi, 3),
                         _amplitude_bounded))
    phi_wide = [tuple(int(v) for v in rng.integers(192, 320, 2)) for _ in range(2)]
    jobs.append(_lib_job("statevector.amplitude_circuit Shift n=512 tau=1",
                         {**base, "phi": phi_wide},
                         lambda: statevector.amplitude_circuit(wide, "Shift", lam, *phi_wide, 1),
                         _amplitude_bounded))
    glat, group, g = gauge.GaugeLattice(2, 2), gauge.GaugeGroupZN(3), rng.uniform(0.8, 1.5)
    u_i, u_f = rng.integers(0, 3, glat.n_links), rng.integers(0, 3, glat.n_links)
    jobs.append(_lib_job("gauge.amplitude_equiv_check N=3 2x2 tau=1",
                         {"g": g, "u_i": u_i.tolist(), "u_f": u_f.tolist()},
                         lambda: gauge.amplitude_equiv_check(glat, group, g, 1.0, u_i, u_f, 1),
                         _gauge_equal))
    tau = 3
    jobs.append(_cli_job("cli lightcone", ["lightcone", "--a", a, "--m", m, "--L", 512,
                                           "--tau", tau, "--kind", "Shift"],
                         base, workdir, index,
                         lambda report: _within(report["radius"], 2 * tau, "cone radius"),
                         "json"))
    return jobs


# ---------------------------------------------------------------- verify

# Three size sets, all run in every round, in this order.
VERIFY_SIZES = (
    {"mass": (3, 10, 2, "Strang"), "dual_n": 12, "action_n": 12, "ipc": (10, "Strang"),
     "gauge": (2, 2, 1), "equiv": (2, 3), "movers": 64, "kernel_n": 128},
    {"mass": (3, 12, 2, "Trotter"), "dual_n": 16, "action_n": 16, "ipc": (12, "Shift"),
     "gauge": (1, 2, 3), "equiv": (3, 2), "movers": 128, "kernel_n": 256},
    {"mass": (3, 8, 2, "Shift"), "dual_n": 8, "action_n": 20, "ipc": (16, "Trotter"),
     "gauge": (2, 2, 2), "equiv": (2, 4), "movers": 256, "kernel_n": 512},
)


def _check_pathint(report) -> str | None:
    circuit, path = complex(*report["circuit_amp"]), complex(*report["path_amp"])
    err = _within(_rel(path, circuit), 1e-12, "circuit vs path-sum deviation")
    if err or report["grid"] != "dual" or report["action_amp"] is None:
        return err
    expected = (-1j) ** (report["tau"] * report["L"]) * circuit
    return _within(_rel(complex(*report["action_amp"]), expected), 1e-10,
                   "action form vs circuit deviation")


def _check_gauge_report(report) -> str | None:
    lhs, rhs = complex(*report["lhs"]), complex(*report["rhs"])
    return (_within(abs(lhs - rhs), 1e-10, "gauge lhs vs rhs")
            or _within(report["deviation"], 1e-10, "worst gauge deviation"))


def _verify(rng, index: int, workdir: str) -> list[Job]:
    return [job for size in VERIFY_SIZES for job in _verify_set(rng, size, index, workdir)]


def _verify_set(rng, size: dict, index: int, workdir: str) -> list[Job]:
    a, m, lam = rng.uniform(0.3, 0.7), rng.uniform(0.5, 1.5), rng.uniform(0.0, 0.5)
    base = {"a": a, "m": m, "lam": lam}
    params = LatticeParams(a=a, m=m, lam=lam)
    sites, n, tau, kind = size["mass"]
    jobs = [
        _cli_job(f"cli pathint-check mass L={sites} n={n}",
                 ["pathint-check", "--a", a, "--m", m, "--lambda", lam, "--L", sites,
                  "--n-points", n, "--tau", tau, "--kind", kind, "--grid", "mass"],
                 base, workdir, index, _check_pathint, "json"),
        _cli_job(f"cli pathint-check dual L=2 n={size['dual_n']}",
                 ["pathint-check", "--a", a, "--m", m, "--lambda", lam, "--L", 2,
                  "--n-points", size["dual_n"], "--tau", 3, "--grid", "dual"],
                 base, workdir, index, _check_pathint, "json"),
    ]

    n = size["action_n"]
    action_lat = statevector.TruncatedLattice(2, statevector.FieldGrid.dual(n), params)
    phi = [tuple(int(v) for v in rng.integers(0, n, 2)) for _ in range(2)]

    def check_action(value):
        circuit = statevector.amplitude_circuit(action_lat, "Strang", lam, *phi, 3)
        return _within(_rel(value, (-1j) ** 6 * circuit), 1e-10,
                       "action form vs circuit deviation")

    jobs.append(_lib_job(f"statevector.amplitude_action_form L=2 n={n} tau=3",
                         {**base, "phi": phi},
                         lambda: statevector.amplitude_action_form(action_lat, lam, *phi, 3),
                         check_action))

    n, kind = size["ipc"]
    ipc_lat = statevector.TruncatedLattice(2, statevector.FieldGrid.dual(n), params)
    jobs.append(_lib_job(f"statevector.interaction_picture_check {kind} n={n}", base,
                         lambda: statevector.interaction_picture_check(ipc_lat, kind, lam, 3),
                         lambda value: _within(value, 1e-10, "interaction-picture defect")))

    lx, ly, tau = size["gauge"]
    g, pair_seed = rng.uniform(0.8, 1.5), int(rng.integers(2**31))
    jobs.append(_cli_job(f"cli gauge-check N=2 {lx}x{ly} tau={tau}",
                         ["gauge-check", "--N", 2, "--lx", lx, "--ly", ly, "--tau", tau,
                          "--g", g, "--seed", pair_seed],
                         {"g": g, "seed": pair_seed}, workdir, index, _check_gauge_report,
                         "json"))

    order, equiv_tau = size["equiv"]
    glat, group = gauge.GaugeLattice(1, 2), gauge.GaugeGroupZN(order)
    u_i, u_f = rng.integers(0, order, glat.n_links), rng.integers(0, order, glat.n_links)
    jobs.append(_lib_job(f"gauge.amplitude_equiv_check N={order} 1x2 tau={equiv_tau}",
                         {"g": g, "u_i": u_i.tolist(), "u_f": u_f.tolist()},
                         lambda: gauge.amplitude_equiv_check(glat, group, g, 1.0, u_i, u_f,
                                                             equiv_tau),
                         _gauge_equal))

    jobs.append(_cli_job(f"cli movers L={size['movers']}",
                         ["movers", "--a", a, "--L", size["movers"]], {"a": a}, workdir, index,
                         lambda report: _within(report["residual"], 1e-12, "mover residual"),
                         "json"))

    grid = statevector.FieldGrid.dual(size["kernel_n"])
    jobs.append(_lib_job(f"statevector.kernel_gaussian_check n={grid.n_points}", {},
                         lambda: statevector.kernel_gaussian_check(grid, match_phase=True),
                         lambda value: _within(value, 1e-10, "Fresnel kernel deviation")))
    return jobs


def known_defect_probe(workdir: str) -> Job:
    """``gauge-check --N 3`` on the default 2x2 lattice; it exits 3 at the seed commit.

    The dense commutator diagnostic hits the dense-size cap although the
    equivalence check fits. It is run once per verify run, outside the timed
    rounds, and reported by name, so the defect stays visible while the timed
    workload keeps only calls that succeed.
    """
    return _cli_job("cli gauge-check N=3 2x2", ["gauge-check", "--N", 3], {}, workdir, 0,
                    _check_gauge_report, "json")


def _fixed(rng, index: int, workdir: str) -> list[Job]:
    return _spectral(rng, index, workdir) + _evolve(rng, index, workdir)


_BUILDERS = {"fixed": _fixed, "verify": _verify}
