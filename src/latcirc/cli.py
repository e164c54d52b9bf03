"""Command-line entry point emitting reproducible CSV/JSON artifacts.

Every run resolves its configuration (file values overridden by explicit
flags), stamps the output's first line with a comment carrying the sha256
hash of that resolved config, and formats floats with 17 significant digits
so identical configs give byte-identical files.

A failed run writes no artifact and prints one stderr line; its exit code is
the error's ``exit_code`` from ``errors`` (1 validation or usage, 2 numerical
convergence, 3 resource cap), or 1 for a ValueError or OSError.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys

import numpy as np

from . import gauge as gauge_mod
from . import gaussian, kinematics, perturbation, propagator, renorm, statevector
from .errors import BYTE_BUDGET, EXIT_PREFIXES, LatcircError, require
from .kinematics import LatticeParams
from .quadrature import midpoint_nodes

__all__ = ["main", "run"]

_CSV_CHUNK_ROWS = 1 << 14


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_csv(path: str, config: dict, header: list[str], columns) -> None:
    """One row per entry of the equal-size ``columns``, which are flattened,
    formatted and written _CSV_CHUNK_ROWS rows at a time rather than as one string."""
    columns = [np.ravel(c) for c in columns]
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as handle:
        handle.write(f"# config_hash={_config_hash(config)}\n{','.join(header)}\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            chunk = np.column_stack([c[start : start + _CSV_CHUNK_ROWS] for c in columns])
            handle.write((row_format * len(chunk)) % tuple(chunk.ravel().tolist()))


def _write_json(path: str, config: dict, payload: dict) -> None:
    body = json.dumps(payload, sort_keys=True, indent=2)
    with open(path, "w", newline="\n") as handle:
        handle.write(f"# config_hash={_config_hash(config)}\n{body}\n")


def _params_dict(params: LatticeParams) -> dict:
    return {"a": params.a, "dt": params.dt, "d": params.d, "m": params.m,
            "lam": params.lam, "g": params.g}


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="latcirc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, mass_default=1.0):
        p.add_argument("--a", type=float, default=None, help="lattice spacing")
        p.add_argument("--dt", type=float, default=None, help="timestep (default: a)")
        p.add_argument("--m", type=float, default=None, help=f"bare mass (default {mass_default})")
        p.add_argument("--lambda", dest="lam", type=float, default=None, help="quartic coupling")
        p.add_argument("--config", type=str, default=None, help="JSON config file (flags override)")
        p.add_argument("--out", type=str, default=None, help="output file path")

    p = sub.add_parser("dispersion", help="dispersion table: p,theta,omega,E,E_latt")
    add_common(p)
    p.add_argument("--L", type=int, default=None, help="momentum grid points")

    p = sub.add_parser("movers", help="massless mover-shift residual (JSON)")
    add_common(p, mass_default=0.0)
    p.add_argument("--L", type=int, default=None, help="chain length")

    p = sub.add_parser("lightcone", help="causal cone radius (JSON)")
    add_common(p)
    p.add_argument("--L", type=int, default=None, help="chain length")
    p.add_argument("--kind", type=str, default=None, choices=["Shift", "Strang"])
    p.add_argument("--tau", type=int, default=None, help="number of steps")
    p.add_argument("--observable", type=str, default=None, choices=["phi", "pi", "both"])

    p = sub.add_parser("propagator", help="momentum-space propagator table: p0,p1,re,im")
    add_common(p)
    p.add_argument("--L", type=int, default=None, help="nodes per momentum axis")
    p.add_argument("--epsilon", type=float, default=None, help="i*epsilon regulator (dimensionless)")

    p = sub.add_parser("oneloop", help="one-loop mass corrections vs lattice spacing")
    add_common(p)
    p.add_argument("--a-series", dest="a_series", type=str, default=None,
                   help="comma-separated lattice spacings")
    p.add_argument("--p-in", dest="p_in", type=float, default=None, help="incoming momentum")
    p.add_argument("--resolution", type=int, default=None, help="quadrature nodes")

    p = sub.add_parser("pathint-check", help="circuit vs path-sum vs action-form amplitudes")
    add_common(p)
    p.add_argument("--L", type=int, default=None, help="chain sites")
    p.add_argument("--n-points", dest="n_points", type=int, default=None, help="field grid points")
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--kind", type=str, default=None, choices=list(statevector.KINDS))
    p.add_argument("--grid", type=str, default=None, choices=["dual", "mass"],
                   help="field grid family (dual enables the exact action-form check)")

    p = sub.add_parser("gauge-check", help="Z_N transfer operator vs Wilson path integral")
    p.add_argument("--N", type=int, default=None, help="gauge group order")
    p.add_argument("--lx", type=int, default=None)
    p.add_argument("--ly", type=int, default=None)
    p.add_argument("--g", type=float, default=None, help="gauge coupling")
    p.add_argument("--kappa", type=float, default=None, help="dt/a anisotropy")
    p.add_argument("--tau", type=int, default=None)
    p.add_argument("--pairs", type=int, default=None, help="number of (U_i, U_f) pairs")
    p.add_argument("--seed", type=int, default=None, help="RNG seed for the random pairs")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("renorm", help="gradient-descent calibration from a problem file")
    p.add_argument("--problem", type=str, default=None, help="JSON problem file")
    p.add_argument("--config", type=str, default=None)
    p.add_argument("--out", type=str, default=None)

    return parser


DEFAULTS = {
    "dispersion": {"a": 0.1, "dt": None, "m": 1.0, "lam": 0.0, "L": 256},
    "movers": {"a": 0.1, "dt": None, "m": 0.0, "lam": 0.0, "L": 8},
    "lightcone": {"a": 0.1, "dt": None, "m": 1.0, "lam": 0.0, "L": 32, "kind": "Shift",
                  "tau": 3, "observable": "phi"},
    "propagator": {"a": 0.1, "dt": None, "m": 1.0, "lam": 0.0, "L": 32, "epsilon": 1e-3},
    "oneloop": {"a": 0.1, "dt": None, "m": 1.0, "lam": 1.0,
                "a_series": "0.2,0.1,0.05,0.025", "p_in": 0.0, "resolution": 8192},
    "pathint-check": {"a": 0.5, "dt": None, "m": 1.0, "lam": 0.1, "L": 2, "n_points": 16,
                      "tau": 2, "kind": "Strang", "grid": "dual"},
    "gauge-check": {"N": 2, "lx": 2, "ly": 2, "g": 1.0, "kappa": 1.0, "tau": 1,
                    "pairs": 4, "seed": 0},
    "renorm": {"problem": ""},
}


# a value must have its default's type, except that an int may stand for a float and
# a key without default (None) takes a number or null; a bool is never a number
_CONFIG_TYPES = {float: (int, float), type(None): (int, float, type(None))}


def _check_types(values: dict, defaults: dict, what: str) -> None:
    for key in [key for key in values if key in defaults]:
        value, default = values[key], defaults[key]
        allowed = _CONFIG_TYPES.get(type(default), type(default))
        if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, allowed):
            raise ValueError(f"{what} value {key}={value!r} has the wrong type")


def _resolve_config(args: argparse.Namespace) -> dict:
    sub = args.subcommand
    resolved = dict(DEFAULTS[sub])
    if args.config is not None:
        with open(args.config) as handle:
            file_values = json.load(handle)
        unknown = set(file_values) - set(resolved)
        if unknown:
            raise ValueError(f"unknown config keys for {sub}: {sorted(unknown)}")
        _check_types(file_values, resolved, "config")
        resolved.update(file_values)
    for key in resolved:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
    if getattr(args, "out", None) is None:
        raise ValueError("--out is required")
    resolved["subcommand"] = sub
    return resolved


def _params_from_config(cfg: dict, d: int = 1) -> LatticeParams:
    return LatticeParams(a=cfg["a"], dt=cfg["dt"], d=d, m=cfg["m"], lam=cfg.get("lam", 0.0))


def _run_dispersion(cfg: dict, out: str) -> None:
    params = _params_from_config(cfg)
    # the grid, the value columns and their temporaries: ~56 bytes per momentum (measured)
    require(80 * cfg["L"], BYTE_BUDGET, f"bytes for the dispersion table of {cfg['L']} rows")
    p = kinematics.MomentumGrid(params, cfg["L"]).points
    columns = (p[:, 0], kinematics.dispersion_theta(params, p), kinematics.omega(params, p),
               *kinematics.reference_energies(params, p))
    _write_csv(out, cfg, ["p", "theta", "omega", "E", "E_latt"], columns)


def _run_movers(cfg: dict, out: str) -> None:
    params = _params_from_config(cfg)
    residual = gaussian.mover_shift_check(params, cfg["L"])
    _write_json(out, cfg, {"residual": residual, "radius": None, "tau": 1,
                           "L": cfg["L"], "params": _params_dict(params)})


def _run_lightcone(cfg: dict, out: str) -> None:
    params = _params_from_config(cfg)
    radius = gaussian.lightcone_radius(params, cfg["L"], cfg["kind"], cfg["tau"],
                                       observable=cfg["observable"])
    _write_json(out, cfg, {"residual": None, "radius": radius, "tau": cfg["tau"],
                           "L": cfg["L"], "kind": cfg["kind"],
                           "observable": cfg["observable"], "params": _params_dict(params)})


def _run_propagator(cfg: dict, out: str) -> None:
    params = _params_from_config(cfg)
    # the momentum grids, the values and their CSV columns: ~56 bytes per point (measured)
    require(80 * cfg["L"] ** 2, BYTE_BUDGET, f"bytes for a propagator table of {cfg['L']}^2 rows")
    p0, p1 = np.meshgrid(midpoint_nodes(cfg["L"], math.pi / params.dt),
                         midpoint_nodes(cfg["L"], math.pi / params.a), indexing="ij")
    value = propagator.feynman_momentum(
        propagator.PropagatorQuery(params, p0, p1[..., None], cfg["epsilon"]))
    _write_csv(out, cfg, ["p0", "p1", "re", "im"], (p0, p1, value.real, value.imag))


def _run_oneloop(cfg: dict, out: str) -> None:
    spacings = [float(tok) for tok in str(cfg["a_series"]).split(",") if tok]
    if not spacings:
        raise ValueError("a-series must contain at least one lattice spacing")
    table = np.array([
        [perturbation.one_loop_mass(reg, LatticeParams(a=a, m=cfg["m"], lam=cfg["lam"]),
                                    p_in=cfg["p_in"], resolution=cfg["resolution"])
         for reg in perturbation.REGULATORS]
        for a in spacings
    ])
    norm = table - table[spacings.index(max(spacings))]  # all columns agree at largest a
    _write_csv(
        out, cfg,
        ["a", "pi_cont", "pi_shift_plain", "pi_shift_smeared",
         "pi_cont_norm", "pi_shift_plain_norm", "pi_shift_smeared_norm"],
        (spacings, *table.T, *norm.T),
    )


def _run_pathint_check(cfg: dict, out: str) -> None:
    params = _params_from_config(cfg)
    n = cfg["n_points"]
    grid = (statevector.FieldGrid.dual(n) if cfg["grid"] == "dual"
            else statevector.FieldGrid.for_mass(params.m, n))
    lat = statevector.TruncatedLattice(cfg["L"], grid, params)
    phi_i = tuple([n // 2] * cfg["L"])
    phi_f = tuple((n // 2 + (1 if site % 2 else -1)) % n for site in range(cfg["L"]))
    # the path sum first: it refuses an oversized sum before any state vector exists
    path = statevector.amplitude_path_sum(lat, cfg["kind"], params.lam, phi_i, phi_f, cfg["tau"])
    circuit = statevector.amplitude_circuit(lat, cfg["kind"], params.lam, phi_i, phi_f, cfg["tau"])
    scale = max(abs(circuit), 1e-300)
    payload = {
        "kind": cfg["kind"], "L": cfg["L"], "n_points": n, "tau": cfg["tau"],
        "grid": cfg["grid"], "phi_i": list(phi_i), "phi_f": list(phi_f),
        "circuit_amp": _complex_pair(circuit), "path_amp": _complex_pair(path),
        "action_amp": None,
        "rel_errors": {"path": abs(circuit - path) / scale},
        "params": _params_dict(params),
    }
    if cfg["kind"] == "Strang":
        action = statevector.amplitude_action_form(lat, params.lam, phi_i, phi_f, cfg["tau"])
        payload["action_amp"] = _complex_pair(action)
        payload["rel_errors"]["action"] = abs(circuit - action) / scale
    _write_json(out, cfg, payload)


def _run_gauge_check(cfg: dict, out: str) -> None:
    lat = gauge_mod.GaugeLattice(cfg["lx"], cfg["ly"])
    group = gauge_mod.GaugeGroupZN(cfg["N"])
    g, kappa, tau = cfg["g"], cfg["kappa"], cfg["tau"]
    if cfg["pairs"] < 1:
        raise ValueError("pairs must be >= 1")
    rng = np.random.default_rng(cfg["seed"])
    identity = np.zeros(lat.n_links, dtype=int)
    pairs = [(identity, identity)] + [
        (rng.integers(0, group.N, lat.n_links), rng.integers(0, group.N, lat.n_links))
        for _ in range(cfg["pairs"] - 1)]
    checks = [gauge_mod.amplitude_equiv_check(lat, group, g, kappa, u_i, u_f, tau)
              for u_i, u_f in pairs]
    lhs0, rhs0, _ = checks[0]
    worst = max(dev for _, _, dev in checks)
    # [T, D(Omega)] = 0 for every Omega when W_mag is invariant under each site
    # generator D(e_x) and the per-link W_el factor is circulant
    wmag = gauge_mod.build_wmag(lat, group, g, kappa).diag
    comm = max(float(np.max(np.abs(wmag[gauge_mod.gauge_transform(lat, group, site).perm] - wmag)))
               for site in np.eye(lat.n_sites, dtype=int))
    w = gauge_mod.wel_link_matrix(group, g, kappa)
    rows, cols = np.indices(w.shape)
    comm = max(comm, float(np.max(np.abs(w - w[(rows - cols) % group.N, 0]))))
    _write_json(out, cfg, {
        "N": cfg["N"], "lattice": [cfg["lx"], cfg["ly"]], "g": g, "kappa": kappa,
        "tau": tau, "pairs": len(pairs),
        "lhs": _complex_pair(lhs0), "rhs": _complex_pair(rhs0), "deviation": worst,
        "wel_unitarity_deviation": gauge_mod.unitarity_report(lat, group, g, kappa),
        "gauss_commutator_max": comm,
    })


# renorm problem-file keys, each with a value of its type
_PROBLEM_TYPES = {"a": 0.0, "observables": [], "targets": [], "init": {}, "dt": None, "m": 0.0,
                  "lam": 0.0, "eta": 0.0, "fd_step": 0.0, "tol": 0.0, "max_iters": 0,
                  "backtracking": False}


def _run_renorm(cfg: dict, out: str) -> None:
    if not cfg.get("problem"):
        raise ValueError("renorm needs --problem pointing to a JSON problem file")
    with open(cfg["problem"]) as handle:
        spec = json.load(handle)
    if not isinstance(spec, dict):
        raise ValueError("renorm problem file must hold a JSON object")
    missing = [key for key in ("a", "observables", "targets", "init") if key not in spec]
    if missing:
        raise ValueError(f"renorm problem is missing {missing[0]!r}")
    _check_types(spec, _PROBLEM_TYPES, "renorm problem")
    _check_types(spec["init"], dict.fromkeys(spec["init"], 0.0), "renorm problem 'init'")
    base = LatticeParams(a=spec["a"], dt=spec.get("dt"), m=spec.get("m", 1.0),
                         lam=spec.get("lam", 0.0))
    options = {key: spec[key] for key in ("eta", "fd_step", "tol", "max_iters", "backtracking")
               if key in spec}
    try:
        observables = [renorm.make_observable(**entry) for entry in spec["observables"]]
        problem = renorm.RenormProblem(base, observables, spec["targets"], spec["init"],
                                       **options)
    except (TypeError, KeyError) as exc:
        raise ValueError(f"renorm problem is malformed: {exc}") from exc
    final, trace = renorm.calibrate(problem)
    cfg = dict(cfg)
    cfg["problem_spec"] = spec  # the problem content is part of the resolved config
    _write_json(out, cfg, {
        "final": dict(zip(problem.names, (float(v) for v in final))),
        "converged": trace[-1]["event"] == "converged",
        "iterations": trace[-1]["iter"],
        "trace": trace,
    })


RUNNERS = {
    "dispersion": _run_dispersion,
    "movers": _run_movers,
    "lightcone": _run_lightcone,
    "propagator": _run_propagator,
    "oneloop": _run_oneloop,
    "pathint-check": _run_pathint_check,
    "gauge-check": _run_gauge_check,
    "renorm": _run_renorm,
}


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        cfg = _resolve_config(args)
        RUNNERS[args.subcommand](cfg, args.out)
    except (LatcircError, ValueError, OSError) as exc:
        code = getattr(exc, "exit_code", 1)
        print(f"{EXIT_PREFIXES[code]}: {exc}", file=sys.stderr)
        return code
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
