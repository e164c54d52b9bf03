"""Command-line entry point emitting reproducible CSV/JSON artifacts.

Every run resolves its configuration (file values overridden by explicit
flags), stamps the output's first line with a comment carrying the sha256
hash of that resolved config, and formats floats with 17 significant digits
so identical configs give byte-identical files.

Each setting is one ``DEFAULTS`` key, which gives its flag, the flag's type and
(with ``_CHOICES``) the values that the flag and ``--config`` accept.

A failed run writes no artifact and prints one stderr line; its exit code is
the error's ``exit_code`` from ``errors`` (1 validation or usage, 2 numerical
convergence, 3 resource cap), or 1 for a ValueError or OSError. A usage error
is a ValueError; a NaN or infinite result is refused as ``NonFinite``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import gauge as gauge_mod
from . import gaussian, kinematics, perturbation, propagator, renorm, statevector
from .errors import BYTE_BUDGET, EXIT_PREFIXES, LatcircError, NonFinite, _require_int, require
from .kinematics import LatticeParams
from .quadrature import midpoint_nodes

__all__ = ["main", "run"]

_CSV_CHUNK_ROWS = 1 << 14


def _config_hash(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _write_csv(path: str, config: dict, header: list[str], columns) -> None:
    """One row per entry of the equal-size ``columns``, which are flattened,
    formatted and written _CSV_CHUNK_ROWS rows at a time rather than as one string;
    NonFinite (exit 2) before the file opens if they hold NaN or inf."""
    columns = [np.ravel(c) for c in columns]
    if not all(np.isfinite(c).all() for c in columns):
        raise NonFinite("the table holds a NaN or infinite value")
    row_format = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as handle:
        handle.write(f"# config_hash={_config_hash(config)}\n{','.join(header)}\n")
        for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            chunk = np.column_stack([c[start : start + _CSV_CHUNK_ROWS] for c in columns])
            handle.write((row_format * len(chunk)) % tuple(chunk.ravel().tolist()))


def _write_json(path: str, config: dict, payload: dict) -> None:
    """The payload as JSON; NonFinite (exit 2) before the file opens if it holds NaN or inf."""
    try:
        body = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NonFinite(f"the result holds a NaN or infinite value ({exc})") from exc
    with open(path, "w", newline="\n") as handle:
        handle.write(f"# config_hash={_config_hash(config)}\n{body}\n")


def _complex_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


DEFAULTS = {
    "dispersion": {"a": 0.1, "dt": None, "m": 1.0, "lam": 0.0, "L": 256},
    "movers": {"a": 0.1, "dt": None, "m": 0.0, "lam": 0.0, "L": 8},
    "lightcone": {"a": 0.1, "dt": None, "m": 1.0, "lam": 0.0, "L": 32, "kind": "Shift",
                  "tau": 3, "observable": "phi"},
    "propagator": {"a": 0.1, "dt": None, "m": 1.0, "lam": 0.0, "L": 32, "epsilon": 1e-3},
    "oneloop": {"a": 0.1, "dt": None, "m": 1.0, "lam": 1.0,
                "a_series": "0.2,0.1,0.05,0.025", "p_in": 0.0},
    "pathint-check": {"a": 0.5, "dt": None, "m": 1.0, "lam": 0.1, "L": 2, "n_points": 16,
                      "tau": 2, "kind": "Strang", "grid": "dual"},
    "gauge-check": {"N": 2, "lx": 2, "ly": 2, "g": 1.0, "kappa": 1.0, "tau": 1,
                    "pairs": 4, "seed": 0},
    "renorm": {"problem": ""},
}

# the values a setting may take, for flags and --config files alike
_CHOICES = {
    ("lightcone", "kind"): ("Shift", "Strang"),
    ("lightcone", "observable"): ("phi", "pi", "both"),
    ("pathint-check", "kind"): statevector.KINDS,
    ("pathint-check", "grid"): ("dual", "mass"),
}

_HELP = {
    "a": "lattice spacing", "dt": "timestep (default: a)", "m": "bare mass",
    "lam": "quartic coupling", "L": "chain sites or momentum grid points per axis",
    "kind": "circuit kind", "tau": "number of steps", "observable": "cone observable",
    "epsilon": "i*epsilon regulator (dimensionless)",
    "a_series": "comma-separated lattice spacings", "p_in": "incoming momentum",
    "n_points": "field grid points",
    "grid": "field grid family (dual enables the exact action-form check)",
    "N": "gauge group order", "lx": "lattice extent in x", "ly": "lattice extent in y",
    "g": "gauge coupling", "kappa": "dt/a anisotropy", "pairs": "number of (U_i, U_f) pairs",
    "seed": "RNG seed for the random pairs", "problem": "JSON problem file",
}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ValueError, so it ends in one line and exit 1."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


@functools.cache  # parsing leaves the parser as it was, so one serves every run
def _build_parser() -> argparse.ArgumentParser:
    """One flag per DEFAULTS key: --<key> with _ as -, except --lambda for lam; its type
    is its default's (float for a default of None), its choices those in _CHOICES."""
    parser = _Parser(prog="latcirc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file (flags override)")
    common.add_argument("--out", required=True, help="output file path")
    for name, defaults in DEFAULTS.items():
        p = sub.add_parser(name, help=RUNNERS[name].__doc__, parents=[common])
        for key, value in defaults.items():
            flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
            shown = "" if value in (None, "") else f" (default {value})"
            p.add_argument(flag, dest=key, type=float if value is None else type(value),
                           choices=_CHOICES.get((name, key)), help=_HELP[key] + shown)
    return parser


# a value must have its default's type, except that an int may stand for a float and
# a key without default (None) takes a number or null; a bool is never a number
_CONFIG_TYPES = {float: (int, float), type(None): (int, float, type(None))}


def _check_types(values: dict, defaults: dict, what: str, subcommand: str = "") -> None:
    """Refuse (ValueError) a key not in ``defaults``, a value of the wrong type, or one
    outside the subcommand's _CHOICES."""
    unknown = set(values) - set(defaults)
    if unknown:
        raise ValueError(f"unknown {what} keys: {sorted(unknown)}")
    for key in values:
        value, default = values[key], defaults[key]
        allowed = _CONFIG_TYPES.get(type(default), type(default))
        if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, allowed):
            raise ValueError(f"{what} value {key}={value!r} has the wrong type")
        choices = _CHOICES.get((subcommand, key))
        if choices is not None and value not in choices:
            raise ValueError(f"{what} value {key}={value!r} is not one of {list(choices)}")


def _resolve_config(args: argparse.Namespace) -> dict:
    sub = args.subcommand
    resolved = dict(DEFAULTS[sub])
    if args.config is not None:
        with open(args.config) as handle:
            file_values = json.load(handle)
        if not isinstance(file_values, dict):
            raise ValueError("config file must hold a JSON object, "
                             f"got {type(file_values).__name__}")
        _check_types(file_values, resolved, "config", sub)
        resolved.update(file_values)
    for key in resolved:
        flag_value = getattr(args, key)
        if flag_value is not None:
            resolved[key] = flag_value
    resolved["subcommand"] = sub
    return resolved


def _params_from_config(cfg: dict) -> LatticeParams:
    return LatticeParams(a=cfg["a"], dt=cfg["dt"], m=cfg["m"], lam=cfg["lam"])


def _run_dispersion(cfg: dict, out: str) -> None:
    """dispersion table: p,theta,omega,E,E_latt"""
    params = _params_from_config(cfg)
    # the grid, the value columns and their temporaries: ~56 bytes per momentum (measured)
    require(80 * cfg["L"], BYTE_BUDGET, f"bytes for the dispersion table of {cfg['L']} rows")
    p = kinematics.momentum_grid(params, cfg["L"])
    columns = (p[:, 0], kinematics.dispersion_theta(params, p), kinematics.omega(params, p),
               *kinematics.reference_energies(params, p))
    _write_csv(out, cfg, ["p", "theta", "omega", "E", "E_latt"], columns)


def _run_movers(cfg: dict, out: str) -> None:
    """massless mover-shift residual (JSON)"""
    params = _params_from_config(cfg)
    residual = gaussian.mover_shift_check(params, cfg["L"])
    _write_json(out, cfg, {"residual": residual, "radius": None, "tau": 1,
                           "L": cfg["L"], "params": asdict(params)})


def _run_lightcone(cfg: dict, out: str) -> None:
    """causal cone radius (JSON)"""
    params = _params_from_config(cfg)
    radius = gaussian.lightcone_radius(params, cfg["L"], cfg["kind"], cfg["tau"],
                                       observable=cfg["observable"])
    _write_json(out, cfg, {"residual": None, "radius": radius, "tau": cfg["tau"],
                           "L": cfg["L"], "kind": cfg["kind"],
                           "observable": cfg["observable"], "params": asdict(params)})


def _run_propagator(cfg: dict, out: str) -> None:
    """momentum-space propagator table: p0,p1,re,im"""
    params = _params_from_config(cfg)
    # the momentum grids, the values and their CSV columns: ~56 bytes per point (measured)
    require(80 * cfg["L"] ** 2, BYTE_BUDGET, f"bytes for a propagator table of {cfg['L']}^2 rows")
    p0, p1 = np.meshgrid(midpoint_nodes(cfg["L"], math.pi / params.dt),
                         midpoint_nodes(cfg["L"], math.pi / params.a), indexing="ij")
    value = propagator.feynman_momentum(params, p0, p1[..., None], cfg["epsilon"])
    _write_csv(out, cfg, ["p0", "p1", "re", "im"], (p0, p1, value.real, value.imag))


def _run_oneloop(cfg: dict, out: str) -> None:
    """one-loop mass corrections vs lattice spacing"""
    spacings = [float(tok) for tok in str(cfg["a_series"]).split(",") if tok]
    if not spacings:
        raise ValueError("a-series must contain at least one lattice spacing")
    table = np.array([
        [perturbation.one_loop_mass(reg, LatticeParams(a=a, m=cfg["m"], lam=cfg["lam"]),
                                    p_in=cfg["p_in"])
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
    """circuit vs path-sum vs action-form amplitudes"""
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
        "params": asdict(params),
    }
    if cfg["kind"] == "Strang":
        action = statevector.amplitude_action_form(lat, params.lam, phi_i, phi_f, cfg["tau"])
        payload["action_amp"] = _complex_pair(action)
        # the circuit carries the metaplectic phase (-i)^(tau L) of its Fresnel kernels, which
        # the action form has not: the action form is i^(tau L) times the circuit
        expected = 1j ** (cfg["tau"] * cfg["L"]) * circuit
        payload["rel_errors"]["action"] = abs(expected - action) / scale
    _write_json(out, cfg, payload)


def _run_gauge_check(cfg: dict, out: str) -> None:
    """Z_N transfer operator vs Wilson path integral"""
    lat = gauge_mod.GaugeLattice(cfg["lx"], cfg["ly"])
    group = gauge_mod.GaugeGroupZN(cfg["N"])
    g, kappa, tau = cfg["g"], cfg["kappa"], cfg["tau"]
    n_pairs = _require_int(cfg["pairs"], 1, "pairs")
    rng = np.random.default_rng(_require_int(cfg["seed"], 0, "seed"))
    identity = np.zeros(lat.n_links, dtype=int)
    pairs = [(identity, identity)] + [
        (rng.integers(0, group.N, lat.n_links), rng.integers(0, group.N, lat.n_links))
        for _ in range(n_pairs - 1)]
    checks = [gauge_mod.amplitude_equiv_check(lat, group, g, kappa, u_i, u_f, tau)
              for u_i, u_f in pairs]
    lhs0, rhs0, _ = checks[0]
    worst = max(dev for _, _, dev in checks)
    _write_json(out, cfg, {
        "N": cfg["N"], "lattice": [cfg["lx"], cfg["ly"]], "g": g, "kappa": kappa,
        "tau": tau, "pairs": len(pairs),
        "lhs": _complex_pair(lhs0), "rhs": _complex_pair(rhs0), "deviation": worst,
        "wel_unitarity_deviation": gauge_mod.unitarity_report(lat, group, g, kappa),
        "gauss_commutator_max": gauge_mod.gauss_commutator_max(lat, group, g, kappa),
    })


# renorm problem-file keys, each with a value of its type
_PROBLEM_TYPES = {"a": 0.0, "observables": [], "targets": [], "init": {}, "dt": None, "m": 0.0,
                  "lam": 0.0, "eta": 0.0, "fd_step": 0.0, "tol": 0.0, "max_iters": 0,
                  "backtracking": False}


def _run_renorm(cfg: dict, out: str) -> None:
    """gradient-descent calibration from a problem file"""
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


# the runner of each DEFAULTS subcommand is _run_<name>, with - written as _
RUNNERS = {name: globals()["_run_" + name.replace("-", "_")] for name in DEFAULTS}


def run(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        with np.errstate(all="ignore"):  # a NaN or inf reaching a writer ends in NonFinite
            RUNNERS[args.subcommand](cfg, args.out)
    except (LatcircError, ValueError, OSError) as exc:
        code = getattr(exc, "exit_code", 1)
        print(f"{EXIT_PREFIXES[code]}: {exc}", file=sys.stderr)
        return code
    except SystemExit:  # --help; a usage error raises ValueError instead
        return 0
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
