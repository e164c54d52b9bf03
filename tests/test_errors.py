"""The failure policy: every error's exit code and message, and one owner of the caps."""

import ast
import builtins
import inspect
import math
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from latcirc import cli, errors
from latcirc.cli import run
from latcirc.gauge import GaugeGroupZN, GaugeLattice, amplitude_equiv_check, wel_link_matrix
from latcirc.gaussian import lightcone_radius, mover_shift_check, realspace_map
from latcirc.kinematics import LatticeParams, cosine_symbol, dispersion_theta, momentum_grid, omega
from latcirc.perturbation import DiagramSpec, evaluate_diagram, log_slope, one_loop_mass
from latcirc.propagator import contour_identity_residual, equal_time, feynman_momentum
from latcirc.quadrature import midpoint_nodes
from latcirc.renorm import RenormProblem, calibrate, make_observable
from latcirc.statevector import (
    FieldGrid,
    TruncatedLattice,
    amplitude_action_form,
    amplitude_circuit,
    amplitude_path_sum,
    apply_step,
    build_step,
    interaction_picture_check,
)

# the exit codes the README documents for each error class
DOCUMENTED_EXIT_CODES = {"LatcircError": 1, "ConvergenceFailure": 2, "CapExceeded": 3}
PREFIXES = {1: "error: ", 2: "numerical convergence failure: ", 3: "resource cap exceeded: "}
ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, errors.LatcircError)]
# every failure kind that had an error class of its own before one type per exit code, the type
# that raises it now and its exit code: each still ends in that code, its prefix and one line
FORMER_CLASSES = {
    "DegenerateDispersion": (ValueError, 1),
    "DomainError": (ValueError, 1),
    "IllConditionedFit": (ValueError, 1),
    "ObservableFailure": (ValueError, 1),
    "OddLattice": (ValueError, 1),
    "UnknownDiagram": (ValueError, 1),
    "QuadratureNotConverged": (errors.ConvergenceFailure, 2),
    "Diverged": (errors.ConvergenceFailure, 2),
    "NonFinite": (errors.ConvergenceFailure, 2),
    "DimensionCap": (errors.CapExceeded, 3),
    "BruteForceCap": (errors.CapExceeded, 3),
    "LatticeTooSmall": (errors.CapExceeded, 3),
}
FAILURE_KINDS = {**{name: (getattr(errors, name), code) for name, code in DOCUMENTED_EXIT_CODES.items()},
                 **FORMER_CLASSES}
SOURCES = sorted(path for path in Path(errors.__file__).parent.glob("*.py")
                 if path.name != "errors.py")
# every name a class derives from to be an exception: the builtin ones and those of errors.py
EXCEPTION_NAMES = {name for name, obj in {**vars(builtins), **vars(errors)}.items()
                   if isinstance(obj, type) and issubclass(obj, BaseException)}


def test_every_error_class_is_documented():
    assert {cls.__name__ for cls in ERROR_CLASSES} == set(DOCUMENTED_EXIT_CODES)


@pytest.mark.parametrize("kind", sorted(FAILURE_KINDS))
def test_exit_code_prefix_and_one_line(tmp_path, capsys, monkeypatch, kind):
    error, code = FAILURE_KINDS[kind]

    def fail(cfg, out):
        raise error("the reason")

    monkeypatch.setitem(cli.RUNNERS, "movers", fail)
    out = tmp_path / "movers.json"
    assert run(["movers", "--out", str(out)]) == code
    assert capsys.readouterr().err == f"{PREFIXES[code]}the reason\n"
    assert not out.exists()


@pytest.mark.parametrize("error, code", [(ValueError, 1), (OSError, 1)])
def test_builtin_errors_are_validation_errors(tmp_path, capsys, monkeypatch, error, code):
    def fail(cfg, out):
        raise error("the reason")

    monkeypatch.setitem(cli.RUNNERS, "movers", fail)
    assert run(["movers", "--out", str(tmp_path / "movers.json")]) == code
    assert capsys.readouterr().err == "error: the reason\n"


@pytest.mark.parametrize("error", [OverflowError, ZeroDivisionError])
def test_arithmetic_errors_are_numerical_failures(tmp_path, capsys, monkeypatch, error):
    # a Python float power past the range or a division by 0 ends in exit 2 and one line
    # that names the error, as numpy's inf ends in ConvergenceFailure
    def fail(cfg, out):
        raise error("the reason")

    monkeypatch.setitem(cli.RUNNERS, "movers", fail)
    assert run(["movers", "--out", str(tmp_path / "movers.json")]) == 2
    assert capsys.readouterr().err == f"{PREFIXES[2]}{error.__name__}: the reason\n"


def test_require():
    assert errors.require(5, 5, "terms") == 5
    with pytest.raises(errors.CapExceeded, match="terms: 6 exceeds the cap 5"):
        errors.require(6, 5, "terms")


@pytest.mark.parametrize("amount, shown", [
    (10**30 - 1, str(10**30 - 1)), (10**30, "~10^30"), (10**512, "~10^512"),
    (16 ** (2 * 99999), "~10^240822"), (2**4300 * 3, "~10^1295"),
], ids=["30_digits", "31_digits", "10^512", "16^199998", "3*2^4300"])
def test_require_names_huge_amounts_by_their_power_of_ten(amount, shown):
    # str() of an int above 4300 digits raises ValueError, and thousands of digits are no
    # message: an amount of more than 30 digits reads ~10^k, k its rounded log10
    with pytest.raises(errors.CapExceeded) as info:
        errors.require(amount, 10**8, "terms")
    assert str(info.value) == f"terms: {shown} exceeds the cap 100000000"


@pytest.mark.parametrize("base, exponent", [(2, 26), (2, 27), (10, 30), (10, 31), (16, 199998),
                                            (3, 4300), (8, 10**12)])
def test_require_power_is_require_of_the_power_never_formed(base, exponent):
    # past 30 digits the power is refused from its logarithm: 8^(10^12) would take hours to
    # form, and its message is require's ~10^k
    expected = None
    if exponent < 10**6:
        try:
            expected = errors.require(base**exponent, 10**8, "terms")
        except errors.CapExceeded as exc:
            expected = str(exc)
    try:
        got = errors._require_power(base, exponent, 10**8, "terms")
    except errors.CapExceeded as exc:
        got = str(exc)
    assert got == (expected or "terms: ~10^903089986992 exceeds the cap 100000000")


# a refused int of more than 30 digits reads ~10^k, as require names an amount of that size
@pytest.mark.parametrize("value, shown", [(-10**400, "-~10^400"), (-10**30, "-~10^30"),
                                          (1 - 10**30, repr(1 - 10**30))])
def test_refused_count_past_30_digits_named_by_its_power_of_ten(value, shown):
    with pytest.raises(ValueError, match=f"^x must be an integer >= 0, got {re.escape(shown)}$"):
        errors._require_int(value, 0, "x")


@pytest.mark.parametrize("value, shown", [(10**400, "~10^400"), (-10**400, "-~10^400")])
def test_int_past_the_float_range_named_by_its_power_of_ten(value, shown):
    with pytest.raises(ValueError, match=f"^x must be finite, got {re.escape(shown)}$"):
        errors._require_real(value, "x", "")


P1 = LatticeParams(a=0.1, m=1.0)


@pytest.mark.parametrize("call", [
    lambda: midpoint_nodes(2.5, 1.0), lambda: midpoint_nodes(True, 1.0),
    lambda: equal_time(P1, 0, 64.5), lambda: equal_time(P1, 0, True),
    lambda: contour_identity_residual(P1, 0.3, 1, 1e-3, 64.0),
    lambda: FieldGrid(8.0, 0.5), lambda: FieldGrid(True, 0.5),
    lambda: GaugeGroupZN(2.5), lambda: GaugeGroupZN(True),
    lambda: GaugeLattice(1.5, 2), lambda: GaugeLattice(2, False),
    lambda: TruncatedLattice(2.0, FieldGrid(8, 0.5), P1),
], ids=["nodes-2.5", "nodes-True", "equal_time-64.5", "equal_time-True", "contour-64.0",
        "FieldGrid-8.0", "FieldGrid-True", "ZN-2.5", "ZN-True", "GaugeLattice-1.5",
        "GaugeLattice-False", "TruncatedLattice-2.0"])
def test_sizes_and_node_counts_must_be_integers(call):
    # a float size would be accepted and fail later, or give a float n_links; a bool is
    # refused too
    with pytest.raises(ValueError, match="must be an integer"):
        call()


def test_numpy_integer_sizes_are_ints():
    assert np.array_equal(midpoint_nodes(np.int64(4), 1.0), midpoint_nodes(4, 1.0))
    assert GaugeLattice(np.int32(1), 2).n_links == 4
    assert type(FieldGrid(np.int64(8), 0.5).n_points) is int


CHAIN = TruncatedLattice(2, FieldGrid.dual(8), LatticeParams(a=0.5, m=1.0, lam=0.1))
Z2_CELL = (GaugeLattice(1, 1), GaugeGroupZN(2), 1.0, 1.0, [0, 1], [1, 0])


# every count a library entry point takes: (what its message names, least value, a valid
# value, the call at a given count); the CLI's counts are swept in test_cli.py
COUNTS = {
    "FieldGrid.for_mass": ("n_points", 8, 8, lambda k: FieldGrid.for_mass(1.0, k)),
    "FieldGrid.dual": ("n_points", 8, 10, FieldGrid.dual),
    "amplitude_circuit": ("tau", 0, 3, lambda k: amplitude_circuit(
        CHAIN, "Strang", 0.1, (1, 2), (3, 4), k)),
    "amplitude_path_sum": ("tau", 1, 2, lambda k: amplitude_path_sum(
        CHAIN, "Shift", 0.1, (1, 2), (3, 4), k)),
    "amplitude_action_form": ("tau", 1, 2, lambda k: amplitude_action_form(
        CHAIN, 0.1, (1, 2), (3, 4), k)),
    "interaction_picture_check": ("tau", 1, 2, lambda k: interaction_picture_check(
        CHAIN, "Trotter", 0.3, k)),
    "amplitude_equiv_check": ("tau", 1, 2, lambda k: amplitude_equiv_check(*Z2_CELL, k)),
    "realspace_map": ("L", 2, 5, lambda k: realspace_map(P1, k, "Strang")),
    "mover_shift_check": ("L", 2, 8, lambda k: mover_shift_check(LatticeParams(a=0.1), k)),
    "lightcone_radius": ("tau", 0, 3, lambda k: lightcone_radius(P1, 32, "Shift", k)),
    "LatticeParams.d": ("spatial dimension d", 1, 2, lambda k: LatticeParams(a=0.1, d=k)),
    "momentum_grid": ("L", 1, 5, lambda k: momentum_grid(P1, k)),
    "DiagramSpec.resolution": ("resolution", 1, 64, lambda k: evaluate_diagram(
        DiagramSpec("TadpoleMass", ((0.0, 0.0),), resolution=k), P1)),
    "RenormProblem.max_iters": ("'max_iters'", 0, 3, lambda k: calibrate(RenormProblem(
        P1, [make_observable("dispersion_theta", p=0.3)], [0.03], {"m": 1.3}, max_iters=k))),
    # a step count and a site offset of either sign
    "contour_identity_residual.t_steps": ("t_steps", -math.inf, 3, lambda k: (
        contour_identity_residual(P1, 0.3, k, 0.05, 2**8, None))),
    "equal_time.x_minus_y": ("x_minus_y", -math.inf, 2, lambda k: equal_time(P1, k, 64)),
    "equal_time.x_minus_y[1]": ("x_minus_y", -math.inf, 2, lambda k: equal_time(
        LatticeParams(a=0.2, d=2, m=1.0), (1, k), 16)),
}


@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_is_an_integer_at_or_above_its_least(entry):
    # one message for every count, which is never truncated, run as 1 or let through to fail
    # later; a numpy integer is the plain int it stands for
    what, least, valid, call = COUNTS[entry]
    for bad in (least - 1, min(-1, least - 1), float(valid), True, 2.5):
        message = f"^{re.escape(what)} must be an integer >= {least}, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            call(bad)
    assert pickle.dumps(call(np.int64(valid))) == pickle.dumps(call(valid))


P1_LAM = LatticeParams(a=0.1, m=1.0, lam=1.0)
TREE = DiagramSpec("Tree2to2", ((0.0, 0.3), (0.0, -0.3)))
PSI = np.full(CHAIN.dim, 1 / 8, dtype=complex)
OBSERVABLE = make_observable("dispersion_theta", p=0.3)


def _calibrated(**options):
    return calibrate(RenormProblem(P1, [OBSERVABLE], options.pop("targets", [0.03]), {"m": 1.3},
                                   max_iters=2, **options))[0]


def _fit(a0, pi0):
    return log_slope([(a0, pi0), (0.02, 1.2), (0.002, 1.5), (0.0002, 1.9)])


# every real a library entry point takes: (what its message names, its sign, a valid value,
# the call at a given value, whose result holds no numpy scalar); m > 0 requirements behind
# LatticeParams are checked in the test after this one
REALS = {
    "LatticeParams.a": ("a", "positive", 0.1, lambda v: cosine_symbol(LatticeParams(a=v, m=1.0),
                                                                      0.3)),
    "LatticeParams.dt": ("dt", "positive", 0.05, lambda v: dispersion_theta(
        LatticeParams(a=0.1, dt=v, m=1.0), 0.3)),
    "LatticeParams.m": ("m", "nonnegative", 1.0, lambda v: omega(LatticeParams(a=0.1, m=v), 0.3)),
    "LatticeParams.lam": ("lambda", "nonnegative", 0.3, lambda v: complex(evaluate_diagram(
        TREE, LatticeParams(a=0.1, lam=v)))),
    "wel_link_matrix.g": ("g", "positive", 1.2, lambda v: wel_link_matrix(GaugeGroupZN(3), v, 1.0)),
    "wel_link_matrix.kappa": ("kappa", "positive", 0.8, lambda v: wel_link_matrix(
        GaugeGroupZN(3), 1.0, v)),
    "FieldGrid.delta_phi": ("delta_phi", "positive", 0.5, lambda v: FieldGrid(8, v).momenta),
    "FieldGrid.for_mass": ("m of a mass grid", "positive", 1.0, lambda v: FieldGrid.for_mass(v, 8)),
    "apply_step": ("lambda", "nonnegative", 0.1, lambda v: apply_step(CHAIN, "Strang", v, PSI)),
    "build_step": ("lambda", "nonnegative", 0.1, lambda v: build_step(CHAIN, "Shift", v)),
    "amplitude_circuit": ("lambda", "nonnegative", 0.1, lambda v: amplitude_circuit(
        CHAIN, "Trotter", v, (1, 2), (3, 4), 3)),
    "amplitude_path_sum": ("lambda", "nonnegative", 0.1, lambda v: amplitude_path_sum(
        CHAIN, "Strang", v, (1, 2), (3, 4), 2)),
    "interaction_picture_check": ("lambda", "nonnegative", 0.3, lambda v: interaction_picture_check(
        CHAIN, "Strang", v, 2)),
    "amplitude_action_form": ("lambda", "nonnegative", 0.1, lambda v: amplitude_action_form(
        CHAIN, v, (1, 2), (3, 4), 2)),
    "DiagramSpec.epsilon": ("epsilon", "positive", 0.05, lambda v: evaluate_diagram(
        DiagramSpec("TadpoleMass", ((0.0, 0.0),), resolution=64, epsilon=v), P1_LAM)),
    "feynman_momentum": ("epsilon", "positive", 1e-3, lambda v: feynman_momentum(
        P1, 0.5, 0.25, v)),
    "contour_identity_residual": ("epsilon", "positive", 0.05, lambda v: contour_identity_residual(
        P1, 0.3, 1, v, 2**8, None)),
    "one_loop_mass.p_in": ("p_in", "", 0.3, lambda v: one_loop_mass("ShiftSmeared", P1_LAM, v)),
    "log_slope.a": ("a", "positive", 0.2, lambda v: _fit(v, 1.0)),
    "log_slope.Pi": ("Pi", "", 1.0, lambda v: _fit(0.2, v)),
    "refined.rtol": ("equal-time quadrature: rtol", "nonnegative", 1.0, lambda v: equal_time(
        P1, 0, 64, v)),
    "RenormProblem.eta": ("'eta'", "positive", 0.05, lambda v: _calibrated(eta=v)),
    "RenormProblem.fd_step": ("'fd_step'", "positive", 1e-4, lambda v: _calibrated(fd_step=v)),
    "RenormProblem.tol": ("'tol'", "positive", 1e-8, lambda v: _calibrated(tol=v)),
    "RenormProblem.targets": ("'targets' entry 0", "", 0.03, lambda v: _calibrated(targets=[v])),
    "make_observable.p": ("'p'", "", 0.3, lambda v: make_observable("omega", p=v)(P1)),
    "make_observable.p_in": ("'p_in'", "", 0.3, lambda v: make_observable(
        "one_loop", regulator="ShiftSmeared", p_in=v)(P1_LAM)),
}
# the value just past each bound: 0 is not positive, the negative subnormal not nonnegative
PAST_BOUND = {"positive": [0.0, -0.0], "nonnegative": [-5e-324], "": []}


@pytest.mark.parametrize("entry", REALS)
def test_every_real_is_finite_and_within_its_bound(entry):
    # one message for every real; a bool or a string such as "0.3" is no number, and a numpy
    # float is the Python float it stands for, taken as given
    what, sign, valid, call = REALS[entry]
    shown = f" and {sign}" if sign else ""
    for bad in (math.nan, math.inf, -math.inf, True, "0.3", *PAST_BOUND[sign]):
        message = f"^{re.escape(what)} must be finite{shown}, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            call(bad)
    assert pickle.dumps(call(np.float64(valid))) == pickle.dumps(call(valid))


@pytest.mark.parametrize("what, call", [
    ("m of the equal-time propagator", lambda m: equal_time(LatticeParams(a=0.1, m=m), 0, 8)),
    ("m of a one-loop correction", lambda m: one_loop_mass(
        "ShiftPlain", LatticeParams(a=0.1, m=m, lam=1.0))),
    ("m of a one-loop correction", lambda m: evaluate_diagram(
        DiagramSpec("TadpoleMass", ((0.0, 0.0),), resolution=8), LatticeParams(a=0.1, m=m))),
    ("m of a dispersion observable", lambda m: OBSERVABLE(LatticeParams(a=0.1, m=m))),
], ids=["equal_time", "one_loop_mass", "evaluate_diagram", "dispersion_observable"])
def test_every_mass_requirement_refuses_m_zero(what, call):
    # a mass that LatticeParams takes (m >= 0) but the entry cannot (m > 0) is refused by the
    # one rule; any other bad m never gets past LatticeParams
    for bad in (0.0, -0.0):
        with pytest.raises(ValueError, match=f"^{what} must be finite and positive, got {bad!r}$"):
            call(bad)
    for bad in (math.nan, -1.0, True, "0.3"):
        with pytest.raises(ValueError, match="^m must be finite and nonnegative, got "):
            call(bad)


def test_require_real_takes_numpy_reals_as_given():
    for value in (0.5, 2, np.float64(0.5), np.float32(0.5), np.int64(2)):
        assert errors._require_real(value, "x") is value
    for bad in (np.bool_(True), np.float64("nan"), 1 + 0j, None, [0.5]):
        with pytest.raises(ValueError, match=f"^x must be finite, got {re.escape(repr(bad))}$"):
            errors._require_real(bad, "x", "")


def _raised_name(node: ast.Raise) -> str | None:
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return exc.id if isinstance(exc, ast.Name) else None


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_caps_owned_by_errors_module(path):
    for node in ast.walk(ast.parse(path.read_text())):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    assert not (name.id.endswith("_CAP") or name.id == "BYTE_BUDGET"), (
                        f"{path.name}:{node.lineno} defines {name.id}")
        if isinstance(node, ast.Raise) and node.exc is not None:
            assert _raised_name(node) != "CapExceeded", (
                f"{path.name}:{node.lineno} raises a cap error outside errors.require")


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_exception_classes_owned_by_errors_module(path):
    # one failure type per exit code, all in errors.py: a new class elsewhere would be a
    # fourth type the CLI and the README do not know
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef):
            bases = {base.attr if isinstance(base, ast.Attribute) else getattr(base, "id", None)
                     for base in node.bases}
            assert not bases & EXCEPTION_NAMES, f"{path.name}:{node.lineno} defines {node.name}"
