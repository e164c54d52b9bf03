"""The failure policy: every error's exit code and message, and one owner of the caps."""

import ast
import inspect
import pickle
import re
from pathlib import Path

import numpy as np
import pytest

from latcirc import cli, errors
from latcirc.cli import run
from latcirc.gauge import GaugeGroupZN, GaugeLattice, amplitude_equiv_check
from latcirc.gaussian import lightcone_radius, mover_shift_check, realspace_map
from latcirc.kinematics import LatticeParams, momentum_grid
from latcirc.perturbation import DiagramSpec, evaluate_diagram
from latcirc.propagator import contour_identity_residual, equal_time
from latcirc.quadrature import midpoint_nodes
from latcirc.renorm import RenormProblem, calibrate, make_observable
from latcirc.statevector import (
    FieldGrid,
    TruncatedLattice,
    amplitude_action_form,
    amplitude_circuit,
    amplitude_path_sum,
    interaction_picture_check,
)

# the exit codes the README documents for each error class
DOCUMENTED_EXIT_CODES = {
    "LatcircError": 1,
    "DegenerateDispersion": 1,
    "DomainError": 1,
    "IllConditionedFit": 1,
    "ObservableFailure": 1,
    "OddLattice": 1,
    "UnknownDiagram": 1,
    "QuadratureNotConverged": 2,
    "Diverged": 2,
    "NonFinite": 2,
    "DimensionCap": 3,
    "BruteForceCap": 3,
    "LatticeTooSmall": 3,
}
PREFIXES = {1: "error: ", 2: "numerical convergence failure: ", 3: "resource cap exceeded: "}
ERROR_CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
                 if issubclass(cls, errors.LatcircError)]
SOURCES = sorted(path for path in Path(errors.__file__).parent.glob("*.py")
                 if path.name != "errors.py")


def test_every_error_class_is_documented():
    assert {cls.__name__ for cls in ERROR_CLASSES} == set(DOCUMENTED_EXIT_CODES)


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_exit_code_prefix_and_one_line(tmp_path, capsys, monkeypatch, error):
    def fail(cfg, out):
        raise error("the reason")

    monkeypatch.setitem(cli.RUNNERS, "movers", fail)
    out = tmp_path / "movers.json"
    code = DOCUMENTED_EXIT_CODES[error.__name__]
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


def test_require():
    assert errors.require(5, 5, "terms") == 5
    with pytest.raises(errors.DimensionCap, match="terms: 6 exceeds the cap 5"):
        errors.require(6, 5, "terms")
    with pytest.raises(errors.BruteForceCap):
        errors.require(6, 5, "terms", errors.BruteForceCap)



@pytest.mark.parametrize("amount, shown", [
    (10**30 - 1, str(10**30 - 1)), (10**30, "~10^30"), (10**512, "~10^512"),
    (16 ** (2 * 99999), "~10^240822"), (2**4300 * 3, "~10^1295"),
], ids=["30_digits", "31_digits", "10^512", "16^199998", "3*2^4300"])
def test_require_names_huge_amounts_by_their_power_of_ten(amount, shown):
    # str() of an int above 4300 digits raises ValueError, and thousands of digits are no
    # message: an amount of more than 30 digits reads ~10^k, k its rounded log10
    with pytest.raises(errors.BruteForceCap) as info:
        errors.require(amount, 10**8, "terms", errors.BruteForceCap)
    assert str(info.value) == f"terms: {shown} exceeds the cap 100000000"


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
}


@pytest.mark.parametrize("entry", COUNTS)
def test_every_count_is_an_integer_at_or_above_its_least(entry):
    # one message for every count, which is never truncated, run as 1 or let through to fail
    # later; a numpy integer is the plain int it stands for
    what, least, valid, call = COUNTS[entry]
    for bad in (least - 1, -1, float(valid), True, 2.5):
        message = f"^{re.escape(what)} must be an integer >= {least}, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            call(bad)
    assert pickle.dumps(call(np.int64(valid))) == pickle.dumps(call(valid))


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
            assert _raised_name(node) not in ("DimensionCap", "BruteForceCap"), (
                f"{path.name}:{node.lineno} raises a cap error outside errors.require")
