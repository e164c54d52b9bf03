"""The failure policy: every error's exit code and message, and one owner of the caps."""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

from latcirc import cli, errors
from latcirc.cli import run
from latcirc.gauge import GaugeGroupZN, GaugeLattice
from latcirc.kinematics import LatticeParams
from latcirc.propagator import contour_identity_residual, equal_time
from latcirc.quadrature import midpoint_nodes
from latcirc.statevector import FieldGrid, TruncatedLattice

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
