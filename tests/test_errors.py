"""The failure policy: every error's exit code and message, and one owner of the caps."""

import ast
import inspect
from pathlib import Path

import pytest

from latcirc import cli, errors
from latcirc.cli import run

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
