import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import latcirc

MODULES = ["latcirc"] + [f"latcirc.{info.name}" for info in pkgutil.iter_modules(latcirc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    # the benchmark tracer looks exports up with getattr(mod, name, None), so a stale
    # name would drop out of its spans silently instead of failing there
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"


TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


@pytest.mark.skipif(not TRACER.exists(), reason="benchmark/tracer.py is not in this checkout")
def test_per_layer_metric_names_resolve():
    # the tracer wraps only plain functions named in a layer's __all__ (and two GaugeOperator
    # methods), so a metric whose function became a wrapper, an lru_cache say, would silently
    # stop being timed
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    methods = importlib.import_module("latcirc.gauge").GaugeOperator.__dict__
    unresolved = []
    for layer, fn, _ in (name.split(".") for name in tracer.PER_LAYER if name.count(".") == 2):
        if layer == "gauge" and fn in ("apply", "dense"):
            resolves = inspect.isfunction(methods.get(fn))
        else:
            module = importlib.import_module(f"latcirc.{layer}")
            obj = getattr(module, fn, None)
            resolves = (fn in module.__all__ and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__)
        if not resolves:
            unresolved.append(f"{layer}.{fn}")
    assert not unresolved, f"per-layer metrics name no traced function: {unresolved}"


def _unread_private_names(package: Path) -> list[str]:
    """Module-level private names of ``package/*.py`` that no statement reads but the one
    defining them; the cli's ``_run_*`` runners are read through ``RUNNERS``' lookup."""
    defined, read = set(), set()
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                own = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                own = {node.id for target in targets for node in ast.walk(target)
                       if isinstance(node, ast.Name)}
            else:
                own = set()
            defined |= {(path.stem, name) for name in own
                        if name.startswith("_") and not name.startswith("__")}
            read |= {node.id if isinstance(node, ast.Name) else node.attr
                     for node in ast.walk(stmt)
                     if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
                     or isinstance(node, ast.Attribute)} - own
    return sorted(f"{module}.{name}" for module, name in defined
                  if name not in read and not (module == "cli" and name.startswith("_run_")))


def test_every_private_name_is_read_in_src():
    # a private helper that only tests call belongs in the tests, not in the package
    unread = _unread_private_names(Path(latcirc.__file__).parent)
    assert not unread, f"private names nothing in latcirc reads: {unread}"


BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _unpassed_defaults(package: Path, callers: list[Path]) -> list[str]:
    """Defaulted parameters of module-level functions in ``package/*.py`` that no call in
    ``callers`` passes, by keyword or by position; a call with * or ** passes every one."""
    passed = {}  # callee name -> [(positional count, keyword names, * or ** used)]
    for path in callers:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                keywords = {kw.arg for kw in node.keywords}
                every = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
                passed.setdefault(name, []).append((len(node.args), keywords, every))
    unpassed = []
    for path in sorted(package.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if not isinstance(stmt, ast.FunctionDef):
                continue
            args = stmt.args
            ordered = args.posonlyargs + args.args
            defaulted = [(i, arg.arg) for i, arg in enumerate(ordered)
                         if i >= len(ordered) - len(args.defaults)]
            defaulted += [(None, arg.arg) for arg, default in zip(args.kwonlyargs,
                                                                  args.kw_defaults)
                          if default is not None]
            calls = passed.get(stmt.name, [])
            unpassed += [f"{path.stem}.{stmt.name}({param})" for index, param in defaulted
                         if not any(every or param in keywords
                                    or (index is not None and positional > index)
                                    for positional, keywords, every in calls)]
    return unpassed


@pytest.mark.skipif(not BENCHMARK.is_dir(), reason="benchmark/ is not in this checkout")
def test_every_default_is_passed_outside_the_tests():
    # a defaulted parameter that only tests set is a knob no caller needs; the acceptance
    # criteria are the fixed reference, so their calls count as callers
    package = Path(latcirc.__file__).parent
    callers = [*sorted(package.glob("*.py")), *sorted(BENCHMARK.rglob("*.py")),
               Path(__file__).with_name("test_acceptance.py")]
    unpassed = _unpassed_defaults(package, callers)
    assert not unpassed, f"defaulted parameters that no caller passes: {unpassed}"


def _unread_parameters(package: Path) -> list[str]:
    """Parameters of the functions and lambdas in ``package/*.py``, other than ``self`` and
    ``cls``, that nothing in their body reads."""
    unread = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [arg.arg for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs,
                                          args.vararg, args.kwarg] if arg is not None]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {name.id for stmt in body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
            unread += [f"{path.stem}.{getattr(node, 'name', 'lambda')}({param})" for param in params
                       if param not in read and param not in ("self", "cls")]
    return unread


def test_every_parameter_is_read_in_src():
    # a parameter its function never reads is a knob no caller needs
    unread = _unread_parameters(Path(latcirc.__file__).parent)
    assert not unread, f"parameters that their function never reads: {unread}"
