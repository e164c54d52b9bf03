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
