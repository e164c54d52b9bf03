import importlib
import pkgutil

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
