"""Per-layer spans recorded from outside latcirc.

``Tracer`` wraps every public function of each latcirc layer, in every
latcirc module namespace that binds it (``cli``, ``perturbation``,
``propagator`` and ``renorm`` import names directly, so patching only the
defining module would miss their call sites), plus ``GaugeOperator.apply``
and ``GaugeOperator.dense``. A span is recorded only inside an open job span,
so reference checks and input generation leave no trace. Spans stay in memory
as ``(id, parent id, job id, name, start, end)``; ``restore`` puts every
original binding back.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "kinematics", "quadrature", "propagator", "perturbation", "renorm",
          "gaussian", "statevector", "gauge")

# Caps at the time the benchmark was defined; headroom is reported against these
# fixed values so that it stays comparable when the program's own caps move.
STATEVECTOR_DIM_CAP = 2**20
GAUGE_STATE_CAP = 2**22

# Each per-layer metric with its unit. ``<layer>.calls`` and ``<layer>.self_s``
# sum over every span of that layer; ``<layer>.<function>.*`` is one function.
PER_LAYER = {
    "kinematics.calls": "count",
    "kinematics.self_s": "s",
    "propagator.feynman_momentum.calls": "count",
    "propagator.feynman_momentum.self_s": "s",
    "cli.run.self_s": "s",
    "cli.bytes_written": "B",
    "perturbation.one_loop_mass.calls": "count",
    "perturbation.one_loop_mass.self_s": "s",
    "perturbation.evaluate_diagram.self_s": "s",
    "quadrature.calls": "count",
    "quadrature.self_s": "s",
    "renorm.cost.calls": "count",
    "renorm.calibrate.iters": "count",
    "propagator.contour_identity_residual.self_s": "s",
    "propagator.equal_time.self_s": "s",
    "statevector.apply_step.calls": "count",
    "statevector.apply_step.self_s": "s",
    "statevector.amplitude_circuit.self_s": "s",
    "gauge.gauge_transform.calls": "count",
    "gauge.gauge_transform.self_s": "s",
    "gauge.build_wmag.self_s": "s",
    "gauge.build_wel.self_s": "s",
    "gauge.apply_transfer.calls": "count",
    "gauge.apply_transfer.self_s": "s",
    "gaussian.realspace_map.self_s": "s",
    "gaussian.lightcone_radius.self_s": "s",
    "statevector.build_step.self_s": "s",
    "statevector.amplitude_path_sum.self_s": "s",
    "statevector.amplitude_action_form.self_s": "s",
    "statevector.interaction_picture_check.self_s": "s",
    "gauge.amplitude_equiv_check.self_s": "s",
    "gauge.dense.self_s": "s",
    "statevector.dim_max_over_cap": "1",
    "statevector.path_terms": "count",
    "gauge.brute_terms": "count",
    "gauge.dim_max_over_cap": "1",
    "trace.overhead_ratio": "1",
}


_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _bound(fn, args, kwargs) -> dict:
    """Arguments by name, or {} when the call no longer matches the signature."""
    try:
        return _signature(fn).bind(*args, **kwargs).arguments
    except (TypeError, ValueError):
        return {}


def _statevector_counts(counters, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    lat, tau = bound.get("lat"), bound.get("tau")
    dim = getattr(lat, "dim", None)
    if dim is None:
        return
    counters["statevector.dim_max_over_cap"] = max(
        counters["statevector.dim_max_over_cap"], dim / STATEVECTOR_DIM_CAP)
    if fn.__name__ == "amplitude_path_sum" and tau:
        counters["statevector.path_terms"] += dim ** (tau - 1)
    if fn.__name__ == "amplitude_action_form" and tau:
        counters["statevector.path_terms"] += lat.grid.n_points ** (lat.L * (tau - 1))


def _gauge_counts(counters, fn, args, kwargs, result):
    bound = _bound(fn, args, kwargs)
    lat, group = bound.get("lat"), bound.get("group")
    if lat is None or group is None:
        return
    counters["gauge.dim_max_over_cap"] = max(
        counters["gauge.dim_max_over_cap"], group.N**lat.n_links / GAUGE_STATE_CAP)
    if fn.__name__ == "amplitude_equiv_check":
        tau = bound["tau"]
        counters["gauge.brute_terms"] += group.N ** (lat.n_links * (tau - 1) + lat.n_sites * tau)


def _renorm_counts(counters, fn, args, kwargs, result):
    if fn.__name__ == "calibrate":
        counters["renorm.calibrate.iters"] += result[1][-1]["iter"]


def _cli_counts(counters, fn, args, kwargs, result):
    argv = list(_bound(fn, args, kwargs).get("argv", []))
    if fn.__name__ == "run" and "--out" in argv:
        out = argv[argv.index("--out") + 1]
        if os.path.exists(out):
            counters["cli.bytes_written"] += os.path.getsize(out)


COUNT_HOOKS = {"statevector": _statevector_counts, "gauge": _gauge_counts,
               "renorm": _renorm_counts, "cli": _cli_counts}


def snapshot() -> dict[tuple[str, str], int]:
    """Identity of every binding the tracer may patch, to prove it restored them."""
    state = {(mod.__name__, attr): id(value) for mod in Tracer.namespaces()
             for attr, value in vars(mod).items()}
    operator = sys.modules["latcirc.gauge"].GaugeOperator
    state.update({("GaugeOperator", attr): id(operator.__dict__[attr])
                  for attr in ("apply", "dense")})
    return state


class Tracer:
    """Records spans and counts around latcirc's public layer functions."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, time covered by child spans]
        self._next_id = 0
        self._job = -1
        self._patched: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- installing and restoring -------------------------------------------------

    @staticmethod
    def namespaces() -> list:
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == "latcirc" or name.startswith("latcirc."))]

    def _targets(self) -> dict[int, tuple[str, object]]:
        """id(function) -> (span name, function), for each layer's public functions."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"latcirc.{layer}"]
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    targets[id(obj)] = (f"{layer}.{name}", obj)
        return targets

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for key, (name, fn) in self._targets().items():
            wrappers[key] = self._wrap(name, fn, COUNT_HOOKS.get(name.split(".")[0]))
        for mod in self.namespaces():
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        operator = sys.modules["latcirc.gauge"].GaugeOperator
        for attr in ("apply", "dense"):
            original = operator.__dict__[attr]
            self._patched.append((operator, attr, original))
            setattr(operator, attr, self._wrap(f"gauge.{attr}", original, None))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- recording ------------------------------------------------------------------

    def _open(self):
        sid, self._next_id = self._next_id, self._next_id + 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, 0.0])
        return sid, parent, time.perf_counter()

    def _close(self, name: str, sid: int, parent: int, start: float) -> None:
        end = time.perf_counter()
        _, child = self._stack.pop()
        self.spans.append((sid, parent, self._job, name, start - self._origin,
                           end - self._origin))
        self.calls[name] += 1
        self.self_s[name] += (end - start) - child
        if self._stack:
            self._stack[-1][1] += end - start

    @contextmanager
    def job(self, job_id: int, name: str):
        """Root span of one job; layer spans are recorded only inside one."""
        self._job = job_id
        sid, parent, start = self._open()
        try:
            yield
        finally:
            self._close(f"job.{name}", sid, parent, start)
            self._job = -1

    def _wrap(self, name: str, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer._stack:
                return fn(*args, **kwargs)
            sid, parent, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, sid, parent, start)
            if hook is not None:
                hook(tracer.counters, fn, args, kwargs, result)
            return result

        return wrapper

    # -- reporting ------------------------------------------------------------------

    def metrics(self, overhead_ratio: float) -> dict[str, dict]:
        """Every per-layer metric, from the recorded calls, self times and counters."""
        out = {}
        for metric, unit in PER_LAYER.items():
            key, _, kind = metric.rpartition(".")
            if kind in ("calls", "self_s"):
                table = self.calls if kind == "calls" else self.self_s
                value = sum(v for span, v in table.items()
                            if span == key or ("." not in key and span.startswith(key + ".")))
            elif metric == "trace.overhead_ratio":
                value = overhead_ratio
            else:
                value = self.counters[metric]
            out[metric] = {"value": value, "unit": unit}
        return out
