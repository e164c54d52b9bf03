"""Dimension-vs-time sweeps of the state-vector step and the gauge layers.

Times are medians of a few calls with the tracer off. ``computed_bytes`` is
dim x 16 B x passes, with one read and one write of the state per layer; it
is computed from array sizes, not measured, and ignores cache misses.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from latcirc import gauge, statevector
from latcirc.kinematics import LatticeParams

# (points per site, sites): dims 2^12, 2^14, 2^16, 2^18 and 2^20
STATEVECTOR_SHAPES = ((16, 3), (128, 2), (16, 4), (64, 3), (16, 5))
# (N, Lx, Ly); the Gauss projection is swept up to PROJECTION_DIM_MAX only
GAUGE_SHAPES = ((2, 1, 2), (3, 1, 2), (2, 2, 2), (2, 2, 3), (3, 2, 2), (2, 2, 4), (4, 2, 2))
PROJECTION_DIM_MAX = 6561


def _median_seconds(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def statevector_sweep(reps: int = 3) -> list[dict]:
    params = LatticeParams(a=0.5, m=1.0, lam=0.1)
    rows = []
    for n, sites in STATEVECTOR_SHAPES:
        lat = statevector.TruncatedLattice(sites, statevector.FieldGrid.dual(n), params)
        psi = np.full(lat.dim, lat.dim**-0.5, dtype=complex)
        passes = 2 * 2 + 2 * sites  # two X-phase layers, one contraction per site
        for kind in ("Strang", "Shift"):
            seconds = _median_seconds(lambda: statevector.apply_step(lat, kind, 0.1, psi), reps)
            rows.append({"function": "statevector.apply_step", "kind": kind, "n_points": n,
                         "sites": sites, "dim": lat.dim, "seconds": seconds, "passes": passes,
                         "computed_bytes": lat.dim * 16 * passes})
    return rows


def gauge_sweep(reps: int = 3) -> list[dict]:
    rows = []
    project = getattr(gauge, "_apply_gauss_projector", None)
    for order, lx, ly in GAUGE_SHAPES:
        lat, group = gauge.GaugeLattice(lx, ly), gauge.GaugeGroupZN(order)
        dim = order**lat.n_links
        vec = np.full(dim, dim**-0.5, dtype=complex)
        shape = {"N": order, "lattice": [lx, ly], "dim": dim}
        seconds = _median_seconds(lambda: gauge.apply_transfer(lat, group, 1.0, 1.0, vec), reps)
        passes = 2 + 2 * lat.n_links  # the W_mag diagonal, one contraction per link
        rows.append({"function": "gauge.apply_transfer", **shape, "seconds": seconds,
                     "passes": passes, "computed_bytes": dim * 16 * passes})
        if project is None or dim > PROJECTION_DIM_MAX:
            continue
        seconds = _median_seconds(lambda: project(lat, group, vec), reps)
        passes = 3 * order**lat.n_sites  # per transform: read, permuted write, accumulate
        rows.append({"function": "gauge._apply_gauss_projector", **shape, "seconds": seconds,
                     "passes": passes, "computed_bytes": dim * 16 * passes})
    return rows
