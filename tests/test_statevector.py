import cmath
import functools
import math
import operator
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latcirc import statevector
from latcirc.errors import BruteForceCap, DimensionCap
from latcirc.kinematics import LatticeParams
from latcirc.statevector import (
    KINDS,
    CircuitStep,
    FieldGrid,
    TruncatedLattice,
    _momentum_function,
    _path_blocks,
    amplitude_action_form,
    amplitude_circuit,
    amplitude_path_sum,
    apply_step,
    build_step,
    interaction_picture_check,
    kernel_gaussian_check,
)

PARAMS = LatticeParams(a=0.5, m=1.0)


def small_lattice(n_points=16, L=2, params=PARAMS):
    return TruncatedLattice(L, FieldGrid.for_mass(1.0, n_points), params)


def translation_permutation(lat):
    """Index permutation of the one-site cyclic shift on configurations."""
    n, L = lat.grid.n_points, lat.L
    digits = np.stack(np.unravel_index(np.arange(lat.dim), (n,) * L), axis=0)
    return np.ravel_multi_index(tuple(np.roll(digits, 1, axis=0)), (n,) * L)


def kron_step(lat, kind, lam):
    """Reference dense step: layer * (K kron ... kron K) * layer, no left layer for Trotter."""
    step = CircuitStep(lat, kind, lam)
    full_kernel = functools.reduce(np.kron, [step.kernel] * lat.L)
    if kind == "Trotter":
        return full_kernel * step.layer[None, :]
    return step.layer[:, None] * full_kernel * step.layer[None, :]


def test_field_grid_validation():
    with pytest.raises(ValueError):
        FieldGrid(6, 0.1)  # too few points
    with pytest.raises(ValueError):
        FieldGrid(9, 0.1)  # odd
    with pytest.raises(ValueError):
        FieldGrid(16, -0.1)
    for bad in (math.nan, math.inf):  # non-finite spacings would give all-NaN or all-inf values
        with pytest.raises(ValueError, match="finite and positive"):
            FieldGrid(8, bad)
    grid = FieldGrid.for_mass(1.0, 16)
    assert grid.values[8] == 0.0
    assert grid.values.max() == pytest.approx(6.0 / math.sqrt(2.0) - grid.delta_phi)


def test_site_operators():
    grid = FieldGrid(32, 12.0 / 32)
    x, p = np.diag(grid.values), _momentum_function(grid.momenta)
    assert np.max(np.abs(x - x.conj().T)) < 1e-12
    assert np.max(np.abs(p - p.conj().T)) < 1e-12
    # X is diagonal with the grid values
    np.testing.assert_allclose(np.diag(x).real, grid.values, atol=0)
    # P^2 eigenvalues are the squared conjugate momenta
    evals = np.sort(np.linalg.eigvalsh(p @ p))
    np.testing.assert_allclose(evals, np.sort(grid.momenta**2), atol=1e-10)
    # [X, P] acts like i on a well-contained Gaussian
    psi = np.exp(-0.5 * grid.values**2)
    psi = psi / np.linalg.norm(psi)
    comm = (x @ p - p @ x) @ psi
    assert np.linalg.norm(comm - 1j * psi) < 1e-3


def test_lattice_validation():
    with pytest.raises(ValueError):
        TruncatedLattice(1, FieldGrid.for_mass(1.0, 16), PARAMS)
    with pytest.raises(DimensionCap):
        TruncatedLattice(6, FieldGrid.for_mass(1.0, 16), PARAMS)  # 16^6 > 2^20


def test_steps_are_unitary():
    lat = small_lattice()
    eye = np.eye(lat.dim)
    for kind in KINDS:
        step = build_step(lat, kind, 0.3)
        assert np.max(np.abs(step.conj().T @ step - eye)) < 1e-10, kind


def test_dense_step_matches_matrix_free():
    lat = small_lattice(n_points=8)
    rng = np.random.default_rng(0)
    psi = rng.normal(size=lat.dim) + 1j * rng.normal(size=lat.dim)
    for kind in KINDS:
        dense = build_step(lat, kind, 0.2) @ psi
        free = apply_step(lat, kind, 0.2, psi)
        assert np.max(np.abs(dense - free)) < 1e-12


def test_translation_invariance():
    lat = small_lattice()
    perm = translation_permutation(lat)
    shift = np.zeros((lat.dim, lat.dim))
    shift[perm, np.arange(lat.dim)] = 1.0
    for lam in (0.0, 0.3):
        step = build_step(lat, "Strang", lam)
        assert np.max(np.abs(shift @ step - step @ shift)) < 1e-10


def test_amplitude_bounds_and_tau_zero():
    lat = small_lattice()
    assert amplitude_circuit(lat, "Strang", 0.1, (8, 8), (8, 8), 0) == 1.0
    assert amplitude_circuit(lat, "Strang", 0.1, (8, 8), (9, 8), 0) == 0.0
    for tau in (1, 2, 3):
        amp = amplitude_circuit(lat, "Strang", 0.1, (8, 8), (9, 7), tau)
        assert abs(amp) <= 1.0 + 1e-12


def test_circuit_equals_path_sum():
    lat = small_lattice(n_points=16)
    for kind in KINDS:
        for tau in (1, 2, 3):
            circ = amplitude_circuit(lat, kind, 0.1, (8, 8), (9, 7), tau)
            path = amplitude_path_sum(lat, kind, 0.1, (8, 8), (9, 7), tau)
            assert abs(circ - path) < 1e-12, (kind, tau)
    # resource check: tau = 3 at n = 32 runs under the cap (32^4 ~ 1e6 terms)
    lat32 = small_lattice(n_points=32)
    circ = amplitude_circuit(lat32, "Strang", 0.1, (16, 16), (17, 15), 3)
    path = amplitude_path_sum(lat32, "Strang", 0.1, (16, 16), (17, 15), 3)
    assert abs(circ - path) < 1e-12


def test_path_sum_cap():
    lat = small_lattice(n_points=16)
    with pytest.raises(BruteForceCap):
        amplitude_path_sum(lat, "Strang", 0.1, (8, 8), (9, 7), 6)


def test_brute_force_cap_before_any_state(monkeypatch):
    import latcirc.statevector as sv

    def no_state(*args):
        raise AssertionError("a step was built before the path-term check")

    monkeypatch.setattr(sv, "CircuitStep", no_state)
    lat = small_lattice(n_points=16)
    with pytest.raises(BruteForceCap):
        amplitude_path_sum(lat, "Strang", 0.1, (8, 8), (9, 7), 6)
    with pytest.raises(BruteForceCap):
        amplitude_action_form(lat, 0.1, (8, 8), (9, 7), 6)


AMPLITUDE_ROUTES = {
    "circuit": lambda lat, ends, tau: amplitude_circuit(lat, "Strang", 0.1, *ends, tau),
    "path sum": lambda lat, ends, tau: amplitude_path_sum(lat, "Strang", 0.1, *ends, tau),
    "action form": lambda lat, ends, tau: amplitude_action_form(lat, 0.1, *ends, tau),
}


@pytest.mark.parametrize("route", AMPLITUDE_ROUTES)
@pytest.mark.parametrize("bad", [(3,), (-1, 3), (8, 3), (1.5, 3), ("1", 3)],
                         ids=["length", "negative", "past_n", "non_integer", "string"])
def test_amplitude_ends_are_refused_not_wrapped(route, bad):
    # (-1, 3) would wrap to (7, 3) in an index gather and 1.5 truncate to 1; every route
    # refuses them first, at either end and at tau = 0 too
    lat = TruncatedLattice(2, FieldGrid.dual(8), PARAMS)
    for tau in (0, 1):
        for ends in ((bad, (7, 3)), ((7, 3), bad)):
            with pytest.raises(ValueError, match=r"is not 2 grid indices in \[0, 8\)"):
                AMPLITUDE_ROUTES[route](lat, ends, tau)


@pytest.mark.parametrize("sites, n_points, admitted", [
    (7, 8, True), (2, 2048, True), (8, 8, False), (2, 2050, False), (11, 8, False),
])
def test_state_cap_is_errors_state_cap(sites, n_points, admitted):
    from latcirc.errors import STATE_CAP

    grid = FieldGrid.dual(n_points)
    assert (n_points**sites <= STATE_CAP) == admitted
    if admitted:
        assert TruncatedLattice(sites, grid, PARAMS).dim == n_points**sites
    else:
        with pytest.raises(DimensionCap):
            TruncatedLattice(sites, grid, PARAMS)


def test_amplitude_translation_covariance():
    lat = small_lattice()
    amp = amplitude_circuit(lat, "Strang", 0.4, (8, 9), (9, 7), 2)
    rolled = amplitude_circuit(lat, "Strang", 0.4, (9, 8), (7, 9), 2)
    assert abs(amp - rolled) < 1e-12


def test_strang_rearrangement_identity():
    # U^tau = e^{-iHx dt/2} (U_trott)^(tau-1) e^{-iHp dt} e^{-iHx dt/2}
    # with the Trotter step e^{-iHp dt} e^{-iHx dt}
    lat = small_lattice(n_points=16)
    lam, tau = 0.3, 3
    strang = build_step(lat, "Strang", lam)
    trott = build_step(lat, "Trotter", lam)
    from latcirc.statevector import _momentum_kernel

    half = CircuitStep(lat, "Strang", lam).layer
    kernel = _momentum_kernel(lat.grid, "Strang", lat.params.kappa)
    full_kernel = np.kron(kernel, kernel)
    lhs = np.linalg.matrix_power(strang, tau)
    rhs = (
        half[:, None]
        * np.linalg.matrix_power(trott, tau - 1)
        @ full_kernel
        * half[None, :]
    )
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_kernel_gaussian_target_values():
    grid = FieldGrid.dual(64)
    target_unit = cmath.sqrt(1j / (2 * math.pi)) * grid.delta_phi
    assert abs(target_unit) == pytest.approx(0.3989422804014327 * grid.delta_phi, rel=1e-12)
    assert cmath.phase(target_unit) == pytest.approx(math.pi / 4, rel=1e-12)
    # phase flips by exactly pi when (y-z)^2/2 = pi
    w = math.sqrt(2 * math.pi)
    flipped = target_unit * cmath.exp(0.5j * w * w)
    assert cmath.phase(flipped / target_unit) == pytest.approx(math.pi, abs=1e-12)


def test_kernel_gaussian_dual_grid_exact():
    # complete-Gauss-sum identity: the dual-grid kernel is the Fresnel kernel
    # times a global metaplectic phase (-i); generic grids stay order one
    for n in (16, 64, 256):
        assert kernel_gaussian_check(FieldGrid.dual(n), match_phase=True) < 1e-12
        assert kernel_gaussian_check(FieldGrid.dual(n)) == pytest.approx(math.sqrt(2), rel=1e-10)
    assert kernel_gaussian_check(FieldGrid.for_mass(1.0, 64), match_phase=True) > 0.1


def kernel_gaussian_full_grid_reference(grid, match_phase):
    """kernel_gaussian_check with its Fresnel target on the whole n x n grid, of which the
    comparison reads the inner block only."""
    kernel = statevector._momentum_kernel(grid, "Strang", 1.0)
    target_unit = cmath.sqrt(1j / (2.0 * math.pi)) * grid.delta_phi
    vals = grid.values
    inner = np.abs(vals) <= 0.25 * grid.n_points * grid.delta_phi
    target = target_unit * np.exp(0.5j * np.subtract.outer(vals, vals) ** 2)
    if match_phase:
        mid = grid.n_points // 2
        ratio = kernel[mid, mid] / target[mid, mid]
        target = target * (ratio / abs(ratio))
    diff = kernel - target
    return float(np.max(np.abs(diff[np.ix_(inner, inner)])) / abs(target_unit))


@pytest.mark.parametrize("match_phase", [False, True])
@pytest.mark.parametrize("grid", [
    FieldGrid.dual(8), FieldGrid.dual(16), FieldGrid.dual(100), FieldGrid.dual(512),
    FieldGrid.for_mass(1.0, 64), FieldGrid.for_mass(0.3, 128), FieldGrid.for_mass(2.5, 10),
    FieldGrid(12, 0.7)], ids=lambda grid: f"n{grid.n_points}-{grid.delta_phi:.4g}")
def test_kernel_gaussian_check_is_bitwise_the_full_grid_reference(grid, match_phase):
    assert kernel_gaussian_check(grid, match_phase) == kernel_gaussian_full_grid_reference(
        grid, match_phase)


def test_action_form_equals_circuit_on_dual_grids():
    for lam in (0.0, 0.1):
        errs = []
        for n in (16, 32, 64, 128):
            lat = TruncatedLattice(2, FieldGrid.dual(n), PARAMS)
            ci, cf = (n // 2, n // 2), (n // 2 + 2, n // 2 - 1)
            circ = amplitude_circuit(lat, "Strang", lam, ci, cf, 2)
            act = amplitude_action_form(lat, lam, ci, cf, 2)
            errs.append(abs(circ - act) / abs(circ))
        assert max(errs) < 5e-2  # coarse tolerance of the stated study
        assert all(e < 1e-10 for e in errs)  # observed: exact up to roundoff


def test_action_form_metaplectic_phase_at_tau_three():
    # (-i)^(tau L) = -1 at tau = 3, L = 2
    n = 12
    lat = TruncatedLattice(2, FieldGrid.dual(n), PARAMS)
    circ = amplitude_circuit(lat, "Strang", 0.1, (6, 6), (7, 5), 3)
    act = amplitude_action_form(lat, 0.1, (6, 6), (7, 5), 3)
    assert abs(circ - (-1.0) * act) < 1e-12 * abs(circ) + 1e-15


def test_action_form_kinetic_only_single_step():
    # tau = 1 reduces to the Gaussian kernel identity per site
    n = 32
    lat = TruncatedLattice(2, FieldGrid.dual(n), LatticeParams(a=0.5, m=0.0))
    circ = amplitude_circuit(lat, "Strang", 0.0, (16, 16), (18, 13), 1)
    act = amplitude_action_form(lat, 0.0, (16, 16), (18, 13), 1)
    assert abs(circ - (-1j) ** 2 * act) < 1e-13


def quartic_sum_reference(lat):
    """sum_n x_n^4 accumulated from zeros, one broadcast site at a time."""
    n, L = lat.grid.n_points, lat.L
    total = np.zeros((n,) * L)
    for site in range(L):
        total = total + (lat.grid.values**4).reshape((n,) + (1,) * (L - site - 1))
    return total.ravel()


@pytest.mark.parametrize("L, n", [(2, 16), (3, 8), (5, 16)])
def test_quartic_sum_equals_site_loop_reference(L, n):
    lat = TruncatedLattice(L, FieldGrid.for_mass(0.7, n), PARAMS)
    assert np.array_equal(statevector._quartic_sum(lat), quartic_sum_reference(lat))


def interaction_picture_reference(lat, kind, lam, tau):
    """The identity with one branch per ordering and matrix powers for every U_I(nu)."""
    step = build_step(lat, kind, lam)
    free = build_step(lat, kind, 0.0)
    int_phase = statevector.quartic_interaction_phase(lat, kind, lam)
    free_dag = free.conj().T

    def int_picture(nu, half):
        diag = np.exp(1j * int_phase * (0.5 if half else 1.0))
        fwd = np.linalg.matrix_power(free, nu)
        return np.linalg.matrix_power(free_dag, nu) @ (diag[:, None] * fwd)

    worst = 0.0
    for steps in range(1, tau + 1):
        lhs = np.linalg.matrix_power(free_dag, steps) @ np.linalg.matrix_power(step, steps)
        if kind == "Trotter":
            rhs = np.eye(lat.dim, dtype=complex)
            for nu in range(steps - 1, -1, -1):
                rhs = rhs @ int_picture(nu, half=False)
        else:
            rhs = int_picture(steps, half=True)
            for nu in range(steps - 1, 0, -1):
                rhs = rhs @ int_picture(nu, half=False)
            rhs = rhs @ int_picture(0, half=True)
        worst = max(worst, float(np.linalg.norm(lhs - rhs, 2)))
    return worst


@settings(max_examples=15, deadline=None)
@given(kind=st.sampled_from(KINDS), a=st.floats(0.2, 1.5), m=st.floats(0.1, 2.0),
       lam=st.floats(0.0, 2.0), n=st.sampled_from((8, 10, 12)), tau=st.integers(1, 4))
@example(kind="Strang", a=1.0, m=1.0, lam=2.2250738585e-313, n=8, tau=1)  # subnormal defect
def test_interaction_picture_equals_two_branch_reference(kind, a, m, lam, n, tau):
    lat = TruncatedLattice(2, FieldGrid.for_mass(m, n), LatticeParams(a=a, m=m))
    defect = interaction_picture_check(lat, kind, lam, tau)
    assert defect < 1e-10  # criterion 7's bound on the identity itself
    assert abs(defect - interaction_picture_reference(lat, kind, lam, tau)) < 1e-13


@settings(max_examples=80, deadline=None)
@given(shape=st.tuples(st.integers(1, 64), st.integers(1, 64)), rank_one=st.booleans(),
       scale=st.sampled_from([0.0, 1e-200, 1e200, 1e-310]) | st.floats(1e-200, 1e200),
       seed=st.integers(0, 2**32 - 1))
def test_op_norm_equals_the_svd_norm(shape, rank_one, scale, seed):
    # at a subnormal scale both norms round to the subnormal grid, a few units of its spacing
    rng = np.random.default_rng(seed)

    def draw(*size):
        return rng.standard_normal(size) + 1j * rng.standard_normal(size)

    x = scale * (np.outer(draw(shape[0]), draw(shape[1])) if rank_one else draw(*shape))
    expected = np.linalg.norm(x, 2)
    tiny = np.finfo(float).smallest_subnormal
    assert abs(statevector._op_norm(x) - expected) <= 1e-14 * expected + 8 * tiny


@pytest.mark.parametrize("kind", KINDS)
def test_interaction_picture_check_sees_a_wrong_interaction_phase(kind, monkeypatch):
    lat = TruncatedLattice(2, FieldGrid.for_mass(1.0, 10), PARAMS)
    assert interaction_picture_check(lat, kind, 0.3, 3) < 1e-10
    phase = statevector.quartic_interaction_phase
    monkeypatch.setattr(statevector, "quartic_interaction_phase",
                        lambda *args: phase(*args) * (1.0 + 1e-3))
    assert interaction_picture_check(lat, kind, 0.3, 3) > 1e-8
    assert interaction_picture_reference(lat, kind, 0.3, 3) > 1e-8


def test_interaction_picture_identity():
    grid = FieldGrid.for_mass(1.0, 12)
    lat = TruncatedLattice(2, grid, PARAMS)
    for kind in ("Strang", "Trotter", "Shift"):
        dev = interaction_picture_check(lat, kind, 0.3, 3)
        assert dev < 1e-10, kind
    # lambda = 0: both sides are the identity
    assert interaction_picture_check(lat, "Strang", 0.0, 2) < 1e-12


@pytest.mark.parametrize("tau", [0, -1])
def test_interaction_picture_check_refuses_no_steps(tau):
    # with no step compared, the defect would read 0.0: a perfect identity never checked
    with pytest.raises(ValueError, match="tau must be an integer >= 1"):
        interaction_picture_check(small_lattice(n_points=8), "Strang", 0.3, tau)


def test_shift_quarter_rotation_quality():
    # the grid quarter oscillator approximately swaps X and P on contained
    # states; measured, not assumed
    grid = FieldGrid(64, 12.0 / 64)
    x, p = np.diag(grid.values), _momentum_function(grid.momenta)
    from latcirc.statevector import _momentum_kernel

    lat = TruncatedLattice(2, grid, PARAMS)
    kq = _momentum_kernel(lat.grid, "Shift", lat.params.kappa)
    assert np.max(np.abs(kq.conj().T @ kq - np.eye(64))) < 1e-12
    psi = np.exp(-0.5 * grid.values**2)
    psi = psi / np.linalg.norm(psi)
    swap_residual = np.linalg.norm((kq.conj().T @ x @ kq - p) @ psi)
    assert swap_residual < 1e-6


def test_momentum_kernel_cache():
    # the kernel reads only (grid, kind, kappa): dt away from a moves the
    # Strang kernel, never the Shift quarter rotation
    grid = FieldGrid.dual(16)
    at_a = TruncatedLattice(2, grid, LatticeParams(a=0.5, m=1.0))
    off_a = TruncatedLattice(2, grid, LatticeParams(a=0.5, dt=0.3, m=1.0))
    kernel = CircuitStep(at_a, "Strang", 0.1).kernel
    assert not kernel.flags.writeable
    with pytest.raises(ValueError):
        kernel[0, 0] = 0.0
    assert CircuitStep(at_a, "Strang", 0.4).kernel is kernel
    assert not np.allclose(CircuitStep(off_a, "Strang", 0.1).kernel, kernel)
    assert np.array_equal(CircuitStep(off_a, "Shift", 0.1).kernel,
                          CircuitStep(at_a, "Shift", 0.1).kernel)


def dense_dft(grid):
    """Centered unitary DFT, F[k, j] = exp(-i p_k phi_j)/sqrt(n): the reference for the
    circulant builds of F^dagger diag(s) F."""
    return np.exp(-1j * np.outer(grid.momenta, grid.values)) / math.sqrt(grid.n_points)


@pytest.mark.parametrize("n", (8, 16, 128, 512, 2048))
def test_circulant_kernels_equal_dense_fourier_products(n):
    grid = FieldGrid.dual(n)
    f = dense_dft(grid)
    for kappa in (1.0, 0.7):
        dense = f.conj().T @ (np.exp(-0.5j * kappa * grid.momenta**2)[:, None] * f)
        assert np.max(np.abs(statevector._momentum_kernel(grid, "Strang", kappa) - dense)) < 1e-13
    if n <= 512:
        dense_p = f.conj().T @ (grid.momenta[:, None] * f)
        p = _momentum_function(grid.momenta)
        assert np.max(np.abs(p - dense_p)) < 1e-13 * np.max(np.abs(grid.momenta))


@pytest.mark.parametrize("n", (16, 64, 512))
def test_shift_kernel_equals_dense_build_and_is_unitary(n):
    grid = FieldGrid(n, 12.0 / n)
    f = dense_dft(grid)
    x = np.diag(grid.values).astype(complex)
    p = f.conj().T @ np.diag(grid.momenta).astype(complex) @ f
    w, v = np.linalg.eigh((x @ x + p @ p).astype(complex))
    dense = (v * np.exp(-0.25j * math.pi * w)) @ v.conj().T
    kernel = statevector._momentum_kernel(grid, "Shift", 1.0)
    assert np.max(np.abs(kernel - dense)) < 1e-11
    assert np.max(np.abs(kernel.conj().T @ kernel - np.eye(n))) < 1e-12


def tensordot_site_kernel(kernel, vec, sites):
    """Reference: contract ``kernel`` with each tensor axis in place, one tensordot per axis."""
    n = kernel.shape[0]
    tensor = vec.reshape((n,) * sites)
    for axis in range(sites):
        tensor = np.moveaxis(np.tensordot(kernel, tensor, axes=([1], [axis])), 0, axis)
    return tensor.ravel()


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from([(n, sites) for n in (2, 3, 5, 8, 16) for sites in range(1, 7)
                              if n**sites <= 1 << 16]),
       seed=st.integers(0, 2**32 - 1))
def test_apply_site_kernel_equals_tensordot_reference(shape, seed):
    # a random non-symmetric complex kernel, so a slip in the axis order shows
    n, sites = shape
    rng = np.random.default_rng(seed)
    kernel = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    vec = rng.standard_normal(n**sites) + 1j * rng.standard_normal(n**sites)
    ref = tensordot_site_kernel(kernel, vec, sites)
    out = statevector._apply_site_kernel(kernel, vec, sites)
    assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)


@pytest.mark.parametrize("n, sites", [(16, 4), (2, 16), (256, 2)])
def test_apply_site_kernel_holds_at_most_two_state_vectors(n, sites):
    # each pass holds its operand and its output; a copy of the transposed operand is a third
    rng = np.random.default_rng(0)
    kernel = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    vec = rng.standard_normal(n**sites) + 1j * rng.standard_normal(n**sites)
    tracemalloc.start()
    try:
        out = statevector._apply_site_kernel(kernel, vec, sites)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == vec.shape
    assert peak <= 2 * vec.nbytes + 4096


random_lattices = st.builds(
    lambda a, m, n, L: TruncatedLattice(L, FieldGrid.dual(n), LatticeParams(a=a, m=m)),
    a=st.floats(0.1, 1.5),
    m=st.floats(0.0, 2.0),
    n=st.sampled_from((8, 10, 12)),
    L=st.sampled_from((2, 3)),
)


@settings(max_examples=20, deadline=None)
@given(lat=random_lattices, kind=st.sampled_from(KINDS), lam=st.floats(0.0, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_step_matrix_free_equals_dense_and_unitary(lat, kind, lam, seed):
    rng = np.random.default_rng(seed)
    psi = rng.standard_normal(lat.dim) + 1j * rng.standard_normal(lat.dim)
    psi /= np.linalg.norm(psi)
    out = apply_step(lat, kind, lam, psi)
    assert np.max(np.abs(out - build_step(lat, kind, lam) @ psi)) < 1e-12
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


@settings(max_examples=20, deadline=None)
@given(lat=random_lattices, kind=st.sampled_from(KINDS), lam=st.floats(0.0, 2.0))
def test_dense_step_equals_kron_reference(lat, kind, lam):
    assert np.array_equal(build_step(lat, kind, lam), kron_step(lat, kind, lam))


@settings(max_examples=20, deadline=None)
@given(lat=random_lattices, kind=st.sampled_from(KINDS), lam=st.floats(0.0, 2.0),
       tau=st.sampled_from((2, 3)), data=st.data())
def test_amplitude_circuit_equals_dense_power(lat, kind, lam, tau, data):
    n = lat.grid.n_points
    config = st.tuples(*[st.integers(0, n - 1)] * lat.L)
    phi_i, phi_f = data.draw(config), data.draw(config)
    # column i of step^tau by repeated dense products; equal to
    # matrix_power(step, tau)[:, i] without the dim^3 cost at dim 1728
    step = build_step(lat, kind, lam)
    column = step[:, lat.config_index(phi_i)]
    for _ in range(tau - 1):
        column = step @ column
    amp = amplitude_circuit(lat, kind, lam, phi_i, phi_f, tau)
    assert abs(amp - column[lat.config_index(phi_f)]) < 1e-12


def _time_slices(n, first, last, tau, n_extra=0, chunk=1 << 18):
    """Digit-table path enumerator: each chunk of up to ``chunk`` consecutive terms decoded
    as int32 digits, the tau + 1 slices as per-site index arrays (sites, k), the ends as
    (sites, 1), and the (n_extra, k) digits of further summed variables."""
    first, last = np.asarray(first)[:, None], np.asarray(last)[:, None]
    inner = first.shape[0] * (tau - 1)
    total = n ** (inner + n_extra)
    powers = n ** np.arange(inner + n_extra, dtype=np.int32)[::-1, None]

    def block(start):
        digits = np.arange(start, min(start + chunk, total), dtype=np.int32) // powers % n
        slices = digits[:inner].reshape(tau - 1, first.shape[0], digits.shape[1])
        return [first, *slices, last], digits[inner:]

    return map(block, range(0, total, chunk))


def cos_sin_sum(action, sign=1):
    """sum_S e^{i sign S} as the sums of cos S and sin S: the brute-force sums' phase rule."""
    return complex(np.sum(np.cos(action)), sign * np.sum(np.sin(action)))


def exp_sum(action, sign=1):
    """sum_S e^{i sign S} with one complex exp per term, the rule ``cos_sin_sum`` replaced."""
    return complex(np.sum(np.exp(sign * 1j * action)))


def action_form_reference(lat, lam, phi_i, phi_f, tau, chunk=1 << 18, phase_sum=cos_sin_sum):
    """amplitude_action_form evaluating each interior slice's potential twice."""
    n, L = lat.grid.n_points, lat.L
    kappa = lat.params.kappa
    vals = lat.grid.values
    ma = lat.params.m * lat.params.a
    msq, lam_eff = ma * ma, lam * (lat.params.a * lat.params.a)

    def potential(x_slice):
        total = 0.0
        for site in range(L):
            x, x_next = x_slice[site], x_slice[(site + 1) % L]
            total = total + 0.5 * (x_next - x) ** 2 + 0.5 * msq * x**2 + lam_eff / 24.0 * x**4
        return total

    measure = (cmath.sqrt(1j / (2.0 * math.pi * kappa)) * lat.grid.delta_phi) ** (tau * L)
    total = 0.0 + 0.0j
    for slices, _ in _time_slices(n, phi_i, phi_f, tau, chunk=chunk):
        x = [vals[s] for s in slices]
        action = 0.0
        for nu in range(tau):
            kinetic = np.sum((x[nu + 1] - x[nu]) ** 2, axis=0) / (2.0 * kappa)
            action = action + kinetic - 0.5 * kappa * (potential(x[nu]) + potential(x[nu + 1]))
        total += phase_sum(action)
    return complex(measure * total)


@settings(max_examples=12, deadline=None)
@given(shape=st.sampled_from([(2, 8, 2), (2, 8, 3), (2, 12, 3), (3, 8, 2), (3, 8, 3),
                              (4, 8, 2)]),
       a=st.floats(0.2, 1.0), kappa=st.floats(0.5, 1.5), m=st.floats(0.1, 2.0),
       lam=st.floats(0.0, 1.0), dual=st.booleans(), data=st.data())
def test_action_form_equals_twice_evaluated_reference(shape, a, kappa, m, lam, dual, data):
    L, n, tau = shape
    grid = FieldGrid.dual(n) if dual else FieldGrid.for_mass(m, n)
    lat = TruncatedLattice(L, grid, LatticeParams(a=a, dt=kappa * a, m=m, lam=lam))
    ends = st.tuples(*[st.integers(0, n - 1)] * L)
    phi_i, phi_f = data.draw(ends), data.draw(ends)
    assert amplitude_action_form(lat, lam, phi_i, phi_f, tau) == action_form_reference(
        lat, lam, phi_i, phi_f, tau)


@settings(max_examples=12, deadline=None)
@given(shape=st.sampled_from([(2, 8, 2), (2, 12, 3), (3, 8, 3), (4, 8, 2)]),
       a=st.floats(0.2, 1.0), kappa=st.floats(0.5, 1.5), m=st.floats(0.1, 2.0),
       lam=st.floats(0.0, 1.0), dual=st.booleans(), data=st.data())
def test_action_form_phases_from_cos_sin_equal_exp_phases(shape, a, kappa, m, lam, dual, data):
    # each term's cos and sin round like the parts of its exp, to an ulp or so, and both
    # sums add the terms in one order: they differ by at most 8 eps per term of modulus one
    L, n, tau = shape
    grid = FieldGrid.dual(n) if dual else FieldGrid.for_mass(m, n)
    lat = TruncatedLattice(L, grid, LatticeParams(a=a, dt=kappa * a, m=m, lam=lam))
    ends = st.tuples(*[st.integers(0, n - 1)] * L)
    phi_i, phi_f = data.draw(ends), data.draw(ends)
    terms = n ** (L * (tau - 1))
    measure = abs(cmath.sqrt(1j / (2.0 * math.pi * kappa)) * grid.delta_phi) ** (tau * L)
    expected = action_form_reference(lat, lam, phi_i, phi_f, tau, phase_sum=exp_sum)
    assert abs(amplitude_action_form(lat, lam, phi_i, phi_f, tau) - expected) <= (
        8 * np.finfo(float).eps * terms * measure)


def blocks_of(chunk, module=statevector):
    """``module``'s brute-force sums enumerated in blocks of at most ``chunk`` terms."""
    blocks = statevector._path_blocks
    return mock.patch.object(module, "_path_blocks",
                             lambda *args, **kwargs: blocks(*args, **{**kwargs, "chunk": chunk}))


def divisor_chunks(n, powers):
    """Chunks c * n**j with c dividing n: blocks of exactly that many terms, so a digit-table
    sum in chunks of the same size adds the same terms per chunk."""
    return [c * n**j for j in powers for c in range(1, n) if n % c == 0]


@pytest.mark.parametrize("n, sites, tau, n_extra, chunk, block", [
    (3, 2, 3, 1, 10, 9),  # n = 3: one full 3^2 grid per block
    (8, 2, 2, 1, 32, 32),  # 4 of 8 values on a partial leading axis
    (10, 1, 3, 0, 50, 50),  # 5 of 10
    (6, 1, 3, 1, 100, 72),  # 2 of 6: 3 * 36 would pass 100
    (6, 1, 3, 1, 150, 108),  # 3 of 6: 4 does not divide 6
    (4, 1, 1, 3, 1 << 18, 64),  # every variable on an open axis
    (2, 3, 1, 0, 4, 1),  # no summed variable: one term
    (1, 32, 3, 48, 1 << 16, 1),  # n = 1: 112 summed variables, 16 open axes, one term
])
def test_path_blocks_visit_every_term_once_in_c_order(n, sites, tau, n_extra, chunk, block):
    first, last = list(range(sites)), list(range(sites, 2 * sites))
    n_vars = sites * (tau - 1) + n_extra
    terms = []
    for slices, extra in _path_blocks(n, first, last, tau, n_extra, chunk):
        assert slices[0] == first and slices[-1] == last and len(slices) == tau + 1
        variables = [v for s in slices[1:-1] for v in s] + list(extra)
        index = sum(v * n ** (n_vars - 1 - k) for k, v in enumerate(variables))
        shape = np.broadcast_shapes(*[np.shape(v) for v in variables])
        terms.append(np.broadcast_to(index, shape).ravel())
        assert terms[-1].size == block
        assert len(shape) <= chunk.bit_length()  # at most log2(chunk) open axes and c
    assert np.array_equal(np.concatenate(terms), np.arange(n**n_vars))


def path_sum_reference(lat, kind, lam, phi_i, phi_f, tau):
    """amplitude_path_sum on digit-table chunks, and the sum of its terms' moduli."""
    step = CircuitStep(lat, kind, lam)
    total, moduli = 0.0 + 0.0j, 0.0
    for slices, _ in _time_slices(lat.grid.n_points, phi_i, phi_f, tau):
        steps = (step.element(y, x) for x, y in zip(slices, slices[1:]))
        terms = functools.reduce(operator.mul, steps)
        total += np.sum(terms)
        moduli += float(np.sum(np.abs(terms)))
    return complex(total), moduli


@st.composite
def path_sum_cases(draw):
    lat = draw(random_lattices)
    tau = draw(st.sampled_from((1, 2, 3) if lat.L == 2 else (1, 2)))  # at most 12^4 terms
    config = st.tuples(*[st.integers(0, lat.grid.n_points - 1)] * lat.L)
    return lat, tau, draw(config), draw(config)


@settings(max_examples=20, deadline=None)
@given(case=path_sum_cases(), kind=st.sampled_from(KINDS), lam=st.floats(0.0, 2.0))
# an amplitude that cancels exactly: both sums are roundoff near 7e-16 of terms whose
# moduli add up to 12, so no bound relative to the amplitude alone can hold
@example(case=(TruncatedLattice(2, FieldGrid.dual(12), LatticeParams(a=1.0, m=0.0)), 3,
               (0, 0), (0, 1)), kind="Strang", lam=0.0)
def test_path_sum_equals_digit_table_reference(case, kind, lam):
    lat, tau, phi_i, phi_f = case
    expected, moduli = path_sum_reference(lat, kind, lam, phi_i, phi_f, tau)
    # Both sides multiply the same step elements in the same order but add the products in
    # different groupings (blocks vs digit-table chunks, numpy's pairwise sum inside each).
    # Such a sum of at most 12^4 terms is off by at most ~(16 + log2(12^4 / 128)) eps
    # sum|term| (numpy sums runs of 128 in 8 interleaved lanes, then pairwise), so
    # 64 eps sum|term| bounds the difference of the two when the amplitude itself cancels.
    assert abs(amplitude_path_sum(lat, kind, lam, phi_i, phi_f, tau) - expected) <= (
        1e-14 * abs(expected) + 64 * np.finfo(float).eps * moduli)


@st.composite
def circuit_cases(draw, dual=st.booleans()):
    """A lattice on a dual or mass grid, a tau with at most 2^16 paths, and both ends."""
    n, L = draw(st.sampled_from((8, 10, 12, 16))), draw(st.sampled_from((2, 3)))
    tau = draw(st.sampled_from([t for t in (1, 2, 3) if n ** (L * (t - 1)) <= 2**16]))
    a, m = draw(st.floats(0.1, 1.5)), draw(st.floats(0.1, 2.0))
    grid = FieldGrid.dual(n) if draw(dual) else FieldGrid.for_mass(m, n)
    config = st.tuples(*[st.integers(0, n - 1)] * L)
    return TruncatedLattice(L, grid, LatticeParams(a=a, m=m)), tau, draw(config), draw(config)


@settings(max_examples=100, deadline=None)
@given(case=circuit_cases(), kind=st.sampled_from(KINDS), lam=st.floats(0.0, 2.0))
def test_circuit_equals_path_sum_over_random_inputs(case, kind, lam):
    # <phi_f|U^tau|phi_i> by tau matrix-free steps equals the sum over every path of the
    # products of its step elements; both round within a few eps of sum|term|, and
    # sum|term| rather than |amplitude| bounds them, since amplitudes can cancel
    lat, tau, phi_i, phi_f = case
    _, moduli = path_sum_reference(lat, kind, lam, phi_i, phi_f, tau)
    circuit = amplitude_circuit(lat, kind, lam, phi_i, phi_f, tau)
    path = amplitude_path_sum(lat, kind, lam, phi_i, phi_f, tau)
    assert abs(circuit - path) <= 64 * np.finfo(float).eps * moduli


def full_apply_reference(lat, kind, lam, phi_i, phi_f, tau):
    """<phi_f|U^tau|phi_i> by tau matrix-free steps on the full basis-ket state."""
    psi = np.zeros(lat.dim, dtype=complex)
    psi[lat.config_index(phi_i)] = 1.0
    step = CircuitStep(lat, kind, lam)
    for _ in range(tau):
        psi = step.apply(psi)
    return complex(psi[lat.config_index(phi_f)])


def path_moduli(lat, kind, phi_i, phi_f, tau):
    """sum|term| over every path of tau steps. The X layers have modulus one, so it is
    <phi_f|(|K| kron ... kron |K|)^tau|phi_i>, with |K| the kernel's elementwise modulus."""
    kernel = np.abs(statevector._momentum_kernel(lat.grid, kind, lat.params.kappa))
    vec = np.zeros(lat.dim)
    vec[lat.config_index(phi_i)] = 1.0
    for _ in range(tau):
        vec = statevector._apply_site_kernel(kernel, vec, lat.L)
    return float(vec[lat.config_index(phi_f)])


@settings(max_examples=60, deadline=None)
@given(case=circuit_cases(), kind=st.sampled_from(KINDS), lam=st.floats(0.0, 2.0),
       tau=st.integers(0, 4))
def test_circuit_from_its_ends_equals_full_apply_reference(case, kind, lam, tau):
    # both routes multiply the same layer and kernel values; they group the products and
    # sums differently, so they agree within a few eps of sum|term| (exactly at tau = 0)
    lat, _, phi_i, phi_f = case
    expected = full_apply_reference(lat, kind, lam, phi_i, phi_f, tau)
    assert abs(amplitude_circuit(lat, kind, lam, phi_i, phi_f, tau) - expected) <= (
        64 * np.finfo(float).eps * path_moduli(lat, kind, phi_i, phi_f, tau))


@pytest.mark.parametrize("kind", KINDS)
def test_circuit_builds_no_full_layer_up_to_one_step(kind, monkeypatch):
    # n = 512, L = 2: the bond table alone has dim entries, one step element reads 2L of them
    lat = TruncatedLattice(2, FieldGrid.for_mass(1.0, 512), PARAMS)
    ends = (256, 256), (258, 251)
    expected = [full_apply_reference(lat, kind, 0.3, *ends, tau) for tau in (0, 1)]
    bound = 64 * np.finfo(float).eps * path_moduli(lat, kind, *ends, 1)

    def no_layer(*args):
        raise AssertionError("the full X layer was built")

    monkeypatch.setattr(statevector, "_full_layer", no_layer)
    assert amplitude_circuit(lat, kind, 0.3, *ends, 0) == expected[0] == 0.0
    assert abs(amplitude_circuit(lat, kind, 0.3, *ends, 1) - expected[1]) <= bound
    with pytest.raises(AssertionError, match="full X layer"):
        amplitude_circuit(lat, kind, 0.3, *ends, 2)


def bond_table_reference(lat, kind, lam):
    """The n x n table of one X layer's bond factors exp(i angle(x_n, x_{n+1})) on the whole
    grid, as the step held it before one element evaluated its own 2L factors."""
    x, y = lat.grid.values[:, None], lat.grid.values[None, :]
    quartic = lam * (lat.params.a * lat.params.a) / 24.0 * x**4
    if kind == "Shift":
        angle = 0.5 * lat.params.M * x * y + quartic
    else:
        weight = 0.5 * lat.params.kappa if kind == "Strang" else lat.params.kappa
        ma = lat.params.m * lat.params.a
        msq = ma * ma
        angle = -weight * (0.5 * (y - x) ** 2 + 0.5 * msq * x**2 + quartic)
    return np.exp(1j * angle)


def element_from_table(lat, kind, lam, y, x):
    """<y|U|x> with both layers gathered from the full bond table, multiplied in site order."""
    table, L = bond_table_reference(lat, kind, lam), lat.L
    kernel = statevector._momentum_kernel(lat.grid, kind, lat.params.kappa)

    def layer(config):
        return functools.reduce(np.multiply, [table[config[s], config[(s + 1) % L]]
                                              for s in range(L)])

    out = functools.reduce(operator.mul, [kernel[ys, xs] for ys, xs in zip(y, x)])
    if kind != "Trotter":
        out = layer(y) * out
    return complex(out * layer(x))


@settings(max_examples=60, deadline=None)
@given(case=circuit_cases(), kind=st.sampled_from(KINDS), lam=st.floats(0.0, 2.0))
def test_one_step_element_is_bitwise_the_full_table_gather(case, kind, lam):
    lat, _, phi_i, phi_f = case
    expected = element_from_table(lat, kind, lam, phi_f, phi_i)
    assert amplitude_circuit(lat, kind, lam, phi_i, phi_f, 1) == expected


@pytest.mark.parametrize("kind", KINDS)
def test_one_step_element_evaluates_only_its_bonds(kind, monkeypatch):
    # n = 512: the full bond table would take n^2 exponentials, one element takes 2L (L
    # for Trotter); the reference has already cached the kernel and its exponentials
    lat = TruncatedLattice(2, FieldGrid.for_mass(1.0, 512), PARAMS)
    ends = (256, 256), (258, 251)
    expected = element_from_table(lat, kind, 0.3, ends[1], ends[0])
    exp, sizes = np.exp, []

    def counted_exp(z, *args, **kwargs):
        sizes.append(np.size(z))
        return exp(z, *args, **kwargs)

    monkeypatch.setattr(statevector.np, "exp", counted_exp)
    assert amplitude_circuit(lat, kind, 0.3, *ends, 1) == expected
    assert sizes == [1] * (2 * lat.L if kind != "Trotter" else lat.L)


def action_bound(lat, lam, tau):
    """The largest |S| of any path: tau L times the largest kinetic term plus kappa times the
    largest site potential, each part bounded on its own over the grid."""
    kappa, x = lat.params.kappa, np.abs(lat.grid.values).max()
    span_sq = (lat.grid.n_points - 1) ** 2 * lat.grid.delta_phi**2  # the largest (x' - x)^2
    site = 0.5 * span_sq + 0.5 * (lat.params.m * lat.params.a * x) ** 2 + (
        lam * lat.params.a**2 / 24.0 * x**4)
    return tau * lat.L * (span_sq / (2.0 * kappa) + kappa * site)


@settings(max_examples=100, deadline=None)
@given(case=circuit_cases(dual=st.just(True)), lam=st.floats(0.0, 2.0))
def test_action_form_equals_circuit_over_random_inputs(case, lam):
    # On dual grids at kappa = 1 the Strang circuit amplitude is the Riemann sum of e^{iS}
    # times the metaplectic phase (-i)^(tau L) of its tau L Fresnel kernels, so the action
    # form is i^(tau L) times the circuit. Every action term has the modulus of the matching
    # path term. Each side rounds a term's phase to a few eps of the phase's size (S, or the
    # X-layer angles, which add up to the potential part of S), so the bound is
    # 64 eps sum|term| scaled by 1 + the largest |S| any path can reach.
    lat, tau, phi_i, phi_f = case
    moduli = path_moduli(lat, "Strang", phi_i, phi_f, tau)
    circuit = amplitude_circuit(lat, "Strang", lam, phi_i, phi_f, tau)
    action = amplitude_action_form(lat, lam, phi_i, phi_f, tau)
    assert abs(action - 1j ** (tau * lat.L) * circuit) <= (
        64 * np.finfo(float).eps * moduli * (1.0 + action_bound(lat, lam, tau)))


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from((8, 10, 12, 16)), shape=st.sampled_from(((2, 2), (2, 3), (3, 2))),
       a=st.floats(0.2, 1.0), kappa=st.floats(0.5, 1.5), m=st.floats(0.1, 2.0),
       lam=st.floats(0.0, 1.0), dual=st.booleans(), data=st.data())
def test_action_form_in_blocks_equals_digit_table_chunks(n, shape, a, kappa, m, lam, dual, data):
    L, tau = shape
    grid = FieldGrid.dual(n) if dual else FieldGrid.for_mass(m, n)
    lat = TruncatedLattice(L, grid, LatticeParams(a=a, dt=kappa * a, m=m, lam=lam))
    ends = st.tuples(*[st.integers(0, n - 1)] * L)
    phi_i, phi_f = data.draw(ends), data.draw(ends)
    chunk = data.draw(st.sampled_from(divisor_chunks(n, powers=(2, 3))))
    expected = action_form_reference(lat, lam, phi_i, phi_f, tau, chunk)
    with blocks_of(chunk):
        assert amplitude_action_form(lat, lam, phi_i, phi_f, tau) == expected
