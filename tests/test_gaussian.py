import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcirc.errors import CapExceeded, ConvergenceFailure
from latcirc.gaussian import (
    CONE_THRESHOLD,
    _free_step,
    block_phase,
    bogoliubov_modes,
    lightcone_radius,
    momentum_blocks_of_map,
    mover_shift_check,
    realspace_map,
    shift_block,
    strang_block,
    symplectic_defect,
)
from latcirc.kinematics import (
    LatticeParams,
    _fold_to_zone,
    cosine_symbol,
    dispersion_theta,
    reference_energies,
)

P1 = LatticeParams(a=0.1, m=1.0)
MASSLESS = LatticeParams(a=0.1, m=0.0)


def zone_sample(rng, params, n):
    return rng.uniform(-math.pi / params.a * 0.999, math.pi / params.a, size=n)


def test_shift_block_entries():
    blk = shift_block(P1, 0.0)
    expected = np.array([[0.995, (0.995**2 - 1.0) / 0.1], [0.1, 0.995]])
    np.testing.assert_allclose(blk, expected, rtol=1e-14)
    assert expected[0, 1] == pytest.approx(-0.09975)
    # c = 0: quarter rotation scaled
    blk0 = shift_block(P1, math.pi / (2 * P1.a))
    np.testing.assert_allclose(blk0, [[0.0, -1.0 / 0.1], [0.1, 0.0]], atol=1e-14)


def test_shift_block_determinant_and_phase():
    rng = np.random.default_rng(11)
    for p in zone_sample(rng, P1, 50):
        blk = shift_block(P1, p)
        assert np.linalg.det(blk) == pytest.approx(1.0, abs=1e-12)
        # eigensolve oracle: eigenvalue phase equals dispersion theta * dt
        assert block_phase(blk) == pytest.approx(dispersion_theta(P1, p) * P1.dt, abs=1e-12)
        eig = np.sort_complex(np.linalg.eigvals(blk))
        assert eig[0] == pytest.approx(np.conj(eig[1]), abs=1e-12)


def test_strang_block_free_particle():
    params = LatticeParams(a=0.1, m=0.0)
    np.testing.assert_allclose(
        strang_block(params, 0.0), [[1.0, 0.0], [0.1, 1.0]], atol=1e-15
    )


def test_strang_block_phase_to_lattice_dispersion():
    # extracted phase -> E_latt as dt -> 0 at fixed a, p
    a, m, p = 0.2, 1.0, 1.1
    _, e_latt = reference_energies(LatticeParams(a=a, m=m), p)
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        params = LatticeParams(a=a, dt=dt, m=m)
        errs.append(abs(block_phase(strang_block(params, p)) / dt - e_latt))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-4
    # and at dt = a = 0.01 the phase is already within 1e-3 of E(p)
    fine = LatticeParams(a=0.01, m=1.0)
    e_cont, _ = reference_energies(fine, 1.0)
    theta_strang = block_phase(strang_block(fine, 1.0)) / fine.dt
    assert abs(theta_strang - e_cont) / e_cont < 1e-3
    assert np.linalg.det(strang_block(fine, 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_blocks_in_two_dimensions():
    # higher d is covered per momentum: blocks accept d-component momenta
    params = LatticeParams(a=0.15, d=2, m=0.8)
    p = (0.7, -1.1)
    blk = shift_block(params, p)
    assert np.linalg.det(blk) == pytest.approx(1.0, abs=1e-12)
    assert block_phase(blk) == pytest.approx(dispersion_theta(params, p) * params.dt, abs=1e-12)
    strang = strang_block(params, p)
    assert np.linalg.det(strang) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        realspace_map(params, 8, "Shift")  # real-space maps are d=1 only


def test_block_phase_refuses_a_block_without_elliptic_phase():
    with pytest.raises(ValueError, match=r"no elliptic eigenphase in \(0, pi\)"):
        block_phase(np.eye(2))  # both eigenphases are 0


def test_bogoliubov_modes():
    # c = 0 (theta dt = pi/2): alpha = sqrt(1/(2 dt)), beta = i sqrt(dt/2)
    alpha, beta = bogoliubov_modes(P1, math.pi / (2 * P1.a))
    assert alpha == pytest.approx(math.sqrt(1.0 / (2 * P1.dt)), rel=1e-14)
    assert beta == pytest.approx(1j * math.sqrt(P1.dt / 2.0), rel=1e-14)

    rng = np.random.default_rng(5)
    for _ in range(100):
        a = rng.uniform(0.05, 0.3)
        m = rng.uniform(0.2, 2.0)
        params = LatticeParams(a=a, m=m)
        p = rng.uniform(-math.pi / a * 0.999, math.pi / a)
        alpha, beta = bogoliubov_modes(params, p)
        # commutator normalization
        assert alpha * np.conj(beta) - np.conj(alpha) * beta == pytest.approx(
            -1j, abs=1e-12
        )
        # eigenvector of the block with eigenvalue exp(-i theta dt)
        vec = np.array([alpha, beta])
        blk = shift_block(params, p)
        residual = blk @ vec - np.exp(-1j * dispersion_theta(params, p) * params.dt) * vec
        assert np.max(np.abs(residual)) < 1e-12

    with pytest.raises(ValueError, match="real theta requires m > 0 and m a < 2"):
        bogoliubov_modes(MASSLESS, 0.0)


def single_point_reference(params, p):
    """Shift block, Strang block and mode pair at one momentum, as built before the shape check."""
    c, dt = cosine_symbol(params, p), params.dt
    arr = np.atleast_1d(np.asarray(p, dtype=float))
    laplacian = float(np.sum(4.0 * np.sin(arr * params.a / 2.0) ** 2)) / params.a / params.a
    curv = params.m * params.m + laplacian
    x_half = np.array([[1.0, -0.5 * dt * curv], [0.0, 1.0]])
    strang = x_half @ np.array([[1.0, 0.0], [dt, 1.0]]) @ x_half
    s = math.sin(dispersion_theta(params, p) * dt)
    modes = (math.sqrt(s / (2.0 * dt)), 1j * math.sqrt(dt / (2.0 * s)))
    return np.array([[c, (c * c - 1.0) / dt], [dt, c]]), strang, modes


def test_blocks_and_modes_take_one_momentum():
    for fn in (shift_block, strang_block, bogoliubov_modes):
        with pytest.raises(ValueError, match="one 1-component momentum, got shape"):
            fn(P1, [[0.3], [0.5]])
    rng = np.random.default_rng(17)
    for params in (P1, LatticeParams(a=0.15, dt=0.1, m=0.8), LatticeParams(a=0.2, d=2, m=1.1)):
        for p in zone_sample(rng, params, 6 * params.d).reshape(-1, params.d):
            point = p[0] if params.d == 1 else tuple(p)  # a scalar in d = 1
            shift, strang, modes = single_point_reference(params, point)
            assert np.array_equal(shift_block(params, point), shift)
            assert np.array_equal(strang_block(params, point), strang)
            assert bogoliubov_modes(params, point) == modes


def test_realspace_map_matches_blocks():
    anisotropic = LatticeParams(a=0.1, dt=0.05, m=1.0)
    for params in (P1, anisotropic):
        for kind, builder in (("Shift", shift_block), ("Strang", strang_block)):
            rmap = realspace_map(params, 4, kind)
            for p_k, blk in momentum_blocks_of_map(params, rmap):
                folded = p_k if p_k <= math.pi / params.a else p_k - 2 * math.pi / params.a
                np.testing.assert_allclose(
                    blk, builder(params, folded), atol=1e-12, err_msg=f"{kind} p={p_k}"
                )


def test_realspace_map_block_circulant():
    rmap = realspace_map(P1, 6, "Shift")
    L = 6
    for bi in range(2):
        for bj in range(2):
            blk = rmap[bi * L : (bi + 1) * L, bj * L : (bj + 1) * L]
            for shift in range(1, L):
                np.testing.assert_allclose(
                    blk, np.roll(np.roll(blk, shift, axis=0), shift, axis=1), atol=1e-13
                )


def test_symplectic_form_preserved():
    for kind in ("Shift", "Strang"):
        mat = realspace_map(P1, 16, kind)
        power = np.eye(32)
        for _ in range(10):
            power = mat @ power
            assert symplectic_defect(power) < 1e-10


def test_identity_at_zero_steps():
    mat = realspace_map(P1, 8, "Shift")
    np.testing.assert_allclose(np.linalg.matrix_power(mat, 0), np.eye(16), atol=0)


def test_spectral_consistency_of_powers():
    # eigenphases of map powers equal tau * theta(p) * dt mod 2pi
    L, tau = 8, 4
    power = np.linalg.matrix_power(realspace_map(P1, L, "Shift"), tau)
    for p_k, blk in momentum_blocks_of_map(P1, power):
        folded = p_k if p_k <= math.pi / P1.a else p_k - 2 * math.pi / P1.a
        theta = dispersion_theta(P1, folded)
        expected = (tau * theta * P1.dt) % (2 * math.pi)
        phase = np.angle(np.linalg.eigvals(blk))
        best = min(abs(((ph - expected + math.pi) % (2 * math.pi)) - math.pi) for ph in phase)
        assert best < 1e-10


def test_continuum_limit_order_two():
    # extracted theta -> sqrt(p^2 + m^2) with convergence order >= 2
    p_phys, m = 0.9, 1.0
    e_cont = math.sqrt(p_phys**2 + m**2)
    spacings = np.array([0.2, 0.1, 0.05, 0.025])
    for builder in (shift_block, strang_block):
        errs = []
        for a in spacings:
            params = LatticeParams(a=a, m=m)
            errs.append(abs(block_phase(builder(params, p_phys)) / params.dt - e_cont))
        order = np.polyfit(np.log(spacings), np.log(errs), 1)[0]
        assert order >= 1.9, f"{builder.__name__}: observed order {order}"


@pytest.mark.parametrize("params", [P1, MASSLESS, LatticeParams(a=1.0, m=0.0),
                                    LatticeParams(a=0.5, dt=0.25, m=1.0),
                                    LatticeParams(a=1.5, dt=0.9, m=0.3)])
def test_free_lightcone_radius_is_exact(params):
    # a field perturbation reaches tau sites, a momentum one a site further: tighter than 2*tau
    for kind in ("Shift", "Strang"):
        for tau in range(1, 7):
            radii = [lightcone_radius(params, 40, kind, tau, obs) for obs in ("phi", "pi", "both")]
            assert radii == [tau, tau + 1, tau + 1], (kind, tau)


def test_mover_shift_exact():
    assert mover_shift_check(MASSLESS, 8) < 1e-12
    assert mover_shift_check(MASSLESS, 2) < 1e-12  # cyclic wrap-around
    # the residual at m != 0 is genuinely nonzero
    assert mover_shift_check(LatticeParams(a=0.1, m=0.5), 8) > 1e-4


def test_lightcone_radius():
    assert lightcone_radius(P1, 8, "Shift", 0) == 0
    # massless Shift: the field functional spreads one site per step
    assert lightcone_radius(MASSLESS, 32, "Shift", 3) == 3
    r_strang = lightcone_radius(P1, 32, "Strang", 3)
    assert 0 < r_strang <= 6
    for kind in ("Shift", "Strang"):
        for tau in range(1, 6):
            assert lightcone_radius(P1, 4 * tau + 4, kind, tau, observable="both") <= 2 * tau
    with pytest.raises(CapExceeded, match="rule out wrap-around, against L: 15 exceeds the cap 14"):
        lightcone_radius(P1, 14, "Shift", 3)
    # an unknown kind is rejected even where no step is taken
    for tau in (0, 2):
        with pytest.raises(ValueError):
            lightcone_radius(P1, 16, "Euler", tau)
    with pytest.raises(ValueError):
        lightcone_radius(P1, 16, "Shift", 1, observable="chi")
    with pytest.raises(ValueError):
        lightcone_radius(P1, 16, "Shift", -1)
    with pytest.raises(ValueError):
        lightcone_radius(LatticeParams(a=0.1, d=2), 16, "Shift", 1)


@pytest.mark.parametrize("params, kind", [
    (LatticeParams(a=0.1, m=1e300), "Shift"), (LatticeParams(a=1e300, m=1.0), "Shift"),
    (LatticeParams(a=1e-160, m=1.0), "Strang"),
], ids=["Shift-m1e300", "Shift-a1e300", "Strang-a1e-160"])
def test_lightcone_refuses_non_finite_coefficients(params, kind):
    # M = -inf, or a curvature 2/a^2 past the range: every coefficient is NaN after the
    # first steps, which read as no support at all (radius 0) until they were refused
    with np.errstate(all="ignore"), pytest.raises(ConvergenceFailure, match="not all finite"):
        lightcone_radius(params, 32, kind, 3)


def test_realspace_checks():
    with pytest.raises(ValueError):
        realspace_map(P1, 1, "Shift")
    with pytest.raises(ValueError):
        realspace_map(P1, 8, "Euler")
    with pytest.raises(ValueError):
        mover_shift_check(LatticeParams(a=0.1, d=2), 8)
    with pytest.raises(ValueError):
        mover_shift_check(P1, 1)


free_params = st.builds(
    lambda a, kappa, m: LatticeParams(a=a, dt=kappa * a, m=m),
    st.floats(0.05, 1.0), st.floats(0.1, 1.0), st.floats(0.0, 3.0),
)
kinds = st.sampled_from(["Shift", "Strang"])


def _dense_cone(params, L, kind, tau, observable):
    """Reference cone: columns of the dense S^tau and their circular site support."""
    power = np.linalg.matrix_power(realspace_map(params, L, kind), tau)
    n0 = L // 2
    radius = 0
    for col in {"phi": (n0,), "pi": (L + n0,), "both": (n0, L + n0)}[observable]:
        support = np.abs(power[:, col].reshape(2, L)).max(axis=0) > CONE_THRESHOLD
        for n in np.nonzero(support)[0]:
            radius = max(radius, min(abs(int(n) - n0), L - abs(int(n) - n0)))
    return radius


@settings(max_examples=25, deadline=None)
@given(params=free_params, kind=kinds, observable=st.sampled_from(["phi", "pi", "both"]),
       tau=st.integers(0, 5), data=st.data())
def test_lightcone_matches_dense_power(params, kind, observable, tau, data):
    L = data.draw(st.integers(4 * tau + 3, 40), label="L")
    radius = lightcone_radius(params, L, kind, tau, observable)
    assert radius == _dense_cone(params, L, kind, tau, observable)
    assert radius <= 2 * tau


def _dense_mover_residual(params, L):
    """Reference residual: the dense map applied to each site's mover functional."""
    smap = realspace_map(params, L, "Shift")
    res = 0.0
    for sign, step in ((1.0, 1), (-1.0, -1)):
        movers = np.zeros((L, 2 * L))
        for n in range(L):
            movers[n, L + n] = 0.5
            movers[n, (n + 1) % L] += sign / (4.0 * params.a)
            movers[n, (n - 1) % L] -= sign / (4.0 * params.a)
        for n in range(L):
            res = max(res, np.max(np.abs(smap @ movers[n] - movers[(n + step) % L])))
    return res, np.max(np.abs(smap))


@settings(max_examples=25, deadline=None)
@given(params=free_params, L=st.integers(2, 40))
def test_mover_residual_matches_dense_reference(params, L):
    ref, scale = _dense_mover_residual(params, L)
    assert abs(mover_shift_check(params, L) - ref) <= 1e-14 * max(1.0, scale)


def _all_sites_mover_residual(params, L):
    """Reference residual: the stencil applied to all L movers at once, as (2L, L) columns."""
    eye = np.eye(L)
    diff = (np.roll(eye, 1, axis=0) - np.roll(eye, -1, axis=0)) / (4.0 * params.a)
    res = 0.0
    for sign, shift in ((1.0, -1), (-1.0, 1)):
        movers = np.concatenate([sign * diff, 0.5 * eye])
        image = _free_step(params, "Shift", movers)
        res = max(res, float(np.max(np.abs(image - np.roll(movers, shift, axis=1)))))
    return res


@settings(max_examples=25, deadline=None)
@given(params=free_params, L=st.sampled_from((2, 3, 8, 64, 256)))
def test_site0_mover_residual_equals_all_sites(params, L):
    # translation invariance: site 0 carries every site's entries, bit for bit
    assert mover_shift_check(params, L) == _all_sites_mover_residual(params, L)


@settings(max_examples=25, deadline=None)
@given(params=free_params, kind=kinds, L=st.integers(2, 40))
def test_one_step_symplectic_defect(params, kind, L):
    mat = realspace_map(params, L, kind)
    assert symplectic_defect(mat) <= 1e-14 * max(1.0, np.max(np.abs(mat))) ** 2


@settings(max_examples=25, deadline=None)
@given(params=free_params, kind=kinds, L=st.integers(2, 24))
def test_momentum_blocks_match_builders(params, kind, L):
    builder = shift_block if kind == "Shift" else strang_block
    pairs = momentum_blocks_of_map(params, realspace_map(params, L, kind))
    assert len(pairs) == L
    for p_k, blk in pairs:
        ref = builder(params, _fold_to_zone(np.array(p_k), params.a))
        assert np.max(np.abs(blk - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
