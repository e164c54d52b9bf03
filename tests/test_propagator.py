import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcirc.errors import QuadratureNotConverged
from latcirc.kinematics import LatticeParams, cosine_symbol, omega
from latcirc.propagator import (
    PropagatorQuery,
    contour_identity_residual,
    equal_time,
    feynman_momentum,
)
from latcirc.quadrature import midpoint_nodes

P1 = LatticeParams(a=0.1, m=1.0)
EPS_DEFAULT = 1e-3 / P1.dt  # the standard regulator, 1e-3 in units of 1/dt


def test_query_validation():
    with pytest.raises(ValueError):
        PropagatorQuery(P1, 0.0, 0.0, epsilon=0.0)
    with pytest.raises(ValueError):
        PropagatorQuery(P1, 2 * math.pi / P1.dt, 0.0, epsilon=1e-3)
    with pytest.raises(ValueError):
        PropagatorQuery(P1, 0.0, 2 * math.pi / P1.a, epsilon=1e-3)
    with pytest.raises(ValueError):
        PropagatorQuery(P1, 0.0, 0.0, epsilon=math.nan)
    with pytest.raises(ValueError):  # one p0 outside the zone rejects the array
        PropagatorQuery(P1, [0.0, -math.pi / P1.dt], 0.0, epsilon=1e-3)
    with pytest.raises(ValueError):  # p0 of shape (3,) against three momenta of shape (2,)
        PropagatorQuery(P1, np.zeros(3), np.zeros((2, 1)), epsilon=1e-3)


def test_feynman_momentum_closed_form():
    # c = 0 and cos(p0 dt) = 1: D_F -> (dt^2/2) i / (-1 + i eps) ~ -0.005i
    q = PropagatorQuery(P1, 0.0, math.pi / (2 * P1.a), epsilon=1e-9)
    val = feynman_momentum(q)
    assert val == pytest.approx(-0.005j, abs=1e-10)


def test_feynman_momentum_even():
    rng = np.random.default_rng(2)
    for _ in range(100):
        p0 = rng.uniform(-math.pi / P1.dt * 0.999, math.pi / P1.dt)
        p1 = rng.uniform(-math.pi / P1.a * 0.999, math.pi / P1.a)
        plus = feynman_momentum(PropagatorQuery(P1, p0, p1, 1e-3))
        minus = feynman_momentum(PropagatorQuery(P1, -p0, -p1, 1e-3))
        assert plus == pytest.approx(minus, rel=1e-13)


def test_feynman_momentum_continuum_recovery():
    # D_F(p) / [i/(p0^2 - p^2 - m^2)] -> dt^2-independent constant -> 1 as a -> 0
    p0, p1, m = 0.3, 0.2, 1.0
    ratios = []
    for a in (0.1, 0.05, 0.025):
        params = LatticeParams(a=a, m=m)
        val = feynman_momentum(PropagatorQuery(params, p0, p1, 1e-12))
        cont = 1j / (p0**2 - p1**2 - m**2)
        ratios.append(abs(val / cont))
    assert abs(ratios[-1] - 1.0) < abs(ratios[0] - 1.0)
    assert ratios[-1] == pytest.approx(1.0, abs=2e-4)


def test_denominator_never_vanishes():
    eps = 1e-3
    p0s = midpoint_nodes(257, math.pi / P1.dt)
    p1s = midpoint_nodes(257, math.pi / P1.a)
    mins = min(
        abs(cosine_symbol(P1, p1) - math.cos(p0 * P1.dt) + 1j * eps)
        for p0 in p0s[::16]
        for p1 in p1s[::16]
    )
    assert mins >= eps


def test_contour_identity_residuals():
    # quadrature oracle: both sides agree to roundoff at n = 2^16
    assert contour_identity_residual(P1, 0.0, 3, EPS_DEFAULT, 2**16) < 1e-6
    r0 = contour_identity_residual(P1, math.pi / (2 * P1.a), 0, EPS_DEFAULT, 2**16)
    assert r0 < 1e-8
    # |t| symmetry of both sides
    plus = contour_identity_residual(P1, 0.4, 3, EPS_DEFAULT, 2**16)
    minus = contour_identity_residual(P1, 0.4, -3, EPS_DEFAULT, 2**16)
    assert plus == pytest.approx(minus, abs=1e-12)


def test_contour_identity_lhs_magnitude():
    # at c = 0, t = 0, the left side is 1/sin(pi/2 - i eps dt) ~ 1
    theta_eps = math.pi / (2 * P1.dt) - 1j * EPS_DEFAULT
    lhs = np.exp(-1j * theta_eps * 0.0) / np.sin(theta_eps * P1.dt)
    assert abs(lhs - 1.0) < 1e-5


def test_contour_geometric_convergence():
    # error drops by >= 10x per node doubling once n >= 2^10 (until roundoff)
    eps = 0.01 / P1.dt
    errs = [
        contour_identity_residual(P1, 0.3, 1, eps, n, conv_rtol=None)
        for n in (2**10, 2**11, 2**12)
    ]
    for coarse, fine in zip(errs[:-1], errs[1:]):
        if coarse > 1e-12:
            assert coarse / max(fine, 1e-16) >= 10.0


def test_contour_not_converged_raises():
    # a tiny strip at small n cannot converge; the doubling check must fire
    with pytest.raises(QuadratureNotConverged):
        contour_identity_residual(P1, 0.3, 1, 1e-4 / P1.dt, 2**8, conv_rtol=1e-8)
    with pytest.raises(ValueError):
        contour_identity_residual(P1, 0.3, 1, EPS_DEFAULT, 1000)  # not a power of two


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, 0.0, -1e-3])
def test_contour_refuses_non_finite_or_non_positive_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon must be finite and positive"):
        contour_identity_residual(P1, 0.3, 1, epsilon, 2**8)


def test_equal_time_symmetric_and_real():
    g_plus = equal_time(P1, 2, 512)
    g_minus = equal_time(P1, -2, 512)
    assert g_plus == pytest.approx(g_minus, rel=1e-13)
    assert abs(g_plus.imag) < 1e-12


def test_equal_time_self_convergence():
    coarse = equal_time(P1, 0, 512)
    fine = equal_time(P1, 0, 5120)
    assert abs(coarse - fine) < 1e-10
    # the convergence guard passes at converged resolution
    equal_time(P1, 0, 512, conv_rtol=1e-10)


def test_equal_time_requires_mass():
    with pytest.raises(ValueError):
        equal_time(LatticeParams(a=0.1, m=0.0), 0, 64)


def test_equal_time_two_dimensional():
    params = LatticeParams(a=0.2, d=2, m=1.0)
    coarse = equal_time(params, (1, 0), 64)
    fine = equal_time(params, (1, 0), 128)
    assert abs(coarse.imag) < 1e-12
    assert coarse == pytest.approx(fine, rel=1e-9)
    # lattice symmetry: the two unit offsets are equivalent
    assert equal_time(params, (0, 1), 64) == pytest.approx(coarse, rel=1e-12)


def test_doubling_symmetry_of_omega():
    # the zone-edge mirror p <-> pi/a - p leaves omega invariant (the
    # bosonic doubling pathology), probed near the massless limit
    params = LatticeParams(a=0.1, m=1e-6)
    for p in (0.3, 1.1, 2.7):
        mirrored = math.pi / params.a - p
        assert omega(params, p) == pytest.approx(omega(params, mirrored), rel=1e-12)


def test_two_route_equal_time_consistency():
    # D-dimensional quadrature of feynman_momentum at equal time reproduces
    # equal_time as the dimensionless regulator shrinks (real-part error is
    # quadratic in epsilon)
    offset = 2
    target = equal_time(P1, offset, 256).real
    n0 = 2**15
    p0s = midpoint_nodes(n0, math.pi / P1.dt)
    p1s = midpoint_nodes(256, math.pi / P1.a)
    errs = []
    for eps in (1e-3, 5e-4):
        total = 0.0
        for p1 in p1s:
            c = cosine_symbol(P1, p1)
            df = (P1.dt**2 / 2) * 1j / (c - np.cos(p0s * P1.dt) + 1j * eps)
            total += float(np.sum(df).real) * math.cos(p1 * offset * P1.a)
        total /= (n0 * P1.dt) * (256 * P1.a)
        errs.append(abs(total - target) / abs(target))
    assert errs[0] < 1e-2
    assert errs[1] < 0.6 * errs[0]


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(0.05, 0.5),
    m=st.floats(0.0, 3.0),
    eps=st.floats(1e-4, 1e-1),
    p0_unit=st.lists(st.floats(-0.999, 1.0), min_size=1, max_size=6),
    p1_unit=st.lists(st.floats(-0.999, 1.0), min_size=1, max_size=6),
)
def test_array_feynman_momentum_equals_per_point(a, m, eps, p0_unit, p1_unit):
    params = LatticeParams(a=a, m=m)
    p0 = np.array(p0_unit) * (math.pi / params.dt)
    p1 = np.array(p1_unit) * (math.pi / params.a)
    # p0 along rows, one-component momenta along columns: a (len p0, len p1) table
    grid = feynman_momentum(PropagatorQuery(params, p0[:, None], p1[:, None], eps))
    assert grid.shape == (len(p0), len(p1))
    points = [[feynman_momentum(PropagatorQuery(params, x0, x1, eps)) for x1 in p1] for x0 in p0]
    assert isinstance(points[0][0], complex)
    np.testing.assert_array_equal(grid, points)
