import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcirc.kinematics import (
    LatticeParams,
    _fold_to_zone,
    _symbol,
    cosine_symbol,
    dispersion_theta,
    momentum_grid,
    omega,
    reference_energies,
    smear_form_factor,
    validate_momentum,
)

P1 = LatticeParams(a=0.1, m=1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        LatticeParams(a=-0.1)
    with pytest.raises(ValueError):
        LatticeParams(a=0.1, m=-1.0)
    with pytest.raises(ValueError):
        LatticeParams(a=0.1, d=0)
    assert LatticeParams(a=0.1).dt == 0.1  # dt defaults to a


@pytest.mark.parametrize("field", ["a", "dt", "m", "lam"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(field, bad):
    with pytest.raises(ValueError, match="finite"):
        LatticeParams(**{"a": 0.1, field: bad})


def test_mass_parameter_recomputed():
    assert P1.M == 1.0 - 0.5 * 1.0 * 0.01
    assert abs(P1.M) < 1.0  # m*a < 2 keeps theta real


def test_mass_parameter_from_the_product_m_a():
    # m^2 overflows and a^2 underflows, but m a = 1: M = 1/2 and the energies stay finite
    params = LatticeParams(a=1e-200, m=1e200)
    assert params.M == pytest.approx(0.5, rel=1e-15)
    e_cont, e_latt = reference_energies(params, math.pi / params.a)
    assert e_cont == pytest.approx(math.hypot(math.pi, 1.0) * 1e200, rel=1e-14)
    assert e_latt == pytest.approx(math.sqrt(5.0) * 1e200, rel=1e-14)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_tensor_grid_symbol_is_bitwise_cosine_symbol(d):
    params = LatticeParams(a=0.3, m=1.7, d=d)
    line = np.random.default_rng(d).uniform(-0.999, 1.0, 9) * math.pi / params.a
    grid = _symbol(params, np.ix_(*[line] * d))
    points = np.stack(np.meshgrid(*[line] * d, indexing="ij"), axis=-1)
    np.testing.assert_array_equal(grid, cosine_symbol(params, points))


def test_momentum_zone_convention():
    edge = math.pi / P1.a
    cosine_symbol(P1, edge)  # +pi/a included
    with pytest.raises(ValueError):
        cosine_symbol(P1, -edge)  # -pi/a excluded
    with pytest.raises(ValueError):
        cosine_symbol(P1, edge * 1.01)


def test_cosine_symbol_values():
    # direct evaluation of M = 1 - m^2 a^2 / 2 at p = 0
    assert cosine_symbol(P1, 0.0) == pytest.approx(0.995, abs=1e-15)
    # cos(pi/2) = 0 regardless of m, a
    assert cosine_symbol(P1, math.pi / (2 * P1.a)) == pytest.approx(0.0, abs=1e-15)
    # d=2, m=0: M = 1 and cos(pi)^2 = 1
    p2 = LatticeParams(a=0.3, d=2, m=0.0)
    edge = math.pi / p2.a
    assert cosine_symbol(p2, (edge, edge)) == pytest.approx(1.0, abs=1e-14)


def test_dispersion_theta_values():
    # frozen from direct evaluation of arccos(0.995)/0.1
    assert dispersion_theta(P1, 0.0) == pytest.approx(1.0004171361154006, rel=1e-12)
    # c = 0 at p = pi/(2a) gives theta = pi/(2 dt) exactly
    assert dispersion_theta(P1, math.pi / (2 * P1.a)) == pytest.approx(
        math.pi / (2 * P1.dt), rel=1e-14
    )
    # theta(0) -> m as a -> 0, to 4 digits at a = 1e-3
    tiny = LatticeParams(a=1e-3, m=1.0)
    assert dispersion_theta(tiny, 0.0) == pytest.approx(1.0, abs=1e-4)


def test_dispersion_rejects_degenerate():
    massless = LatticeParams(a=0.1, m=0.0)
    with pytest.raises(ValueError, match="real theta requires m > 0 and m a < 2"):
        dispersion_theta(massless, 0.0)
    with pytest.raises(ValueError, match="real theta requires m > 0 and m a < 2"):
        omega(massless, 0.0)


def test_theta_tracks_continuum_dispersion():
    # Fig.-2-style sweep: theta is within 5% of E over the whole half zone
    # and within 0.5% below pi/(2a).
    ps = np.linspace(0.0, math.pi / P1.a, 400)
    rel = []
    for p in ps:
        e_cont, _ = reference_energies(P1, p)
        rel.append(abs(dispersion_theta(P1, p) - e_cont) / e_cont)
    rel = np.array(rel)
    assert rel.max() < 0.05
    assert rel[ps <= math.pi / (2 * P1.a)].max() < 0.005


def test_omega_values():
    # sin(arccos(0.995))/0.1 = sqrt(1 - 0.995^2)/0.1
    assert omega(P1, 0.0) == pytest.approx(math.sqrt(1 - 0.995**2) / 0.1, rel=1e-14)
    assert omega(P1, 0.0) == pytest.approx(0.9987492177719067, rel=1e-12)
    # c = 0 gives omega = 1/dt
    assert omega(P1, math.pi / (2 * P1.a)) == pytest.approx(1.0 / P1.dt, rel=1e-14)


def test_omega_bounded_by_theta():
    for p in np.linspace(0.0, math.pi / P1.a, 50):
        assert omega(P1, p) <= dispersion_theta(P1, p) + 1e-15


def test_even_in_momentum():
    rng = np.random.default_rng(7)
    params = LatticeParams(a=0.2, d=2, m=0.7)
    for _ in range(100):
        p = rng.uniform(-math.pi / params.a * 0.999, math.pi / params.a, size=2)
        assert cosine_symbol(params, p) == pytest.approx(cosine_symbol(params, -p), rel=1e-14)
        assert omega(params, p) == pytest.approx(omega(params, -p), rel=1e-14)
        assert dispersion_theta(params, p) == pytest.approx(
            dispersion_theta(params, -p), rel=1e-14
        )


def test_sin_cos_identity():
    # sin(theta dt)^2 + c^2 = 1 everywhere
    for p in np.linspace(-math.pi / P1.a * 0.99, math.pi / P1.a, 200):
        c = cosine_symbol(P1, p)
        s = math.sin(dispersion_theta(P1, p) * P1.dt)
        assert abs(s * s + c * c - 1.0) < 1e-14


def test_small_a_taylor_expansion():
    # |c(p) - (1 - (p^2 + m^2) a^2 / 2)| <= K a^4 with K stable as a halves
    m, p = 1.0, (0.4, -0.3)
    ks = []
    for a in (0.08, 0.04, 0.02):
        params = LatticeParams(a=a, d=2, m=m)
        c = cosine_symbol(params, p)
        taylor = 1.0 - (0.4**2 + 0.3**2 + m * m) * a * a / 2.0
        ks.append(abs(c - taylor) / a**4)
    assert max(ks) / min(ks) < 1.5


def test_reference_energies():
    assert reference_energies(P1, 0.0) == pytest.approx((1.0, 1.0), rel=1e-15)
    e_cont, e_latt = reference_energies(P1, math.pi / P1.a)
    assert e_cont == pytest.approx(math.sqrt((math.pi / 0.1) ** 2 + 1.0), rel=1e-14)
    assert e_latt == pytest.approx(math.sqrt(401.0), rel=1e-14)
    # E_latt / E -> 1 as a -> 0 at fixed p
    fine = LatticeParams(a=1e-4, m=1.0)
    e_cont, e_latt = reference_energies(fine, 0.8)
    assert e_latt / e_cont == pytest.approx(1.0, abs=1e-8)


def smear_weights(d: int) -> dict[tuple[int, ...], float]:
    """Raw smearing weights w(e) = prod_i v(e_i), v(0)=1/2, v(+-1)=1/4."""
    v = {-1: 0.25, 0: 0.5, 1: 0.25}
    return {
        e: float(np.prod([v[c] for c in e]))
        for e in itertools.product((-1, 0, 1), repeat=d)
    }


def smear_form_factor_sum(params: LatticeParams, p) -> complex:
    """The defining sum over smear offsets, sum_e w(e) exp(i p.e a): the
    reference for the weight normalization of :func:`smear_form_factor`."""
    arr = validate_momentum(params, p)
    total = 0.0 + 0.0j
    for e, w in sorted(smear_weights(params.d).items()):
        total += w * np.exp(1j * float(arr @ np.asarray(e, dtype=float)) * params.a)
    return total


def test_smear_form_factor():
    assert smear_form_factor(P1, 0.0) == 1.0
    assert smear_form_factor(P1, math.pi / P1.a) == pytest.approx(0.0, abs=1e-15)
    w = smear_weights(1)
    assert w[(-1,)] == 0.25 and w[(1,)] == 0.25 and w[(0,)] == 0.5
    params2 = LatticeParams(a=0.15, d=2, m=1.0)
    edge_mixed = (math.pi / params2.a, 0.7)
    assert smear_form_factor(params2, edge_mixed) == pytest.approx(0.0, abs=1e-15)


def test_smear_sum_equals_product():
    rng = np.random.default_rng(3)
    for d in (1, 2):
        params = LatticeParams(a=0.17, d=d, m=0.5)
        for _ in range(50):
            p = rng.uniform(-math.pi / params.a * 0.999, math.pi / params.a, size=d)
            s = smear_form_factor_sum(params, p)
            assert abs(s.imag) < 1e-14
            assert abs(s.real - smear_form_factor(params, p)) < 1e-14
            assert 0.0 <= smear_form_factor(params, p) <= 1.0


def test_momentum_grid():
    pts = momentum_grid(P1, 8).ravel()
    assert len(set(np.round(pts, 12))) == 8
    assert pts.max() == pytest.approx(math.pi / P1.a)
    assert pts.min() > -math.pi / P1.a
    # symmetric under p -> -p up to the zone edge
    interior = pts[np.abs(pts - math.pi / P1.a) > 1e-9]
    assert set(np.round(interior, 9)) == set(np.round(-interior, 9))


def itertools_grid_points(params, L):
    """The grid built from ``sorted`` and ``itertools.product`` on Python floats."""
    line = _fold_to_zone(2.0 * math.pi * np.arange(L) / (L * params.a), params.a)
    pts = np.array(list(itertools.product(sorted(line), repeat=params.d)))
    return pts.reshape(L**params.d, params.d)


@settings(max_examples=60, deadline=None)
@given(d=st.sampled_from([1, 2, 3]), L=st.integers(1, 17), a=st.floats(0.01, 3.0),
       m=st.floats(0.0, 2.0))
def test_momentum_grid_equals_itertools_reference(d, L, a, m):
    params = LatticeParams(a=a, d=d, m=m)
    points, reference = momentum_grid(params, L), itertools_grid_points(params, L)
    assert points.shape == reference.shape and points.dtype == reference.dtype
    assert points.tobytes() == reference.tobytes()


ARRAY_FUNCTIONS = (cosine_symbol, dispersion_theta, omega, smear_form_factor, reference_energies)


@st.composite
def momentum_arrays(draw, interior=False):
    """(params, p): random massive parameters and a (k, d) array of zone momenta.

    ``interior`` keeps every component off the zone edge, so that -p is in the
    zone too.
    """
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 6))
    params = LatticeParams(a=draw(st.floats(0.05, 0.5)), d=d, m=draw(st.floats(0.1, 3.0)))
    top = 0.999 if interior else 1.0
    unit = draw(st.lists(st.floats(-0.999, top), min_size=k * d, max_size=k * d))
    return params, np.reshape(unit, (k, d)) * (math.pi / params.a)


@settings(max_examples=25, deadline=None)
@given(case=momentum_arrays())
def test_array_calls_equal_stacked_scalar_calls(case):
    params, p = case
    assert validate_momentum(params, p).shape == p.shape
    for fn in ARRAY_FUNCTIONS:
        stacked = np.array([fn(params, point) for point in p])
        whole = np.array(fn(params, p))
        if fn is reference_energies:
            whole = whole.T  # a pair of (k,) arrays against k pairs
        assert whole.shape == stacked.shape, fn.__name__
        np.testing.assert_array_equal(whole, stacked, err_msg=fn.__name__)


@settings(max_examples=25, deadline=None)
@given(case=momentum_arrays(interior=True))
def test_even_in_momentum_on_arrays(case):
    params, p = case
    for fn in (cosine_symbol, dispersion_theta, omega):
        np.testing.assert_allclose(fn(params, -p), fn(params, p), rtol=1e-14, atol=0.0)


@settings(max_examples=25, deadline=None)
@given(case=momentum_arrays(), data=st.data())
def test_array_with_one_component_outside_zone_rejected(case, data):
    params, p = case
    edge = math.pi / params.a
    outside = data.draw(st.one_of(
        st.floats(-4.0, -1.0).map(lambda u: u * edge),  # -pi/a itself is excluded
        st.floats(1.0, 4.0, exclude_min=True).map(lambda u: u * edge),
        st.just(math.nan),
    ))
    row = data.draw(st.integers(0, p.shape[0] - 1))
    col = data.draw(st.integers(0, p.shape[1] - 1))
    bad = p.copy()
    bad[row, col] = outside
    for fn in (validate_momentum, *ARRAY_FUNCTIONS):
        with pytest.raises(ValueError):
            fn(params, bad)


def test_array_shapes_and_degenerate_arrays():
    # a bare scalar is one d=1 momentum and gives a plain float
    assert isinstance(cosine_symbol(P1, 0.3), float)
    grid = np.zeros((2, 3, 1))
    assert dispersion_theta(P1, grid).shape == (2, 3)
    with pytest.raises(ValueError):
        cosine_symbol(P1, np.zeros((4, 2)))  # two components where d = 1
    # one degenerate point among many is enough to raise
    massless = LatticeParams(a=0.1, m=0.0)
    with pytest.raises(ValueError, match="real theta requires m > 0 and m a < 2"):
        omega(massless, [[0.5], [1.0], [0.0]])
