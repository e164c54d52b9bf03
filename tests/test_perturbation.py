import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcirc.errors import CapExceeded
from latcirc.kinematics import LatticeParams, smear_form_factor
from latcirc.perturbation import (
    DiagramSpec,
    elliptic_K,
    evaluate_diagram,
    log_slope,
    one_loop_mass,
)
from latcirc.propagator import feynman_momentum
from latcirc.quadrature import fsum_complex, midpoint_nodes

P1 = LatticeParams(a=0.1, m=1.0, lam=1.0)
A_SERIES = (0.2, 0.1, 0.05, 0.025, 0.0125)


def test_elliptic_K_known_values():
    assert elliptic_K(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    # 64-node Gauss-Legendre oracle at x = 0.9 on [0, pi/2]
    nodes, weights = np.polynomial.legendre.leggauss(64)
    t = math.pi / 4 * (1.0 + nodes)
    direct = math.pi / 4 * math.fsum(weights / np.sqrt(1.0 - 0.81 * np.sin(t) ** 2))
    assert elliptic_K(0.9) == pytest.approx(direct, abs=1e-12)
    with pytest.raises(ValueError, match="elliptic_K requires 0 <= x < 1"):
        elliptic_K(1.0)
    with pytest.raises(ValueError, match="elliptic_K requires 0 <= x < 1"):
        elliptic_K(-0.1)


def test_elliptic_K_log_expansion():
    # K(M) + (1/2) ln(1 - M^2) approaches a constant as M -> 1
    consts = []
    for a in (0.2, 0.1, 0.05):
        m_par = LatticeParams(a=a, m=1.0).M
        consts.append(elliptic_K(m_par) + 0.5 * math.log(1.0 - m_par * m_par))
    spread = (max(consts) - min(consts)) / abs(consts[-1])
    assert spread < 0.02


def test_one_loop_shift_plain_equals_elliptic():
    # AGM oracle vs quadrature
    quad = one_loop_mass("ShiftPlain", P1)
    assert quad == pytest.approx(P1.lam / (2 * math.pi) * elliptic_K(P1.M), abs=1e-10)


def shift_trapezoid_reference(regulator, params, p_in=0.0, resolution=8192):
    """The quadrature one_loop_mass used for the Shift regulators before their closed forms:
    the trapezoid rule on resolution / 2 and resolution midpoint nodes of the zone, each sum
    added by math.fsum, and the fine value returned once it is within 1e-9 of the coarse."""

    def zone_mean(n):
        cos = np.cos(midpoint_nodes(n, math.pi))
        weight = 1.0 if regulator == "ShiftPlain" else (1.0 + cos) ** 2
        return math.fsum((weight / np.sqrt(1.0 - params.M**2 * cos**2)).tolist()) / n

    prefactor = params.lam / 4.0
    if regulator == "ShiftSmeared":
        prefactor *= (1.0 + math.cos(p_in * params.a)) ** 2 / 16.0
    coarse, fine = (prefactor * zone_mean(n) for n in (resolution // 2, resolution))
    assert abs(fine - coarse) <= 1e-9 * abs(coarse)
    return fine


@settings(max_examples=60, deadline=None)
@given(a=st.floats(0.01, 2.0), m_a=st.floats(0.05, 1.95), lam=st.floats(0.01, 10.0),
       zone_fraction=st.floats(-1.0, 1.0))
def test_shift_regulators_equal_trapezoid_quadrature(a, m_a, lam, zone_fraction):
    params = LatticeParams(a=a, m=m_a / a, lam=lam)
    p_in = zone_fraction * math.pi / a
    for regulator in ("ShiftPlain", "ShiftSmeared"):
        closed = one_loop_mass(regulator, params, p_in=p_in)
        reference = shift_trapezoid_reference(regulator, params, p_in)
        assert abs(closed - reference) <= 1e-12 * abs(reference)


def test_shift_regulators_where_M_vanishes():
    # m a = sqrt(2) puts M at 0 (to roundoff): K = pi/2 and D = (K - E)/M^2 takes its
    # limit pi/4, so Pi_plain = lambda/4 and Pi_smeared = (lambda/4)(1/4)(2/pi)(3 pi/4)
    params = LatticeParams(a=1.0, m=math.sqrt(2.0), lam=1.0)
    assert abs(params.M) < 1e-15
    plain, smeared = (one_loop_mass(reg, params) for reg in ("ShiftPlain", "ShiftSmeared"))
    assert plain == pytest.approx(0.25, rel=1e-15)
    assert smeared == pytest.approx(3.0 / 32.0, rel=1e-15)
    assert plain == pytest.approx(shift_trapezoid_reference("ShiftPlain", params), rel=1e-12)
    assert smeared == pytest.approx(shift_trapezoid_reference("ShiftSmeared", params), rel=1e-12)


@pytest.mark.parametrize("a", [1e-3, 1e-9])
def test_shift_regulators_at_tiny_spacing(a):
    # M = 1 - a^2/2 rounds to 1 at a = 1e-9, but k' = m a sqrt(1 - (m a)^2/4) keeps its
    # value; to O(k'^4 ln k'), K = l + (k'^2/4)(l - 1) and E = 1 + (k'^2/2)(l - 1/2), l = ln(4/k')
    params = LatticeParams(a=a, m=1.0, lam=1.0)
    k_c = a * math.sqrt(1.0 - a * a / 4.0)
    log = math.log(4.0 / k_c)
    k = log + k_c**2 / 4.0 * (log - 1.0)
    e = 1.0 + k_c**2 / 2.0 * (log - 0.5)
    plain, smeared = (one_loop_mass(reg, params) for reg in ("ShiftPlain", "ShiftSmeared"))
    assert 0.0 < plain < math.inf and 0.0 < smeared < math.inf
    assert plain == pytest.approx(k / (2.0 * math.pi), rel=1e-11)
    assert smeared == pytest.approx((k + (k - e) / params.M**2) / (8.0 * math.pi), rel=1e-11)


@pytest.mark.parametrize("a, m", [(0.1, 1e200), (1e300, 1.0), (1e-200, 1e-200)])
def test_shift_regulators_without_finite_moduli_are_non_finite(a, m):
    # (m a)^2 overflows, or m a underflows to 0 where K diverges: a NaN for the writers
    # to refuse (exit 2), not a math domain error
    params = LatticeParams(a=a, m=m, lam=1.0)
    for regulator in ("ShiftPlain", "ShiftSmeared"):
        assert math.isnan(one_loop_mass(regulator, params))


def cutoff_panels_reference(params, resolution=8192):
    """The quadrature one_loop_mass("ContinuumCutoff") used before its closed form: the
    fine rule of resolution // 128 + 32 Gauss-Legendre nodes on panels doubling from m to
    the cutoff pi/a, all weighted values added by math.fsum."""
    lim = math.pi / params.a
    m = params.m
    panels = [0.0, min(m, lim)]
    while panels[-1] < lim:
        panels.append(min(2.0 * panels[-1], lim))
    nodes, weights = np.polynomial.legendre.leggauss(resolution // 128 + 32)
    pieces = []
    for left, right in zip(panels[:-1], panels[1:]):
        mid, half = 0.5 * (left + right), 0.5 * (right - left)
        p = mid + half * nodes
        pieces.extend((half * weights * (1.0 / np.sqrt(p * p + m * m))).tolist())
    return params.lam / (8.0 * math.pi) * (2.0 * math.fsum(pieces))


def test_one_loop_continuum_cutoff_closed_form():
    # analytic antiderivative oracle: (lam/4pi) asinh(Lambda/m)
    quad = one_loop_mass("ContinuumCutoff", P1)
    assert quad == pytest.approx(P1.lam / (4 * math.pi) * math.asinh(math.pi / P1.a), abs=1e-10)
    custom = one_loop_mass("ContinuumCutoff", LatticeParams(a=math.pi / 50.0, m=1.0, lam=1.0))
    assert custom == pytest.approx(P1.lam / (4 * math.pi) * math.asinh(50.0), abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(a=st.floats(math.pi * 1e-4, 100.0 * math.pi), m=st.floats(0.05, 20.0),
       lam=st.floats(0.01, 10.0))
def test_one_loop_continuum_cutoff_equals_panel_quadrature(a, m, lam):
    # a spans the cutoffs pi/a from 0.01 to 1e4
    params = LatticeParams(a=a, m=m, lam=lam)
    closed = one_loop_mass("ContinuumCutoff", params)
    reference = cutoff_panels_reference(params)
    assert abs(closed - reference) <= 8 * np.finfo(float).eps * abs(reference)


def test_one_loop_continuum_cutoff_at_extreme_masses():
    # the panel rule loses both ends: m * m underflows to a 1/0 node at m = 1e-300 and
    # overflows to a zero integrand at m = 1e300; asinh(Lambda/m) keeps both finite
    tiny, huge = LatticeParams(a=0.1, m=1e-300, lam=1.0), LatticeParams(a=0.1, m=1e300, lam=1.0)
    with np.errstate(divide="ignore"):
        assert cutoff_panels_reference(tiny) == math.inf
    assert cutoff_panels_reference(huge) == 0.0
    assert one_loop_mass("ContinuumCutoff", tiny) == pytest.approx(55.29965742563, rel=1e-12)
    assert one_loop_mass("ContinuumCutoff", huge) == pytest.approx(2.5e-300, rel=1e-15)


def test_one_loop_smeared_edge_momentum():
    # (1 + cos pi)^2 = 0 kills the leading log at the zone edge
    assert one_loop_mass("ShiftSmeared", P1, p_in=math.pi / P1.a) == pytest.approx(0.0, abs=1e-14)


def test_one_loop_rejects_bad_inputs():
    with pytest.raises(ValueError):
        one_loop_mass("ShiftPlain", LatticeParams(a=0.1, d=2, m=1.0, lam=1.0))
    with pytest.raises(ValueError):
        one_loop_mass("ShiftPlain", LatticeParams(a=0.1, m=0.0, lam=1.0))
    with pytest.raises(ValueError):
        one_loop_mass("NoSuchRegulator", P1)


@pytest.mark.parametrize("m", [4.0, 4.5, 60.0])
def test_shift_regulators_need_m_a_below_two(m):
    # a = 0.5: m a >= 2 puts M = 1 - (m a)^2/2 at or below -1, where 1/sqrt(1 - M^2 cos^2)
    # has no real value; the continuum cutoff has no such bound
    params = LatticeParams(a=0.5, m=m, lam=1.0)
    for regulator in ("ShiftPlain", "ShiftSmeared"):
        with pytest.raises(ValueError, match=r"\|M\| < 1"):
            one_loop_mass(regulator, params)
    assert math.isfinite(one_loop_mass("ContinuumCutoff", params))
    assert math.isfinite(one_loop_mass("ShiftPlain", LatticeParams(a=0.5, m=3.99, lam=1.0)))


def _slope(regulator):
    pts = []
    for a in A_SERIES:
        params = LatticeParams(a=a, m=1.0, lam=1.0)
        pts.append((a, one_loop_mass(regulator, params, p_in=0.0)))
    return log_slope(pts)


def test_log_slopes_reproduce_prefactors():
    assert _slope("ShiftPlain") == pytest.approx(1.0 / (2 * math.pi), rel=0.02)
    assert _slope("ShiftSmeared") == pytest.approx(1.0 / (4 * math.pi), rel=0.05)
    assert _slope("ContinuumCutoff") == pytest.approx(1.0 / (4 * math.pi), rel=0.02)


def test_factor_of_two_pathology():
    assert _slope("ShiftPlain") / _slope("ShiftSmeared") == pytest.approx(2.0, rel=0.05)


def test_log_slope_validation():
    with pytest.raises(ValueError):
        log_slope([(0.1, 1.0), (0.2, 2.0), (0.3, 3.0)])
    with pytest.raises(ValueError):
        log_slope([(0.1, 1.0), (0.1, 2.0), (0.3, 3.0), (0.4, 4.0)])
    with pytest.raises(ValueError, match=r"ln\(1/a\) must span at least one decade"):
        log_slope([(0.10, 1.0), (0.11, 1.1), (0.12, 1.2), (0.13, 1.3)])


def test_tree_diagram():
    spec = DiagramSpec("Tree2to2", incoming=((0.3, 0.2), (0.1, -0.4)))
    assert evaluate_diagram(spec, P1) == -1j * P1.lam
    # smeared vertex reduces to the plain one at zero momenta exactly
    zero = DiagramSpec("Tree2to2", incoming=((0.0, 0.0), (0.0, 0.0)), smeared=True)
    assert evaluate_diagram(zero, P1) == -1j * P1.lam


def test_vertex_factor():
    """The Tree2to2 vertex is -i lambda times one form factor per leg (1 unsmeared)."""
    def vertex(incoming, smeared, params=P1):
        return evaluate_diagram(DiagramSpec("Tree2to2", incoming=incoming, smeared=smeared),
                                params)

    zero = ((0.0, 0.0), (0.0, 0.0))
    assert vertex(zero, smeared=False) == -1j * P1.lam
    assert vertex(zero, smeared=True) == -1j * P1.lam  # form factors = 1
    # a generic smeared vertex keeps the phase -i and has modulus below lambda
    generic = vertex(((0.1, 0.4), (0.2, 0.9)), smeared=True)
    assert abs(generic) < P1.lam
    assert generic / (-1j * P1.lam) == pytest.approx(abs(generic) / P1.lam, rel=1e-13)
    # at lambda = 0 both vertices are -i 0 times their form factors: +0.0 + 0.0j (a plain
    # -1j * 0.0 has imaginary part -0.0)
    free = LatticeParams(a=0.1, m=1.0, lam=0.0)
    for smeared in (False, True):
        value = vertex(zero, smeared, free)
        assert (value.real.hex(), value.imag.hex()) == ((0.0).hex(), (0.0).hex())
    with pytest.raises(ValueError, match="Tree2to2 takes 2 incoming"):
        vertex(zero[:1], smeared=True)


def tree_vertex_reference(params, incoming, smeared):
    """-i lambda, times one form factor per leg when smeared: the four legs are the incoming
    momenta twice, read as one float array."""
    lines = np.asarray(list(incoming) + list(incoming), dtype=float)
    value = -1j * params.lam
    if smeared:
        value *= float(np.prod(smear_form_factor(params, lines[:, 1:])))
    return value


@settings(max_examples=50, deadline=None)
@given(a=st.floats(0.05, 2.0), lam=st.floats(0.0, 10.0, exclude_min=True), smeared=st.booleans(),
       legs=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-0.99, 0.99)), min_size=2,
                     max_size=2))
def test_tree_diagram_bitwise_equals_reference(a, lam, smeared, legs):
    params = LatticeParams(a=a, m=1.0, lam=lam)
    incoming = [(p0, p1 * math.pi / a) for p0, p1 in legs]  # spatial components in the zone
    value = evaluate_diagram(DiagramSpec("Tree2to2", incoming=incoming, smeared=smeared), params)
    expected = tree_vertex_reference(params, incoming, smeared)
    assert (value.real.hex(), value.imag.hex()) == (expected.real.hex(), expected.imag.hex())


def test_unknown_diagram():
    with pytest.raises(ValueError, match="kind must be one of"):
        DiagramSpec("PentagonLoop")


@pytest.mark.parametrize("field, bad", [
    ("epsilon", 0.0), ("epsilon", -0.1), ("epsilon", math.nan), ("epsilon", math.inf),
    ("resolution", True), ("resolution", 64.0), ("resolution", 0), ("resolution", -8),
    ("incoming", [(math.nan, 0.0)]), ("incoming", [(math.inf, 0.0)]),
    ("incoming", [("0.1", "0.2")]), ("incoming", [(True, False)]), ("incoming", [(10**400, 0)]),
])
def test_diagram_spec_refuses_bad_fields(field, bad):
    # NaN and inf regulators were left to the propagator call; resolution=True summed one
    # node and 64.0 ended in a TypeError from a slice; NaN, inf, string and bool momenta were
    # read as floats, and 10**400 ended in an OverflowError
    with pytest.raises(ValueError, match=field):
        DiagramSpec("TadpoleMass", **{"incoming": ((0.0, 0.0),), field: bad})


def test_tadpole_matches_one_loop_as_regulator_shrinks():
    # -i * Pi_shift is the epsilon -> 0 limit of the tadpole value; the
    # approach is slow (the O(eps) regime needs eps << 1 - M^2), so assert
    # monotone shrinking plus a pure-imaginary value
    target = -1j * one_loop_mass("ShiftPlain", P1)
    devs = []
    for eps, res in ((8e-2, 1024), (4e-2, 2048), (2e-2, 4096), (1e-2, 8192)):
        spec = DiagramSpec("TadpoleMass", incoming=((0.0, 0.0),), resolution=res, epsilon=eps)
        value = evaluate_diagram(spec, P1)
        assert abs(value.real) < 1e-12
        devs.append(abs(value - target))
    assert devs[0] > devs[1] > devs[2] > devs[3]
    assert devs[-1] < 0.15 * abs(target)


def test_smeared_tadpole_routing():
    # independent same-regulator implementation pins the smear routing:
    # form factors squared on the loop leg and on the external leg
    p_in, eps, res = 0.7, 0.05, 768
    spec = DiagramSpec(
        "TadpoleMass", incoming=((0.0, p_in),), smeared=True, resolution=res, epsilon=eps
    )
    value = evaluate_diagram(spec, P1)
    q0 = midpoint_nodes(res, math.pi / P1.dt)
    rows = []
    for q1 in midpoint_nodes(res, math.pi / P1.a):
        c = P1.M * math.cos(q1 * P1.a)
        form = (1.0 + math.cos(q1 * P1.a)) / 2.0
        rows.append(np.sum((P1.dt**2 / 2) * 1j / (c - np.cos(q0 * P1.dt) + 1j * eps)) * form**2)
    f_in = (1.0 + math.cos(p_in * P1.a)) / 2.0
    oracle = -1j * P1.lam / 2.0 * f_in**2 * fsum_complex(rows) / (res * P1.dt) / (res * P1.a)
    assert value == pytest.approx(oracle, abs=1e-10)
    # the smeared value drifts toward -i * Pi_smeared as the regulator shrinks
    target = -1j * one_loop_mass("ShiftSmeared", P1, p_in=p_in)
    devs = [
        abs(evaluate_diagram(
            DiagramSpec("TadpoleMass", incoming=((0.0, p_in),), smeared=True,
                        resolution=r, epsilon=e), P1) - target)
        for e, r in ((8e-2, 1024), (2e-2, 4096))
    ]
    assert devs[1] < devs[0]


def test_bubble_against_independent_double_quadrature():
    spec = DiagramSpec(
        "BubbleSChannel", incoming=((0.0, 0.0), (0.0, 0.0)), resolution=1024, epsilon=0.05
    )
    value = evaluate_diagram(spec, P1)

    # independent oracle: explicit nested quadrature, different node count,
    # row-by-row accumulation
    n0, n1 = 1536, 1152
    q0 = midpoint_nodes(n0, math.pi / P1.dt)
    rows = []
    for q1 in midpoint_nodes(n1, math.pi / P1.a):
        c_fwd = P1.M * math.cos(q1 * P1.a)
        c_back = P1.M * math.cos(-q1 * P1.a)
        df_fwd = (P1.dt**2 / 2) * 1j / (c_fwd - np.cos(q0 * P1.dt) + 0.05j)
        df_back = (P1.dt**2 / 2) * 1j / (c_back - np.cos(-q0 * P1.dt) + 0.05j)
        rows.append(np.sum(df_fwd * df_back))
    oracle = (-1j * P1.lam) ** 2 / 2.0 * fsum_complex(rows) / (n0 * P1.dt) / (n1 * P1.a)
    assert value == pytest.approx(oracle, abs=1e-6)


def test_bubble_symmetric_in_incoming():
    s12 = DiagramSpec("BubbleSChannel", incoming=((0.2, 0.5), (0.1, -0.3)), resolution=512)
    s21 = DiagramSpec("BubbleSChannel", incoming=((0.1, -0.3), (0.2, 0.5)), resolution=512)
    assert evaluate_diagram(s12, P1) == pytest.approx(evaluate_diagram(s21, P1), rel=1e-13)


def test_pi_values_are_real():
    for reg in ("ContinuumCutoff", "ShiftPlain", "ShiftSmeared"):
        val = one_loop_mass(reg, P1, p_in=0.4)
        assert isinstance(val, float) and math.isfinite(val)


def tadpole_full_zone_reference(spec, params):
    """evaluate_diagram's tadpole before its fold onto q0, q1 >= 0: every node of the zone
    grid, numpy sums of 32-row chunks and math.fsum over the chunk totals."""
    n, eps = spec.resolution, spec.epsilon
    q0 = midpoint_nodes(n, math.pi / params.dt)[:, None]
    q1 = midpoint_nodes(n, math.pi / params.a)[:, None]

    def form(p):
        return smear_form_factor(params, p) if spec.smeared else 1.0

    external = float(np.prod(form(np.asarray(spec.incoming * 2)[:, 1:])))
    weight = form(q1) ** 2
    totals = [np.sum(feynman_momentum(params, q0[start:start + 32], q1, eps)
                     * weight) for start in range(0, n, 32)]
    measure = 1.0 / (n * params.dt) / (n * params.a)
    return -1j * params.lam / 2.0 * external * fsum_complex(totals) * measure


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 300), a=st.floats(0.05, 1.0), m_a=st.floats(0.05, 1.9),
       lam=st.floats(0.01, 10.0), eps=st.floats(1e-3, 0.2), smeared=st.booleans(),
       zone_fraction=st.floats(-0.999, 1.0))
def test_folded_tadpole_equals_full_zone_sum(n, a, m_a, lam, eps, smeared, zone_fraction):
    params = LatticeParams(a=a, m=m_a / a, lam=lam)
    p_in = zone_fraction * math.pi / a
    spec = DiagramSpec("TadpoleMass", incoming=((0.0, p_in),), smeared=smeared,
                       resolution=n, epsilon=eps)
    reference = tadpole_full_zone_reference(spec, params)
    assert abs(evaluate_diagram(spec, params) - reference) <= 1e-13 * abs(reference)


@pytest.mark.parametrize("kind", ["TadpoleMass", "BubbleSChannel"])
def test_loop_resolution_capped_before_allocation(kind):
    # 2^62 nodes: numpy itself refuses the node line at once, so the call cannot allocate
    legs = ((0.0, 0.1), (0.0, -0.2))[: 1 if kind == "TadpoleMass" else 2]
    with pytest.raises(CapExceeded, match="loop-integral rows") as info:
        evaluate_diagram(DiagramSpec(kind, incoming=legs, resolution=2**62), P1)
    assert info.value.exit_code == 3
