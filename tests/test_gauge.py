import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_statevector import _time_slices, blocks_of, cos_sin_sum, divisor_chunks, exp_sum

from latcirc import cli
from latcirc import gauge as gauge_mod
from latcirc.errors import BruteForceCap, DimensionCap, OddLattice
from latcirc.gauge import (
    GaugeGroupZN,
    GaugeLattice,
    _couplings,
    _gauss_orbit_average,
    _plaquette_action,
    _roll_links,
    _wmag_diag,
    amplitude_equiv_check,
    apply_transfer,
    build_wel,
    build_wmag,
    config_index,
    gauge_transform,
    gauss_commutator_max,
    plaquette_coloring,
    unitarity_report,
    wel_link_matrix,
)
from latcirc.quadrature import fsum_complex

LAT = GaugeLattice(2, 2)
Z2 = GaugeGroupZN(2)


def all_omegas(lat, group):
    return [np.array(o) for o in itertools.product(range(group.N), repeat=lat.n_sites)]


def test_lattice_counting():
    assert LAT.n_links == 8
    assert LAT.n_sites == 4
    assert len(LAT.plaquettes()) == 4
    # each link borders exactly two plaquettes
    counts = np.zeros(LAT.n_links, dtype=int)
    for plaq in LAT.plaquettes():
        for link in plaq:
            counts[link] += 1
    assert np.all(counts == 2)


def test_wmag_diagonal_and_gauge_invariant():
    wmag = build_wmag(LAT, Z2, g=1.0)
    assert np.all(np.abs(np.abs(wmag.diag) - 1.0) < 1e-12)  # unitary diagonal
    # N=1: single configuration with phase -(2/g^2) * n_plaquettes
    z1 = GaugeGroupZN(1)
    wm1 = build_wmag(LAT, z1, g=1.0)
    assert wm1.diag[0] == pytest.approx(np.exp(-2j * 4), rel=1e-14)
    # depends on the configuration only through plaquette holonomies:
    # invariant under every gauge transformation
    dense = wmag.dense()
    for omega in all_omegas(LAT, Z2):
        d = gauge_transform(LAT, Z2, omega).dense()
        assert np.max(np.abs(d.conj().T @ dense @ d - dense)) < 1e-12


def test_plaquette_coloring():
    layer_a, layer_b = plaquette_coloring(LAT)
    assert len(layer_a) == 2 and len(layer_b) == 2
    plaqs = LAT.plaquettes()
    for layer in (layer_a, layer_b):
        used = [link for idx in layer for link in plaqs[idx]]
        assert len(used) == len(set(used))  # pairwise link-disjoint
    # product of the two layer unitaries reproduces W_mag exactly
    g = 1.3
    digits = np.stack(np.unravel_index(np.arange(256), (2,) * 8), axis=1)
    full = build_wmag(LAT, Z2, g).diag
    prod = np.ones(256, dtype=complex)
    for layer in (layer_a, layer_b):
        action = np.zeros(256)
        for idx in layer:
            l0, l1, l2, l3 = plaqs[idx]
            h = np.mod(digits[:, l0] + digits[:, l1] - digits[:, l2] - digits[:, l3], 2)
            action += Z2.retrace(h)
        prod *= np.exp(-2j / g**2 * action)
    assert np.max(np.abs(prod - full)) < 1e-12
    # 4x4 layers of size 8 with disjointness
    lat4 = GaugeLattice(4, 4)
    la, lb = plaquette_coloring(lat4)
    assert len(la) == len(lb) == 8
    with pytest.raises(OddLattice):
        plaquette_coloring(GaugeLattice(1, 1))
    with pytest.raises(OddLattice):
        plaquette_coloring(GaugeLattice(3, 2))


def test_wel_link_matrix_structure():
    # N=1: scalar phase exp(-i 2/(kappa g^2))
    w1 = wel_link_matrix(GaugeGroupZN(1), 1.0, 1.0)
    assert w1[0, 0] == pytest.approx(np.exp(-2j), rel=1e-14)
    # diagonal in the character basis with the stated eigenvalues
    n, g, kappa = 4, 1.1, 1.0
    group = GaugeGroupZN(n)
    w = wel_link_matrix(group, g, kappa)
    beta = 2.0 / (kappa * g**2)
    for char in range(n):
        vec = np.exp(-2j * math.pi * char * np.arange(n) / n) / math.sqrt(n)
        eig = sum(
            np.exp(-1j * beta * group.retrace(v)) * np.exp(-2j * math.pi * char * v / n)
            for v in range(n)
        ) / n
        assert np.max(np.abs(w @ vec - eig * vec)) < 1e-12


def test_wel_commutes_with_gauge_transforms():
    wel = build_wel(LAT, Z2, g=1.0).dense()
    for omega in all_omegas(LAT, Z2):
        d = gauge_transform(LAT, Z2, omega).dense()
        assert np.max(np.abs(wel @ d - d @ wel)) < 1e-12


def test_gauge_transform_properties():
    identity = gauge_transform(LAT, Z2, np.zeros(4, dtype=int))
    assert np.array_equal(identity.perm, np.arange(256))
    # constant Omega acts trivially for an abelian group
    const = gauge_transform(LAT, Z2, np.ones(4, dtype=int))
    assert np.array_equal(const.perm, np.arange(256))
    # composition law (abelian addition of site assignments)
    rng = np.random.default_rng(4)
    for _ in range(5):
        om1 = rng.integers(0, 2, 4)
        om2 = rng.integers(0, 2, 4)
        composed = gauge_transform(LAT, Z2, (om1 + om2) % 2).dense()
        product = gauge_transform(LAT, Z2, om1).dense() @ gauge_transform(LAT, Z2, om2).dense()
        assert np.max(np.abs(composed - product)) < 1e-14


def perm_reference(op):
    """D(Omega) as the permutation matrix ``GaugeOperator.dense`` once built by hand."""
    mat = np.zeros((op.dim, op.dim), dtype=complex)
    mat[op.perm, np.arange(op.dim)] = 1.0
    return mat


def kron_reference(op):
    """W_el as the n_links-fold Kronecker product ``GaugeOperator.dense`` once built."""
    out = np.array([[1.0 + 0.0j]])
    for _ in range(op.lat.n_links):
        out = np.kron(out, op.link_matrix)
    return out


@pytest.mark.parametrize("lx, ly, n", [(2, 2, 2), (1, 2, 3), (1, 3, 4), (2, 2, 1), (1, 2, 5)])
def test_dense_is_apply_on_basis_kets(lx, ly, n):
    # against the hand-built matrices: bitwise for W_mag's diagonal and D(Omega)'s
    # permutation, to 1e-15 for W_el's Kronecker product (1, 3, 4 is at DENSE_CAP)
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    wmag = build_wmag(lat, group, 1.3, 0.7)
    assert np.array_equal(wmag.dense(), np.diag(wmag.diag))
    d = gauge_transform(lat, group, np.arange(lat.n_sites) % n)
    assert np.array_equal(d.dense(), perm_reference(d))
    wel = build_wel(lat, group, 1.3, 0.7)
    dense, reference = wel.dense(), kron_reference(wel)
    # row blocks keep the difference's temporaries small beside two 256 MiB matrices
    assert max(np.max(np.abs(dense[i : i + 256] - reference[i : i + 256]))
               for i in range(0, wel.dim, 256)) <= 1e-15


def test_transfer_commutes_with_all_gauge_transforms():
    wmag = build_wmag(LAT, Z2, 1.0)
    wel = build_wel(LAT, Z2, 1.0)
    transfer = wel.dense() @ wmag.dense()
    for omega in all_omegas(LAT, Z2):  # exhaustive at Z_2 on 2x2
        d = gauge_transform(LAT, Z2, omega).dense()
        assert np.max(np.abs(transfer @ d - d @ transfer)) < 1e-12


def test_transfer_gauge_covariance_sampled_n34():
    rng = np.random.default_rng(11)
    for n in (3, 4):
        group = GaugeGroupZN(n)
        for _ in range(4):
            omega = rng.integers(0, n, LAT.n_sites)
            vec = rng.normal(size=n**8) + 1j * rng.normal(size=n**8)
            d = gauge_transform(LAT, group, omega)
            lhs = apply_transfer(LAT, group, 1.2, 1.0, d.apply(vec))
            rhs = d.apply(apply_transfer(LAT, group, 1.2, 1.0, vec))
            assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_gauss_projector():
    configs = np.stack(np.unravel_index(np.arange(256), (2,) * 8), axis=1)
    columns = [_gauss_orbit_average(LAT, Z2, config) for config in configs]
    proj = np.column_stack(columns)
    assert np.max(np.abs(proj @ proj - proj)) < 1e-12
    assert np.max(np.abs(proj - proj.conj().T)) < 1e-12
    rank = np.linalg.matrix_rank(proj)
    assert rank < 256  # nontrivial constraint
    for omega in all_omegas(LAT, Z2):
        d = gauge_transform(LAT, Z2, omega).dense()
        assert np.max(np.abs(proj @ d - proj)) < 1e-12


def test_unitarity_report():
    assert unitarity_report(LAT, GaugeGroupZN(1), 1.0) == 0.0
    # N=2 closed form: eigenvalue moduli are |cos beta| and |sin beta|
    beta = 2.0
    expected = max(abs(math.cos(beta) ** 2 - 1.0), abs(math.sin(beta) ** 2 - 1.0))
    assert unitarity_report(LAT, Z2, 1.0) == pytest.approx(expected, abs=1e-14)
    # tabulate N in {2, 3, 4, 6} against the explicit character eigenvalues
    for n in (2, 3, 4, 6):
        group = GaugeGroupZN(n)
        eigs = [
            sum(
                np.exp(-2j * group.retrace(v)) * np.exp(-2j * math.pi * char * v / n)
                for v in range(n)
            )
            / n
            for char in range(n)
        ]
        oracle = max(abs(abs(e) ** 2 - 1.0) for e in eigs)
        assert unitarity_report(LAT, group, 1.0) == pytest.approx(oracle, abs=1e-12)
        assert 0.0 < oracle <= 1.0 + 1e-12


def test_wel_charge_conjugation_symmetry():
    # per-link eigenvalue at character c equals the one at -c (cos is even)
    n = 5
    group = GaugeGroupZN(n)
    w = wel_link_matrix(group, 1.4, 1.0)
    eigs = np.fft.fft(w[:, 0])  # circulant: spectrum is the DFT of column 0
    for char in range(1, n):
        assert eigs[char] == pytest.approx(eigs[n - char], rel=1e-12)


def test_equiv_check_n1_closed_form():
    z1 = GaugeGroupZN(1)
    u0 = np.zeros(8, dtype=int)
    for tau in (1, 2, 3):
        lhs, rhs, dev = amplitude_equiv_check(LAT, z1, 1.0, 1.0, u0, u0, tau)
        expected = np.exp(-2j * (tau * 4 * 1.0 + tau * 8 / 1.0))
        assert dev < 1e-14
        assert lhs == pytest.approx(expected, rel=1e-12)


def test_equiv_check_n1_closed_form_on_many_links():
    # 32 links and 112 summed variables at N = 1: more than numpy's 64 array axes, were
    # each summed variable an open axis of its own
    lat = GaugeLattice(4, 4)
    u0 = np.zeros(lat.n_links, dtype=int)
    lhs, rhs, dev = amplitude_equiv_check(lat, GaugeGroupZN(1), 1.0, 1.0, u0, u0, 3)
    expected = np.exp(-2j * (3 * lat.n_sites * 1.0 + 3 * lat.n_links / 1.0))
    assert dev < 1e-13
    assert lhs == pytest.approx(expected, rel=1e-12)


def test_link_tensor_axes_capped_before_allocation():
    lat = GaugeLattice(6, 6)  # 72 links: one more axis each than numpy allows
    with pytest.raises(DimensionCap, match="link tensor axes: 72"):
        build_wmag(lat, GaugeGroupZN(1), 1.0)


def test_equiv_check_z2():
    u0 = np.zeros(8, dtype=int)
    lhs, rhs, dev = amplitude_equiv_check(LAT, Z2, 1.0, 1.0, u0, u0, 1)
    assert dev < 1e-10
    lhs, rhs, dev = amplitude_equiv_check(LAT, Z2, 1.0, 1.0, u0, u0, 2)
    assert dev < 1e-10
    rng = np.random.default_rng(7)
    for _ in range(3):
        ua, ub = rng.integers(0, 2, 8), rng.integers(0, 2, 8)
        _, _, dev = amplitude_equiv_check(LAT, Z2, 0.8, 1.0, ua, ub, 1)
        assert dev < 1e-10


def test_equiv_check_anisotropic():
    u0 = np.zeros(8, dtype=int)
    _, _, dev = amplitude_equiv_check(LAT, Z2, 1.0, 0.5, u0, u0, 1)
    assert dev < 1e-10


def test_equiv_check_z3():
    rng = np.random.default_rng(3)
    group = GaugeGroupZN(3)
    ua, ub = rng.integers(0, 3, 8), rng.integers(0, 3, 8)
    _, _, dev = amplitude_equiv_check(LAT, group, 1.1, 1.0, ua, ub, 1)
    assert dev < 1e-10


# (N, Lx, Ly, tau) on 1 x k and 2 x 2 lattices with at most 2^14 terms in the Wilson sum
equiv_shapes = [(n, lx, ly, tau) for n in (1, 2, 3, 4)
                for lx, ly in ((1, 1), (1, 2), (1, 3), (1, 4), (2, 2)) for tau in (1, 2, 3, 4)
                if n ** (lx * ly * (3 * tau - 2)) <= 2**14]


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from(equiv_shapes), g=st.floats(0.5, 2.0), kappa=st.floats(0.5, 2.0),
       data=st.data())
def test_equiv_check_lhs_equals_rhs(shape, g, kappa, data):
    n, lx, ly, tau = shape
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    ends = st.lists(st.integers(0, n - 1), min_size=lat.n_links, max_size=lat.n_links)
    u_i, u_f = data.draw(ends), data.draw(ends)
    _, _, dev = amplitude_equiv_check(lat, group, g, kappa, u_i, u_f, tau)
    # both sides sum terms of modulus N^-n_vars (so the moduli add to 1) whose phases are
    # the action, at most tau (n_sites coeff_s + n_links coeff_t): the rounding of that
    # phase bounds the difference, well inside criterion 8's 1e-10
    coeff_s, coeff_t = _couplings(g, kappa)
    largest_action = tau * (lat.n_sites * coeff_s + lat.n_links * coeff_t)
    assert dev <= min(64 * np.finfo(float).eps * largest_action, 1e-10)


def test_equiv_check_refuses_wilson_sum_before_left_side(monkeypatch):
    import latcirc.gauge as gauge_mod

    def no_state(*args):
        raise AssertionError("the left side ran before the brute-force term check")

    monkeypatch.setattr(gauge_mod, "build_wmag", no_state)
    monkeypatch.setattr(gauge_mod, "build_wel", no_state)
    monkeypatch.setattr(gauge_mod, "_gauss_orbit_average", no_state)
    with pytest.raises(BruteForceCap):
        amplitude_equiv_check(LAT, Z2, 1.0, 1.0, np.zeros(8, int), np.zeros(8, int), 3)


def test_gauge_shares_the_state_cap():
    from latcirc.errors import STATE_CAP

    assert build_wel(GaugeLattice(1, 11), Z2, 1.0).dim == STATE_CAP  # 22 links
    with pytest.raises(DimensionCap):
        build_wel(GaugeLattice(2, 6), Z2, 1.0)  # 24 links


def test_equiv_check_caps():
    with pytest.raises(BruteForceCap):
        amplitude_equiv_check(LAT, Z2, 1.0, 1.0, np.zeros(8, int), np.zeros(8, int), 3)
    with pytest.raises(DimensionCap):
        big = GaugeLattice(4, 4)
        amplitude_equiv_check(big, GaugeGroupZN(3), 1.0, 1.0, np.zeros(32, int), np.zeros(32, int), 1)


def test_config_index_roundtrip():
    cfg = [1, 0, 1, 1, 0, 0, 1, 0]
    idx = config_index(LAT, Z2, cfg)
    back = np.unravel_index(idx, (2,) * 8)
    assert list(back) == cfg
    for bad in ([1, 0, 2, 1, 0, 0, 1, 0], [1, 0, -1, 1, 0, 0, 1, 0], cfg[:7], cfg + [0],
                [1, 0, 1.5, 1, 0, 0, 1, 0], [1, 0, "1", 1, 0, 0, 1, 0]):
        with pytest.raises(ValueError, match="8 link values in"):
            config_index(LAT, Z2, bad)


@pytest.mark.parametrize("bad", [[0, 1, 2, 1.5], [0.7, 1, 2, 1], [0, 1, 2, "1"], [0, 1, 2, -1],
                                 [0, 1, 2, 3], [0, 1, 2, 5], [0, 1, 2]],
                         ids=["half", "fraction", "string", "negative", "N", "past_N", "length"])
def test_equiv_check_refuses_bad_ends_before_any_work(monkeypatch, bad):
    # a bad end was truncated ([0.7, 1, 2, 1] ran as [0, 1, 2, 1]) or wrapped mod N
    # ([0, 1, 2, 5] as [0, 1, 2, 2]); now either end is refused before any state or sum
    def no_work(*args, **kwargs):
        raise AssertionError("work began before both ends were checked")

    monkeypatch.setattr(gauge_mod, "_path_blocks", no_work)
    monkeypatch.setattr(gauge_mod, "_gauss_orbit_average", no_work)
    lat, group, good = GaugeLattice(1, 2), GaugeGroupZN(3), [0, 1, 2, 1]
    assert config_index(lat, group, good) == 16
    with pytest.raises(ValueError, match=r"4 link values in \[0, 3\)"):
        config_index(lat, group, bad)
    for ends in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match=r"4 link values in \[0, 3\)"):
            amplitude_equiv_check(lat, group, 1.0, 1.0, *ends, 1)


# digit-table references: every configuration spelled out as (dim, n_links) digits
def digit_table_wmag(lat, group, g, kappa):
    """W_mag diagonal from the (dim, n_links) digit table and a (dim, n_plaquettes) holonomy table."""
    dim = group.N**lat.n_links
    digits = np.stack(np.unravel_index(np.arange(dim), (group.N,) * lat.n_links), axis=1)
    holonomies = np.stack([np.mod(digits[:, l0] + digits[:, l1] - digits[:, l2] - digits[:, l3],
                                  group.N) for l0, l1, l2, l3 in lat.plaquettes()], axis=-1)
    return np.exp(-1j * (2.0 * kappa / g**2) * group.retrace(holonomies).sum(axis=-1))


def digit_table_perms(lat, group, omegas):
    shape = (group.N,) * lat.n_links
    digits = np.stack(np.unravel_index(np.arange(group.N**lat.n_links), shape), axis=1)
    digits = digits.astype(np.uint8)  # small integers keep the mod cheap
    ends = np.array([lat.link_endpoints(link) for link in range(lat.n_links)])
    for omega in omegas:
        shifts = np.mod(omega[ends[:, 0]] - omega[ends[:, 1]], group.N).astype(np.uint8)
        yield np.ravel_multi_index(tuple(np.mod(digits + shifts, group.N).T), shape)


def enumerated_projector(lat, group, vec):
    """P_G vec as the average of D(Omega) vec over all N^sites transforms."""
    out = np.zeros_like(vec)
    for perm in digit_table_perms(lat, group, all_omegas(lat, group)):
        moved = np.empty_like(vec)
        moved[perm] = vec
        out += moved
    return out / group.N**lat.n_sites


gauge_cases = st.tuples(st.sampled_from((2, 3, 4)), st.sampled_from(((1, 2), (2, 2))),
                        st.integers(0, 2**32 - 1))


# Lx = 1 or Ly = 1 repeats link axes inside a plaquette; dims up to 2^18 keep the table cheap
wmag_shapes = [(n, lx, ly) for n in (2, 3, 4) for lx in (1, 2, 3) for ly in (1, 2, 3)
               if n ** (2 * lx * ly) <= 2**18]


@pytest.mark.parametrize("shape", wmag_shapes)
@settings(max_examples=3, deadline=None)
@given(g=st.floats(0.5, 2.0), kappa=st.floats(0.5, 2.0))
def test_wmag_equals_digit_table(shape, g, kappa):
    n, lx, ly = shape
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    assert np.array_equal(build_wmag(lat, group, g, kappa).diag,
                          digit_table_wmag(lat, group, g, kappa))


@settings(max_examples=20, deadline=None)
@given(case=gauge_cases)
def test_rolled_perm_equals_digit_table(case):
    n, (lx, ly), seed = case
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    omega = np.random.default_rng(seed).integers(0, n, lat.n_sites)
    (expected,) = digit_table_perms(lat, group, [omega])
    assert np.array_equal(gauge_transform(lat, group, omega).perm, expected)


@settings(max_examples=10, deadline=None)
@given(case=gauge_cases)
def test_factorized_projector_equals_enumeration(case):
    n, (lx, ly), seed = case
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=n**lat.n_links) + 1j * rng.normal(size=n**lat.n_links)
    expected = enumerated_projector(lat, group, vec)
    assert np.max(np.abs(roll_projector_reference(lat, group, vec) - expected)) < 1e-14


@settings(max_examples=20, deadline=None)
@given(case=gauge_cases, g=st.floats(0.5, 2.0), kappa=st.floats(0.5, 2.0))
def test_transfer_commutes_with_random_gauge_transforms(case, g, kappa):
    n, (lx, ly), seed = case
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    rng = np.random.default_rng(seed)
    d = gauge_transform(lat, group, rng.integers(0, n, lat.n_sites))
    vec = rng.normal(size=d.dim) + 1j * rng.normal(size=d.dim)
    lhs = apply_transfer(lat, group, g, kappa, d.apply(vec))
    rhs = d.apply(apply_transfer(lat, group, g, kappa, vec))
    assert np.max(np.abs(lhs - rhs)) < 1e-12


@pytest.mark.parametrize("g, kappa", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -1.0),
                                      (math.nan, 1.0), (1.0, math.inf)])
def test_couplings_rejected(g, kappa):
    u0 = np.zeros(LAT.n_links, dtype=int)
    for build in (lambda: build_wmag(LAT, Z2, g, kappa), lambda: wel_link_matrix(Z2, g, kappa),
                  lambda: amplitude_equiv_check(LAT, Z2, g, kappa, u0, u0, 1)):
        with pytest.raises(ValueError, match="finite and positive"):
            build()


def roll_projector_reference(lat, group, vec):
    """P_G vec as the product over sites of P_x = (1/N) sum_k D(e_x)^k, each term a roll."""
    for site in np.eye(lat.n_sites, dtype=int):
        tensor, total = vec.reshape((group.N,) * lat.n_links), vec
        for k in range(1, group.N):
            total = total + _roll_links(lat, tensor, -k * site, group.N).ravel()
        vec = total / group.N
    return vec


def perm_projector_reference(lat, group, vec):
    """The Gauss projector through each site generator's permutation array."""
    for site in np.eye(lat.n_sites, dtype=int):
        generator = gauge_transform(lat, group, site)
        term, total = vec, vec
        for _ in range(group.N - 1):
            term = generator.apply(term)
            total = total + term
        vec = total / group.N
    return vec


def perm_commutator_reference(lat, group, g, kappa):
    """[T, D(e_x)] diagnostic through the generators' permutation arrays."""
    wmag = build_wmag(lat, group, g, kappa).diag
    comm = max(float(np.max(np.abs(wmag[gauge_transform(lat, group, site).perm] - wmag)))
               for site in np.eye(lat.n_sites, dtype=int))
    w = wel_link_matrix(group, g, kappa)
    rows, cols = np.indices(w.shape)
    return max(comm, float(np.max(np.abs(w - w[(rows - cols) % group.N, 0]))))


# Lx = 1 or Ly = 1 gives links from a site to itself, which a generator leaves unshifted
roll_shapes = [(n, lx, ly) for n in (1, 2, 3, 4, 5)
               for lx, ly in ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2))
               if n ** (2 * lx * ly) <= 2**16]


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(roll_shapes), seed=st.integers(0, 2**32 - 1),
       g=st.floats(0.5, 2.0), kappa=st.floats(0.5, 2.0))
def test_rolled_generators_equal_perm_reference(shape, seed, g, kappa):
    n, lx, ly = shape
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=n**lat.n_links) + 1j * rng.normal(size=n**lat.n_links)
    assert np.array_equal(roll_projector_reference(lat, group, vec),
                          perm_projector_reference(lat, group, vec))
    assert gauss_commutator_max(lat, group, g, kappa) == perm_commutator_reference(
        lat, group, g, kappa)


@settings(max_examples=40, deadline=None)
@given(shape=st.one_of(st.sampled_from(roll_shapes),
                       gauge_cases.map(lambda case: (case[0], *case[1]))),
       seed=st.integers(0, 2**32 - 1))
def test_orbit_average_equals_projector_references(shape, seed):
    n, lx, ly = shape
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    config = np.random.default_rng(seed).integers(0, n, lat.n_links)
    ket = np.zeros(n**lat.n_links, dtype=complex)
    ket[config_index(lat, group, config)] = 1.0
    projected = _gauss_orbit_average(lat, group, config)
    for reference in (roll_projector_reference, perm_projector_reference):
        expected = reference(lat, group, ket)
        if n <= 4:
            assert np.array_equal(projected, expected)
        else:
            assert np.max(np.abs(projected - expected)) <= 1e-15


def test_orbit_average_holds_about_one_state_vector():
    lat = GaugeLattice(2, 4)  # 16 links: dim 2^16
    config = np.random.default_rng(8).integers(0, 2, lat.n_links)
    tracemalloc.start()
    try:
        _gauss_orbit_average(lat, Z2, config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 16 * 2**16  # complex state vectors


def test_gauge_check_builds_wmag_once(tmp_path):
    _wmag_diag.cache_clear()
    argv = ["gauge-check", "--g", "1.0", "--kappa", "1.0", "--pairs", "4"]
    assert cli.run([*argv, "--out", str(tmp_path / "g.json")]) == 0
    info = _wmag_diag.cache_info()
    assert (info.misses, info.hits) == (1, 4)  # four pairs and the commutator diagnostic
    diag = build_wmag(LAT, Z2, 1.0, 1.0).diag
    assert _wmag_diag.cache_info().misses == 1
    with pytest.raises(ValueError, match="read-only"):
        diag[0] = 0.0


def wilson_sum_reference(lat, group, g, kappa, u_i, u_f, tau, chunk, phase_sum=cos_sin_sum):
    """The right side of amplitude_equiv_check on digit-table chunks of ``chunk`` terms."""
    coeff_s, coeff_t = _couplings(g, kappa)
    n = group.N
    n_vars = lat.n_links * (tau - 1) + lat.n_sites * tau
    endpoints = [lat.link_endpoints(link) for link in range(lat.n_links)]
    retrace = group.retrace(np.arange(n))
    chunks = []
    for slices, temporal in _time_slices(n, u_i, u_f, tau, lat.n_sites * tau, chunk):
        temporal = temporal.reshape(tau, lat.n_sites, -1)
        action = 0.0
        for nu in range(tau):
            action = action + coeff_s * _plaquette_action(lat, group, slices[nu])
            t_now = temporal[nu]
            for link, (frm, to) in enumerate(endpoints):
                h = (t_now[frm] + slices[nu][link] - t_now[to] - slices[nu + 1][link]) % n
                action = action + coeff_t * retrace[h]
        chunks.append(phase_sum(action, -1))
    return complex(fsum_complex(chunks)) / n**n_vars


# (N, Lx, Ly, tau) with at most 2^15 terms in the Wilson sum
wilson_shapes = [(n, lx, ly, tau) for n in (2, 3, 4, 5) for lx, ly in ((1, 1), (1, 2), (2, 1))
                 for tau in (1, 2, 3) if n ** (2 * lx * ly * (tau - 1) + lx * ly * tau) <= 2**15]


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(wilson_shapes), g=st.floats(0.5, 2.0), kappa=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1), data=st.data())
def test_wilson_sum_in_blocks_equals_digit_table_chunks(shape, g, kappa, seed, data):
    n, lx, ly, tau = shape
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    rng = np.random.default_rng(seed)
    u_i, u_f = rng.integers(0, n, lat.n_links), rng.integers(0, n, lat.n_links)
    terms = n ** (lat.n_links * (tau - 1) + lat.n_sites * tau)
    chunk = data.draw(st.sampled_from([c for c in divisor_chunks(n, range(1, 15))
                                       if terms // c <= 256]))
    expected = wilson_sum_reference(lat, group, g, kappa, u_i, u_f, tau, chunk)
    with blocks_of(chunk, gauge_mod):
        _, rhs, _ = amplitude_equiv_check(lat, group, g, kappa, u_i, u_f, tau)
    assert rhs == expected


@settings(max_examples=25, deadline=None)
@given(shape=st.sampled_from(wilson_shapes), g=st.floats(0.5, 2.0), kappa=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_wilson_phases_from_cos_sin_equal_exp_phases(shape, g, kappa, seed):
    # every term has modulus one, and its cos and sin round like the parts of its exp: the
    # sums differ by at most 8 eps per term, 8 eps once divided by the term count
    n, lx, ly, tau = shape
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    rng = np.random.default_rng(seed)
    u_i, u_f = rng.integers(0, n, lat.n_links), rng.integers(0, n, lat.n_links)
    expected = wilson_sum_reference(lat, group, g, kappa, u_i, u_f, tau, 1 << 12, exp_sum)
    _, rhs, _ = amplitude_equiv_check(lat, group, g, kappa, u_i, u_f, tau)
    assert abs(rhs - expected) <= 8 * np.finfo(float).eps
