import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_statevector import (_time_slices, bits, blocks_of, config_index, cos_sin_sum,
                             divisor_chunks, exp_sum, tally_sum)

from latcirc import cli
from latcirc import gauge as gauge_mod
from latcirc.errors import CapExceeded
from latcirc.gauge import (
    GaugeGroupZN,
    GaugeLattice,
    _couplings,
    _plaquette_action,
    _wmag_diag,
    amplitude_equiv_check,
    apply_transfer,
    build_wel,
    build_wmag,
    gauge_transform,
    plaquette_coloring,
    unitarity_report,
    wel_link_matrix,
)
from latcirc.quadrature import fsum_complex
from latcirc.statevector import _read_config

LAT = GaugeLattice(2, 2)
Z2 = GaugeGroupZN(2)


def all_omegas(lat, group):
    return [np.array(o) for o in itertools.product(range(group.N), repeat=lat.n_sites)]


def gauss_orbit_average(lat, group, config):
    """P_G|config> = N^-sites sum_Omega D(Omega)|config>: a histogram of its N^sites images."""
    omegas = np.indices((group.N,) * lat.n_sites).reshape(lat.n_sites, -1)
    images = (config[:, None] + omegas[lat.endpoints[:, 0]] - omegas[lat.endpoints[:, 1]]) % group.N
    index = group.N ** np.arange(lat.n_links - 1, -1, -1) @ images  # row-major ravel
    return np.bincount(index, minlength=group.N**lat.n_links) / len(index)


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
    with pytest.raises(ValueError, match="chessboard coloring needs even Lx and Ly"):
        plaquette_coloring(GaugeLattice(1, 1))
    with pytest.raises(ValueError, match="chessboard coloring needs even Lx and Ly"):
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


def test_endpoints_by_hand():
    # link 2*site + d runs from site (x, y) to (x + 1, y) for d = 0 and to (x, y + 1) for d = 1
    ends = GaugeLattice(2, 3).endpoints
    assert ends.tolist() == [[0, 3], [0, 1], [1, 4], [1, 2], [2, 5], [2, 0],
                             [3, 0], [3, 4], [4, 1], [4, 5], [5, 2], [5, 3]]
    assert GaugeLattice(1, 1).endpoints.tolist() == [[0, 0], [0, 0]]  # a site to itself
    with pytest.raises(ValueError, match="read-only"):
        ends[0, 0] = 1


def test_wel_commutes_with_gauge_transforms():
    wel = build_wel(LAT, Z2, g=1.0).dense()
    for omega in all_omegas(LAT, Z2):
        d = gauge_transform(LAT, Z2, omega).dense()
        assert np.max(np.abs(wel @ d - d @ wel)) < 1e-12


def test_gauge_transform_properties():
    identity = gauge_transform(LAT, Z2, np.zeros(4, dtype=int))
    assert np.array_equal(perm_of(identity), np.arange(256))
    # constant Omega acts trivially for an abelian group
    const = gauge_transform(LAT, Z2, np.ones(4, dtype=int))
    assert np.array_equal(perm_of(const), np.arange(256))
    # composition law (abelian addition of site assignments)
    rng = np.random.default_rng(4)
    for _ in range(5):
        om1 = rng.integers(0, 2, 4)
        om2 = rng.integers(0, 2, 4)
        composed = gauge_transform(LAT, Z2, (om1 + om2) % 2).dense()
        product = gauge_transform(LAT, Z2, om1).dense() @ gauge_transform(LAT, Z2, om2).dense()
        assert np.max(np.abs(composed - product)) < 1e-14
    # D(Omega) depends on omega mod N: negative and huge integers (2**70 overflowed) are valid
    z3 = GaugeGroupZN(3)
    expected = perm_of(gauge_transform(LAT, z3, [2, 0, 1, 0]))
    for omega in ([-1, 0, 1, 0], [2 + 3 * 2**70, 0, 1, 3], np.array([5, -3, 4, 0])):
        assert np.array_equal(perm_of(gauge_transform(LAT, z3, omega)), expected)


@pytest.mark.parametrize("omega", [[0.7, 0, 0, 0], [1.0, 0, 0, 0], [True, 0, 0, 0],
                                   ["1", 0, 0, 0], [math.nan, 0, 0, 0], 1])
def test_gauge_transform_refuses_a_non_integer_site_element(omega):
    # 0.7 was truncated to the identity and True or "1" read as 1
    with pytest.raises(ValueError, match="omega"):
        gauge_transform(LAT, Z2, omega)


def perm_of(op):
    """D(Omega)'s image index: ``apply`` moves entry i of the index vector to its image."""
    return np.argsort(op.apply(np.arange(op.dim, dtype=float)).real)


def perm_reference(op):
    """D(Omega) as the permutation matrix of its image index, built by hand."""
    mat = np.zeros((op.dim, op.dim), dtype=complex)
    mat[perm_of(op), np.arange(op.dim)] = 1.0
    return mat


def kron_reference(op):
    """A product operator as the Kronecker product of its per-link factors."""
    out = np.array([[1.0 + 0.0j]])
    for link_matrix in op.link_matrices:
        out = np.kron(out, link_matrix)
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


def test_transfer_commutes_with_all_gauge_transforms(monkeypatch):
    transforms = [gauge_transform(LAT, Z2, omega).dense() for omega in all_omegas(LAT, Z2)]

    def worst_commutator():  # exhaustive at Z_2 on 2x2
        transfer = build_wel(LAT, Z2, 1.0).dense() @ build_wmag(LAT, Z2, 1.0).dense()
        return max(np.max(np.abs(transfer @ d - d @ transfer)) for d in transforms)

    assert worst_commutator() < 1e-12
    # one phase of W_mag's diagonal turned by 1 rad breaks its gauge invariance
    def broken(lat, group, coeff_s):
        diag = _wmag_diag(lat, group, coeff_s).copy()
        diag[1] *= np.exp(1j)
        return diag

    monkeypatch.setattr(gauge_mod, "_wmag_diag", broken)
    # a tenth of T's largest entry: each of W_el's 8 per-link factors has entries of modulus 1/2
    assert worst_commutator() > 0.1 / 2**8


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
    columns = [gauss_orbit_average(LAT, Z2, config) for config in configs]
    proj = np.column_stack(columns)
    assert np.max(np.abs(proj @ proj - proj)) < 1e-12
    assert np.max(np.abs(proj - proj.conj().T)) < 1e-12
    rank = np.linalg.matrix_rank(proj)
    assert rank < 256  # nontrivial constraint
    for omega in all_omegas(LAT, Z2):
        d = gauge_transform(LAT, Z2, omega).dense()
        assert np.max(np.abs(proj @ d - proj)) < 1e-12


def test_unitarity_report():
    assert unitarity_report(GaugeGroupZN(1), 1.0) == 0.0
    # N=2 closed form: eigenvalue moduli are |cos beta| and |sin beta|
    beta = 2.0
    expected = max(abs(math.cos(beta) ** 2 - 1.0), abs(math.sin(beta) ** 2 - 1.0))
    assert unitarity_report(Z2, 1.0) == pytest.approx(expected, abs=1e-14)
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
        assert unitarity_report(group, 1.0) == pytest.approx(oracle, abs=1e-12)
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
    with pytest.raises(CapExceeded, match="link tensor axes: 72"):
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
    monkeypatch.setattr(gauge_mod, "_apply_site_kernels", no_state)
    with pytest.raises(CapExceeded, match="brute-force sum terms"):
        amplitude_equiv_check(LAT, Z2, 1.0, 1.0, np.zeros(8, int), np.zeros(8, int), 3)


def test_gauge_shares_the_state_cap():
    from latcirc.errors import STATE_CAP

    assert build_wel(GaugeLattice(1, 11), Z2, 1.0).dim == STATE_CAP  # 22 links
    with pytest.raises(CapExceeded, match="link configuration space dimension"):
        build_wel(GaugeLattice(2, 6), Z2, 1.0)  # 24 links


def test_equiv_check_caps():
    with pytest.raises(CapExceeded, match="brute-force sum terms"):
        amplitude_equiv_check(LAT, Z2, 1.0, 1.0, np.zeros(8, int), np.zeros(8, int), 3)
    with pytest.raises(CapExceeded, match="link configuration space dimension"):
        big = GaugeLattice(4, 4)
        amplitude_equiv_check(big, GaugeGroupZN(3), 1.0, 1.0, np.zeros(32, int), np.zeros(32, int), 1)


def test_config_index_roundtrip():
    # the ends are read as Python ints, whatever their array type; the tests' row-major index
    # of them unravels back to the configuration
    cfg = [1, 0, 1, 1, 0, 0, 1, 0]
    read = _read_config(np.array(cfg, dtype=np.uint8), 2, 8, "8 link values")
    assert read == cfg and all(type(v) is int for v in read)
    assert list(np.unravel_index(config_index(2, cfg), (2,) * 8)) == cfg
    for bad in ([1, 0, 2, 1, 0, 0, 1, 0], [1, 0, -1, 1, 0, 0, 1, 0], cfg[:7], cfg + [0],
                [1, 0, 1.5, 1, 0, 0, 1, 0], [1, 0, "1", 1, 0, 0, 1, 0],
                [1, 0, True, 1, 0, 0, 1, 0]):
        with pytest.raises(ValueError, match=r"8 link values in \[0, 2\)"):
            amplitude_equiv_check(LAT, Z2, 1.0, 1.0, bad, cfg, 1)


@pytest.mark.parametrize("bad", [[0, 1, 2, 1.5], [0.7, 1, 2, 1], [0, 1, 2, "1"], [0, 1, 2, -1],
                                 [0, 1, 2, 3], [0, 1, 2, 5], [0, 1, 2], [0, 1, 2, True]],
                         ids=["half", "fraction", "string", "negative", "N", "past_N", "length",
                              "bool"])
def test_equiv_check_refuses_bad_ends_before_any_work(monkeypatch, bad):
    # a bad end was truncated ([0.7, 1, 2, 1] ran as [0, 1, 2, 1]) or wrapped mod N
    # ([0, 1, 2, 5] as [0, 1, 2, 2]); now either end is refused before any state or sum
    def no_work(*args, **kwargs):
        raise AssertionError("work began before both ends were checked")

    # tau = 1 reads one element of T per image: W_el's link matrix is its first work
    monkeypatch.setattr(gauge_mod, "_path_blocks", no_work)
    monkeypatch.setattr(gauge_mod, "wel_link_matrix", no_work)
    lat, group, good = GaugeLattice(1, 2), GaugeGroupZN(3), [0, 1, 2, 1]
    with pytest.raises(AssertionError, match="work began"):  # the sentinel fires at tau = 1
        amplitude_equiv_check(lat, group, 1.0, 1.0, good, good, 1)
    for ends in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match=r"4 link values in \[0, 3\)"):
            amplitude_equiv_check(lat, group, 1.0, 1.0, *ends, 1)


@pytest.mark.parametrize("dtype", [np.uint8, np.int8, np.int64])
def test_equiv_check_reads_fixed_width_ends_as_ints(dtype):
    # a holonomy u0 + u1 - u2 - u3 of uint8 ends would wrap past 0 (254 % 3 is not -2 % 3)
    lat, group, u_i, u_f = GaugeLattice(1, 2), GaugeGroupZN(3), [0, 1, 2, 1], [2, 2, 0, 1]
    expected = amplitude_equiv_check(lat, group, 1.0, 1.0, u_i, u_f, 2)
    ends = np.array(u_i, dtype), np.array(u_f, dtype)
    assert amplitude_equiv_check(lat, group, 1.0, 1.0, *ends, 2) == expected


# digit-table references: every configuration spelled out as (dim, n_links) digits
def digit_table_wmag(lat, group, g, kappa):
    """W_mag diagonal from the (dim, n_links) digit table and a (dim, n_plaquettes) holonomy table."""
    dim = group.N**lat.n_links
    digits = np.stack(np.unravel_index(np.arange(dim), (group.N,) * lat.n_links), axis=1)
    holonomies = np.stack([np.mod(digits[:, l0] + digits[:, l1] - digits[:, l2] - digits[:, l3],
                                  group.N) for l0, l1, l2, l3 in lat.plaquettes()], axis=-1)
    return np.exp(-1j * (2.0 * kappa / g / g) * group.retrace(holonomies).sum(axis=-1))


def digit_table_perms(lat, group, omegas):
    shape = (group.N,) * lat.n_links
    digits = np.stack(np.unravel_index(np.arange(group.N**lat.n_links), shape), axis=1)
    digits = digits.astype(np.uint8)  # small integers keep the mod cheap
    ends = lat.endpoints
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
    assert np.array_equal(perm_of(gauge_transform(lat, group, omega)), expected)


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


def _roll_links(lat, tensor, omega, n):
    """``tensor`` (one axis per link) rolled by omega_{x+e} - omega_x along each link axis."""
    shifts = omega[lat.endpoints[:, 1]] - omega[lat.endpoints[:, 0]]
    # one axis per roll: a multi-axis np.roll copies 2^(shifted axes) separate blocks
    for axis in np.flatnonzero(shifts % n):
        tensor = np.roll(tensor, shifts[axis], axis=axis)
    return tensor


def roll_projector_reference(lat, group, vec):
    """P_G vec as the product over sites of P_x = (1/N) sum_k D(e_x)^k, each term a roll."""
    for site in np.eye(lat.n_sites, dtype=int):
        tensor, total = vec.reshape((group.N,) * lat.n_links), vec
        for k in range(1, group.N):
            total = total + _roll_links(lat, tensor, -k * site, group.N).ravel()
        vec = total / group.N
    return vec


def perm_projector_reference(lat, group, vec):
    """The Gauss projector through each site generator's ``apply``."""
    for site in np.eye(lat.n_sites, dtype=int):
        generator = gauge_transform(lat, group, site)
        term, total = vec, vec
        for _ in range(group.N - 1):
            term = generator.apply(term)
            total = total + term
        vec = total / group.N
    return vec


# Lx = 1 or Ly = 1 gives links from a site to itself, which a generator leaves unshifted
roll_shapes = [(n, lx, ly) for n in (1, 2, 3, 4, 5)
               for lx, ly in ((1, 1), (1, 2), (2, 1), (1, 3), (2, 2))
               if n ** (2 * lx * ly) <= 2**16]


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from(roll_shapes), seed=st.integers(0, 2**32 - 1))
def test_rolled_generators_equal_perm_reference(shape, seed):
    n, lx, ly = shape
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=n**lat.n_links) + 1j * rng.normal(size=n**lat.n_links)
    assert np.array_equal(roll_projector_reference(lat, group, vec),
                          perm_projector_reference(lat, group, vec))


@settings(max_examples=40, deadline=None)
@given(shape=st.one_of(st.sampled_from(roll_shapes),
                       gauge_cases.map(lambda case: (case[0], *case[1]))),
       seed=st.integers(0, 2**32 - 1))
def test_gauge_transform_apply_equals_digit_table_scatter(shape, seed):
    # each shift's GEMM adds exact zeros to the one moved entry, so every entry equals the
    # scattered one; a planted -0.0 may come back as +0.0, which == does not tell apart
    n, lx, ly = shape
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    rng = np.random.default_rng(seed)
    omega = rng.integers(0, n, lat.n_sites)
    vec = rng.normal(size=n**lat.n_links) + 1j * rng.normal(size=n**lat.n_links)
    vec.real[rng.random(vec.size) < 0.1] = -0.0
    vec.imag[rng.random(vec.size) < 0.1] = -0.0
    (perm,) = digit_table_perms(lat, group, [omega])
    expected = np.empty_like(vec)
    expected[perm] = vec
    assert np.array_equal(gauge_transform(lat, group, omega).apply(vec), expected)


def test_gauge_transform_at_the_state_cap_holds_no_state_sized_table():
    # D(Omega) on 1 x 11 at Z_2 is 22 shifts of 2 x 2; a 2^22-entry index table is 32 MiB
    lat = GaugeLattice(1, 11)
    tracemalloc.start()
    try:
        op = gauge_transform(lat, Z2, np.arange(lat.n_sites) % 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert op.dim == 2**22
    assert peak < 2**20


@settings(max_examples=40, deadline=None)
@given(shape=st.one_of(st.sampled_from(roll_shapes),
                       gauge_cases.map(lambda case: (case[0], *case[1]))),
       seed=st.integers(0, 2**32 - 1))
def test_orbit_average_equals_projector_references(shape, seed):
    n, lx, ly = shape
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    config = np.random.default_rng(seed).integers(0, n, lat.n_links)
    ket = np.zeros(n**lat.n_links, dtype=complex)
    ket[config_index(n, config)] = 1.0
    projected = gauss_orbit_average(lat, group, config)
    for reference in (roll_projector_reference, perm_projector_reference):
        expected = reference(lat, group, ket)
        if n <= 4:
            assert np.array_equal(projected, expected)
        else:
            assert np.max(np.abs(projected - expected)) <= 1e-15


def test_equiv_check_left_side_at_tau_one_holds_a_quarter_state_vector():
    # tau = 1 reads one element of T per gauge image of u_f: links x N^sites entries of W_el,
    # with no product state, no W_mag diagonal and no full transfer
    lat = GaugeLattice(2, 4)  # 16 links: dim 2^16
    u_i, u_f = np.random.default_rng(8).integers(0, 2, (2, lat.n_links))
    tracemalloc.start()
    try:
        amplitude_equiv_check(lat, Z2, 1.0, 1.0, u_i, u_f, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * 16 * 2**16  # complex state vectors


def test_gauge_check_builds_wmag_once_per_transfer(tmp_path, monkeypatch):
    # tau = 1 reads W_mag at u_i alone; at tau = 2 each pair runs one full transfer, which
    # builds the diagonal anew: 4 builds for 4 pairs
    builds = []

    def counted(*args):
        builds.append(args)
        return _wmag_diag(*args)

    monkeypatch.setattr(gauge_mod, "_wmag_diag", counted)
    argv = ["gauge-check", "--g", "1.0", "--kappa", "1.0", "--pairs", "4"]
    assert cli.run([*argv, "--out", str(tmp_path / "g.json")]) == 0
    assert len(builds) == 0
    assert cli.run([*argv, "--tau", "2", "--out", str(tmp_path / "g2.json")]) == 0
    assert len(builds) == 4


@pytest.mark.parametrize("tau", [1, 2, 3])
def test_equiv_check_runs_tau_minus_one_full_transfers(monkeypatch, tau):
    # the first factor of T^tau is T|u_i>, built from the ket's ends
    calls = []

    def counted(*args):
        calls.append(args[-1].size)
        return apply_transfer(*args)

    monkeypatch.setattr(gauge_mod, "apply_transfer", counted)
    lat, ends = GaugeLattice(1, 2), [0, 1, 1, 0]
    amplitude_equiv_check(lat, Z2, 1.0, 1.0, ends, ends, tau)
    assert calls == [2**lat.n_links] * (tau - 1)


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(wmag_shapes), g=st.floats(0.5, 2.0), kappa=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_wmag_at_one_configuration_is_its_diagonal_entry(shape, g, kappa, seed):
    # the left side's phase at u_i, read from one configuration as a list or an array, is
    # bitwise the full diagonal's entry at that configuration's index
    n, lx, ly = shape
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    config = np.random.default_rng(seed).integers(0, n, lat.n_links)
    coeff_s, _ = _couplings(g, kappa)
    entry = build_wmag(lat, group, g, kappa).diag[config_index(n, config)]
    for links in (config, config.tolist()):
        retrace = group.retrace(np.arange(n))
        at_u = np.exp(-1j * coeff_s * _plaquette_action(lat.plaquettes(), retrace, links))
        assert at_u.tobytes() == entry.tobytes()


# every shape with dim <= 4096 at N = 2, 3, 4 and tau = 1, 2, 3 whose Wilson sum, computed
# beside the left side, has at most 2^20 terms
left_side_cases = [(n, lx, ly, tau) for n in (2, 3, 4)
                   for lx, ly in ((1, 1), (1, 2), (1, 3), (2, 2), (1, 4), (2, 3), (1, 6))
                   for tau in (1, 2, 3)
                   if n ** (2 * lx * ly) <= 4096 and n ** (lx * ly * (3 * tau - 2)) <= 2**20]


def dense_left_side(lat, group, g, kappa, u_i, u_f, tau):
    """N^links [(W_el W_mag)^tau P_G e_{u_i}] at u_f: W_el as the Kronecker product of its link
    factors, not through the GEMM the left side runs, and W_mag's dense matrix as np.diag of
    its diagonal (test_dense_is_apply_on_basis_kets). The 256 MiB W_el of a 4096-state shape
    lives only in this frame, so a failing example's traceback does not keep it."""
    wel = kron_reference(build_wel(lat, group, g, kappa))
    wmag = build_wmag(lat, group, g, kappa).diag
    psi = gauss_orbit_average(lat, group, np.array(u_i))
    for _ in range(tau):
        psi = wel @ (wmag * psi)
    return group.N**lat.n_links * psi[config_index(group.N, u_f)]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(left_side_cases), g=st.floats(0.5, 2.0), kappa=st.floats(0.5, 2.0),
       data=st.data())
def test_equiv_check_left_side_equals_dense_transfer_on_projected_ket(case, g, kappa, data):
    n, lx, ly, tau = case
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    ends = st.lists(st.integers(0, n - 1), min_size=lat.n_links, max_size=lat.n_links)
    u_i, u_f = data.draw(ends), data.draw(ends)
    lhs, _, _ = amplitude_equiv_check(lat, group, g, kappa, u_i, u_f, tau)
    expected = dense_left_side(lat, group, g, kappa, u_i, u_f, tau)
    # relative to 1: both sides equal the Wilson sum, a mean of unit phases
    assert abs(lhs - expected) <= 1e-12


def test_equiv_check_refuses_in_the_cli_order(tmp_path, capsys):
    # states before terms, as gauge-check refuses them: 2 x 6 at Z_2 has 2^24 states and,
    # at tau = 3, 2^84 Wilson terms; the link axes come first of all
    for lx, ly, tau in ((2, 6, 3), (1, 40, 3), (2, 2, 3)):
        lat, ends = GaugeLattice(lx, ly), np.zeros(2 * lx * ly, int)
        with pytest.raises(CapExceeded) as refused:
            amplitude_equiv_check(lat, Z2, 1.0, 1.0, ends, ends, tau)
        argv = ["gauge-check", "--lx", str(lx), "--ly", str(ly), "--tau", str(tau)]
        assert cli.run([*argv, "--out", str(tmp_path / "g.json")]) == 3
        assert capsys.readouterr().err == f"resource cap exceeded: {refused.value}\n"


@settings(max_examples=60, deadline=None)
@given(g=st.floats(1e-100, 1e100), kappa=st.floats(1e-100, 1e100))
def test_couplings_return_the_coefficients_they_check(g, kappa):
    # one formula each: the values returned are the ones the finiteness check read
    try:
        coeff_s, coeff_t = _couplings(g, kappa)
    except ValueError:
        return
    assert (coeff_s, coeff_t) == (2.0 * kappa / g / g, 2.0 / kappa / g / g)


def _json_body(path):
    return json.loads(path.read_text().partition("\n")[2])


def test_gauge_check_at_huge_g_writes_a_finite_artifact(tmp_path):
    # 2/g/g stays finite and positive at g = 1e160, where g**2 raised OverflowError
    out = tmp_path / "g.json"
    assert cli.run(["gauge-check", "--g", "1e160", "--out", str(out)]) == 0
    body = _json_body(out)
    assert np.isfinite([*body["lhs"], *body["rhs"], body["deviation"]]).all()


@pytest.mark.parametrize("args", [
    ["--g", "1.2345", "--seed", "3", "--pairs", "5"],
    ["--N", "3", "--tau", "2", "--lx", "1", "--pairs", "3", "--seed", "11"],
])
def test_gauge_check_pairs_drawn_as_the_list_reference(tmp_path, args):
    # each pair is checked as it is drawn, from the same generator in the same order as a
    # list of all pairs built first: the artifact holds the list's first lhs, rhs and worst
    out = tmp_path / "g.json"
    assert cli.run(["gauge-check", *args, "--out", str(out)]) == 0
    body = _json_body(out)
    lat, group = GaugeLattice(body["lattice"][0], body["lattice"][1]), GaugeGroupZN(body["N"])
    rng = np.random.default_rng(int(dict(zip(args[::2], args[1::2]))["--seed"]))
    identity = np.zeros(lat.n_links, dtype=int)
    pairs = [(identity, identity)] + [
        (rng.integers(0, group.N, lat.n_links), rng.integers(0, group.N, lat.n_links))
        for _ in range(body["pairs"] - 1)]
    checks = [amplitude_equiv_check(lat, group, body["g"], body["kappa"], u_i, u_f, body["tau"])
              for u_i, u_f in pairs]
    assert body["lhs"] == [checks[0][0].real, checks[0][0].imag]
    assert body["rhs"] == [checks[0][1].real, checks[0][1].imag]
    assert body["deviation"] == max(dev for _, _, dev in checks)


def test_gauge_check_caps_before_any_link_array(tmp_path, capsys):
    # 4*10^9 links: refused at the link-axis cap, before the identity or any pair exists
    out = tmp_path / "g.json"
    tracemalloc.start()
    try:
        code = cli.run(["gauge-check", "--lx", "1000000000", "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and "link tensor axes: 4000000000" in capsys.readouterr().err
    assert peak < 2**20 and not out.exists()


@pytest.mark.parametrize("flags, line", [
    (["--pairs", "24"], "terms or amplitudes of 24 pairs: 100663296 exceeds the cap 100000000"),
    (["--tau", "2"], "brute-force sum terms: 17592186044416 exceeds the cap 100000000"),
])
def test_gauge_check_caps_terms_and_pairs_before_wmag(tmp_path, monkeypatch, capsys, flags, line):
    # a 2^22-state lattice refused by its Wilson terms or its pairs: W_mag would be 64 MiB
    def no_wmag(*args):
        raise AssertionError("W_mag was built before the caps")

    monkeypatch.setattr(gauge_mod, "_wmag_diag", no_wmag)
    out = tmp_path / "g.json"
    tracemalloc.start()
    try:
        code = cli.run(["gauge-check", "--lx", "1", "--ly", "11", *flags, "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 3 and capsys.readouterr().err == f"resource cap exceeded: {line}\n"
    assert peak < 2**20 and not out.exists()


def test_gauge_check_caps_all_pairs_before_the_first(tmp_path, monkeypatch, capsys):
    def no_pair(*args):
        raise AssertionError("a pair was checked before the pair cap")

    monkeypatch.setattr(gauge_mod, "amplitude_equiv_check", no_pair)
    # at least one 2^16-term block per pair: 1526 pairs of the default 16-term sum pass 10^8
    code = cli.run(["gauge-check", "--pairs", "1526", "--out", str(tmp_path / "g.json")])
    assert code == 3
    assert capsys.readouterr().err == ("resource cap exceeded: terms or amplitudes of 1526 "
                                       "pairs: 100007936 exceeds the cap 100000000\n")


def test_wilson_terms_count_each_pair_by_its_larger_side():
    # a 2^22-state lattice with 2^11 Wilson terms: each pair counts its 2^22 amplitudes
    lat = GaugeLattice(1, 11)
    assert gauge_mod._wilson_terms(lat, Z2, 1, 23) == 2**11
    with pytest.raises(CapExceeded, match="of 24 pairs: 100663296"):
        gauge_mod._wilson_terms(lat, Z2, 1, 24)
    with pytest.raises(CapExceeded, match=r"brute-force sum terms: ~10\^36123597 "):
        gauge_mod._wilson_terms(LAT, Z2, 10**7)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 7), lx=st.integers(1, 11), ly=st.integers(1, 11), tau=st.integers(2, 4))
@example(n=3, lx=4, ly=1, tau=2)  # the largest link space admitted: 3^8 = 6561 states
def test_wilson_terms_admit_no_tau_two_check_past_ten_thousand_states(n, lx, ly, tau):
    # at tau >= 2 the Wilson sum has at least N^(links + 2 sites) = dim^2 terms, so
    # PATH_TERM_CAP = 10^8 admits at most 10^4 link states: W_mag's diagonal is that small
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    try:
        terms = gauge_mod._wilson_terms(lat, group, tau)
    except CapExceeded:
        return
    assert n**lat.n_links <= 10**4 and terms >= n ** (2 * lat.n_links)


def wilson_sum_reference(lat, group, g, kappa, u_i, u_f, tau, chunk, phase_sum=tally_sum,
                         in_order=False):
    """The right side of amplitude_equiv_check on digit-table chunks of ``chunk`` terms: each
    slice's action formed on its own and the slices added. With ``in_order`` each plaquette's
    term is added to one running action instead, the order the per-slice sums replaced."""
    coeff_s, coeff_t = _couplings(g, kappa)
    n = group.N
    n_vars = lat.n_links * (tau - 1) + lat.n_sites * tau
    endpoints = lat.endpoints
    retrace = group.retrace(np.arange(n))
    chunks = []
    for slices, temporal in _time_slices(n, u_i, u_f, tau, lat.n_sites * tau, chunk):
        temporal = temporal.reshape(tau, lat.n_sites, -1)
        action = 0.0
        for nu in range(tau):
            magnetic = coeff_s * _plaquette_action(lat.plaquettes(), retrace, slices[nu])
            t_now = temporal[nu]
            electric = [retrace[(t_now[frm] + slices[nu][link] - t_now[to] - slices[nu + 1][link])
                                % n] for link, (frm, to) in enumerate(endpoints)]
            if in_order:
                action = action + magnetic
                for term in electric:
                    action = action + coeff_t * term
            else:
                total = 0.0
                for term in electric:
                    total = total + term
                action = action + (magnetic + coeff_t * total)
        chunks.append(phase_sum(action, -1))
    return complex(fsum_complex(chunks)) / n**n_vars


# (N, Lx, Ly, tau) with at most 2^15 terms in the Wilson sum. N = 7 and 11 fit only on one
# site or at tau = 1; their cos(2 pi h/N) takes 4 and 6 values, so more of their terms' actions
# are distinct than at N <= 5
wilson_shapes = [(n, lx, ly, tau) for n in (2, 3, 4, 5, 7, 11)
                 for lx, ly in ((1, 1), (1, 2), (2, 1)) for tau in (1, 2, 3)
                 if n ** (2 * lx * ly * (tau - 1) + lx * ly * tau) <= 2**15]


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


@settings(max_examples=20, deadline=None)
@given(shape=st.sampled_from([(n, lx, ly, tau) for n, lx, ly, tau in wilson_shapes
                              if n ** (2 * lx * ly * (tau - 1) + lx * ly * tau) >= 2 * n]),
       g=st.floats(0.5, 2.0), kappa=st.floats(0.5, 2.0), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_wilson_sum_independent_of_block_order(shape, g, kappa, seed, data):
    # the block totals are added by fsum, correctly rounded whatever their order
    n, lx, ly, tau = shape
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    rng = np.random.default_rng(seed)
    u_i, u_f = rng.integers(0, n, lat.n_links), rng.integers(0, n, lat.n_links)
    terms = n ** (lat.n_links * (tau - 1) + lat.n_sites * tau)
    chunk = data.draw(st.sampled_from([c for c in divisor_chunks(n, range(1, 15))
                                       if 2 <= terms // c <= 256]))
    with blocks_of(chunk, gauge_mod):
        _, forward, _ = amplitude_equiv_check(lat, group, g, kappa, u_i, u_f, tau)
    with blocks_of(chunk, gauge_mod, reverse=True):
        _, backward, _ = amplitude_equiv_check(lat, group, g, kappa, u_i, u_f, tau)
    assert bits(backward) == bits(forward)


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


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(wilson_shapes), g=st.floats(0.5, 2.0), kappa=st.floats(0.5, 2.0),
       seed=st.integers(0, 2**32 - 1))
def test_wilson_sum_per_slice_within_rounding_of_the_in_order_sum(shape, g, kappa, seed):
    # per-slice sums only reassociate each term's action S, a sum of one term per plaquette
    # whose moduli add to at most max|S|: S moves by at most plaquettes * eps * max|S|, and
    # e^{-iS}, and so the term average, by no more
    n, lx, ly, tau = shape
    lat, group = GaugeLattice(lx, ly), GaugeGroupZN(n)
    rng = np.random.default_rng(seed)
    u_i, u_f = rng.integers(0, n, lat.n_links), rng.integers(0, n, lat.n_links)
    coeff_s, coeff_t = _couplings(g, kappa)
    plaquettes = (lat.n_sites + lat.n_links) * tau
    max_action = (lat.n_sites * coeff_s + lat.n_links * coeff_t) * tau
    expected = wilson_sum_reference(lat, group, g, kappa, u_i, u_f, tau, 1 << 12, cos_sin_sum,
                                    in_order=True)
    _, rhs, _ = amplitude_equiv_check(lat, group, g, kappa, u_i, u_f, tau)
    assert abs(rhs - expected) <= plaquettes * np.finfo(float).eps * max_action
