import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latcirc import quadrature
from latcirc.errors import ConvergenceFailure
from latcirc.quadrature import folded_nodes, fsum_complex, fsum_real, midpoint_nodes

DBL_MIN = 2.2250738585072014e-308  # smallest normal double

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(0, 5000)  # both sides of quadrature._CROSSOVER
finite = st.floats(allow_nan=False, allow_infinity=False)
subnormal = st.floats(-DBL_MIN, DBL_MIN, allow_subnormal=True)
huge = st.floats(1e300, 1.7976931348623157e308)


def outcome(total, x):
    """A sum's value with its sign of zero, or the exception it raised."""
    try:
        value = total(x)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)
    return value.hex()


def reference(x):
    return math.fsum(np.asarray(x, dtype=float).tolist())


def signed_draws(values, size, seed):
    """``size`` terms drawn from ``values`` with random signs, so x and -x both occur."""
    rng = np.random.default_rng(seed)
    return rng.choice(np.array(values, dtype=float), size) * rng.choice([-1.0, 1.0], size)


def test_crossover_lies_inside_the_property_sizes():
    assert 0 < quadrature._CROSSOVER < 5000


@settings(max_examples=150, deadline=None)
@given(values=st.lists(finite, min_size=1, max_size=8), size=sizes, seed=seeds)
def test_fsum_real_equals_math_fsum(values, size, seed):
    x = signed_draws(values, size, seed)
    assert outcome(fsum_real, x) == outcome(reference, x)


@settings(max_examples=60, deadline=None)
@given(scale=st.floats(-280, 280), size=sizes, seed=seeds, tail=st.booleans())
def test_fsum_real_exact_cancellation(scale, size, seed, tail):
    rng = np.random.default_rng(seed)
    half = rng.standard_normal(size // 2) * 10.0 ** rng.uniform(scale - 20, scale + 20, size // 2)
    x = rng.permutation(np.concatenate([half, -half, [1e-300] if tail else []]))
    assert outcome(fsum_real, x) == outcome(reference, x)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.one_of(subnormal, huge), min_size=1, max_size=6), size=sizes,
       seed=seeds)
def test_fsum_real_subnormal_and_near_overflow(values, size, seed):
    x = signed_draws(values, size, seed)
    assert outcome(fsum_real, x) == outcome(reference, x)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(finite, min_size=1, max_size=4), size=st.integers(1, 5000), seed=seeds,
       special=st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), min_size=1,
                        max_size=3))
def test_fsum_real_non_finite_as_math_fsum(values, size, seed, special):
    x = signed_draws(values, size, seed)
    rng = np.random.default_rng(seed)
    x[rng.integers(0, size, len(special))] = special
    assert outcome(fsum_real, x) == outcome(reference, x)


@settings(max_examples=10, deadline=None)
@given(size=st.integers(quadrature._CHUNK, 3 * quadrature._CHUNK), seed=seeds)
def test_fsum_real_over_several_chunks(size, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(size) * 10.0 ** rng.uniform(-30, 30, size)
    assert outcome(fsum_real, x) == outcome(reference, x)


@pytest.mark.parametrize("size", [0, 1, 4000])
@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_fsum_real_all_zero_sign(size, zero):
    x = np.full(size, zero)
    assert outcome(fsum_real, x) == outcome(reference, x)


def test_fsum_real_bins_cancelling_to_zero():
    # 3.0 and -2.0 share an exponent bin and -1.0 has its own: the bins are nonzero and
    # their total is 0, so the sign of zero is math.fsum's
    x = np.repeat([3.0, -1.0, -2.0], 1000)
    assert x.size >= quadrature._CROSSOVER
    assert outcome(fsum_real, x) == outcome(reference, x) == (0.0).hex()


@settings(max_examples=60, deadline=None)
@given(values=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6), size=sizes,
       seed=seeds)
def test_fsum_complex_componentwise(values, size, seed):
    x = signed_draws(values, size, seed)
    z = x + 1j * np.random.default_rng(seed + 1).permutation(x)
    total = fsum_complex(z)
    assert (total.real.hex(), total.imag.hex()) == (reference(z.real).hex(),
                                                    reference(z.imag).hex())


def test_refined_returns_coarse_unchecked_without_rtol():
    calls = []

    def evaluate(n):
        calls.append(n)
        return 1.0 / n

    assert quadrature.refined(evaluate, 8, None, "f") == 0.125
    assert calls == [8]  # no fine evaluation


def test_refined_returns_fine_value_at_the_default_and_explicit_counts():
    calls = []

    def evaluate(n):
        calls.append(n)
        return 1.0 + 1.0 / n**4

    assert quadrature.refined(evaluate, 10, 1e-3, "f") == evaluate(20)
    assert calls == [10, 20, 20]


def test_refined_raises_above_rtol_times_scale():
    def evaluate(n):
        return 1.0 if n == 4 else 1.5  # the refinement moves the value by 0.5

    # default scale max(|coarse|, 1e-300) = 1: 0.5 passes 0.6 * 1, not 0.4 * 1
    assert quadrature.refined(evaluate, 4, 0.6, "f") == 1.5
    with pytest.raises(ConvergenceFailure, match="^f: refining 4 to 8 nodes"):
        quadrature.refined(evaluate, 4, 0.4, "f")
    # an explicit scale replaces |coarse|: 0.5 passes 0.4 * 2 but not 0.4 * 1.2
    assert quadrature.refined(evaluate, 4, 0.4, "f", scale=2.0) == 1.5
    with pytest.raises(ConvergenceFailure, match="^f: refining 4 to 8 nodes"):
        quadrature.refined(evaluate, 4, 0.4, "f", scale=1.2)
    # a zero coarse value still has a positive scale, so any move raises
    with pytest.raises(ConvergenceFailure, match="^f: refining 4 to 8 nodes"):
        quadrature.refined(lambda n: 0.0 if n == 4 else 1e-290, 4, 1.0, "f")


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 256, 2**16, 2**17])
def test_midpoint_nodes_exactly_antisymmetric(n):
    x = midpoint_nodes(n, math.pi / 0.37)
    np.testing.assert_array_equal(x, -x[::-1])
    assert x[0] > -math.pi / 0.37 and x[-1] < math.pi / 0.37
    nodes, weights = folded_nodes(n, math.pi / 0.37)
    np.testing.assert_array_equal(nodes, x[n // 2:])
    assert nodes[0] == 0.0 if n % 2 else nodes[0] > 0.0
    assert weights.sum() == n and set(weights[1:]) <= {2.0}
