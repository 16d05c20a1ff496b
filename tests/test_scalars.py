"""Oracle tests for the Cayley-Dickson scalar levels."""

import numpy as np
import pytest

from ucplab.scalars import cd_conj, cd_mul, cd_norm, multiplication_table


def unit(dim, k):
    v = np.zeros(dim)
    v[k] = 1.0
    return v


def mul(dim, a, b):
    return cd_mul(a, b, multiplication_table(dim))


def test_real_level_is_plain_multiplication():
    table = multiplication_table(1)
    assert table.shape == (1, 1, 1)
    assert table[0, 0, 0] == 1.0


def test_complex_level_i_squared_is_minus_one():
    i = unit(2, 1)
    assert np.allclose(mul(2, i, i), -unit(2, 0))


def test_quaternion_hand_table():
    # i*j = k, j*i = -k, i*k = -j, all squares = -1
    i, j, k = unit(4, 1), unit(4, 2), unit(4, 3)
    assert np.allclose(mul(4, i, j), k)
    assert np.allclose(mul(4, j, i), -k)
    assert np.allclose(mul(4, i, k), -j)
    for u in (i, j, k):
        assert np.allclose(mul(4, u, u), -unit(4, 0))


def test_octonion_units_square_to_minus_one():
    for k in range(1, 8):
        assert np.allclose(mul(8, unit(8, k), unit(8, k)), -unit(8, 0))


def test_octonion_nonassociativity_witness():
    e1, e2, e4 = unit(8, 1), unit(8, 2), unit(8, 4)
    left = mul(8, mul(8, e1, e2), e4)
    right = mul(8, e1, mul(8, e2, e4))
    assert np.allclose(left, -right)
    assert np.allclose(np.abs(left), unit(8, 7))


def test_quaternions_are_associative():
    rng = np.random.default_rng(0)
    a, b, c = rng.standard_normal((3, 4))
    assert np.allclose(mul(4, mul(4, a, b), c), mul(4, a, mul(4, b, c)), atol=1e-12)


def test_alternative_law_at_octonion_level():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((2, 8))
    assert np.allclose(mul(8, mul(8, a, a), b), mul(8, a, mul(8, a, b)), atol=1e-12)
    assert np.allclose(mul(8, mul(8, b, a), a), mul(8, b, mul(8, a, a)), atol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_norm_is_multiplicative(dim):
    rng = np.random.default_rng(dim)
    a, b = rng.standard_normal((2, dim))
    assert np.isclose(cd_norm(mul(dim, a, b)), cd_norm(a) * cd_norm(b), rtol=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 4, 8])
def test_conjugation_gives_norm(dim):
    rng = np.random.default_rng(10 + dim)
    a = rng.standard_normal(dim)
    prod = mul(dim, a, cd_conj(a))
    assert np.isclose(prod[0], cd_norm(a), rtol=1e-12)
    assert np.allclose(prod[1:], 0.0, atol=1e-12)


def test_batched_multiplication_matches_loop():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((5, 8))
    b = rng.standard_normal((5, 8))
    batch = mul(8, a, b)
    for k in range(5):
        assert np.allclose(batch[k], mul(8, a[k], b[k]))
