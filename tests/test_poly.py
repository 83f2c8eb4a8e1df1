import numpy as np
import pytest

from burstfold.errors import DuplicateAbscissa
from reference import (
    lagrange_interpolate,
    poly_add,
    poly_derivative,
    poly_eval,
    poly_mul,
    poly_trim,
)


def test_eval_horner(gf13):
    F = gf13
    coeffs = [5, 0, 3]  # 5 + 3x^2
    assert poly_eval(F, coeffs, 2) == (5 + 12) % 13
    xs = np.arange(13)
    vals = poly_eval(F, coeffs, xs)
    assert vals.tolist() == [(5 + 3 * x * x) % 13 for x in range(13)]


def test_derivative_prime_field(gf13):
    F = gf13
    # d/dx (1 + 2x + 3x^2 + 4x^3) = 2 + 6x + 12x^2
    assert poly_derivative(F, [1, 2, 3, 4]) == [2, 6, 12]


def test_derivative_char2(gf16):
    F = gf16
    # even-degree terms die: d/dx (a + bx + cx^2 + dx^3) = b + d x^2
    assert poly_derivative(F, [7, 9, 4, 5]) == [9, 0, 5]
    # char-p wraparound: multiplier is (i+1) mod p
    coeffs = [0] * 5
    coeffs[4] = 6
    assert poly_trim(poly_derivative(F, coeffs)) == []


def test_mul_matches_eval(gf64):
    F = gf64
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = [int(v) for v in rng.integers(0, 64, size=rng.integers(1, 6))]
        b = [int(v) for v in rng.integers(0, 64, size=rng.integers(1, 6))]
        prod = poly_mul(F, a, b)
        for x in range(0, 64, 5):
            assert poly_eval(F, prod, x) == F.mul(
                poly_eval(F, a, x), poly_eval(F, b, x))


def test_add(gf13):
    F = gf13
    assert poly_add(F, [1, 2], [3, 4, 5]) == [4, 6, 5]


def test_lagrange_roundtrip(gf64):
    F = gf64
    rng = np.random.default_rng(3)
    pts = rng.permutation(64)[:9].tolist()
    vals = rng.integers(0, 64, size=9).tolist()
    coeffs = lagrange_interpolate(F, pts, vals)
    assert len(poly_trim(coeffs)) <= 9
    for x, y in zip(pts, vals):
        assert poly_eval(F, coeffs, x) == y


def test_lagrange_recovers_low_degree(gf13):
    F = gf13
    coeffs = [4, 0, 11, 2]
    pts = list(range(7))
    vals = [poly_eval(F, coeffs, x) for x in pts]
    rec = lagrange_interpolate(F, pts, vals)
    assert poly_trim(rec) == poly_trim(coeffs)


def test_lagrange_duplicate_abscissa(gf13):
    with pytest.raises(DuplicateAbscissa):
        lagrange_interpolate(gf13, [1, 2, 1], [0, 0, 0])
