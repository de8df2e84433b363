from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpptoric.errors import InvalidInputError
from wpptoric.exact_arith import (
    Cyclotomic,
    as_rational,
    cyclotomic_poly,
    euler_phi,
    poly_divmod,
    poly_mul,
    zeta_pow,
)


def test_cyclotomic_poly_small():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    # divide x^6-1 by Phi_1*Phi_2*Phi_3 by hand: x^2 - x + 1
    assert cyclotomic_poly(6) == (1, -1, 1)


@pytest.mark.parametrize("n", range(1, 31))
def test_cyclotomic_product_is_xn_minus_1(n):
    prod = [1]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = poly_mul(prod, list(cyclotomic_poly(d)))
    expected = [-1] + [0] * (n - 1) + [1]
    assert prod == expected


def test_phi_matches_poly_degree():
    for n in range(1, 40):
        assert euler_phi(n) == len(cyclotomic_poly(n)) - 1


def test_zeta_pow_basics():
    assert zeta_pow(2, 1) == -1
    assert zeta_pow(4, 2) == -1
    z3 = zeta_pow(3, 1)
    # x with x^2 + x + 1 = 0
    assert z3.coeffs == (Fraction(0), Fraction(1))
    assert z3 * z3 + z3 + 1 == 0


def test_root_of_unity_products():
    assert zeta_pow(3, 1) * zeta_pow(3, 2) == 1
    assert zeta_pow(5, 3) ** 5 == 1
    assert zeta_pow(12, 7) == zeta_pow(12, 19)


def test_inverse_examples():
    assert Cyclotomic.from_rational(-1).inverse() == -1
    # 1/(1 - zeta_3) = (2 + zeta_3)/3, by extended Euclid on x^2+x+1
    z3 = zeta_pow(3, 1)
    inv = (1 - z3 + 0 * z3).inverse()
    assert inv == (2 + z3) * Fraction(1, 3)
    assert inv * (1 + (-1) * z3) == 1


def test_mixed_order_embedding():
    # zeta_2 inside Q(zeta_6): zeta_6^3 = -1
    assert zeta_pow(2, 1) == zeta_pow(6, 3)
    s = zeta_pow(4, 1) + zeta_pow(2, 1)
    assert s.order == 4
    assert s * s == -2 * zeta_pow(4, 1)


def test_as_rational():
    assert as_rational(Cyclotomic.from_rational(Fraction(7, 2))) == Fraction(7, 2)
    z3 = zeta_pow(3, 1)
    assert as_rational(z3 + z3 * z3) == -1
    assert as_rational(zeta_pow(4, 1)) is None


def test_division_by_zero_is_invalid_input():
    with pytest.raises(InvalidInputError):
        Cyclotomic(3, [0]).inverse()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 20, 24])
@pytest.mark.parametrize("m", range(-3, 8))
def test_galois_sum(n, m):
    # sum_{k=1}^{n-1} zeta_n^{k m} = n*[n | m] - 1
    total = Cyclotomic.from_rational(0)
    for k in range(1, n):
        total = total + zeta_pow(n, k * m)
    expected = (n if m % n == 0 else 0) - 1
    assert as_rational(total) == expected


@st.composite
def cyclotomic_elements(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 18, 24]))
    coords = draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=6),
            min_size=euler_phi(n),
            max_size=euler_phi(n),
        )
    )
    return Cyclotomic(n, coords)


@given(cyclotomic_elements())
@settings(max_examples=150, deadline=None)
def test_inverse_roundtrip(a):
    if a.is_zero():
        return
    assert a * a.inverse() == 1


@given(cyclotomic_elements(), cyclotomic_elements(), cyclotomic_elements())
@settings(max_examples=100, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


def test_poly_divmod_exactness():
    p = [Fraction(1), Fraction(0), Fraction(-2), Fraction(1)]
    q = [Fraction(-1), Fraction(1)]
    quo, rem = poly_divmod(p, q)
    # direct check: p = quo*q + rem
    recomposed = poly_mul(quo, q)
    recomposed = recomposed + [Fraction(0)] * (len(p) - len(recomposed))
    for i, c in enumerate(p):
        assert recomposed[i] + (rem[i] if i < len(rem) else 0) == c
