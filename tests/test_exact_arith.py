from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotomic_field import Cyc, euler_phi, field, inverse, poly_divmod, poly_mod, power, zeta
from wpptoric.errors import InternalInconsistencyError, InvalidInputError
from wpptoric.exact_arith import Cyclotomic, _reducer, cyclotomic_poly, poly_mul


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
    assert zeta(2, 1) == -1
    assert zeta(4, 2) == -1
    z3 = zeta(3, 1)
    # x with x^2 + x + 1 = 0
    assert z3.coords == (Fraction(0), Fraction(1))
    assert z3 * z3 + z3 + 1 == 0


def test_root_of_unity_products():
    assert zeta(3, 1) * zeta(3, 2) == 1
    assert power(zeta(5, 3), 5) == 1
    assert zeta(12, 7) == zeta(12, 19)


def test_inverse_examples():
    assert inverse(-1) == -1
    # 1/(1 - zeta_3) = (2 + zeta_3)/3, by extended Euclid on x^2+x+1
    z3 = zeta(3, 1)
    inv = inverse(1 - z3 + 0 * z3)
    assert inv == (2 + z3) * Fraction(1, 3)
    assert inv * (1 + (-1) * z3) == 1


def test_mixed_order_embedding():
    # zeta_2 inside Q(zeta_6): zeta_6^3 = -1
    assert zeta(2, 1) == zeta(6, 3)
    s = zeta(4, 1) + zeta(2, 1)
    assert s.order == 4
    assert s * s == -2 * zeta(4, 1)


def test_as_rational():
    assert field(Fraction(7, 2)).as_rational() == Fraction(7, 2)
    z3 = zeta(3, 1)
    assert (z3 + z3 * z3).as_rational() == -1
    assert zeta(4, 1).as_rational() is None


def test_division_by_zero_is_invalid_input():
    with pytest.raises(InvalidInputError):
        inverse(Cyc(3, [0]))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 9, 12, 15, 16, 20, 24])
@pytest.mark.parametrize("m", range(-3, 8))
def test_galois_sum(n, m):
    # sum_{k=1}^{n-1} zeta_n^{k m} = n*[n | m] - 1
    total = field(0)
    for k in range(1, n):
        total = total + zeta(n, k * m)
    expected = (n if m % n == 0 else 0) - 1
    assert total.as_rational() == expected


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
    return Cyc(n, coords)


@given(cyclotomic_elements())
@settings(max_examples=150, deadline=None)
def test_inverse_roundtrip(a):
    if a == 0:
        return
    assert a * inverse(a) == 1


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


def test_integer_numerators_are_canonical():
    a = Cyclotomic.from_integers(3, [2, -2], 4)
    assert (a.nums, a.den) == ((1, -1), 2)
    # 2 x^2 = -2 - 2x modulo x^2 + x + 1
    b = Cyclotomic.from_integers(3, [0, 0, 2])
    assert (b.nums, b.den) == ((-2, -2), 1)
    zero = Cyclotomic.from_integers(4, [1, 0, 1], 3)  # (1 + x^2)/3 = 0
    assert (zero.nums, zero.den) == ((0, 0), 1)
    root = Cyclotomic.from_integers(6, [3, 3, 3], 6)  # (1 + x + x^2)/2 = x
    assert (root.nums, root.den) == ((0, 1), 1)
    assert root == Cyclotomic.from_integers(6, [0, 1]) and root != Cyclotomic.from_integers(6, [1])
    with pytest.raises(InternalInconsistencyError):
        assert root != Cyclotomic.from_integers(3, [0, 1])  # the orders differ


@given(st.sampled_from([1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 18, 24, 30]),
       st.lists(st.integers(min_value=-60, max_value=60), max_size=70),
       st.integers(min_value=1, max_value=9))
@settings(max_examples=150, deadline=None)
def test_division_free_reduction_matches_poly_mod(n, nums, den):
    value = Cyclotomic.from_integers(n, nums, den)
    expected = poly_mod([Fraction(x, den) for x in nums], list(cyclotomic_poly(n)))
    expected += [Fraction(0)] * (euler_phi(n) - len(expected))
    assert value.coeffs == tuple(expected)
    assert value.den > 0 and gcd(value.den, *value.nums) == 1


@given(cyclotomic_elements(), st.sampled_from([1, 2, 3, 4, 5, 6]))
@settings(max_examples=100, deadline=None)
def test_embed_is_a_sum_of_roots(a, k):
    target = a.order * k
    expected = Cyc(target, [])
    for i, c in enumerate(a.coords):
        expected = expected + c * zeta(target, i * k)
    embedded = a.embed(target)
    assert embedded.order == target
    assert embedded.coords == expected.coords
    assert embedded == a


# cyclotomic_poly is not cached: its one caller in the package is _reducer
@pytest.mark.parametrize("cached, calls", [
    (_reducer, [(n,) for n in range(1, 400)]),
], ids=["reducer"])
def test_cyclotomic_caches_are_bounded(cached, calls):
    cached.cache_clear()
    for args in calls:
        cached(*args)
    info = cached.cache_info()
    assert info.maxsize is not None and 0 < info.currsize <= info.maxsize < len(calls)
