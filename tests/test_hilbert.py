from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd, lcm

import pytest

from wpptoric.errors import InvalidInputError
from wpptoric.exact_arith import Cyclotomic, as_rational, zeta_pow
from wpptoric.hilbert import (
    GeneratingSheafSpec,
    HilbTop,
    chi_oracle,
    hilb_fit_oracle,
    hilb_top,
    hilb_top_E,
    hilb_top_E_of_kclass,
    psi_E,
    rank2_constant_term,
    slope_mu,
)
from wpptoric.kgroup import WppParams, g_power, kclass_from_laurent, structure_sheaf_point


# ---------------------------------------------------------------------------
# reference oracles: the character sums evaluated term by term in Q(zeta_n)
# ---------------------------------------------------------------------------

def phi_E(E, x):
    """x + 2x^2 + ... + (E-1)x^(E-1), evaluated exactly."""
    if not isinstance(x, Cyclotomic):
        x = Cyclotomic.from_rational(x)
    total = Cyclotomic.from_rational(0)
    power = Cyclotomic.from_rational(1)
    for u in range(1, E):
        power = power * x
        total = total + u * power
    return total


@lru_cache(maxsize=None)
def _phi_E_at_root(E, n, k):
    return phi_E(E, zeta_pow(n, k))


@lru_cache(maxsize=None)
def _inv_one_minus_root(n, k):
    """1/(1 - zeta_n^k), by extended Euclid in Q(zeta_n)."""
    return 1 / (1 - zeta_pow(n, k))


def psi_E_oracle(E, m1, m2, m3, n):
    """psi_E summed over k in Q(zeta_n), with one field inverse per term."""
    excluder = n // gcd(m1, n)
    total = Cyclotomic.from_rational(0)
    for k in range(1, n):
        if k % excluder == 0:
            continue
        numer = (1 + zeta_pow(n, -k * m2)) * zeta_pow(n, -k * m3) * _phi_E_at_root(E, n, k)
        total = total + numer * _inv_one_minus_root(n, -k * m1 % n)
    value = as_rational(total)
    assert value is not None, (E, m1, m2, m3, n)
    return value


def hilb_top_oracle(params, r):
    """(quad, lin) of hilb_top with each pair sum evaluated in Q(zeta_dij)."""
    a, b, c = params.weights()
    d, m = params.d, params.m
    if r % d:
        return (Fraction(0), Fraction(0))
    abc = a * b * c
    lin = Fraction((2 * r + a + b + c) * d, 2 * abc)
    for (dij, khat), (wi, wj) in zip(
        ((params.d12, c), (params.d13, b), (params.d23, a)), ((a, b), (a, c), (b, c))
    ):
        total = Cyclotomic.from_rational(0)
        for h in range(1, dij):
            if h % (dij // d) == 0:
                continue
            total = total + zeta_pow(dij, -h * r) * _inv_one_minus_root(dij, h * khat % dij)
        value = as_rational(total)
        assert value is not None, (params, r)
        lin += Fraction(1, wi * wj) * value
    return (Fraction(d * m * m, 2 * abc), m * lin)


def test_hilb_top_matches_cyclotomic_oracle():
    # every sorted weight triple up to 8, twists -6..6
    for weights in combinations_with_replacement(range(1, 9), 3):
        params = WppParams(*weights)
        for r in range(-6, 7):
            top = hilb_top(params, r)
            assert (top.quad, top.lin) == hilb_top_oracle(params, r), (weights, r)


def test_psi_E_matches_cyclotomic_oracle():
    for n in (1, 2, 3, 4, 5, 6, 8, 12):
        for E in (n, 2 * n):
            for m1 in range(7):
                for m2 in range(-3, 4):
                    for m3 in range(-3, 4):
                        expected = psi_E_oracle(E, m1, m2, m3, n)
                        assert psi_E(E, m1, m2, m3, n) == expected, (E, m1, m2, m3, n)


def test_psi_E_needs_n_dividing_E():
    with pytest.raises(InvalidInputError):
        psi_E(3, 1, 0, 0, 2)


def test_phi_E_examples():
    assert phi_E(1, zeta_pow(3, 1)) == 0
    assert phi_E(2, Fraction(-1)) == -1
    assert phi_E(4, zeta_pow(2, 1)) == -2


def test_psi_E_examples():
    assert psi_E(2, 1, 0, 0, 1) == 0
    assert psi_E(2, 1, 0, 0, 2) == -1
    assert psi_E(2, 1, 1, 0, 2) == 0


def test_psi_E_rational_on_grid():
    for n in (2, 3, 4, 6):
        for E in (n, 2 * n):
            for m1 in range(4):
                for m2 in range(3):
                    for m3 in (-2, 0, 1):
                        value = psi_E(E, m1, m2, m3, n)
                        assert isinstance(value, Fraction)


def test_hilb_top_examples():
    assert hilb_top(WppParams(1, 1, 1), 0) == HilbTop(Fraction(1, 2), Fraction(3, 2))
    assert hilb_top(WppParams(2, 2, 4), 1) == HilbTop(Fraction(0), Fraction(0))
    assert hilb_top(WppParams(1, 1, 2), 0) == HilbTop(Fraction(1), Fraction(2))


def test_chi_oracle_examples():
    assert chi_oracle(WppParams(1, 1, 1), 2) == 6
    assert chi_oracle(WppParams(1, 1, 1), -3) == 1
    assert chi_oracle(WppParams(2, 2, 4), 1) == 0


def test_fit_oracle_examples():
    assert hilb_fit_oracle(WppParams(1, 1, 1), 0) == (
        Fraction(1, 2), Fraction(3, 2), Fraction(1))
    assert hilb_fit_oracle(WppParams(1, 1, 2), 0) == (
        Fraction(1), Fraction(2), Fraction(1))
    quad, lin, _ = hilb_fit_oracle(WppParams(1, 2, 3), 5)
    top = hilb_top(WppParams(1, 2, 3), 5)
    assert (quad, lin) == (top.quad, top.lin) == (Fraction(3), top.lin)


@pytest.mark.parametrize(
    "weights", [(1, 1, 1), (1, 1, 2), (2, 2, 2), (2, 3, 4), (2, 2, 4), (6, 4, 2), (1, 2, 3)]
)
def test_formula_matches_oracle(weights):
    params = WppParams(*weights)
    for r in range(-8, 9):
        quad, lin, _ = hilb_fit_oracle(params, r)
        top = hilb_top(params, r)
        assert (quad, lin) == (top.quad, top.lin), (weights, r)


def test_hilb_top_E_examples():
    p111 = WppParams(1, 1, 1)
    t = hilb_top_E(p111, GeneratingSheafSpec(1), 0)
    assert t == HilbTop(Fraction(1, 2), Fraction(3, 2))
    p112 = WppParams(1, 1, 2)
    t = hilb_top_E(p112, GeneratingSheafSpec(2), 0)
    assert t == HilbTop(Fraction(2), Fraction(5))
    p222 = WppParams(2, 2, 2)
    t = hilb_top_E(p222, GeneratingSheafSpec(2), 1)
    assert t == HilbTop(Fraction(1, 2), Fraction(5, 2))


@pytest.mark.parametrize("weights", [(1, 1, 2), (2, 2, 2), (2, 3, 4), (1, 2, 3)])
def test_hilb_top_E_additivity(weights):
    # the generating sheaf is a direct sum, so the coefficients add up
    # over the twists r+u (the dual twists point up)
    params = WppParams(*weights)
    for E in (params.m, 2 * params.m):
        spec = GeneratingSheafSpec(E)
        for r in (-4, 0, 3):
            total_quad = sum((hilb_top(params, r + u).quad for u in range(E)), Fraction(0))
            total_lin = sum((hilb_top(params, r + u).lin for u in range(E)), Fraction(0))
            t = hilb_top_E(params, spec, r)
            assert (t.quad, t.lin) == (total_quad, total_lin)


def test_hilb_top_E_of_kclass_is_representative_independent():
    params = WppParams(2, 2, 2)
    spec = GeneratingSheafSpec(2)
    # the defining relation has vanishing coefficients, so any lift of a
    # class gives the same answer; test on g^9 vs its canonical form
    k = kclass_from_laurent(params, {9: 1})
    direct = hilb_top_E(params, spec, -9)
    via_class = hilb_top_E_of_kclass(params, spec, k)
    assert (direct.quad, direct.lin) == (via_class.quad, via_class.lin)
    # point classes are 0-dimensional: top coefficients vanish
    pt = structure_sheaf_point(params, 2, 1)
    top = hilb_top_E_of_kclass(params, spec, pt)
    assert (top.quad, top.lin) == (0, 0)


def test_slope_examples():
    params = WppParams(1, 1, 1)
    spec = GeneratingSheafSpec(1)
    assert slope_mu(params, spec, Fraction(1, 2), Fraction(3, 2)) == 3
    assert slope_mu(params, spec, Fraction(1, 2), Fraction(3, 4)) == slope_mu(
        params, spec, Fraction(2), Fraction(3)
    )
    with pytest.raises(InvalidInputError):
        slope_mu(params, spec, Fraction(0), Fraction(1))


@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)])
def test_slope_difference_formula(weights):
    # mu(F) - mu(L1) = (D2 + D3 - D1)/m for the distinguished sub-line-bundles
    params = WppParams(*weights)
    a, b, c = params.weights()
    spec = GeneratingSheafSpec(params.m)
    for D in ((b, c, a), (2 * b, c, 2 * a), (3 * b, 2 * c, a)):
        total = sum(D)
        f_class = kclass_from_laurent(params, {0: 1, total: 1})
        f_top = hilb_top_E_of_kclass(params, spec, f_class)
        mu_f = slope_mu(params, spec, f_top.quad, f_top.lin)
        l1_top = hilb_top_E_of_kclass(params, spec, g_power(params, D[1] + D[2]))
        mu_l1 = slope_mu(params, spec, l1_top.quad, l1_top.lin)
        assert mu_f - mu_l1 == Fraction(D[1] + D[2] - D[0], params.m)


def test_rank2_constant_term_p2():
    params = WppParams(1, 1, 1)
    spec = GeneratingSheafSpec(1)
    assert rank2_constant_term(params, spec, -1, 0, 1, 1, 1) == 0
    # quadratic part + (3/2)c1 + 2 on the plane
    for c1, D in ((-1, (2, 2, 1)), (0, (2, 2, 2)), (-3, (1, 2, 2))):
        expected = (
            Fraction(c1 * c1, 4)
            + Fraction(sum(x * x for x in D), 4)
            - Fraction(D[0] * D[1] + D[1] * D[2] + D[2] * D[0], 2)
            + Fraction(3 * c1, 2) + 2
        )
        assert rank2_constant_term(params, spec, c1, 0, *D) == expected


def test_rank2_constant_term_112_display():
    # on (1,1,2) with E=2 the closed form collapses to
    # c1^2/4 + (5/2)c1 + 6 + sum D^2/4 - sum DD'/2
    params = WppParams(1, 1, 2)
    spec = GeneratingSheafSpec(2)
    value = rank2_constant_term(params, spec, -2, 0, 1, 2, 1)
    assert value == 1
    assert rank2_constant_term(params, spec, -2, 0, 1, 2, 3) == (
        Fraction(4, 4) + Fraction(5, 2) * (-2) + 6
        + Fraction(1 + 4 + 9, 4) - Fraction(2 + 6 + 3, 2)
    )


def test_rank2_constant_term_222_display():
    # on (2,2,2) with E=2, lam=0:
    # c1^2/16 + (3/4)c1 + 2 + sum D^2/16 - sum DD'/8
    params = WppParams(2, 2, 2)
    spec = GeneratingSheafSpec(2)
    for c1, D in ((-2, (2, 2, 2)), (0, (4, 2, 2)), (-4, (4, 4, 4))):
        got = rank2_constant_term(params, spec, c1, 0, *D)
        expected = (
            Fraction(c1 * c1, 16) + Fraction(3 * c1, 4) + 2
            + Fraction(sum(x * x for x in D), 16)
            - Fraction(D[0] * D[1] + D[1] * D[2] + D[2] * D[0], 8)
        )
        assert got == expected


def test_rank2_constant_term_guards():
    params = WppParams(1, 1, 2)
    spec = GeneratingSheafSpec(2)
    with pytest.raises(InvalidInputError):
        rank2_constant_term(params, spec, -2, 0, 1, 1, 1)  # c | D2 fails
    with pytest.raises(InvalidInputError):
        rank2_constant_term(params, spec, -1, 0, 1, 2, 1)  # parity fails


def _chi_of_class(params, kclass):
    return sum(c * chi_oracle(params, -e) for e, c in enumerate(kclass.coeffs) if c)


@pytest.mark.parametrize(
    "weights", [(1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 3, 3), (2, 2, 4), (1, 2, 3), (3, 3, 6)]
)
def test_rank2_constant_term_against_chi_oracle(weights):
    # independent route: the constant term is the alternating monomial
    # count of the class tensored with the dual generating sheaf pieces
    from wpptoric.kgroup import rank2_typeI_class
    from wpptoric.rank2 import STANDARD_POINTS
    from wpptoric.sheaf_model import TypeIBundle

    params = WppParams(*weights)
    a, b, c = params.weights()
    E = params.m
    spec = GeneratingSheafSpec(E)
    for d1 in range(b, 3 * b + 1, b):
        for d2 in range(c, 3 * c + 1, c):
            for d3 in range(a, 3 * a + 1, a):
                if not (d1 < d2 + d3 and d2 < d1 + d3 and d3 < d1 + d2):
                    continue
                total = d1 + d2 + d3
                for c1 in (-total, -total + 2, -total - 4):
                    A = -(c1 + total) // 2
                    datum = TypeIBundle(0, 0, A, d1, d2, d3, *STANDARD_POINTS)
                    kclass = rank2_typeI_class(params, datum)
                    oracle = sum(
                        _chi_of_class(params, kclass * g_power(params, -u))
                        for u in range(E)
                    )
                    formula = rank2_constant_term(params, spec, c1, A % params.d, d1, d2, d3)
                    assert formula == oracle, (weights, (d1, d2, d3), c1)


def test_vanishing_forces_zero_oracle():
    params = WppParams(2, 2, 4)
    for r in (1, 3, -5):
        assert hilb_top(params, r) == HilbTop(Fraction(0), Fraction(0))
        for t in range(6):
            assert chi_oracle(params, r + params.m * t) == 0
