import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import gcd, lcm

import pytest

from closed_forms import hilb_top_E_of_kclass
from cyclotomic_field import field, inverse, zeta
from point_relations import structure_sheaf_point
from wpptoric.errors import InvalidInputError
from wpptoric.hilbert import (
    HilbTop,
    _psi_sum,
    _root_sum,
    chi_oracle,
    hilb_fit_oracle,
    hilb_lin_numerator,
    hilb_top,
    hilb_top_E,
    hilb_top_from_sums,
    lin_numerator_window,
    psi_E,
    rank2_constant_term,
)
from wpptoric.kgroup import (
    KClass,
    WppParams,
    g_power,
    kclass_from_laurent,
)


# ---------------------------------------------------------------------------
# reference oracles: the character sums evaluated term by term in Q(zeta_n)
# ---------------------------------------------------------------------------

def phi_E(E, x):
    """x + 2x^2 + ... + (E-1)x^(E-1), evaluated exactly."""
    x = field(x)
    total = field(0)
    power = field(1)
    for u in range(1, E):
        power = power * x
        total = total + u * power
    return total


@lru_cache(maxsize=None)
def _phi_E_at_root(E, n, k):
    return phi_E(E, zeta(n, k))


@lru_cache(maxsize=None)
def _inv_one_minus_root(n, k):
    """1/(1 - zeta_n^k), by extended Euclid in Q(zeta_n)."""
    return inverse(1 - zeta(n, k))


def psi_E_oracle(E, m1, m2, m3, n):
    """psi_E summed over k in Q(zeta_n), with one field inverse per term."""
    excluder = n // gcd(m1, n)
    total = field(0)
    for k in range(1, n):
        if k % excluder == 0:
            continue
        numer = (1 + zeta(n, -k * m2)) * zeta(n, -k * m3) * _phi_E_at_root(E, n, k)
        total = total + numer * _inv_one_minus_root(n, -k * m1 % n)
    value = total.as_rational()
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
        total = field(0)
        for h in range(1, dij):
            if h % (dij // d) == 0:
                continue
            total = total + zeta(dij, -h * r) * _inv_one_minus_root(dij, h * khat % dij)
        value = total.as_rational()
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


def _max_pair_gcd(weights):
    a, b, c = weights
    return max(gcd(a, b), gcd(a, c), gcd(b, c))


def test_hilb_top_matches_cyclotomic_oracle_large_pair_gcds():
    # pair sums of length 6..12, where the common denominator of the
    # linear term is largest; twists -15..15 as in the rr-sweep bench
    pool = [w for w in combinations_with_replacement(range(1, 37), 3)
            if 6 <= _max_pair_gcd(w) <= 12]
    for weights in random.Random(4).sample(pool, 40):
        params = WppParams(*weights)
        for r in range(-15, 16):
            top = hilb_top(params, r)
            assert (top.quad, top.lin) == hilb_top_oracle(params, r), (weights, r)


def lin_numerator_per_twist(params, r):
    """hilb_lin_numerator with each pair sum recomputed from the twist r itself."""
    a, b, c = params.weights()
    d = params.d
    if r % d:
        return 0
    gcd_product = params.d12 * params.d13 * params.d23
    lin = (2 * r + a + b + c) * d * gcd_product
    for dij, khat in ((params.d12, c), (params.d13, b), (params.d23, a)):
        total = sum(j * _root_sum(dij, dij // d, khat * j - r) for j in range(dij))
        lin -= 2 * khat * (gcd_product // dij) * total
    return lin


def test_lin_numerator_matches_per_twist_formula():
    # every sorted weight triple up to 12 and the pair-gcd-heavy bench
    # triples, over six periods of twists: the pair sums are cached by
    # residue, the oracle recomputes them for every r
    triples = list(combinations_with_replacement(range(1, 13), 3))
    for weights in triples + [(4, 12, 22), (6, 20, 24)]:
        params = WppParams(*weights)
        m = params.m
        for r in range(-3 * m, 3 * m + 1):
            assert hilb_lin_numerator(params, r) == lin_numerator_per_twist(params, r), (
                weights, r)


def lin_numerator_window_per_twist(params, r, E):
    """`lin_numerator_window` one twist at a time: the u < E with d | r+u."""
    count = lin_sum = 0
    for u in range(E):
        if (r + u) % params.d == 0:
            count += 1
            lin_sum += hilb_lin_numerator(params, r + u)
    return count, lin_sum


def test_lin_numerator_window_matches_per_twist_loop():
    # one period of twists and B = E/P copies of its drift against every
    # numerator of the window, for E = P, m, 2m, 3m
    for weights in combinations_with_replacement(range(1, 9), 3):
        params = WppParams(*weights)
        period = lcm(params.d12, params.d13, params.d23)
        for E in (period, params.m, 2 * params.m, 3 * params.m):
            for r in range(-12, 13):
                assert lin_numerator_window(params, r, E) == (
                    lin_numerator_window_per_twist(params, r, E)), (weights, r, E)


def test_lin_numerator_window_needs_the_rule_of_hilb_top_E():
    params = WppParams(2, 4, 6)  # pairwise gcds 2, 2, 2
    with pytest.raises(InvalidInputError):
        lin_numerator_window(params, 0, 3)
    with pytest.raises(InvalidInputError):
        lin_numerator_window(params, 0, 0)


def test_hilb_top_from_sums_adds_twists():
    params = WppParams(4, 12, 22)
    twists = [r for r in range(-20, 21) if r % params.d == 0]
    tops = [hilb_top(params, r) for r in twists]
    total = hilb_top_from_sums(
        params, len(twists), sum(hilb_lin_numerator(params, r) for r in twists))
    assert total.quad == sum(t.quad for t in tops)
    assert total.lin == sum(t.lin for t in tops)


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
    assert phi_E(1, zeta(3, 1)) == 0
    assert phi_E(2, Fraction(-1)) == -1
    assert phi_E(4, zeta(2, 1)) == -2


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


def fit_oracle_lagrange(params, r):
    """The quadratic through chi(O(r + mt)), t = 0, 1, 2, fitted in `Fraction`s."""
    m = params.m
    y0, y1, y2 = (Fraction(chi_oracle(params, r + m * t)) for t in range(3))
    quad = (y2 - 2 * y1 + y0) / 2
    lin = y1 - y0 - quad
    return (quad, lin, y0)


def test_integer_fit_matches_fraction_fit():
    for weights in combinations_with_replacement(range(1, 7), 3):
        params = WppParams(*weights)
        for r in range(-20, 21):
            assert hilb_fit_oracle(params, r) == fit_oracle_lagrange(params, r), (weights, r)


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
    t = hilb_top_E(p111, 1, 0)
    assert t == HilbTop(Fraction(1, 2), Fraction(3, 2))
    p112 = WppParams(1, 1, 2)
    t = hilb_top_E(p112, 2, 0)
    assert t == HilbTop(Fraction(2), Fraction(5))
    p222 = WppParams(2, 2, 2)
    t = hilb_top_E(p222, 2, 1)
    assert t == HilbTop(Fraction(1, 2), Fraction(5, 2))


@pytest.mark.parametrize("weights", [(1, 1, 2), (2, 2, 2), (2, 3, 4), (1, 2, 3)])
def test_hilb_top_E_additivity(weights):
    # the generating sheaf is a direct sum, so the coefficients add up
    # over the twists r+u (the dual twists point up)
    params = WppParams(*weights)
    for E in (params.m, 2 * params.m):
        for r in (-4, 0, 3):
            total_quad = sum((hilb_top(params, r + u).quad for u in range(E)), Fraction(0))
            total_lin = sum((hilb_top(params, r + u).lin for u in range(E)), Fraction(0))
            t = hilb_top_E(params, E, r)
            assert (t.quad, t.lin) == (total_quad, total_lin)


def test_hilb_top_E_of_kclass_is_representative_independent():
    params = WppParams(2, 2, 2)
    E = 2
    # the defining relation has vanishing coefficients, so any lift of a
    # class gives the same answer; test on g^9 vs its canonical form
    k = kclass_from_laurent(params, {9: 1})
    direct = hilb_top_E(params, E, -9)
    via_class = hilb_top_E_of_kclass(params, E, k)
    assert (direct.quad, direct.lin) == (via_class.quad, via_class.lin)
    # point classes are 0-dimensional: top coefficients vanish
    pt = structure_sheaf_point(params, 2, 1)
    top = hilb_top_E_of_kclass(params, E, pt)
    assert (top.quad, top.lin) == (0, 0)


def hilb_top_E_oracle(params, E, r):
    """hilb_top_E summed over the u < E one twist at a time."""
    a, b, c = params.weights()
    abc = a * b * c
    lin = Fraction(0)
    for u in range(E):
        if (r + u) % params.d == 0:
            lin += Fraction((2 * r + 2 * u + a + b + c) * params.m * params.d, 2 * abc)
    return HilbTop(Fraction(E * params.m * params.m, 2 * abc), lin)


def test_hilb_top_E_matches_termwise_oracle():
    for weights in combinations_with_replacement(range(1, 7), 3):
        params = WppParams(*weights)
        for E in (params.m, 2 * params.m, 3 * params.m):
            for r in range(-20, 21):
                assert hilb_top_E(params, E, r) == hilb_top_E_oracle(params, E, r), (
                    weights, E, r)


def test_hilb_top_E_of_kclass_matches_termwise_sum():
    rng = random.Random(5)
    for weights in ((1, 1, 1), (1, 1, 2), (2, 2, 2), (2, 3, 4), (1, 3, 3), (4, 6, 6)):
        params = WppParams(*weights)
        E = params.m
        for _ in range(20):
            # a class holds integer coefficients: small ones and a wider band
            coeffs = [rng.choice((0, rng.randint(-5, 5), rng.randint(-15, 15)))
                      for _ in range(params.degree)]
            kclass = KClass(params, coeffs)
            quad = sum((c * hilb_top_E(params, E, -e).quad
                        for e, c in enumerate(kclass.coeffs)), Fraction(0))
            lin = sum((c * hilb_top_E(params, E, -e).lin
                       for e, c in enumerate(kclass.coeffs)), Fraction(0))
            assert hilb_top_E_of_kclass(params, E, kclass) == HilbTop(quad, lin)


@pytest.mark.parametrize("E", [0, -1, -2])
def test_hilb_top_E_needs_positive_E(E):
    with pytest.raises(InvalidInputError):
        hilb_top_E(WppParams(1, 1, 1), E, 0)
    with pytest.raises(InvalidInputError):
        hilb_top_E_of_kclass(WppParams(1, 1, 1), E, KClass(WppParams(1, 1, 1), [1, 0, 0]))


def slope_mu(params, E, quad, lin):
    """Modified slope lin/quad in `Fraction`s, the reference for the
    integer slope comparison of `rank2.slope_oracle_stability`."""
    if quad == 0:
        raise InvalidInputError("slope needs a 2-dimensional sheaf (quad != 0)")
    return Fraction(lin) / Fraction(quad)


def test_slope_examples():
    params = WppParams(1, 1, 1)
    E = 1
    assert slope_mu(params, E, Fraction(1, 2), Fraction(3, 2)) == 3
    assert slope_mu(params, E, Fraction(1, 2), Fraction(3, 4)) == slope_mu(
        params, E, Fraction(2), Fraction(3)
    )
    with pytest.raises(InvalidInputError):
        slope_mu(params, E, Fraction(0), Fraction(1))


@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2)])
def test_slope_difference_formula(weights):
    # mu(F) - mu(L1) = (D2 + D3 - D1)/m for the distinguished sub-line-bundles
    params = WppParams(*weights)
    a, b, c = params.weights()
    E = params.m
    for D in ((b, c, a), (2 * b, c, 2 * a), (3 * b, 2 * c, a)):
        total = sum(D)
        f_class = kclass_from_laurent(params, {0: 1, total: 1})
        f_top = hilb_top_E_of_kclass(params, E, f_class)
        mu_f = slope_mu(params, E, f_top.quad, f_top.lin)
        l1_top = hilb_top_E_of_kclass(params, E, g_power(params, D[1] + D[2]))
        mu_l1 = slope_mu(params, E, l1_top.quad, l1_top.lin)
        assert mu_f - mu_l1 == Fraction(D[1] + D[2] - D[0], params.m)


def _twist(c1, D):
    """The twist A of a type-I datum with first Chern class c1 and widths D."""
    return -(c1 + sum(D)) // 2


def test_rank2_constant_term_p2():
    params = WppParams(1, 1, 1)
    assert rank2_constant_term(params, 1, -1, 1, 1, 1) == 0
    # quadratic part + (3/2)c1 + 2 on the plane
    for c1, D in ((-1, (2, 2, 1)), (0, (2, 2, 2)), (-3, (1, 2, 2))):
        expected = (
            Fraction(c1 * c1, 4)
            + Fraction(sum(x * x for x in D), 4)
            - Fraction(D[0] * D[1] + D[1] * D[2] + D[2] * D[0], 2)
            + Fraction(3 * c1, 2) + 2
        )
        assert rank2_constant_term(params, 1, _twist(c1, D), *D) == expected


def test_rank2_constant_term_112_display():
    # on (1,1,2) with E=2 the closed form collapses to
    # c1^2/4 + (5/2)c1 + 6 + sum D^2/4 - sum DD'/2
    params = WppParams(1, 1, 2)
    value = rank2_constant_term(params, 2, _twist(-2, (1, 2, 1)), 1, 2, 1)
    assert value == 1
    assert rank2_constant_term(params, 2, _twist(-2, (1, 2, 3)), 1, 2, 3) == (
        Fraction(4, 4) + Fraction(5, 2) * (-2) + 6
        + Fraction(1 + 4 + 9, 4) - Fraction(2 + 6 + 3, 2)
    )


def test_rank2_constant_term_222_display():
    # on (2,2,2) with E=2, lam=0:
    # c1^2/16 + (3/4)c1 + 2 + sum D^2/16 - sum DD'/8
    params = WppParams(2, 2, 2)
    for c1, D in ((-2, (2, 2, 2)), (0, (4, 2, 2)), (-4, (4, 4, 4))):
        assert _twist(c1, D) % params.d == 0  # lam = 0
        got = rank2_constant_term(params, 2, _twist(c1, D), *D)
        expected = (
            Fraction(c1 * c1, 16) + Fraction(3 * c1, 4) + 2
            + Fraction(sum(x * x for x in D), 16)
            - Fraction(D[0] * D[1] + D[1] * D[2] + D[2] * D[0], 8)
        )
        assert got == expected


def test_rank2_constant_term_guards():
    # the twist A is an input, so an odd c1 + D1 + D2 + D3 cannot be passed
    params = WppParams(1, 1, 2)
    with pytest.raises(InvalidInputError):
        rank2_constant_term(params, 2, -2, 1, 1, 1)  # c | D2 fails
    with pytest.raises(InvalidInputError):
        rank2_constant_term(params, 3, -2, 1, 2, 1)  # lcm(a,b,c) = 2 does not divide E
    # hilb_top_E needs only the pairwise gcds to divide E: 2 on P(2,2,3), where m = 6
    assert hilb_top_E(WppParams(2, 2, 3), 2, 1) == hilb_top_E_oracle(WppParams(2, 2, 3), 2, 1)


def width_free_bracket_oracle(params, E, c1, Ad):
    """The width-free bracket terms summed in `Fraction`s."""
    a, b, c = params.weights()
    d = params.d
    s = a + b + c
    return (
        Fraction(c1 * c1, 4)
        + Fraction(s * c1, 2)
        + Fraction(a * a + b * b + c * c, 6)
        + Fraction(a * b + b * c + c * a, 2)
        + (c1 + s + E - d) * Ad
        + Fraction((c1 + s) * (E - d), 2)
        + Ad * Ad
        + Fraction(E * E, 3)
        - Fraction(E * d, 2)
        + Fraction(d * d, 6)
    )


def rank2_constant_term_oracle(params, E, c1, D1, D2, D3):
    """The rank-2 constant term as a sum of `Fraction` terms, psi_E included."""
    a, b, c = params.weights()
    A = -(c1 + D1 + D2 + D3) // 2
    bracket = (
        width_free_bracket_oracle(params, E, c1, A % params.d)
        + Fraction(D1 * D1 + D2 * D2 + D3 * D3, 4)
        - Fraction(D1 * D2 + D2 * D3 + D3 * D1, 2)
    )
    value = Fraction(E, a * b * c) * bracket
    value += Fraction(1, a * b) * psi_E(E, c, D2, A, params.d12)
    value += Fraction(1, a * c) * psi_E(E, b, D1, A, params.d13)
    value += Fraction(1, b * c) * psi_E(E, a, D3, A, params.d23)
    return value


def test_rank2_constant_term_matches_fraction_oracle():
    for weights in combinations_with_replacement(range(1, 7), 3):
        params = WppParams(*weights)
        a, b, c = weights
        for E in (params.m, 2 * params.m):
            for c1 in range(-3, 4):
                for d1 in range(b, 24, b):
                    for d2 in range(c, 24 - d1, c):
                        for d3 in range(a, 25 - d1 - d2, a):
                            if (c1 + d1 + d2 + d3) % 2:
                                continue
                            if not (d1 < d2 + d3 and d2 < d1 + d3 and d3 < d1 + d2):
                                continue
                            A = _twist(c1, (d1, d2, d3))
                            value = rank2_constant_term(params, E, A, d1, d2, d3)
                            assert type(value) is int
                            assert value == rank2_constant_term_oracle(
                                params, E, c1, d1, d2, d3), (weights, E, c1, (d1, d2, d3))


def test_psi_sum_depends_on_residues_only():
    # the cache is keyed on residues; the sum itself must not see the lift
    for n in (1, 2, 3, 4, 6):
        for m1, m2, m3 in ((1, 0, 0), (2, 1, 3), (5, -1, -7)):
            lifted = psi_E(n, m1 + 3 * n, m2 - 2 * n, m3 + 5 * n, n)
            assert lifted == Fraction(-n * _psi_sum(n, m1 % n, m2 % n, m3 % n), n * n)
            assert lifted == psi_E_oracle(n, m1, m2, m3, n)


def _chi_of_class(params, kclass):
    return sum(c * chi_oracle(params, -e) for e, c in enumerate(kclass.coeffs) if c)


@pytest.mark.parametrize(
    "weights", [(1, 1, 1), (1, 2, 2), (1, 3, 3), (2, 3, 3), (2, 2, 4), (1, 2, 3), (3, 3, 6)]
)
def test_rank2_constant_term_against_chi_oracle(weights):
    # independent route: the constant term is the alternating monomial
    # count of the class tensored with the dual generating sheaf pieces
    from wpptoric.kgroup import rank2_typeI_class
    from wpptoric.sheaf_model import STANDARD_POINTS, TypeIBundle

    params = WppParams(*weights)
    a, b, c = params.weights()
    E = params.m
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
                    formula = rank2_constant_term(params, E, A, d1, d2, d3)
                    assert formula == oracle, (weights, (d1, d2, d3), c1)


def test_vanishing_forces_zero_oracle():
    params = WppParams(2, 2, 4)
    for r in (1, 3, -5):
        assert hilb_top(params, r) == HilbTop(Fraction(0), Fraction(0))
        for t in range(6):
            assert chi_oracle(params, r + params.m * t) == 0
