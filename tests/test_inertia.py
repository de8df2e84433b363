from fractions import Fraction
from itertools import product

import pytest

from wpptoric.errors import InvalidInputError
from wpptoric.exact_arith import Cyclotomic, zeta_pow
from wpptoric.inertia import ChernVector, Sector, sectors, tch_of_kclass, tch_rank2_closed_form
from wpptoric.kgroup import (
    WppParams,
    g_power,
    kclass_from_laurent,
    kclass_scalar,
    rank2_typeI_class,
)


def tch_oracle(kclass):
    """The character by multiplying out truncated powers of the image of g.

    Every coefficient lives in the order-lcm(a,b,c) field: g maps to
    zeta_m^(-fm) (1 - x + x^2/2) on the sector f, and the powers g^e are
    built one multiplication at a time.
    """
    params = kclass.params
    m = params.m
    out = {}
    for sector in sectors(params):
        length = sector.dim + 1
        omega = zeta_pow(m, -sector.f.numerator * (m // sector.f.denominator))
        image_g = [omega * c for c in (1, -1, Fraction(1, 2))[:length]]
        power = [Cyclotomic(m, [1])] + [Cyclotomic(m, [])] * (length - 1)
        acc = [Cyclotomic(m, [])] * length
        for coeff in kclass.coeffs:
            acc = [acc[i] + coeff * power[i] for i in range(length)]
            power = [
                sum((power[i] * image_g[k - i] for i in range(k + 1)), Cyclotomic(m, []))
                for k in range(length)
            ]
        out[sector] = acc
    return out


def _assert_matches_oracle(kclass):
    m = kclass.params.m
    chern = tch_of_kclass(kclass)
    expected = tch_oracle(kclass)
    assert set(chern.entries) == set(expected)
    for sector, coeffs in chern.entries.items():
        assert all(c.order == sector.f.denominator for c in coeffs), sector
        assert [c.embed(m).coeffs for c in coeffs] == [c.coeffs for c in expected[sector]]


P1 = (Fraction(1), Fraction(0))
P2 = (Fraction(0), Fraction(1))
P3 = (Fraction(1), Fraction(1))


class FakeTypeI:
    def __init__(self, A, D, points=(P1, P2, P3)):
        self.A1, self.A2, self.A3 = A
        self.D1, self.D2, self.D3 = D
        self.p1, self.p2, self.p3 = points


def test_sectors_small_cases():
    assert [(s.f, s.kind) for s in sectors(WppParams(1, 1, 1))] == [(Fraction(0), "2dim")]
    s112 = sectors(WppParams(1, 1, 2))
    assert [(s.f, s.kind, s.which) for s in s112] == [
        (Fraction(0), "2dim", ()),
        (Fraction(1, 2), "0dim", (3,)),
    ]
    s222 = sectors(WppParams(2, 2, 2))
    assert [(s.f, s.kind) for s in s222] == [(Fraction(0), "2dim"), (Fraction(1, 2), "2dim")]
    s122 = sectors(WppParams(1, 2, 2))
    assert [(s.f, s.kind, s.which) for s in s122] == [
        (Fraction(0), "2dim", ()),
        (Fraction(1, 2), "1dim", (2, 3)),
    ]


@pytest.mark.parametrize(
    "weights", [(1, 1, 1), (1, 1, 2), (2, 2, 2), (2, 3, 4), (4, 4, 4), (2, 4, 6), (3, 3, 3)]
)
def test_sector_partition_is_disjoint_and_complete(weights):
    params = WppParams(*weights)
    out = sectors(params)
    fs = [s.f for s in out]
    assert len(set(fs)) == len(fs)  # pairwise disjoint index sets
    # every l/hat(i) appears in exactly one sector class
    for i in (1, 2, 3):
        for l in range(params.hat(i)):
            f = Fraction(l, params.hat(i))
            assert any(s.f == f for s in out)
    # counts: d two-dim, (dij - d) per pair
    assert sum(1 for s in out if s.kind == "2dim") == params.d
    for pair, dij in (((1, 2), params.d12), ((1, 3), params.d13), ((2, 3), params.d23)):
        assert sum(1 for s in out if s.which == pair) == dij - params.d


def test_tch_of_identity_and_g():
    p111 = WppParams(1, 1, 1)
    one = tch_of_kclass(kclass_scalar(p111, 1))
    sector = sectors(p111)[0]
    assert one.entries[sector][0] == 1
    assert one.entries[sector][1] == 0 and one.entries[sector][2] == 0
    g = tch_of_kclass(g_power(p111, 1))
    assert [c for c in g.entries[sector]] == [1, -1, Fraction(1, 2)]

    p112 = WppParams(1, 1, 2)
    g = tch_of_kclass(g_power(p112, 1))
    zero_dim = sectors(p112)[1]
    assert g.entries[zero_dim][0] == -1


def test_tch_multiplicativity():
    params = WppParams(2, 3, 4)
    k1 = kclass_from_laurent(params, {0: 1, 2: -3, 5: Fraction(1, 2)})
    k2 = kclass_from_laurent(params, {1: 2, -3: 1})
    lhs = tch_of_kclass(k1 * k2)
    t1, t2 = tch_of_kclass(k1), tch_of_kclass(k2)
    for sector in sectors(params):
        n = sector.dim + 1
        a, b = t1.entries[sector], t2.entries[sector]
        prod = [Cyclotomic.from_rational(0) for _ in range(n)]
        for i in range(n):
            for j in range(n - i):
                prod[i + j] = prod[i + j] + a[i] * b[j]
        assert all(prod[i] == lhs.entries[sector][i] for i in range(n))


def test_tch_ring_map_kills_relation():
    # (1-g^a)(1-g^b)(1-g^c) reduces to zero, so its character vanishes
    for weights in ((2, 2, 2), (1, 2, 2), (2, 2, 4)):
        params = WppParams(*weights)
        zero = tch_of_kclass(kclass_scalar(params, 0))
        one = kclass_scalar(params, 1)
        rel = (one - g_power(params, params.a)) * (one - g_power(params, params.b)) * (
            one - g_power(params, params.c))
        assert tch_of_kclass(rel) == zero


def test_closed_form_first_display_entries():
    params = WppParams(1, 1, 1)
    datum = FakeTypeI((0, 0, -1), (2, 1, 1))
    chv = tch_rank2_closed_form(params, datum)
    sector = sectors(params)[0]
    A, sum_d = -1, 4
    assert chv.codegree(sector, 2) == 2
    assert chv.codegree(sector, 1) == -(2 * A + sum_d)
    assert chv.codegree(sector, 0) == A * A + sum_d * A + Fraction(4 + 1 + 1, 2)


def test_closed_form_zero_dim_sector_112():
    params = WppParams(1, 1, 2)
    datum = FakeTypeI((0, 0, 3), (1, 2, 1))
    chv = tch_rank2_closed_form(params, datum)
    zd = sectors(params)[1]
    # (-1)^A ((-1)^D1 + (-1)^D3)
    assert chv.entries[zd][0] == -((-1) ** 1 + (-1) ** 1)


def test_closed_form_guards():
    params = WppParams(1, 1, 2)
    with pytest.raises(InvalidInputError):
        tch_rank2_closed_form(params, FakeTypeI((0, 0, 0), (1, 1, 1)))  # c | D2
    with pytest.raises(InvalidInputError):
        tch_rank2_closed_form(params, FakeTypeI((1, 0, 0), (1, 2, 1)))  # A1 != 0
    with pytest.raises(InvalidInputError):
        tch_rank2_closed_form(params, FakeTypeI((0, 0, 0), (1, 2, 1), (P1, P1, P3)))


def _admissible_data(params, dmax, a_values):
    a, b, c = params.weights()
    for d1 in range(b, dmax + 1, b):
        for d2 in range(c, dmax + 1, c):
            for d3 in range(a, dmax + 1, a):
                for A in a_values:
                    yield FakeTypeI((0, 0, A), (d1, d2, d3))


@pytest.mark.parametrize(
    "weights", [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3), (2, 2, 4),
                (1, 1, 3), (3, 3, 3), (2, 3, 4), (1, 3, 4), (2, 4, 4), (4, 4, 4)]
)
def test_closed_form_matches_kclass_route(weights):
    # the central consistency theorem: the ring-map character of the
    # rank-2 K-class equals the closed form, sector by sector
    params = WppParams(*weights)
    for datum in _admissible_data(params, 8, (-2, -1, 0, 1, 3)):
        direct = tch_of_kclass(rank2_typeI_class(params, datum))
        closed = tch_rank2_closed_form(params, datum)
        assert direct == closed, (weights, (datum.D1, datum.D2, datum.D3), datum.A3)


CHERN_ORACLE_WEIGHTS = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3),
                        (2, 2, 4), (3, 3, 3), (2, 3, 4), (2, 4, 6), (2, 3, 5)]


@pytest.mark.parametrize("weights", CHERN_ORACLE_WEIGHTS)
def test_tch_matches_power_table_oracle(weights):
    params = WppParams(*weights)
    for terms in ({0: 1}, {1: 1}, {-4: 2, 3: Fraction(-1, 3)}, {7: 1, 11: -2, -13: 5}):
        _assert_matches_oracle(kclass_from_laurent(params, terms))


def test_tch_matches_power_table_oracle_on_rank2_classes():
    # the weights and a spread of the data of the acceptance check of the
    # rank-2 closed form
    for weights in product((1, 2, 3, 4), repeat=3):
        params = WppParams(*weights)
        a, b, c = weights
        for A, widths in ((-2, (b, c, a)), (3, (2 * b, c, 2 * a)), (0, (b, 2 * c, 3 * a))):
            _assert_matches_oracle(rank2_typeI_class(params, FakeTypeI((0, 0, A), widths)))


def test_chern_vector_coerces_to_sector_order():
    params = WppParams(2, 2, 4)
    entries = {}
    for sector in sectors(params):
        entries[sector] = [zeta_pow(1, 0)] + [Fraction(1, 2)] * sector.dim
    chern = ChernVector(params, entries)
    for sector, coeffs in chern.entries.items():
        assert all(c.order == sector.f.denominator for c in coeffs)
    with pytest.raises(InvalidInputError):
        ChernVector(params, {sectors(params)[0]: [zeta_pow(4, 1), 0, 0]})
