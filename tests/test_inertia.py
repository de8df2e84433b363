import random
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclotomic_field import Cyc, field, poly_mod, zeta
from wpptoric.errors import InvalidInputError
from wpptoric.exact_arith import cyclotomic_poly
from wpptoric.inertia import ChernVector, Sector, sectors, tch_of_kclass, tch_rank2_closed_form
from wpptoric.kgroup import (
    WppParams,
    g_power,
    kclass_from_laurent,
    kclass_scalar,
    rank1_class,
    rank2_typeI_class,
)
from wpptoric.partitions import Partition
from wpptoric.sheaf_model import TypeIBundle


KIND_RANK = {"2dim": 0, "1dim": 1, "0dim": 2}


def sectors_by_sets(params):
    """The sectors by subtracting index sets, sorted by (f, kind, which).

    The 2-dimensional ones are the multiples of 1/d, the 1-dimensional
    ones on a pair the multiples of 1/d_ij not already counted, and the
    0-dimensional ones on a weight the multiples of 1/w_i counted on no
    sector through it; `sectors` classifies each l/w_i by its order.
    """
    d = params.d
    two = {Fraction(l, d) for l in range(d)}
    pair_gcds = {(1, 2): params.d12, (1, 3): params.d13, (2, 3): params.d23}
    one = {}
    for pair, dij in pair_gcds.items():
        one[pair] = {Fraction(l, dij) for l in range(dij)} - two
    zero = {}
    for i in (1, 2, 3):
        used = set(two).union(*(fs for pair, fs in one.items() if i in pair))
        w = params.chart(i)[0]
        zero[i] = {Fraction(l, w) for l in range(w)} - used
    out = [Sector(f, "2dim", (), 2) for f in two]
    for pair, fs in one.items():
        out.extend(Sector(f, "1dim", pair, 1) for f in fs)
    for i, fs in zero.items():
        out.extend(Sector(f, "0dim", (i,), 0) for f in fs)
    return tuple(sorted(out, key=lambda s: (s.f, KIND_RANK[s.kind], s.which)))


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
        omega = zeta(m, -sector.f.numerator * (m // sector.f.denominator))
        image_g = [omega * c for c in (1, -1, Fraction(1, 2))[:length]]
        power = [Cyc(m, [1])] + [Cyc(m, [])] * (length - 1)
        acc = [Cyc(m, [])] * length
        for coeff in kclass.coeffs:
            acc = [acc[i] + coeff * power[i] for i in range(length)]
            power = [
                sum((power[i] * image_g[k - i] for i in range(k + 1)), Cyc(m, []))
                for k in range(length)
            ]
        out[sector] = acc
    return out


def tch_fraction_fold(kclass):
    """The character by a Fraction fold, reduced modulo Phi_n by division.

    The degree-k coefficient on the sector f = p/n is the vector
    sum_e c_e (-e)^k / k! at the exponents -p e mod n, reduced by
    `poly_mod`, as an element of the tests' field; the fast path folds
    the same sums in integers.
    """
    params = kclass.params
    entries = {}
    for sector in sectors(params):
        n, p = sector.f.denominator, sector.f.numerator
        entry = []
        for k in range(sector.dim + 1):
            folded = [Fraction(0)] * n
            for e, coeff in enumerate(kclass.coeffs):
                if coeff:
                    folded[-p * e % n] += coeff * (-e) ** k
            folded = [x / factorial(k) for x in folded]
            entry.append(Cyc(n, poly_mod(folded, list(cyclotomic_poly(n)))))
        entries[sector] = entry
    return entries


def in_field(chern):
    """The entries of a ChernVector as elements of the tests' field, by sector."""
    return {sector: [field(c) for c in coeffs]
            for sector, coeffs in zip(sectors(chern.params), chern.entries, strict=True)}


def field_records(params, entries):
    """`ChernVector.to_records` of entries in the tests' field, each at its own order."""
    return [
        {
            "f": [sector.f.numerator, sector.f.denominator],
            "kind": sector.kind,
            "which": list(sector.which),
            "coeffs": [[c.order, [[x.numerator, x.denominator] for x in c.coords]]
                       for c in entries[sector]],
        }
        for sector in sectors(params)
    ]


def fraction_records(chern):
    """`ChernVector.to_records` through `Fraction`s, over the sectors built by sets.

    Each coordinate is read back from `Cyclotomic.coeffs`, the value as a
    `Fraction` in lowest terms; the writer takes the same numbers straight
    from the integer numerators and the one denominator.
    """
    return [
        {
            "f": [sector.f.numerator, sector.f.denominator],
            "kind": sector.kind,
            "which": list(sector.which),
            "coeffs": [[c.order, [[x.numerator, x.denominator] for x in c.coeffs]]
                       for c in entry],
        }
        for sector, entry in zip(sectors_by_sets(chern.params), chern.entries, strict=True)
    ]


def lcm_records(chern):
    """`ChernVector.to_records` as it was: every entry in the order-lcm(a,b,c) field."""
    m = chern.params.m
    return field_records(chern.params, {sector: [c.embed(m) for c in coeffs]
                                        for sector, coeffs in in_field(chern).items()})


def _assert_matches_oracle(kclass):
    m = kclass.params.m
    chern = tch_of_kclass(kclass)
    expected = tch_oracle(kclass)
    for (sector, want), coeffs in zip(expected.items(), chern.entries, strict=True):
        assert all(c.order == sector.f.denominator for c in coeffs), sector
        assert [field(c).embed(m).coords for c in coeffs] == [c.coords for c in want]


P1 = (Fraction(1), Fraction(0))
P2 = (Fraction(0), Fraction(1))
P3 = (Fraction(1), Fraction(1))


def type_i(A, D, points=(P1, P2, P3)):
    return TypeIBundle(*A, *D, *points)


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
    # every l/w_i appears in exactly one sector class
    for i in (1, 2, 3):
        for l in range(params.chart(i)[0]):
            f = Fraction(l, params.chart(i)[0])
            assert any(s.f == f for s in out)
    # counts: d two-dim, (dij - d) per pair
    assert sum(1 for s in out if s.kind == "2dim") == params.d
    for pair, dij in (((1, 2), params.d12), ((1, 3), params.d13), ((2, 3), params.d23)):
        assert sum(1 for s in out if s.which == pair) == dij - params.d


def test_tch_of_identity_and_g():
    p111 = WppParams(1, 1, 1)
    one = in_field(tch_of_kclass(kclass_scalar(p111, 1)))
    sector = sectors(p111)[0]
    assert one[sector] == [1, 0, 0]
    g = in_field(tch_of_kclass(g_power(p111, 1)))
    assert g[sector] == [1, -1, Fraction(1, 2)]

    p112 = WppParams(1, 1, 2)
    g = in_field(tch_of_kclass(g_power(p112, 1)))
    zero_dim = sectors(p112)[1]
    assert g[zero_dim] == [-1]


def test_tch_multiplicativity():
    params = WppParams(2, 3, 4)
    k1 = kclass_from_laurent(params, {0: 1, 2: -3, 5: 7})
    k2 = kclass_from_laurent(params, {1: 2, -3: 1})
    lhs = in_field(tch_of_kclass(k1 * k2))
    t1, t2 = in_field(tch_of_kclass(k1)), in_field(tch_of_kclass(k2))
    for sector in sectors(params):
        n = sector.dim + 1
        a, b = t1[sector], t2[sector]
        prod = [field(0) for _ in range(n)]
        for i in range(n):
            for j in range(n - i):
                prod[i + j] = prod[i + j] + a[i] * b[j]
        assert prod == lhs[sector]


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
    datum = type_i((0, 0, -1), (2, 1, 1))
    chv = tch_rank2_closed_form(params, datum)
    sector = sectors(params)[0]
    A, sum_d = -1, 4
    assert sector.dim == 2  # codegree k is the degree 2 - k coefficient
    codegree2, codegree1, codegree0 = chv.entries[0]
    assert field(codegree2) == 2
    assert field(codegree1) == -(2 * A + sum_d)
    assert field(codegree0) == A * A + sum_d * A + Fraction(4 + 1 + 1, 2)


def test_closed_form_zero_dim_sector_112():
    params = WppParams(1, 1, 2)
    datum = type_i((0, 0, 3), (1, 2, 1))
    chv = tch_rank2_closed_form(params, datum)
    assert sectors(params)[1].kind == "0dim"
    # (-1)^A ((-1)^D1 + (-1)^D3)
    assert field(chv.entries[1][0]) == -((-1) ** 1 + (-1) ** 1)


def test_closed_form_guards():
    params = WppParams(1, 1, 2)
    with pytest.raises(InvalidInputError):
        tch_rank2_closed_form(params, type_i((0, 0, 0), (1, 1, 1)))  # c | D2
    with pytest.raises(InvalidInputError):
        tch_rank2_closed_form(params, type_i((1, 0, 0), (1, 2, 1)))  # A1 != 0
    with pytest.raises(InvalidInputError):
        tch_rank2_closed_form(params, type_i((0, 0, 0), (1, 2, 1), (P1, P1, P3)))


def _admissible_data(params, dmax, a_values):
    a, b, c = params.weights()
    for d1 in range(b, dmax + 1, b):
        for d2 in range(c, dmax + 1, c):
            for d3 in range(a, dmax + 1, a):
                for A in a_values:
                    yield type_i((0, 0, A), (d1, d2, d3))


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


def closed_form_display(params, datum):
    """The rank-2 display evaluated term by term in the tests' field.

    omega^e = zeta_n^(-p e) on the sector f = p/n; the entries are the
    products and sums of the display as written.
    """
    A = datum.A3
    D = (datum.D1, datum.D2, datum.D3)
    sum_d, sum_d2 = sum(D), sum(x * x for x in D)
    pair_roles = {(1, 2): (1, 0, 2), (2, 3): (2, 1, 0), (1, 3): (0, 2, 1)}
    entries = {}
    for sector in sectors(params):
        n, p = sector.f.denominator, sector.f.numerator
        omega_a = zeta(n, -p * A)
        if sector.kind == "2dim":
            entries[sector] = [2 * omega_a, -(2 * A + sum_d) * omega_a,
                               (A * A + sum_d * A + Fraction(sum_d2, 2)) * omega_a]
        elif sector.kind == "1dim":
            j, i, k = pair_roles[sector.which]
            twist = zeta(n, -p * D[j])
            entries[sector] = [(1 + twist) * omega_a,
                               -((1 + twist) * A + D[i] + twist * D[j] + D[k]) * omega_a]
        else:
            (i,) = sector.which
            entries[sector] = [(zeta(n, -p * D[i - 1]) + zeta(n, -p * D[i % 3])) * omega_a]
    return entries


@given(st.tuples(*[st.integers(1, 6)] * 3), st.tuples(*[st.integers(1, 3)] * 3),
       st.integers(-6, 6))
@settings(max_examples=150, deadline=None)
def test_closed_form_fold_matches_display_in_field(weights, steps, A):
    # the integer fold of tch_rank2_closed_form against the display it
    # replaces, in value and in the records written out
    params = WppParams(*weights)
    a, b, c = weights
    datum = type_i((0, 0, A), (b * steps[0], c * steps[1], a * steps[2]))
    chern = tch_rank2_closed_form(params, datum)
    expected = closed_form_display(params, datum)
    assert in_field(chern) == expected
    assert chern.to_records() == field_records(params, expected)


CHERN_ORACLE_WEIGHTS = [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (1, 2, 3),
                        (2, 2, 4), (3, 3, 3), (2, 3, 4), (2, 4, 6), (2, 3, 5)]


@pytest.mark.parametrize("weights", CHERN_ORACLE_WEIGHTS)
def test_tch_matches_power_table_oracle(weights):
    params = WppParams(*weights)
    for terms in ({0: 1}, {1: 1}, {-4: 2, 3: -3}, {7: 1, 11: -2, -13: 5}):
        _assert_matches_oracle(kclass_from_laurent(params, terms))


def test_tch_matches_power_table_oracle_on_rank2_classes():
    # the weights and a spread of the data of the acceptance check of the
    # rank-2 closed form
    for weights in product((1, 2, 3, 4), repeat=3):
        params = WppParams(*weights)
        a, b, c = weights
        for A, widths in ((-2, (b, c, a)), (3, (2 * b, c, 2 * a)), (0, (b, 2 * c, 3 * a))):
            _assert_matches_oracle(rank2_typeI_class(params, type_i((0, 0, A), widths)))


def test_chern_vector_checks_entry_length():
    params = WppParams(2, 2, 4)
    chern = tch_of_kclass(g_power(params, 3))
    entries = list(chern.entries)
    assert ChernVector(params, entries) == chern
    for i, (sector, coeffs) in enumerate(zip(sectors(params), entries, strict=True)):
        assert all(c.order == sector.f.denominator for c in coeffs)
        with pytest.raises(InvalidInputError):
            ChernVector(params, entries[:i] + [coeffs[1:]] + entries[i + 1:])
    with pytest.raises(InvalidInputError):
        ChernVector(params, entries[:-1])


def _seeded_kclasses(seed):
    """Random weights <= 12 with small and large integer Laurent coefficients."""
    rng = random.Random(seed)
    params = WppParams(*(rng.randint(1, 12) for _ in range(3)))
    small = {rng.randint(-40, 40): rng.randint(-9, 9) for _ in range(5)}
    large = {rng.randint(-40, 40): rng.randint(-10**9, 10**9) for _ in range(4)}
    return params, [kclass_from_laurent(params, small),
                    kclass_from_laurent(params, large),
                    kclass_from_laurent(params, {**small, **large})]


@pytest.mark.parametrize("seed", range(16))
def test_integer_fold_matches_fraction_fold(seed):
    params, kclasses = _seeded_kclasses(seed)
    for kclass in kclasses:
        chern, expected = tch_of_kclass(kclass), tch_fraction_fold(kclass)
        assert in_field(chern) == expected, (params, kclass)
        assert chern.to_records() == field_records(params, expected)


@pytest.mark.parametrize("seed", range(16))
def test_natural_order_records_embed_to_lcm_records(seed):
    params, kclasses = _seeded_kclasses(seed)
    m = params.m
    for kclass in kclasses:
        chern = tch_of_kclass(kclass)
        records = chern.to_records()
        for record, old in zip(records, lcm_records(chern), strict=True):
            lifted = []
            for order, coords in record["coeffs"]:
                assert order == record["f"][1]
                value = Cyc(order, [Fraction(num, den) for num, den in coords])
                lifted.append([m, [[x.numerator, x.denominator]
                                   for x in value.embed(m).coords]])
            assert {**record, "coeffs": lifted} == old


def _record_cases(params):
    """Characters of line bundles, rank-1 sheaves and rank-2 bundles on P(a,b,c)."""
    a, b, c = params.weights()
    for e in (0, 1, -7, 13):
        yield tch_of_kclass(g_power(params, e))
    for labels, rows in (((0, 0, 0), ((1,), (), ())), ((1, -2, 3), ((2, 1), (1, 1), (3,))),
                         ((-4, 0, 5), ((), (2, 2), (1,))), ((2, 2, -1), ((4,), (), (1, 1, 1)))):
        lams = [Partition(r) for r in rows]
        yield tch_of_kclass(rank1_class(params, *labels, *lams))
    for A, steps, points in ((0, (1, 1, 1), (P1, P2, P3)), (-3, (2, 1, 1), (P1, P2, P3)),
                             (2, (1, 3, 2), (P1, P1, P3))):
        datum = type_i((0, 0, A), (b * steps[0], c * steps[1], a * steps[2]), points)
        yield tch_of_kclass(rank2_typeI_class(params, datum))
        if datum.points_distinct():
            yield tch_rank2_closed_form(params, datum)


def test_integer_records_match_fraction_records():
    # every weight triple a <= b <= c <= 8
    for weights in combinations_with_replacement(range(1, 9), 3):
        params = WppParams(*weights)
        for chern in _record_cases(params):
            assert chern.to_records() == fraction_records(chern), (weights, chern)


def test_sectors_match_set_oracle():
    # every weight triple a, b, c <= 15, in every order
    for weights in product(range(1, 16), repeat=3):
        params = WppParams(*weights)
        assert sectors(params) == sectors_by_sets(params), weights


def test_sectors_cache_is_bounded():
    sectors.cache_clear()
    for weights in product(range(1, 7), repeat=3):
        sectors(WppParams(*weights))
    info = sectors.cache_info()
    assert info.maxsize is not None and 0 < info.currsize <= info.maxsize < 216
