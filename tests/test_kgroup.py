import random
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import point_relations
from cyclotomic_field import poly_divmod, poly_mod
from partition_enumeration import color_count, enumerate_partitions
from point_relations import structure_sheaf_point, variable_relations, verify_relations
from test_sheaf_model import chart_sheaves
from wpptoric.errors import InvalidInputError
from wpptoric.kgroup import (
    KClass,
    WppParams,
    _reduce,
    g_power,
    kclass_from_laurent,
    kclass_scalar,
    kclass_sum,
    line_bundle_class,
    rank1_class,
    rank2_typeI_class,
    relation_poly,
)
from wpptoric.partitions import Partition, chart_spec
from wpptoric.sheaf_model import Rank1Sheaf, kclass_by_devissage

P111 = WppParams(1, 1, 1)
P112 = WppParams(1, 1, 2)
P234 = WppParams(2, 3, 4)


class FakeTypeI:
    def __init__(self, A, D, points):
        self.A1, self.A2, self.A3 = A
        self.D1, self.D2, self.D3 = D
        self.p1, self.p2, self.p3 = points
        # the pattern TypeIBundle decides once: is each chart's point pair equal
        self.same = (points[0] == points[1], points[1] == points[2], points[2] == points[0])


DISTINCT = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))
EQUAL = ((Fraction(1), Fraction(0)),) * 3


def test_params_divisibility_chain():
    p = P234
    assert p.d == 1 and (p.d12, p.d13, p.d23) == (1, 2, 1) and p.m == 12
    for dij in (p.d12, p.d13, p.d23):
        assert dij % p.d == 0
    assert p.m % p.a == 0 and p.m % p.b == 0 and p.m % p.c == 0


def test_chart_convention():
    # chart i is (w_i, w_(i+1), w_(i+2)): the modulus, then the two steps
    p = WppParams(2, 3, 5)
    assert [p.chart(i) for i in (1, 2, 3)] == [(2, 3, 5), (3, 5, 2), (5, 2, 3)]
    for bad in (0, 4):
        with pytest.raises(InvalidInputError, match="chart must be 1, 2 or 3"):
            p.chart(bad)


def test_params_equality_and_hash_on_weights():
    p = WppParams(2, 3, 5)
    assert p == WppParams(2, 3, 5) and hash(p) == hash(WppParams(2, 3, 5))
    assert p != WppParams(3, 2, 5)
    assert repr(p) == "WppParams(a=2, b=3, c=5)"


def test_width_check_reads_the_chart_steps():
    p = WppParams(2, 3, 5)
    p.check_widths(3, 5, 2)
    for widths in ((2, 5, 2), (3, 3, 2), (3, 5, 3)):
        with pytest.raises(InvalidInputError, match=r"b \| D1, c \| D2, a \| D3"):
            p.check_widths(*widths)


def test_from_laurent_examples():
    k = kclass_from_laurent(P111, {3: 1})
    assert k.to_triples() == [(0, 1, 1), (1, -3, 1), (2, 3, 1)]
    assert kclass_from_laurent(P234, {0: 1}) == kclass_scalar(P234, 1)
    kneg = kclass_from_laurent(P111, {-1: 1})
    assert kneg.to_triples() == [(0, 3, 1), (1, -3, 1), (2, 1, 1)]
    assert kneg * g_power(P111, 1) == kclass_scalar(P111, 1)


def test_g_is_a_unit():
    for p in (P111, P112, P234, WppParams(2, 2, 2)):
        assert g_power(p, 1) * g_power(p, -1) == kclass_scalar(p, 1)
        assert g_power(p, 5) * g_power(p, -5) == kclass_scalar(p, 1)


def test_structure_sheaf_point_examples():
    k = structure_sheaf_point(P111, 1, 0)
    assert k.to_triples() == [(0, 1, 1), (1, -2, 1), (2, 1, 1)]
    k2 = structure_sheaf_point(P112, 3, 1)
    assert k2.to_triples() == [(1, 1, 1), (2, -2, 1), (3, 1, 1)]


@pytest.mark.parametrize("p", [P111, P112, P234, WppParams(3, 3, 3)])
@pytest.mark.parametrize("i", [1, 2, 3])
def test_point_class_periodicity(p, i):
    k = structure_sheaf_point(p, i, 0)
    assert k * g_power(p, p.chart(i)[0]) == k


def test_line_bundle_tensor_law():
    for p in (P112, P234):
        for triple1 in ((0, 0, 0), (1, 2, -1), (-2, 0, 3)):
            for triple2 in ((1, 1, 1), (0, -1, 2)):
                lhs = line_bundle_class(p, *triple1) * line_bundle_class(p, *triple2)
                rhs = line_bundle_class(p, *(x + y for x, y in zip(triple1, triple2)))
                assert lhs == rhs


def test_rank1_class_examples():
    empty = Partition()
    for p in (P111, P112, P234):
        for abc in ((0, 0, 0), (1, -2, 3)):
            assert rank1_class(p, *abc, empty, empty, empty) == line_bundle_class(p, *abc)
    # single box on the first chart of the plane
    k = rank1_class(P111, 0, 0, 0, Partition((1,)), empty, empty)
    expected = kclass_scalar(P111, 1) - structure_sheaf_point(P111, 1, 0)
    assert k == expected
    # single box on the stacky chart of (1,1,2)
    k = rank1_class(P112, 0, 0, 0, empty, empty, Partition((1,)))
    assert k == kclass_scalar(P112, 1) - structure_sheaf_point(P112, 3, 0)


def test_rank2_decomposable_consistency():
    for p in (P111, P112):
        datum = FakeTypeI((1, 0, -1), (p.b * 2, p.c, p.a * 3), EQUAL)
        lhs = rank2_typeI_class(p, datum)
        rhs = line_bundle_class(p, 1, 0, -1) + line_bundle_class(
            p, 1 + p.b * 2, p.c, -1 + p.a * 3
        )
        assert lhs == rhs


def test_rank2_p2_example():
    datum = FakeTypeI((0, 0, 0), (1, 1, 1), DISTINCT)
    k = rank2_typeI_class(P111, datum)
    expected = kclass_from_laurent(P111, {0: 1}) + kclass_from_laurent(P111, {3: 1})
    one = kclass_scalar(P111, 1)
    g = g_power(P111, 1)
    expected = expected - kclass_scalar(P111, 3) * (one - g) * (one - g)
    assert k == expected


def test_rank2_divisibility_guard():
    with pytest.raises(InvalidInputError):
        rank2_typeI_class(P112, FakeTypeI((0, 0, 0), (1, 1, 1), DISTINCT))


def test_ring_axioms_random():
    rng = random.Random(7)
    for p in (P112, P234, WppParams(2, 2, 2), WppParams(1, 2, 3)):
        deg = p.degree
        for _ in range(15):
            x = KClass(p, [rng.randint(-10**12, 10**12) for _ in range(deg)])
            y = KClass(p, [rng.randint(-4, 4) for _ in range(deg)])
            z = KClass(p, [rng.randint(-4, 4) for _ in range(deg)])
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x * y == y * x


@pytest.mark.parametrize(
    "weights",
    [(1, 1, 1), (2, 2, 2), (2, 3, 4), (1, 1, 2), (6, 4, 2), (5, 5, 5), (6, 6, 6)],
)
def test_verify_relations(weights):
    assert verify_relations(WppParams(*weights))


WEIGHTS = st.sampled_from([(1, 1, 1), (1, 1, 2), (2, 2, 2), (2, 3, 4), (1, 2, 3),
                           (4, 6, 10), (5, 7, 9)])


@given(WEIGHTS, st.integers(min_value=0, max_value=400))
@settings(max_examples=120, deadline=None)
def test_g_power_is_direct_reduction(weights, e):
    params = WppParams(*weights)
    assert g_power(params, e) == KClass(params, [0] * e + [1])


def g_power_by_products(params, e):
    """g^e = g^r (1 - qN + q(q-1)/2 N^2), e = qm + r, as a chain of KClass products."""
    q, r = divmod(e, params.m)
    one = kclass_scalar(params, 1)
    nil = one - KClass(params, [0] * params.m + [1])
    return KClass(params, [0] * r + [1]) * (
        one - kclass_scalar(params, q) * nil
        + kclass_scalar(params, q * (q - 1) // 2) * (nil * nil))


@given(st.one_of(WEIGHTS, st.sampled_from([(4, 6, 12), (7, 9, 11)])),
       st.integers(min_value=-10**9, max_value=10**9))
@settings(max_examples=200, deadline=None)
def test_g_power_matches_product_chain(weights, e):
    params = WppParams(*weights)
    fast = g_power(params, e)
    assert fast == g_power_by_products(params, e)
    assert all(type(x) is int for x in fast.coeffs)


@given(WEIGHTS, st.integers(min_value=-10**6, max_value=10**6))
@settings(max_examples=120, deadline=None)
def test_g_power_inverse_pairs(weights, e):
    params = WppParams(*weights)
    assert g_power(params, e) * g_power(params, -e) == kclass_scalar(params, 1)
    assert g_power(params, e) * g_power(params, 1) == g_power(params, e + 1)


def reduce_oracle(params, coeffs):
    """Canonical representative by dense division in Q[g]."""
    rem = poly_mod(list(coeffs), list(relation_poly(params)))
    return tuple(rem[i] if i < len(rem) else 0 for i in range(params.degree))


def test_reduce_matches_division_oracle():
    rng = random.Random(11)
    for weights in combinations_with_replacement(range(1, 7), 3):
        params = WppParams(*weights)
        for length in (0, 1, params.degree, params.degree + 1, 4 * params.degree):
            ints = [rng.randint(-9, 9) for _ in range(length)]
            fast = _reduce(params, ints)
            assert fast == reduce_oracle(params, ints), (weights, ints)
            assert all(type(x) is int for x in fast)
            big = [rng.randint(-10**15, 10**15) for _ in range(length)]
            assert _reduce(params, big) == reduce_oracle(params, big), (weights, big)


def rank2_class_oracle(params, datum):
    """The rank-2 type-I class as a chain of K-class products and sums."""
    one = kclass_scalar(params, 1)
    total = one + g_power(params, datum.D1 + datum.D2 + datum.D3)
    for di, dj, coincide in (
        (datum.D1, datum.D2, datum.p1 == datum.p2),
        (datum.D2, datum.D3, datum.p2 == datum.p3),
        (datum.D3, datum.D1, datum.p3 == datum.p1),
    ):
        if not coincide:
            total = total - (one - g_power(params, di)) * (one - g_power(params, dj))
    return total * g_power(params, datum.A1 + datum.A2 + datum.A3)


def test_rank2_class_matches_product_oracle():
    rng = random.Random(17)
    patterns = (DISTINCT, EQUAL, (DISTINCT[0], DISTINCT[0], DISTINCT[2]),
                (DISTINCT[0], DISTINCT[1], DISTINCT[1]), (DISTINCT[2], DISTINCT[1], DISTINCT[2]))
    for weights in combinations_with_replacement(range(1, 7), 3):
        params = WppParams(*weights)
        a, b, c = weights
        for _ in range(12):
            D = (b * rng.randint(0, 6), c * rng.randint(0, 6), a * rng.randint(0, 6))
            A = tuple(rng.randint(-40, 40) for _ in range(3))
            datum = FakeTypeI(A, D, rng.choice(patterns))
            fast = rank2_typeI_class(params, datum)
            assert fast == rank2_class_oracle(params, datum), (weights, A, D)
            assert all(type(x) is int for x in fast.coeffs)


def test_rank2_class_huge_widths():
    # the class is a sum of cached powers, never a list as long as the widths
    params = WppParams(2, 3, 4)
    datum = FakeTypeI((0, 0, -10**6), (3 * 10**6, 4 * 10**6, 2 * 10**6), DISTINCT)
    assert rank2_typeI_class(params, datum) == rank2_class_oracle(params, datum)


def point_by_division(params, i, j):
    """The chart-i point class as the quotient P / (1 - g^w_i), twisted by g^j."""
    w = params.chart(i)[0]
    quo, rem = poly_divmod(list(relation_poly(params)), [1] + [0] * (w - 1) + [-1])
    assert not rem
    return KClass(params, quo) * g_power(params, j)


def test_structure_sheaf_point_matches_division():
    for weights in combinations_with_replacement(range(1, 7), 3):
        params = WppParams(*weights)
        for i in (1, 2, 3):
            for j in range(-2 * params.m, 2 * params.m + 1):
                fast = structure_sheaf_point(params, i, j)
                assert fast == point_by_division(params, i, j), (weights, i, j)
                assert all(type(x) is int for x in fast.coeffs)


def rank1_class_by_add_chain(params, A, B, C, lam1, lam2, lam3):
    """The rank-1 class as one KClass subtraction per color, over divided point classes."""
    offset = A + B + C
    total = g_power(params, offset)
    for chart, lam in ((1, lam1), (2, lam2), (3, lam3)):
        spec = chart_spec(params, chart, offset % params.chart(chart)[0])
        for color, count in enumerate(color_count(lam, spec)):
            if count:
                point = point_by_division(params, chart, color)
                total = total - kclass_scalar(params, count) * point
    return total


def rank1_class_by_points(params, A, B, C, lam1, lam2, lam3):
    """The rank-1 class as the hull minus one twisted point class per box."""
    offset = A + B + C
    pairs = [(1, line_bundle_class(params, A, B, C))]
    for chart, lam in ((1, lam1), (2, lam2), (3, lam3)):
        counts = color_count(lam, chart_spec(params, chart, offset))
        pairs += ((-count, structure_sheaf_point(params, chart, color))
                  for color, count in enumerate(counts) if count)
    return kclass_sum(params, pairs)


def test_rank1_corner_formula_matches_the_point_classes_of_its_boxes():
    # every partition of <= 4 boxes on each chart, the others cycling
    # through the same list, so that equal and distinct adjacent rows,
    # rectangles and empty charts all meet every weight and offset
    lams = list(enumerate_partitions(4))
    triples = [(lam, lams[(i + 1) % len(lams)], lams[(i + 5) % len(lams)])
               for i, lam in enumerate(lams)]
    for weights in product((1, 2, 3, 5), repeat=3):
        params = WppParams(*weights)
        for offset in (-7, -3, 0, 2, 11):
            for triple in triples:
                for turn in range(3):
                    lam1, lam2, lam3 = triple[turn:] + triple[:turn]
                    assert (rank1_class(params, offset, 0, 0, lam1, lam2, lam3)
                            == rank1_class_by_points(params, offset, 0, 0, lam1, lam2, lam3)), \
                        (weights, offset, lam1, lam2, lam3)


def test_rank1_class_matches_add_chain():
    rng = random.Random(23)
    for weights in combinations_with_replacement(range(1, 7), 3):
        params = WppParams(*weights)
        for _ in range(6):
            ABC = [rng.randint(-30, 30) for _ in range(3)]
            lams = [Partition(tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 3))),
                                           reverse=True)))
                    for _ in range(3)]
            fast = rank1_class(params, *ABC, *lams)
            assert fast == rank1_class_by_add_chain(params, *ABC, *lams), (weights, ABC, lams)
            assert all(type(x) is int for x in fast.coeffs)


@pytest.mark.parametrize("weights", [(1, 1, 1), (2, 2, 2), (2, 3, 4), (6, 4, 2)])
def test_verify_relations_sees_a_perturbed_row(monkeypatch, weights):
    params = WppParams(*weights)
    rows = variable_relations(params)
    for k in range(len(rows)):
        perturbed = [[dict(mono) for mono in row] for row in rows]
        var = next(iter(perturbed[k][0]))
        perturbed[k][0][var] += 1
        monkeypatch.setattr(point_relations, "variable_relations", lambda _, rows=perturbed: rows)
        assert not verify_relations(params), (weights, k)


def test_kclass_sum_keeps_integers_integral():
    one, g = kclass_scalar(P234, 1), g_power(P234, 1)
    pairs = [(1, one), (-3, g), (1, one), (5, g), (0, g_power(P234, 7))]
    total = kclass_sum(P234, pairs)
    assert total == kclass_scalar(P234, 2) * (one + g)
    assert all(type(x) is int for x in total.coeffs)
    cls = KClass(P234, [2, -4, 0, 7])
    tripled = kclass_sum(P234, [(3, cls)])
    assert tripled.coeffs[:4] == (6, -12, 0, 21) and all(type(x) is int for x in tripled.coeffs)
    assert kclass_sum(P234, []) == kclass_scalar(P234, 0)


@given(chart_sheaves(max_weight=8), st.integers(min_value=-10**6, max_value=10**6))
@settings(max_examples=200, deadline=None)
def test_classes_have_int_coefficients(case, e):
    weights, sheaf, _, _ = case
    params = WppParams(*weights)
    if isinstance(sheaf, Rank1Sheaf):
        closed = rank1_class(params, sheaf.A, sheaf.B, sheaf.C,
                             sheaf.lam1, sheaf.lam2, sheaf.lam3)
    else:
        closed = rank2_typeI_class(params, sheaf)
    for cls in (g_power(params, e), closed, kclass_by_devissage(params, sheaf)):
        assert all(type(x) is int for x in cls.coeffs), cls
