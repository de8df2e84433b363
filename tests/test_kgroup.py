import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wpptoric.errors import InvalidInputError
from wpptoric.kgroup import (
    KClass,
    WppParams,
    g_power,
    kclass_from_laurent,
    kclass_scalar,
    line_bundle_class,
    rank1_class,
    rank2_typeI_class,
    structure_sheaf_point,
    verify_relations,
)
from wpptoric.partitions import Partition

P111 = WppParams(1, 1, 1)
P112 = WppParams(1, 1, 2)
P234 = WppParams(2, 3, 4)


class FakeTypeI:
    def __init__(self, A, D, points):
        self.A1, self.A2, self.A3 = A
        self.D1, self.D2, self.D3 = D
        self.p1, self.p2, self.p3 = points


DISTINCT = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))
EQUAL = ((Fraction(1), Fraction(0)),) * 3


def test_params_divisibility_chain():
    p = P234
    assert p.d == 1 and (p.d12, p.d13, p.d23) == (1, 2, 1) and p.m == 12
    for dij in (p.d12, p.d13, p.d23):
        assert dij % p.d == 0
    assert p.m % p.a == 0 and p.m % p.b == 0 and p.m % p.c == 0


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
    assert k * g_power(p, p.hat(i)) == k


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
    expected = expected - 3 * (one - g) * (one - g)
    assert k == expected


def test_rank2_divisibility_guard():
    with pytest.raises(InvalidInputError):
        rank2_typeI_class(P112, FakeTypeI((0, 0, 0), (1, 1, 1), DISTINCT))


def test_ring_axioms_random():
    rng = random.Random(7)
    for p in (P112, P234, WppParams(2, 2, 2), WppParams(1, 2, 3)):
        deg = p.degree
        for _ in range(15):
            x = KClass(p, [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(deg)])
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


@given(WEIGHTS, st.integers(min_value=-10**6, max_value=10**6))
@settings(max_examples=120, deadline=None)
def test_g_power_inverse_pairs(weights, e):
    params = WppParams(*weights)
    assert g_power(params, e) * g_power(params, -e) == kclass_scalar(params, 1)
    assert g_power(params, e) * g_power(params, 1) == g_power(params, e + 1)
