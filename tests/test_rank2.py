from fractions import Fraction

import pytest

from wpptoric.errors import InvalidInputError
from wpptoric.hilbert import GeneratingSheafSpec, rank2_constant_term
from wpptoric.inertia import sectors
from wpptoric.kgroup import WppParams
from wpptoric.partitions import Series, eta_inv_pow
from wpptoric.rank2 import (
    STANDARD_POINTS,
    StableTriple,
    chart_unit_series,
    enumerate_refined_solutions,
    enumerate_stable_triples,
    h_full,
    h_vb_refined,
    h_vb_specialized,
    h_vb_window,
    is_mu_stable,
    refined_key,
    refined_targets,
    slope_oracle_stability,
)
from wpptoric.sheaf_model import TypeIBundle

PT1, PT2, PT3 = STANDARD_POINTS
P111 = WppParams(1, 1, 1)
P112 = WppParams(1, 1, 2)
P122 = WppParams(1, 2, 2)
P222 = WppParams(2, 2, 2)


def test_is_mu_stable_examples():
    assert is_mu_stable(P111, TypeIBundle(0, 0, 0, 1, 1, 1, PT1, PT2, PT3))
    assert not is_mu_stable(P111, TypeIBundle(0, 0, 0, 2, 1, 1, PT1, PT2, PT3))
    assert not is_mu_stable(P111, TypeIBundle(0, 0, 0, 1, 1, 1, PT1, PT1, PT3))
    assert not is_mu_stable(P112, TypeIBundle(0, 0, 0, 1, 2, 0, PT1, PT2, PT3))


@pytest.mark.parametrize(
    "weights", [(1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2), (2, 3, 4), (1, 2, 4)]
)
def test_classifier_agrees_with_slope_oracle(weights):
    params = WppParams(*weights)
    a, b, c = params.weights()
    patterns = ((PT1, PT2, PT3), (PT1, PT1, PT3))
    specs = (GeneratingSheafSpec(params.m), GeneratingSheafSpec(2 * params.m))
    for d1 in range(0, 9, b) or [0]:
        for d2 in range(0, 9, c):
            for d3 in range(0, 9, a):
                for pts in patterns:
                    datum = TypeIBundle(1, -1, 0, d1, d2, d3, *pts)
                    expected = is_mu_stable(params, datum)
                    verdicts = [
                        slope_oracle_stability(params, spec, datum) for spec in specs
                    ]
                    assert verdicts[0] == verdicts[1] == expected, (weights, (d1, d2, d3), pts)


def test_enumerate_stable_triples_examples():
    assert list(enumerate_stable_triples(P111, 0, 0, 2)) == []
    assert list(enumerate_stable_triples(P111, -1, 0, 3)) == [StableTriple(-1, 1, 1, 1)]
    smallest_even = list(enumerate_stable_triples(P111, 0, 0, 6))
    assert smallest_even == [StableTriple(-3, 2, 2, 2)]
    for bound in (4, 8, 12):
        assert list(enumerate_stable_triples(P222, 1, 0, bound)) == []
        assert list(enumerate_stable_triples(P222, 1, 1, bound)) == []


def test_enumeration_is_deterministic_and_ordered():
    triples = list(enumerate_stable_triples(P111, -1, 0, 9))
    totals = [sum(t.widths) for t in triples]
    assert totals == sorted(totals)
    assert triples == list(enumerate_stable_triples(P111, -1, 0, 9))


@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 1, 2), (2, 2, 2), (1, 2, 3), (2, 3, 4)])
def test_enumeration_by_total_range(weights):
    params = WppParams(*weights)
    for c1, lam in ((0, 0), (-1, 0), (1, 1)):
        full = list(enumerate_stable_triples(params, c1, lam % params.d, 24))
        for lo in (3, 7, 12):
            for hi in (lo, lo + 5, 24):
                part = list(enumerate_stable_triples(params, c1, lam % params.d, hi, min_sum=lo))
                assert part == [t for t in full if lo <= sum(t.widths) <= hi]


def test_refined_keys_112():
    alpha, beta = refined_targets(P112, -2, 0)
    counts = h_vb_refined(P112, alpha, beta, 10)
    assert counts
    zero_dim = [s for s in sectors(P112) if s.kind == "0dim"][0]
    seen = set()
    for key in counts:
        entry = dict(
            ((Fraction(num, den), kind), coeffs)
            for num, den, kind, which, coeffs in key
        )
        value = entry[(Fraction(1, 2), "0dim")]
        seen.add(value[0])
    assert seen <= {Fraction(-2), Fraction(0), Fraction(2)}
    assert len(seen) >= 2


def test_refined_122_zero_branch():
    # constraining the half-sector codegree-1 value to 0 forces odd D3,
    # and the codegree-0 entry is +-(D3 - D1 - D2)
    f_half = Fraction(1, 2)
    alpha, beta = refined_targets(P122, -1, 0)
    beta[f_half] = 0
    for A, widths, chern in enumerate_refined_solutions(P122, alpha, beta, 11):
        d1, d2, d3 = widths
        assert d3 % 2 == 1
        sector = [s for s in sectors(P122) if s.f == f_half][0]
        value = chern.codegree(sector, 0)
        sign = (-1) ** ((-1 + d1 + d2 + d3) // 2)
        assert value == sign * (-d1 - d2 + d3)


@pytest.mark.parametrize(
    "weights,E,c1", [((1, 1, 1), 1, -1), ((1, 1, 1), 1, 0), ((1, 1, 2), 2, -2), ((2, 2, 2), 2, -2)]
)
def test_refined_specialized_consistency(weights, E, c1):
    params = WppParams(*weights)
    spec = GeneratingSheafSpec(E)
    for lam in range(params.d):
        specialized = h_vb_specialized(params, spec, c1, lam, 12)
        grouped = {}
        alpha, beta = refined_targets(params, c1, lam)
        for A, widths, chern in enumerate_refined_solutions(params, alpha, beta, 12):
            e = int(rank2_constant_term(params, spec, c1, lam, *widths))
            grouped[(e,)] = grouped.get((e,), 0) + 1
        assert grouped == specialized.coeffs


def test_specialized_p2_series_against_direct_formula():
    spec = GeneratingSheafSpec(1)
    series = h_vb_specialized(P111, spec, -1, 0, 11)
    expected = {}
    for d1 in range(1, 10):
        for d2 in range(1, 10):
            for d3 in range(1, 10):
                if d1 + d2 + d3 > 11 or (d1 + d2 + d3 + 1) % 2:
                    continue
                if not (d1 < d2 + d3 and d2 < d1 + d3 and d3 < d1 + d2):
                    continue
                e = (
                    Fraction(1 + d1 * d1 + d2 * d2 + d3 * d3, 4)
                    - Fraction(d1 * d2 + d2 * d3 + d3 * d1, 2)
                    - Fraction(3, 2) + 2
                )
                assert e.denominator == 1
                expected[(int(e),)] = expected.get((int(e),), 0) + 1
    assert series.coeffs == expected
    assert series.coeffs[(0,)] == 1  # the minimal triple (1,1,1)
    assert max(e for (e,) in series.coeffs) == 0


def test_222_matches_p2_up_to_shift():
    spec2 = GeneratingSheafSpec(2)
    spec1 = GeneratingSheafSpec(1)
    for half_c1 in (0, -2):  # even halves with lam = 0
        c1 = 2 * half_c1
        big = h_vb_specialized(P222, spec2, c1, 0, 14)
        small = h_vb_specialized(P111, spec1, 0, 0, 7)
        shift = max(e for (e,) in big.coeffs) - max(e for (e,) in small.coeffs)
        shifted = small.shift_exponents(shift)
        assert big == shifted, (c1, shift)


def test_specialized_symmetry_under_weight_rotation():
    spec = GeneratingSheafSpec(6)
    base = h_vb_specialized(WppParams(1, 2, 3), spec, -2, 0, 12)
    rot1 = h_vb_specialized(WppParams(2, 3, 1), spec, -2, 0, 12)
    rot2 = h_vb_specialized(WppParams(3, 1, 2), spec, -2, 0, 12)
    assert base == rot1 == rot2


def test_h_vb_window_completeness():
    spec = GeneratingSheafSpec(1)
    window, floor = h_vb_window(P111, spec, -1, 0, 3)
    assert floor == -3
    # direct check against a generous fixed-bound enumeration
    wide = h_vb_specialized(P111, spec, -1, 0, 25)
    expected = {k: v for k, v in wide.coeffs.items() if k[0] >= floor}
    assert window.coeffs == expected
    assert expected[(-3,)] == 6  # (3,2,2) and (4,4,1) patterns


@pytest.mark.parametrize("weights, E, c1, depth", [
    ((1, 1, 2), 2, 0, 3), ((2, 2, 2), 2, 0, 4), ((1, 2, 3), 6, -1, 2), ((1, 1, 1), 2, 0, 5),
])
def test_h_vb_window_matches_wide_enumeration(weights, E, c1, depth):
    params = WppParams(*weights)
    spec = GeneratingSheafSpec(E)
    window, floor = h_vb_window(params, spec, c1, 0, depth)
    wide = h_vb_specialized(params, spec, c1, 0, 48)
    assert window.coeffs
    assert window.coeffs == {k: v for k, v in wide.coeffs.items() if k[0] >= floor}


def test_h_vb_window_empty_for_parity_obstruction():
    spec = GeneratingSheafSpec(2)
    series, _ = h_vb_window(P222, spec, 1, 0, 4)
    assert series.coeffs == {}


def test_chart_unit_series_plane():
    g = chart_unit_series(P111, 1, 8)
    assert g.coeffs == eta_inv_pow(1, 8).coeffs


def test_h_full_plane():
    spec = GeneratingSheafSpec(1)
    full, floor = h_full(P111, spec, -1, 0, 4)
    vb, _ = h_vb_window(P111, spec, -1, 0, 4)
    eta6 = eta_inv_pow(6, 4)
    # H(X) = sum_n vb(X + n) * eta6(n)
    for (x,), coeff in full.coeffs.items():
        expected = sum(
            vb.coefficient((x + n,)) * eta6.coefficient((n,)) for n in range(0, -x + 1)
        )
        assert coeff == expected
    assert full.coefficient((0,)) == vb.coefficient((0,)) == 1
    assert full.coefficient((-1,)) == 3 + 1 * 6  # new bundles plus six point escapes
