from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from class_numbers import three_hurwitz
from closed_forms import (
    balanced_rhs,
    balanced_spec,
    codegree,
    enumerate_refined_by_maps,
    h_vb_refined,
    hilb_top_E_of_kclass,
    q_series,
    refined_targets,
    series_one,
    series_product,
)
from cyclotomic_field import field, zeta
from partition_enumeration import box_color, color_zero_specialization
from wpptoric.errors import InvalidInputError
from wpptoric.hilbert import (
    _psi_sum,
    psi_E,
    rank2_constant_term,
    rank_and_twists,
)
from wpptoric.inertia import sector_value, sectors
from wpptoric.kgroup import WppParams, g_power, rank2_typeI_class, rank2_typeI_laurent
from wpptoric.partitions import (
    ColoringSpec,
    chart_spec,
    color_zero_series,
    eta_inv_pow,
)
from wpptoric.rank2 import (
    _form_bound,
    _psi_bound,
    enumerate_refined_solutions,
    enumerate_stable_triples,
    h_full,
    h_vb_specialized,
    h_vb_window,
    is_mu_stable,
    slope_oracle_stability,
)
from wpptoric.sheaf_model import STANDARD_POINTS, TypeIBundle

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
    Es = (params.m, 2 * params.m)
    for d1 in range(0, 9, b) or [0]:
        for d2 in range(0, 9, c):
            for d3 in range(0, 9, a):
                for pts in patterns:
                    datum = TypeIBundle(1, -1, 0, d1, d2, d3, *pts)
                    expected = is_mu_stable(params, datum)
                    verdicts = [
                        slope_oracle_stability(params, E, datum) for E in Es
                    ]
                    assert verdicts[0] == verdicts[1] == expected, (weights, (d1, d2, d3), pts)


def test_enumerate_stable_triples_examples():
    assert list(enumerate_stable_triples(P111, 0, 0, 2)) == []
    assert list(enumerate_stable_triples(P111, -1, 0, 3)) == [(-1, (1, 1, 1))]
    smallest_even = list(enumerate_stable_triples(P111, 0, 0, 6))
    assert smallest_even == [(-3, (2, 2, 2))]
    for bound in (4, 8, 12):
        assert list(enumerate_stable_triples(P222, 1, 0, bound)) == []
        assert list(enumerate_stable_triples(P222, 1, 1, bound)) == []


def test_enumeration_is_deterministic_and_ordered():
    triples = list(enumerate_stable_triples(P111, -1, 0, 9))
    totals = [sum(widths) for _, widths in triples]
    assert totals == sorted(totals)
    assert triples == list(enumerate_stable_triples(P111, -1, 0, 9))


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
    beta[f_half] = sector_value(f_half, [])
    solutions = list(enumerate_refined_by_maps(P122, alpha, beta, 11))
    assert solutions
    for A, widths, chern in solutions:
        d1, d2, d3 = widths
        assert d3 % 2 == 1
        sector = [s for s in sectors(P122) if s.f == f_half][0]
        value = codegree(chern, sector, 0)
        sign = (-1) ** ((-1 + d1 + d2 + d3) // 2)
        assert field(value) == sign * (-d1 - d2 + d3)


@given(st.tuples(*[st.integers(1, 6)] * 3), st.integers(-3, 3), st.integers(-6, 6))
@settings(max_examples=150, deadline=None)
def test_refined_targets_match_roots_in_field(weights, c1, lam):
    # the integer fold of refined_targets against 2 omega^lam and c1 omega^lam
    params = WppParams(*weights)
    alpha, beta = refined_targets(params, c1, lam)
    two_dim = [s.f for s in sectors(params) if s.kind == "2dim"]
    assert list(alpha) == list(beta) == two_dim
    for f in two_dim:
        omega = zeta(f.denominator, -f.numerator * lam)
        assert alpha[f].order == beta[f].order == f.denominator
        assert field(alpha[f]) == 2 * omega and field(beta[f]) == c1 * omega


@pytest.mark.parametrize(
    "weights,E,c1", [((1, 1, 1), 1, -1), ((1, 1, 1), 1, 0), ((1, 1, 2), 2, -2), ((2, 2, 2), 2, -2)]
)
def test_refined_specialized_consistency(weights, E, c1):
    params = WppParams(*weights)
    for lam in range(params.d):
        specialized = h_vb_specialized(params, E, c1, lam, 12)
        grouped = {}
        alpha, beta = refined_targets(params, c1, lam)
        for A, widths, chern in enumerate_refined_by_maps(params, alpha, beta, 12):
            e = int(rank2_constant_term(params, E, A, *widths))
            grouped[e] = grouped.get(e, 0) + 1
        assert grouped == specialized


@pytest.mark.parametrize("weights", list(product(range(1, 7), repeat=3)))
def test_refined_solutions_match_map_oracle(weights):
    # the (c1, lam) check of `hseries --check` against the alpha/beta maps,
    # for every c1 in [-3, 3] and lam < d; both routes list the data by
    # total width, so the lists at max 12 hold those of every smaller max
    params = WppParams(*weights)
    for c1 in range(-3, 4):
        for lam in range(params.d):
            alpha, beta = refined_targets(params, c1, lam)
            expected = [(A, widths) for A, widths, _ in
                        enumerate_refined_by_maps(params, alpha, beta, 12)]
            assert list(enumerate_refined_solutions(params, c1, lam, 12)) == expected, (c1, lam)


def test_specialized_p2_series_against_direct_formula():
    E = 1
    series = h_vb_specialized(P111, E, -1, 0, 11)
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
                expected[int(e)] = expected.get(int(e), 0) + 1
    assert series == expected
    assert series[0] == 1  # the minimal triple (1,1,1)
    assert max(series) == 0


def test_222_matches_p2_up_to_shift():
    E2 = 2
    E1 = 1
    for half_c1 in (0, -2):  # even halves with lam = 0
        c1 = 2 * half_c1
        big = h_vb_specialized(P222, E2, c1, 0, 14)
        small = h_vb_specialized(P111, E1, 0, 0, 7)
        shift = max(big) - max(small)
        shifted = {e + shift: c for e, c in small.items()}
        assert big == shifted, (c1, shift)


def test_specialized_symmetry_under_weight_rotation():
    E = 6
    base = h_vb_specialized(WppParams(1, 2, 3), E, -2, 0, 12)
    rot1 = h_vb_specialized(WppParams(2, 3, 1), E, -2, 0, 12)
    rot2 = h_vb_specialized(WppParams(3, 1, 2), E, -2, 0, 12)
    assert base == rot1 == rot2


def test_h_vb_window_completeness():
    E = 1
    window, floor = h_vb_window(P111, E, -1, 0, 3)
    assert floor == -3
    # direct check against a generous fixed-bound enumeration
    wide = h_vb_specialized(P111, E, -1, 0, 25)
    expected = {k: v for k, v in wide.items() if k >= floor}
    assert window == expected
    assert expected[-3] == 6  # (3,2,2) and (4,4,1) patterns


@pytest.mark.parametrize("weights, E, c1, depth", [
    ((1, 1, 2), 2, 0, 3), ((2, 2, 2), 2, 0, 4), ((1, 2, 3), 6, -1, 2), ((1, 1, 1), 2, 0, 5),
])
def test_h_vb_window_matches_wide_enumeration(weights, E, c1, depth):
    params = WppParams(*weights)
    window, floor = h_vb_window(params, E, c1, 0, depth)
    wide = h_vb_specialized(params, E, c1, 0, 48)
    assert window
    assert window == {k: v for k, v in wide.items() if k >= floor}


def test_h_vb_window_empty_for_parity_obstruction():
    E = 2
    series, _ = h_vb_window(P222, E, 1, 0, 4)
    assert series == {}


WEIGHTS_UP_TO_4 = list(combinations_with_replacement(range(1, 5), 3))


@pytest.mark.parametrize("weights", list(combinations_with_replacement(range(1, 7), 3)))
def test_h_vb_window_empty_exactly_when_d_does_not_divide_c1_plus_2lam(weights):
    params = WppParams(*weights)
    E = params.m
    for c1 in range(-4, 5):
        for lam in range(params.d):
            series, floor = h_vb_window(params, E, c1, lam, 0)
            if (c1 + 2 * lam) % params.d:
                assert list(enumerate_stable_triples(params, c1, lam, 40)) == []
                assert (series, floor) == ({}, 0)
            else:
                assert series, (c1, lam)


def _constant_term_upper_bound(params, E, c1, total):
    """Upper bound for the Hilbert constant term at fixed total width.

    x + y + z = total with x, y, z >= 1 gives Q = xy + yz + zx >=
    2 total - 3, and the Q bound decreases strictly in Q.
    """
    return _form_bound(params, E, c1, 2 * total - 3)


@pytest.mark.parametrize("weights", WEIGHTS_UP_TO_4)
def test_constant_term_upper_bound_holds_and_strictly_decreases(weights):
    params = WppParams(*weights)
    for E in (params.m, 2 * params.m):
        for c1 in range(-3, 4):
            # widths summing to at most 30 have Q <= 30^2 / 3
            form_bounds = [_form_bound(params, E, c1, q) for q in range(301)]
            assert all(x > y for x, y in zip(form_bounds, form_bounds[1:]))
            bounds = [_constant_term_upper_bound(params, E, c1, s) for s in range(3, 31)]
            for lam in range(params.d):
                for A, (d1, d2, d3) in enumerate_stable_triples(params, c1, lam, 30):
                    x, y, z = d2 + d3 - d1, d1 + d3 - d2, d1 + d2 - d3
                    value = rank2_constant_term(params, E, A, d1, d2, d3)
                    assert value <= form_bounds[x * y + y * z + z * x], (c1, lam, A)
                    assert value <= bounds[d1 + d2 + d3 - 3], (c1, lam, A)


@pytest.mark.parametrize("weights", WEIGHTS_UP_TO_4)
def test_h_vb_window_matches_enumeration_to_the_proven_stop(weights):
    params = WppParams(*weights)
    for E in (params.m, 2 * params.m):
        for c1 in range(-3, 4):
            for lam in range(params.d):
                if (c1 + 2 * lam) % params.d:
                    continue
                for depth in (0, 2, 5):
                    window, floor = h_vb_window(params, E, c1, lam, depth)
                    # past T every total's bound, hence every exponent, is below the floor
                    T = 3
                    while _constant_term_upper_bound(params, E, c1, T) >= floor:
                        T += 1
                    wide = h_vb_specialized(params, E, c1, lam, T)
                    cut = {k: v for k, v in wide.items() if k >= floor}
                    assert window == cut, (E, c1, lam, depth)
                    assert max(cut) == floor + depth


def test_chart_unit_series_plane():
    g = color_zero_series(chart_spec(P111, 1), 8)
    assert g == eta_inv_pow(1, 8)


def test_three_hurwitz_known_values():
    # H(3) = 1/3, H(27) = 4/3 and H(99) = 3 include forms a(x^2 + xy + y^2)
    # and the imprimitive 3(x^2 + xy + 3y^2)
    known = {3: 1, 7: 3, 11: 3, 15: 6, 23: 9, 27: 4, 47: 15, 71: 21, 99: 9}
    assert {n: three_hurwitz(n) for n in known} == known


def test_plane_window_counts_klyachko_class_numbers():
    # 3 H(4 c2 - 1) stable toric rank-2 bundles on P^2 with c1 = -1, at q^(1 - c2)
    window, floor = h_vb_window(P111, 1, -1, 0, 400)
    assert floor == -400
    assert window == {1 - c2: three_hurwitz(4 * c2 - 1) for c2 in range(1, 402)}


@pytest.mark.parametrize("d", [2, 3])
def test_gerbe_window_counts_klyachko_class_numbers(d):
    # on P(d,d,d) with E = d and (c1 + 2 lam)/d odd the window reads
    # 3H(3), 3H(7), ... down from its top exponent, as on the plane
    params = WppParams(d, d, d)
    checked = 0
    for c1 in range(-3 * d, 3 * d):
        for lam in range(d):
            if (c1 + 2 * lam) % d or (c1 + 2 * lam) // d % 2 == 0:
                continue
            window, floor = h_vb_window(params, d, c1, lam, 11)
            top = floor + 11
            expected = {top - k: three_hurwitz(4 * k + 3) for k in range(12)}
            assert window == expected, (c1, lam)
            checked += 1
    assert checked == 3 * d


def test_h_full_plane():
    E = 1
    full, floor = h_full(P111, E, -1, 0, 4)
    vb, _ = h_vb_window(P111, E, -1, 0, 4)
    eta6 = eta_inv_pow(6, 4)
    # H(X) = sum_n vb(X + n) * eta6(n)
    for x, coeff in full.items():
        expected = sum(vb.get(x + n, 0) * eta6[n] for n in range(0, -x + 1))
        assert coeff == expected
    assert full[0] == vb[0] == 1
    assert full[-1] == 3 + 1 * 6  # new bundles plus six point escapes


def slope_stability_oracle(params, E, datum):
    """Stability by comparing the `Fraction` slopes lin/quad."""
    if min(datum.D1, datum.D2, datum.D3) <= 0:
        return False
    if datum.p1 == datum.p2 or datum.p2 == datum.p3 or datum.p3 == datum.p1:
        return False
    top_f = hilb_top_E_of_kclass(params, E, rank2_typeI_class(params, datum))
    mu_f = top_f.lin / top_f.quad
    total_a = datum.A1 + datum.A2 + datum.A3
    for opposite in (datum.D2 + datum.D3, datum.D1 + datum.D3, datum.D1 + datum.D2):
        top_l = hilb_top_E_of_kclass(params, E, g_power(params, opposite + total_a))
        if top_l.lin / top_l.quad >= mu_f:
            return False
    return True


@pytest.mark.parametrize(
    "weights", [(1, 1, 1), (1, 1, 3), (1, 2, 2), (2, 2, 2), (2, 3, 4), (1, 2, 4), (3, 3, 6)]
)
def test_integer_slope_test_matches_fraction_slopes(weights):
    params = WppParams(*weights)
    a, b, c = params.weights()
    patterns = ((PT1, PT2, PT3), (PT1, PT1, PT3), (PT1, PT2, PT2), (PT3, PT2, PT3))
    seen = set()
    for E in (params.m, 3 * params.m):
        for d1 in range(0, 4 * b + 1, b):
            for d2 in range(0, 4 * c + 1, c):
                for d3 in range(0, 4 * a + 1, a):
                    for pts in patterns:
                        for A in ((0, 0, 0), (2, -1, 5), (0, 0, -9)):
                            datum = TypeIBundle(*A, d1, d2, d3, *pts)
                            verdict = slope_oracle_stability(params, E, datum)
                            assert verdict == slope_stability_oracle(params, E, datum), (
                                weights, E, datum)
                            seen.add(verdict)
    assert seen == {True, False}


@pytest.mark.parametrize("weights", [(1, 1, 1), (2, 2, 2), (2, 2, 4), (1, 3, 3), (2, 3, 4), (4, 6, 12)])
def test_rank_and_twists_of_laurent_terms_matches_canonical_class(weights):
    # the functional descends through P, so any representative will do;
    # the canonical class is the oracle
    params = WppParams(*weights)
    a, b, c = params.weights()
    patterns = ((PT1, PT2, PT3), (PT1, PT1, PT3), (PT1, PT2, PT2), (PT3, PT3, PT3))
    for E in (params.m, 2 * params.m):
        for d1 in range(0, 3 * b + 1, b):
            for d2 in range(0, 3 * c + 1, c):
                for d3 in range(0, 3 * a + 1, a):
                    for pts in patterns:
                        for A in ((0, 0, 0), (2, -1, 5), (0, 0, -31)):
                            datum = TypeIBundle(*A, d1, d2, d3, *pts)
                            terms = rank2_typeI_laurent(datum).items()
                            canonical = enumerate(rank2_typeI_class(params, datum).coeffs)
                            assert (rank_and_twists(params, E, terms)
                                    == rank_and_twists(params, E, canonical)), (weights, datum)


@pytest.mark.parametrize("weights", [(1, 1, 1), (2, 3, 5), (2, 2, 4), (4, 6, 12)])
def test_rank_and_twists_of_a_single_power(weights):
    params = WppParams(*weights)
    E = params.m
    for e in range(-200, 201):
        assert (rank_and_twists(params, E, ((e, 1),))
                == rank_and_twists(params, E, enumerate(g_power(params, e).coeffs))), e


def color_zero_walk(spec, max_zeros):
    """(counts, largest) over the partitions with <= max_zeros boxes of color 0.

    counts[k] is the number with k boxes of color 0, and largest the
    most boxes any of them has.  Walks the prefix tree of rows box by box
    and drops a branch at its (max_zeros + 1)-th box of color 0.  With
    offset 0 the walk ends: adding boxes never removes one of color 0,
    row 0 has one in every period of its colors, and every n-th row
    starts with one.
    """
    counts = [1] + [0] * max_zeros
    largest = 0

    def grow(l2, cap, zeros, size):
        nonlocal largest
        length = 0
        while length < cap:
            if box_color(spec, length, l2) == 0:
                zeros += 1
                if zeros > max_zeros:
                    return
            length += 1
            counts[zeros] += 1
            largest = max(largest, size + length)
            grow(l2 + 1, length, zeros, size + length)

    grow(0, float("inf"), 0, 0)
    return counts, largest


def _h_full_untruncated(params, E, c1, lam, max_order):
    """h_full with walked chart factors and the correction multiplied out in full."""
    vb, floor = h_vb_window(params, E, c1, lam, max_order)
    if not vb:
        return {}, 0
    correction = series_one(("q",))
    for chart in (1, 2, 3):
        counts, _ = color_zero_walk(chart_spec(params, chart), max_order)
        g = q_series(counts)
        correction = series_product(series_product(correction, g), g)
    out = {}
    for e, coeff in vb.items():
        for (n,), mult in correction.coeffs.items():
            if e - n >= floor:
                out[e - n] = out.get(e - n, 0) + coeff * mult
    return out, floor


CHART_COLORINGS = sorted({
    (s.modulus, s.w1, s.w2)
    for weights in combinations_with_replacement(range(1, 5), 3)
    for s in (chart_spec(WppParams(*weights), chart) for chart in (1, 2, 3))
})


@pytest.mark.parametrize("n, w1, w2", CHART_COLORINGS)
def test_color_zero_series_matches_walk_on_charts(n, w1, w2):
    spec = ColoringSpec(n, w1, w2)
    counts, _ = color_zero_walk(spec, 5)
    for order in range(6):
        series = color_zero_series(spec, order)
        assert series == counts[:order + 1]
        assert len(series) == order + 1


@pytest.mark.parametrize("n", range(1, 8))
def test_color_zero_series_matches_walk_on_steps_11(n):
    spec = ColoringSpec(n, 1, 1)
    counts, _ = color_zero_walk(spec, 2)
    assert color_zero_series(spec, 2) == counts


@pytest.mark.parametrize("k", range(1, 6))
def test_color_zero_series_matches_balanced_rhs(k):
    # every partition with <= 3 boxes of color 0 has at most `largest`
    # boxes, so the total-degree cut of the closed form loses none of them
    order = 3
    _, largest = color_zero_walk(balanced_spec(k), order)
    folded = color_zero_specialization(balanced_rhs(k, largest))
    expected = [folded.coefficient((e,)) for e in range(order + 1)]
    assert color_zero_series(balanced_spec(k), order) == expected


def test_color_zero_series_known_values():
    # the mod-4 colorings of chart 3 of P(1,3,4) and chart 1 of P(4,1,1)
    assert color_zero_series(ColoringSpec(4, 1, 3), 5)[5] == 2160
    assert color_zero_series(ColoringSpec(4, 1, 1), 7)[7] == 17283


def test_color_zero_series_rejects_offset():
    with pytest.raises(InvalidInputError):
        color_zero_series(ColoringSpec(2, 1, 1, 1), 3)


# (weights, E, c1, lambda, order) of the hseries requests of the benchmark's
# moduli-mix streams, seeds 1 and 2, and its fixed P(2,2,2) case
HSERIES_SLOTS = [
    ((1, 1, 1), 1, 0, 0, 1), ((1, 1, 1), 2, 1, 0, 2), ((1, 1, 2), 2, -1, 0, 3),
    ((1, 1, 3), 6, 2, 0, 1), ((1, 1, 4), 4, -2, 0, 2), ((1, 1, 5), 5, 0, 0, 1),
    ((1, 1, 6), 12, 1, 0, 2), ((1, 1, 7), 7, -1, 0, 3), ((1, 1, 8), 16, 2, 0, 1),
    ((1, 2, 2), 2, -3, 0, 1), ((1, 2, 2), 4, 3, 0, 3), ((1, 2, 3), 6, -2, 0, 2),
    ((1, 2, 4), 8, 0, 0, 2), ((1, 2, 5), 20, 3, 0, 3), ((1, 2, 6), 12, 0, 0, 2),
    ((1, 3, 3), 3, 2, 0, 2), ((1, 3, 3), 6, -2, 0, 3), ((1, 3, 4), 12, -3, 0, 1),
    ((1, 3, 6), 6, 3, 0, 1), ((1, 4, 4), 4, 3, 0, 1), ((2, 2, 2), 2, 0, 0, 3),
    ((2, 2, 2), 2, 1, 0, 3), ((2, 2, 3), 6, 1, 0, 3), ((2, 2, 4), 8, -1, 1, 1),
    ((2, 2, 5), 20, -1, 0, 1), ((2, 2, 6), 12, -2, 1, 3), ((2, 3, 3), 12, -3, 0, 2),
    ((2, 3, 4), 12, 2, 0, 2), ((2, 4, 4), 8, -3, 1, 2), ((3, 3, 3), 3, 0, 2, 3),
    ((3, 3, 4), 12, 0, 0, 3),
]


@pytest.mark.parametrize("weights, E, c1, lam, order", HSERIES_SLOTS)
def test_h_full_matches_untruncated_correction(weights, E, c1, lam, order):
    params = WppParams(*weights)
    expected = _h_full_untruncated(params, E, c1, lam, order)
    assert h_full(params, E, c1, lam, order) == expected


def _psi_bound_grid(E, m1, n, weight_product):
    """The largest character-sum term over all n^2 residue pairs (r2, r3)."""
    best = Fraction(0)
    for r2 in range(n):
        for r3 in range(n):
            value = psi_E(E, m1, r2, r3, n) / weight_product
            if value > best:
                best = value
    return best


def test_psi_bound_reads_one_row():
    for n in range(1, 13):
        for m1 in range(2 * n + 1):
            for E in (n, 2 * n, 6 * n):
                for weight_product in (1, 2, 6):
                    expected = _psi_bound_grid(E, m1, n, weight_product)
                    assert _psi_bound(E, m1, n, weight_product) == expected, (E, m1, n)


def test_psi_cache_is_keyed_on_residues():
    params = WppParams(2, 2, 6)
    E = params.m
    _psi_sum.cache_clear()
    for depth in (7, 40):
        series, _ = h_vb_window(params, E, 0, 0, depth)
        assert series
    bound = sum(n ** 3 for n in (params.d12, params.d13, params.d23))
    assert 0 < _psi_sum.cache_info().currsize <= bound
