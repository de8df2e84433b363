import random
from itertools import combinations_with_replacement, product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closed_forms import (
    balanced_rhs,
    balanced_spec,
    geometric_factor,
    one_cc_closed_form,
    q_series,
    series_one,
    series_product,
    su_k_character_proxy,
    theta3,
)
from partition_enumeration import (
    color_count,
    color_zero_specialization,
    enumerate_partitions,
    fold,
    partitions_of_size,
    total_count,
)
from point_relations import variable_relations
from wpptoric.errors import InvalidInputError
from wpptoric.kgroup import WppParams
from wpptoric.partitions import (
    ColoringSpec,
    Partition,
    Series,
    _chart_levels,
    _decode,
    _times,
    chart_spec,
    color_zero_series,
    colored_series,
    eta_inv_pow,
    g_series,
    reference_113_report,
)


def test_enumerate_counts():
    assert [p.rows for p in enumerate_partitions(0)] == [()]
    by_size = {}
    for p in enumerate_partitions(4):
        by_size.setdefault(sum(p.rows), []).append(p)
    assert [len(by_size.get(n, [])) for n in range(5)] == [1, 1, 2, 3, 5]
    exactly_ten = [p for p in enumerate_partitions(10) if sum(p.rows) == 10]
    assert len(exactly_ten) == 42


def test_enumerate_deterministic_and_unique():
    seen = list(enumerate_partitions(7))
    assert len(set(seen)) == len(seen)
    assert seen == list(enumerate_partitions(7))


def test_color_count_examples():
    assert color_count(Partition(), ColoringSpec(3, 1, 1)) == (0, 0, 0)
    lam = Partition((2, 1))
    # boxes (0,0)->0, (1,0)->1, (0,1)->1
    assert color_count(lam, ColoringSpec(2, 1, 1, 0)) == (1, 2)
    assert color_count(lam, ColoringSpec(1, 0, 0)) == (3,)


def test_chart_spec():
    p112 = WppParams(1, 1, 2)
    s = chart_spec(p112, 3, 0)
    assert (s.modulus, s.w1, s.w2, s.offset) == (2, 1, 1, 0)
    assert chart_spec(p112, 1, 5).modulus == 1
    p222 = WppParams(2, 2, 2)
    s = chart_spec(p222, 1, 1)
    assert (s.w1, s.w2) == (0, 0)
    assert color_count(Partition((3, 1)), s) == (0, 4)


# `_times` is the package's one series product.  The tests hand it a
# series in at most three variables, with exponents in [-3, 6], as a
# level list: a term with exponents e sits at grade sum(e + shift), and
# the e + shift are the base-32 digits of its code, so that the digits
# of a product (at most 18) never carry
_BASE = 32


def _levels(series, length, shift=0):
    levels = [{} for _ in range(length)]
    for exps, coeff in series.coeffs.items():
        grade = sum(exps) + shift * len(exps)
        if grade < length:
            code = sum((e + shift) * _BASE ** i for i, e in enumerate(exps))
            levels[grade][code] = coeff
    return levels


def _level_product(left, right, cut, shift=0):
    """`_times` of the two series' level lists, cut at total degree `cut`, as a series.

    With no cut the lists reach the largest grade of a product, 18 per
    variable.
    """
    length = 18 * len(left.vars) + 1 if cut is None else cut + 1
    product = _times(_levels(left, length, shift), _levels(right, length, shift))
    decoded = _decode(product, _BASE, len(left.vars))
    return Series(left.vars, {tuple(e - 2 * shift for e in exps): c
                              for exps, c in decoded.items()})


def _random_series(rng, nvars, truncation, low):
    coeffs = {}
    for _ in range(rng.randint(0, 12)):
        exps = tuple(rng.randint(low, 6) for _ in range(nvars))
        coeffs[exps] = rng.choice((rng.randint(-5, 5), rng.randint(-10**12, 10**12)))
    if truncation is not None:
        coeffs = {e: c for e, c in coeffs.items() if sum(e) <= truncation}
    return Series(tuple(f"x{i}" for i in range(nvars)), coeffs)


def test_series_product_matches_naive_product():
    rng = random.Random(23)
    for _ in range(600):
        nvars = rng.randint(1, 3)
        t1, t2 = (rng.choice((None, None, rng.randint(0, 12))) for _ in range(2))
        # negative exponents only where nothing truncates
        low = -3 if t1 is None and t2 is None else 0
        left = _random_series(rng, nvars, t1, low)
        right = _random_series(rng, nvars, t2, low)
        cut = min((t for t in (t1, t2) if t is not None), default=None)
        assert _level_product(left, right, cut, -low) == series_product(left, right, cut)


class _Counted:
    """A coefficient that counts the products it takes part in."""

    products = 0

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        return self.value == getattr(other, "value", other)

    def __add__(self, other):
        return _Counted(self.value + getattr(other, "value", other))

    __radd__ = __add__

    def __mul__(self, other):
        _Counted.products += 1
        return _Counted(self.value * other.value)


@pytest.mark.parametrize("trunc", [None, 0, 3, 6])
def test_series_product_stops_at_the_cut(trunc):
    # the result alone cannot show the stop, since the level lists hold
    # nothing past the cut: count the coefficient products instead
    terms = {(i, j): _Counted(1) for i in range(4) for j in range(4)}
    series = Series(("x", "y"), terms)
    _Counted.products = 0
    product = _level_product(series, series, trunc)
    fits = sum(1 for e1 in terms for e2 in terms
               if trunc is None or sum(e1) + sum(e2) <= trunc)
    assert _Counted.products == fits
    assert product.coeffs == series_product(series, series, trunc).coeffs


def test_specialize_identity_and_total():
    p = WppParams(1, 1, 2)
    g, totals = g_series(p, 0, 4)
    ident = fold(g, {v: v for v in g.vars}, result_vars=g.vars)
    assert ident == g
    tot = total_count(g)
    # triple product of uncolored partition functions
    eta3 = eta_inv_pow(3, 4)
    assert tot == q_series(eta3)
    assert totals == eta3


def test_chart_series_examples():
    p111 = WppParams(1, 1, 1)
    s = colored_series(chart_spec(p111, 2, 0), 3, ("q0",))
    assert s.coeffs == {(0,): 1, (1,): 1, (2,): 2, (3,): 3}
    p112 = WppParams(1, 1, 2)
    s3 = colored_series(chart_spec(p112, 3, 0), 3, ("r0", "r1"))
    assert s3.coefficient((1, 1)) == 2  # partitions (2) and (1,1)
    assert colored_series(chart_spec(p112, 3, 0), 0, ("r0", "r1")).coeffs == {(0, 0): 1}


def test_chart_series_total_specialization_is_uncolored():
    # independent of the coloring, forgetting colors counts all partitions
    for spec in (ColoringSpec(3, 1, 2), ColoringSpec(4, 2, 3, 1), ColoringSpec(2, 0, 0)):
        s = colored_series(spec, 6)
        tot = total_count(s)
        assert tot == q_series(eta_inv_pow(1, 6))


def test_g_series_p2():
    p = WppParams(1, 1, 1)
    g, totals = g_series(p, 0, 2)
    merged = total_count(g)
    assert totals == [1, 3, 9]
    assert merged.coefficient((0,)) == 1
    assert merged.coefficient((1,)) == 3
    assert merged.coefficient((2,)) == 9


def test_balanced_rhs_degenerate_k1():
    assert balanced_rhs(1, 6).coeffs == q_series(eta_inv_pow(1, 6)).coeffs


@pytest.mark.parametrize("k", [2, 3, 4])
def test_balanced_identity(k):
    for order in range(9):
        brute = colored_series(balanced_spec(k), order)
        rhs = balanced_rhs(k, order)
        assert brute == rhs, order


def test_balanced_k2_q0q1_coefficient():
    assert balanced_rhs(2, 4).coefficient((1, 1)) == 2


@pytest.mark.parametrize("k,source,band", [(2, 26, (24, 25, 26)), (3, 37, (37,))])
def test_specialized_balanced_identity(k, source, band):
    # q0 -> q, others -> 1 folds degrees down, so the source order must
    # cover every partition with <= 10 color-0 boxes.  Measured maxima of
    # the size at color-0 count 10: 23 for k=2, 36 for k=3 (stable when
    # enumerated out to 42).  The guard re-checks sizes past the maximum.
    order = 10
    for n in band:
        assert all(
            color_count(lam, balanced_spec(k))[0] > order
            for lam in partitions_of_size(n)
        )
    brute = colored_series(balanced_spec(k), source)
    lhs = fold(brute, {v: "q" if v == "q0" else 1 for v in brute.vars})
    rhs = series_product(q_series(eta_inv_pow(k, order)), su_k_character_proxy(k, order), order)
    for e in range(order + 1):
        assert lhs.coefficient((e,)) == rhs.coefficient((e,))


def test_theta_series():
    assert theta3(4).coeffs == {(0,): 1, (1,): 2, (4,): 2}
    assert eta_inv_pow(1, 4) == [1, 1, 2, 3, 5]
    conv = series_product(q_series(eta_inv_pow(4, 2)), theta3(2), 2)
    assert conv.coefficient((2,)) == 22


def test_eta_inv_pow_matches_product_of_geometric_factors():
    # the running sums against the series product they replace
    for r in range(5):
        for order in range(16):
            expected = series_one(("q",))
            for n in range(1, order + 1):
                factor = geometric_factor(("q",), (n,), order, power=r)
                expected = series_product(expected, factor, order)
            series = eta_inv_pow(r, order)
            assert q_series(series) == expected and len(series) == order + 1, (r, order)
    with pytest.raises(InvalidInputError):
        eta_inv_pow(-1, 3)


def test_su3_proxy_is_hexagonal_theta():
    proxy = su_k_character_proxy(3, 12)
    lattice = {}
    bound = 6
    for n in range(-bound, bound + 1):
        for m in range(-bound, bound + 1):
            e = n * n - n * m + m * m
            if e <= 12:
                lattice[(e,)] = lattice.get((e,), 0) + 1
    assert proxy.coeffs == lattice


@pytest.mark.parametrize("c", [2, 3])
def test_one_cc_closed_form(c):
    order = 6
    params = WppParams(1, c, c)
    g, _ = g_series(params, 0, order)
    # relations for (1,c,c): p0 = q0...q(c-1) = r0...r(c-1), q_i = r_i
    assign = {"p0": {f"r{l}": 1 for l in range(c)}}
    for l in range(c):
        assign[f"q{l}"] = f"r{l}"
        assign[f"r{l}"] = f"r{l}"
    lhs = fold(g, assign, result_vars=tuple(f"r{l}" for l in range(c)), cut=order)
    # p0 has degree c >= 1 after substitution, so no degree folds down and
    # the order-6 truncation stays complete
    rhs = one_cc_closed_form(c, order, leading_power=3)
    assert lhs == rhs


def test_one_cc_literal_display_disagrees():
    # the quoted display (leading power 1) misses the squared full-cycle
    # factor; at c=2 the first wrong coefficient is already at order 2
    literal = one_cc_closed_form(2, 2, leading_power=1)
    params = WppParams(1, 2, 2)
    g, _ = g_series(params, 0, 2)
    assign = {"p0": {"r0": 1, "r1": 1}, "q0": "r0", "q1": "r1", "r0": "r0", "r1": "r1"}
    brute = fold(g, assign, result_vars=("r0", "r1"))
    assert brute.coefficient((1, 1)) == 3
    assert literal.coefficient((1, 1)) == 1


def euler_char_degree(monomial):
    """Total exponent of the index-0 variables of a relation monomial.

    Twisted point classes have holomorphic Euler characteristic zero, so
    this is the Euler characteristic of the 0-dimensional class the
    monomial stands for.
    """
    return sum(e for v, e in monomial.items() if v[1:] == "0")


def test_variable_relations_rows():
    p = WppParams(2, 2, 4)
    rows = variable_relations(p)
    # d = 2 rows of three-way equalities come first
    assert rows[0] == [{"p0": 1}, {"q0": 1}, {"r0": 1, "r2": 1}]
    assert rows[1] == [{"p1": 1}, {"q1": 1}, {"r1": 1, "r3": 1}]
    for row in rows:
        chis = {euler_char_degree(m) for m in row}
        assert len(chis) == 1


def test_color_zero_specialization_112():
    params = WppParams(1, 1, 2)
    g, _ = g_series(params, 0, 20)
    s = color_zero_specialization(g)
    assert [s.coefficient((e,)) for e in range(3)] == [1, 6, 22]


_LCM_AT_MOST_12 = [w for w in combinations_with_replacement(range(1, 13), 3) if lcm(*w) <= 12]


@pytest.mark.parametrize("m", range(1, 13))
def test_chart_folds_match_the_folded_g_series(m):
    # the multicolor product folded afterwards is the oracle of the
    # chart-by-chart codes of both one-variable modes, and of the totals
    for weights in (w for w in _LCM_AT_MOST_12 if lcm(*w) == m):
        params = WppParams(*weights)
        for beta in range(-3, 4):
            g, totals = g_series(params, beta, 8)
            color0, color0_totals = g_series(params, beta, 8, "color0")
            assert color0 == color_zero_specialization(g), (weights, beta)
            total, total_totals = g_series(params, beta, 8, "total")
            assert total == total_count(g), (weights, beta)
            assert totals == color0_totals == total_totals
            assert totals == [total.coefficient((s,)) for s in range(9)]


@pytest.mark.parametrize("weights, beta", [((1, 2, 3), 1), ((2, 6, 12), -2), ((3, 3, 4), 2)])
def test_chart_folds_at_every_low_order(weights, beta):
    params = WppParams(*weights)
    for order in range(9):
        g, totals = g_series(params, beta, order)
        assert g_series(params, beta, order, "color0")[0] == color_zero_specialization(g)
        assert g_series(params, beta, order, "total")[0] == total_count(g)
        assert total_count(g) == q_series(eta_inv_pow(3, order))
        assert totals == eta_inv_pow(3, order)


def test_reference_113_report():
    report = reference_113_report(4)
    statuses = [v["status"] for v in report["verdicts"]]
    assert statuses[:6] == ["ok"] * 6
    assert statuses[6] == "invalid-variable"
    # ground truth: the misprinted term should be 3*r0*r1^2*r2
    assert report["brute"].coefficient((1, 2, 1)) == 3
    assert (({"r0": 1, "r1": 2, "r2": 1}, 3)) in report["unmatched_brute_terms"]


# ---------------------------------------------------------------------------
# reference oracle: one validated Partition object per partition
# ---------------------------------------------------------------------------

def colored_series_oracle(spec, max_order):
    """colored_series by coloring every enumerated partition box by box."""
    coeffs = {}
    for lam in enumerate_partitions(max_order):
        key = color_count(lam, spec)
        coeffs[key] = coeffs.get(key, 0) + 1
    return Series(tuple(f"q{l}" for l in range(spec.modulus)), coeffs)


def test_colored_series_matches_partition_oracle():
    # every normalized spec with modulus <= 6: all steps and offsets
    for n in range(1, 7):
        for w1, w2, offset in product(range(n), repeat=3):
            spec = ColoringSpec(n, w1, w2, offset)
            assert colored_series(spec, 9) == colored_series_oracle(spec, 9), spec
    spec = ColoringSpec(1, 0, 0)
    assert colored_series(spec, 30) == colored_series_oracle(spec, 30)


def g_series_oracle(params, beta, max_order, mode):
    """(vars, coeffs, totals) of g_series by coloring every triple of partitions.

    Chart i's boxes are colored by `chart_spec` at offset -beta; a box
    of color l counts in the chart's variable l (mode none), in q if
    l = 0 (color0), or in q (total).  totals[s] counts the triples of
    s boxes.
    """
    letters = [f"{x}{l}" for x, w in zip("pqr", params.weights()) for l in range(w)]
    vars = tuple(letters) if mode == "none" else ("q",)
    specs = [chart_spec(params, chart, -beta) for chart in (1, 2, 3)]
    coeffs, totals = {}, [0] * (max_order + 1)
    for triple in product(list(enumerate_partitions(max_order)), repeat=3):
        size = sum(sum(lam.rows) for lam in triple)
        if size > max_order:
            continue
        totals[size] += 1
        exps = dict.fromkeys(vars, 0)
        for letter, lam, spec in zip("pqr", triple, specs):
            for color, count in enumerate(color_count(lam, spec)):
                if mode == "none":
                    exps[f"{letter}{color}"] += count
                elif mode == "total" or color == 0:
                    exps["q"] += count
        key = tuple(exps.values())
        coeffs[key] = coeffs.get(key, 0) + 1
    return vars, coeffs, totals


@given(st.tuples(*[st.integers(1, 6)] * 3), st.integers(-3, 3), st.integers(0, 5),
       st.sampled_from(["none", "color0", "total"]))
@settings(max_examples=200, deadline=None)
def test_g_series_matches_the_triples_of_partitions(weights, beta, order, mode):
    # every mode of the chart product, and the totals by number of boxes,
    # against a count that lists the partition triples and never enters
    # the row DP
    params = WppParams(*weights)
    g, totals = g_series(params, beta, order, mode)
    assert (g.vars, g.coeffs, totals) == g_series_oracle(params, beta, order, mode)


def test_g_series_refuses_an_unknown_mode():
    with pytest.raises(InvalidInputError, match="unknown count mode"):
        g_series(WppParams(1, 1, 1), 0, 2, "t")


def test_colored_series_cache_is_not_aliased():
    spec = ColoringSpec(3, 1, 2, 1)
    first = colored_series(spec, 6)
    first.coeffs.clear()
    assert colored_series(spec, 6) == colored_series_oracle(spec, 6)


def test_colored_series_rejects_negative_order():
    with pytest.raises(InvalidInputError):
        colored_series(ColoringSpec(2, 1, 1), -1)


def test_row_dp_caches_are_bounded():
    _chart_levels.cache_clear()
    for order in range(1, 41):
        color_zero_series(ColoringSpec(4, 1, 3), order)
        colored_series(ColoringSpec(2, 1, 1), order)
    info = _chart_levels.cache_info()
    assert info.maxsize is not None and 0 < info.currsize <= info.maxsize < 40
