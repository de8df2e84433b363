"""Stable rank-2 bundles: classification, enumeration, generating functions.

A type-I datum is stable exactly when all three widths are positive,
the three points are mutually distinct and the widths satisfy the
strict triangle inequalities; the slope oracle re-derives this from the
modified Hilbert coefficients of the distinguished sub-line-bundles.

The refined generating function groups solutions of the character
constraints by their full codegree-0 character vector; the specialized
one sums q to the constant term of the modified Hilbert polynomial.
Fixed-point enumeration normalizes the three points to (1:0), (0:1),
(1:1).
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import InternalInconsistencyError, InvalidInputError
from .exact_arith import Cyclotomic, as_rational
from .hilbert import (
    hilb_top_E_of_kclass,
    psi_E,
    rank2_constant_term,
    slope_mu,
    width_free_bracket,
)
from .inertia import _root, sectors, tch_rank2_closed_form
from .kgroup import g_power, rank2_typeI_class
from .partitions import Series, chart_series, color_zero_specialization
from .sheaf_model import TypeIBundle

STANDARD_POINTS = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))


@dataclass(frozen=True)
class StableTriple:
    A: int
    D1: int
    D2: int
    D3: int

    @property
    def widths(self):
        return (self.D1, self.D2, self.D3)


def _strict_triangle(d1, d2, d3):
    return d1 < d2 + d3 and d2 < d1 + d3 and d3 < d1 + d2


def is_mu_stable(params, datum):
    """Stability of a type-I datum: positive widths, distinct points, triangles."""
    datum.validate(params)
    if min(datum.D1, datum.D2, datum.D3) <= 0:
        return False
    if datum.p1 == datum.p2 or datum.p2 == datum.p3 or datum.p3 == datum.p1:
        return False
    return _strict_triangle(datum.D1, datum.D2, datum.D3)


def slope_oracle_stability(params, spec, datum):
    """Stability decided by comparing modified slopes.

    Computes the slope of the bundle from its K-class and the slopes of
    the three distinguished sub-line-bundles (twists by the opposite
    pairs of widths); stable means every sub-line-bundle has strictly
    smaller slope, the widths are positive and the points distinct.
    """
    datum.validate(params)
    spec.validate(params)
    if min(datum.D1, datum.D2, datum.D3) <= 0:
        return False
    if datum.p1 == datum.p2 or datum.p2 == datum.p3 or datum.p3 == datum.p1:
        return False
    top_f = hilb_top_E_of_kclass(params, spec, rank2_typeI_class(params, datum))
    mu_f = slope_mu(params, spec, top_f.quad, top_f.lin)
    total_a = datum.A1 + datum.A2 + datum.A3
    for opposite in (datum.D2 + datum.D3, datum.D1 + datum.D3, datum.D1 + datum.D2):
        sub = g_power(params, opposite + total_a)
        top_l = hilb_top_E_of_kclass(params, spec, sub)
        if slope_mu(params, spec, top_l.quad, top_l.lin) >= mu_f:
            return False
    return True


def _admissible_widths(params, c1, max_sum):
    """Positive divisible width triples with strict triangles and parity.

    Deterministic order: by total width, then lexicographically.
    """
    a, b, c = params.weights()
    for total in range(3, max_sum + 1):
        if (c1 + total) % 2:
            continue
        for d1 in range(b, total - 1, b):
            for d2 in range(c, total - d1, c):
                d3 = total - d1 - d2
                if d3 <= 0 or d3 % a:
                    continue
                if _strict_triangle(d1, d2, d3):
                    yield (d1, d2, d3)


def enumerate_stable_triples(params, c1, lam, max_sum):
    """All (A; D1, D2, D3) with the stated divisibility, parity, congruence
    and strict-triangle constraints, widths summing to at most max_sum.

    Deterministic order: by total width, then lexicographically.
    """
    d = params.d
    for widths in _admissible_widths(params, c1, max_sum):
        A = -(c1 + sum(widths)) // 2
        if (A - lam) % d == 0:
            yield StableTriple(A, *widths)


def _standard_datum(A, widths):
    return TypeIBundle(0, 0, A, *widths, *STANDARD_POINTS)


def refined_key(params, chern):
    """Canonical hashable key of the codegree-0 character entries.

    Sectors in canonical order; each entry in power-basis coordinates at
    the sector's own order f.denominator, so equal values collide
    exactly.
    """
    key = []
    for sector in sectors(params):
        value = chern.codegree(sector, 0)
        key.append((
            sector.f.numerator,
            sector.f.denominator,
            sector.kind,
            sector.which,
            tuple(value.coeffs),
        ))
    return tuple(key)


def _matches(value, target):
    if isinstance(target, Cyclotomic):
        return value == target
    return value == Cyclotomic.from_rational(target)


def enumerate_refined_solutions(params, alpha, beta, max_sum):
    """Solutions (A, widths, character) of the refined constraints.

    `alpha` maps sector indices f in D to codegree-2 targets; `beta`
    maps sector indices in D or D_ij to codegree-1 targets.  Sectors
    missing from the maps are unconstrained.  The twist A is solved from
    the untwisted f = 0 equation: beta[0] must be an even-defect integer
    with A = -(beta_0 + D1 + D2 + D3)/2.
    """
    beta0 = beta.get(Fraction(0))
    if beta0 is None:
        raise InvalidInputError("beta must constrain the untwisted sector f = 0")
    beta0 = as_rational(beta0) if isinstance(beta0, Cyclotomic) else Fraction(beta0)
    if beta0 is None or beta0.denominator != 1:
        raise InvalidInputError("the f = 0 component of beta must be an integer")
    beta0 = int(beta0)
    sector_list = sectors(params)
    for widths in _admissible_widths(params, beta0, max_sum):
        A = -(beta0 + sum(widths)) // 2
        datum = _standard_datum(A, widths)
        chern = tch_rank2_closed_form(params, datum)
        ok = True
        for sector in sector_list:
            if sector.kind == "2dim":
                target = alpha.get(sector.f)
                if target is not None and not _matches(chern.codegree(sector, 2), target):
                    ok = False
                    break
            if sector.kind in ("2dim", "1dim"):
                target = beta.get(sector.f)
                if target is not None and not _matches(chern.codegree(sector, 1), target):
                    ok = False
                    break
        if ok:
            yield (A, widths, chern)


def h_vb_refined(params, alpha, beta, max_sum):
    """Multiplicities of codegree-0 character keys over the solutions."""
    counts = {}
    for _, _, chern in enumerate_refined_solutions(params, alpha, beta, max_sum):
        key = refined_key(params, chern)
        counts[key] = counts.get(key, 0) + 1
    return counts


def refined_targets(params, c1, lam):
    """(alpha, beta) selectors matching the specialized invariants (c1, lam).

    On every 2-dimensional sector f the codegree-2 value is forced to
    2 e^(-2 pi i f lam) and the codegree-1 value to c1 e^(-2 pi i f lam);
    1-dimensional sectors are left unconstrained.
    """
    alpha = {}
    beta = {}
    for sector in sectors(params):
        if sector.kind != "2dim":
            continue
        omega = _root(sector.f, lam)
        alpha[sector.f] = 2 * omega
        beta[sector.f] = c1 * omega
    return alpha, beta


def h_vb_specialized(params, spec, c1, lam, max_sum):
    """One-variable series: q to the Hilbert constant term, over stable data.

    Every exponent is an integer by the integrality of the constant
    term; exponents are complete for the widths enumerated (the sole
    truncation knob is max_sum).
    """
    coeffs = {}
    for triple in enumerate_stable_triples(params, c1, lam, max_sum):
        value = rank2_constant_term(params, spec, c1, lam, *triple.widths)
        key = (int(value),)
        coeffs[key] = coeffs.get(key, 0) + 1
    return Series(("q",), coeffs, None)


@lru_cache(maxsize=None)
def _psi_bound(params, E, m1, n, weight_product):
    """Largest value of the character-sum term over all residue classes."""
    best = Fraction(0)
    for r2 in range(n):
        for r3 in range(n):
            value = Fraction(1, weight_product) * psi_E(E, m1, r2, r3, n)
            if value > best:
                best = value
    return best


def _constant_term_upper_bound(params, spec, c1, total):
    """Upper bound for the Hilbert constant term at fixed total width.

    Writing the widths through the triangle substitution D1 = (y+z)/2
    etc. with x, y, z >= 1, the quadratic part equals -(xy+yz+zx)/4 <=
    -(2s-3)/4 at total width s; the remaining bracket terms are
    maximized over the residue [A]_d and the character sums over their
    residues.
    """
    a, b, c = params.weights()
    E = spec.E
    best_bracket = max(width_free_bracket(params, E, c1, Ad) for Ad in range(params.d))
    quad_max = -Fraction(2 * total - 3, 4)
    bound = Fraction(E, a * b * c) * (best_bracket + quad_max)
    bound += _psi_bound(params, E, c, params.d12, a * b)
    bound += _psi_bound(params, E, b, params.d13, a * c)
    bound += _psi_bound(params, E, a, params.d23, b * c)
    return bound


def h_vb_window(params, spec, c1, lam, depth):
    """The specialized series, complete on its top `depth` exponents.

    Finds the largest constant term over all stable data (the upper
    bound at total width s decreases linearly, so the search below some
    width is futile), then enumerates every triple whose exponent can
    still reach the window [top - depth, top].
    Returns (series, floor_exponent).
    """
    spec.validate(params)
    top = None
    total = 3
    while True:
        found = [
            rank2_constant_term(params, spec, c1, lam, *t.widths)
            for t in enumerate_stable_triples(params, c1, lam, total)
            if sum(t.widths) == total
        ]
        if found:
            best = max(found)
            if top is None or best > top:
                top = int(best)
        if top is not None and _constant_term_upper_bound(params, spec, c1, total) < top:
            break
        total += 1
        if total > 4 * (abs(c1) + depth + params.m + 10):
            if top is None:
                return Series(("q",), {}, None), 0
            break
    floor = top - depth
    coeffs = {}
    total = 3
    while _constant_term_upper_bound(params, spec, c1, total) >= floor or total <= sum(
        (3, params.a, params.b, params.c)
    ):
        for triple in enumerate_stable_triples(params, c1, lam, total):
            if sum(triple.widths) != total:
                continue
            value = int(rank2_constant_term(params, spec, c1, lam, *triple.widths))
            if value >= floor:
                coeffs[(value,)] = coeffs.get((value,), 0) + 1
        total += 1
    return Series(("q",), coeffs, None), floor


def chart_unit_series(params, chart, max_order):
    """Chart generating function specialized to the color-0 grading."""
    return color_zero_specialization(chart_series(params, chart, 0, max_order))


def h_full(params, spec, c1, lam, max_order, chart_source_order=None):
    """Product of the specialized series with the squared chart series.

    The chart factors count rank-1 data on the three open charts, in
    the color-0 grading (an interpretation: the product formula holds at
    the level of classes and does not name a specialization).  The
    result is reported on the top max_order exponents of the rank-2
    factor; `chart_source_order` controls how far the chart colorings
    are enumerated before specializing (folded colors need extra room).
    Returns (series, floor_exponent).
    """
    vb, floor = h_vb_window(params, spec, c1, lam, max_order)
    if not vb.coeffs:
        return Series(("q",), {}, None), 0
    if chart_source_order is None:
        chart_source_order = 4 * max_order + 6
    unit = Series(("q",), {(0,): 1}, None)
    correction = unit
    for chart in (1, 2, 3):
        g = chart_unit_series(params, chart, chart_source_order)
        g = Series(("q",), dict(g.coeffs), None)
        correction = correction * g * g
    out = {}
    for (e,), coeff in vb.coeffs.items():
        for (n,), mult in correction.coeffs.items():
            x = e - n
            if x < floor:
                continue
            out[(x,)] = out.get((x,), 0) + coeff * mult
    return Series(("q",), out, None), floor
