"""Stable rank-2 bundles: classification, enumeration, generating functions.

A type-I datum is stable exactly when all three widths are positive,
the three points are mutually distinct and the widths satisfy the
strict triangle inequalities; the slope oracle re-derives this from the
modified Hilbert coefficients of the distinguished sub-line-bundles.

The specialized generating function sums q to the constant term of
the modified Hilbert polynomial over the stable data; its check solves
the character constraints of (c1, lambda) on the 2-dimensional sectors
from the closed-form character (`enumerate_refined_solutions`).  The
refined series, which groups those solutions by their codegree-0
character vector, is an oracle of the tests.
Every one-variable series here is an {exponent: count} dict of its
nonzero coefficients.
Fixed-point enumeration normalizes the three points to (1:0), (0:1),
(1:1).
"""

from fractions import Fraction
from functools import lru_cache

from .errors import InternalInconsistencyError
from .hilbert import (
    check_generating_E,
    psi_E,
    rank2_constant_term,
    rank_and_twists,
    width_free_bracket_12,
)
from .inertia import sector_value, sectors, tch_rank2_closed_form
from .kgroup import rank2_typeI_laurent
from .partitions import _times, chart_spec, color_zero_series
from .sheaf_model import TypeIBundle


def _strict_triangle(d1, d2, d3):
    return d1 < d2 + d3 and d2 < d1 + d3 and d3 < d1 + d2


def is_mu_stable(params, datum):
    """Stability of a type-I datum: positive widths, distinct points, triangles.

    Validates the datum against `params` first.
    """
    datum.validate(params)
    if min(datum.D1, datum.D2, datum.D3) <= 0 or not datum.points_distinct():
        return False
    return _strict_triangle(datum.D1, datum.D2, datum.D3)


def slope_oracle_stability(params, E, datum):
    """Stability decided by comparing modified slopes.

    Computes the slope of the bundle from its K-class and the slopes of
    the three distinguished sub-line-bundles (twists by the opposite
    pairs of widths); stable means every sub-line-bundle has strictly
    smaller slope, the widths are positive and the points distinct.
    Rank and twist sum are read from the Laurent polynomial of the
    class, each line bundle being the single term g^e: they descend to
    the K-group (`rank_and_twists`), so no canonical representative is
    built.  `rank_and_twists` does not check E; it is checked once here,
    by `check_generating_E`, before the four classes are read.  The
    slope of a class is twists * d / (rank * E * m), so with positive
    ranks the test mu_l >= mu_f is the integer comparison twists_l *
    rank_f >= twists_f * rank_l.

    `datum` must be valid for `params` (`TypeIBundle.validate`, which
    `is_mu_stable` runs); it is not checked again here.
    """
    check_generating_E(params, E)
    if min(datum.D1, datum.D2, datum.D3) <= 0 or not datum.points_distinct():
        return False
    rank_f, tw_f = rank_and_twists(params, E, rank2_typeI_laurent(datum).items())
    total_a = datum.A1 + datum.A2 + datum.A3
    for opposite in (datum.D2 + datum.D3, datum.D1 + datum.D3, datum.D1 + datum.D2):
        rank_l, tw_l = rank_and_twists(params, E, ((opposite + total_a, 1),))
        if min(rank_f, rank_l) <= 0:
            raise InternalInconsistencyError(f"ranks {rank_f}, {rank_l} must be positive")
        if tw_l * rank_f >= tw_f * rank_l:
            return False
    return True


def _admissible_widths(params, c1, max_sum):
    """Positive divisible width triples with strict triangles and parity.

    Widths sum to at most `max_sum`.  Deterministic order: by total
    width, then lexicographically.
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
    """All (A, (D1, D2, D3)) with the stated divisibility, parity,
    congruence and strict-triangle constraints, widths summing to at
    most max_sum.

    Deterministic order: by total width, then lexicographically.
    """
    d = params.d
    for widths in _admissible_widths(params, c1, max_sum):
        A = -(c1 + sum(widths)) // 2
        if (A - lam) % d == 0:
            yield (A, widths)


def enumerate_refined_solutions(params, c1, lam, max_sum):
    """The (A, widths) whose closed-form character has the invariants (c1, lam).

    On every 2-dimensional sector f the codegree-2 entry must be
    2 omega^lam and the codegree-1 entry c1 omega^lam, omega =
    e^(-2 pi i f); the other sectors are unconstrained.  The twist is
    solved from the untwisted sector f = 0, A = -(c1 + D1 + D2 + D3)/2,
    over the admissible widths summing to at most `max_sum`, in their
    order.
    """
    targets = [
        (i, (sector_value(sector.f, [(lam, 2)]), sector_value(sector.f, [(lam, c1)])))
        for i, sector in enumerate(sectors(params)) if sector.dim == 2
    ]
    for widths in _admissible_widths(params, c1, max_sum):
        A = -(c1 + sum(widths)) // 2
        entries = tch_rank2_closed_form(params, TypeIBundle(0, 0, A, *widths)).entries
        if all(entries[i][:2] == target for i, target in targets):
            yield (A, widths)


def h_vb_specialized(params, E, c1, lam, max_sum):
    """{exponent: count}: q to the Hilbert constant term, over stable data.

    Every exponent is an integer by the integrality of the constant
    term; exponents are complete for the widths enumerated (the sole
    truncation knob is max_sum).
    """
    counts = {}
    for A, widths in enumerate_stable_triples(params, c1, lam, max_sum):
        e = rank2_constant_term(params, E, A, *widths)
        counts[e] = counts.get(e, 0) + 1
    return counts


def _psi_bound(E, m1, n, weight_product):
    """Largest value of the character-sum term over all residue classes.

    psi_E(E, m1, r2, r3, n) = -E (T(r3) + T(r3 + r2)) / n^2 for one
    function T of a residue (`_psi_sum`), so no pair (r2, r3) beats
    twice the largest -E T / n^2, which r2 = 0 reaches: one row suffices.
    """
    return max(Fraction(0), *(psi_E(E, m1, 0, r3, n) for r3 in range(n))) / weight_product


@lru_cache(maxsize=128)
def _bound_parts(params, E, c1):
    """(12 x the best width-free bracket over [A]_d, the character-sum bound)."""
    a, b, c = params.weights()
    best12 = max(width_free_bracket_12(params, E, c1, Ad) for Ad in range(params.d))
    psi = (
        _psi_bound(E, c, params.d12, a * b)
        + _psi_bound(E, b, params.d13, a * c)
        + _psi_bound(E, a, params.d23, b * c)
    )
    return best12, psi


def _form_bound(params, E, c1, q):
    """Upper bound for the Hilbert constant term, strictly decreasing in q.

    With x = D2+D3-D1, y = D1+D3-D2, z = D1+D2-D3 the width terms of the
    bracket are -q/4, q = xy + yz + zx; the other bracket terms are
    maximized over [A]_d and the character sums over their residues.
    """
    best12, psi = _bound_parts(params, E, c1)
    abc = params.a * params.b * params.c
    return Fraction(E * (best12 - 3 * q), 12 * abc) + psi


def _triangle_widths(params, c1, lam, low, high):
    """The stable triples (A, (D1, D2, D3)) with low < q <= high.

    x, y, z >= 1 of the parity of c1 (x + y + z = D1 + D2 + D3) give
    D1 = (y+z)/2, D2 = (x+z)/2, D3 = (x+y)/2 with strict triangles, and
    q = xy + z(x+y) bounds z.
    """
    a, b, c = params.weights()
    s = 2 - c1 % 2
    for x in range(s, high, 2):
        for y in range(s, high, 2):
            z_top = (high - x * y) // (x + y)
            if z_top < s:
                break
            if (x + y) // 2 % a:
                continue
            z_low = max(s, (low - x * y) // (x + y) + 1)
            for z in range(z_low + (z_low - s) % 2, z_top + 1, 2):
                d1, d2 = (y + z) // 2, (x + z) // 2
                A = -(c1 + x + y + z) // 2
                if d1 % b or d2 % c or (A - lam) % params.d:
                    continue
                yield A, (d1, d2, (x + y) // 2)


def h_vb_window(params, E, c1, lam, depth):
    """The specialized series, complete on its top `depth` exponents.

    Every width is a multiple of d, so a stable datum has total s = 0
    (mod d), and A = -(c1 + s)/2 = lam (mod d) forces d | c1 + 2 lam.
    Conversely, when d divides c1 + 2 lam, widths 2m with one weight
    added to one of them give strict triangles with s/d of either
    parity, so a stable datum exists and the window is nonempty.

    The scan keeps every constant term with q <= Q0 (see `_form_bound`),
    doubling Q0 until the bound at Q0 + 1 is below the running top minus
    `depth`: the bound decreases strictly in q and the top only rises,
    so no exponent at or above the final floor is missed.
    Returns ({exponent: count}, floor_exponent).

    >>> from wpptoric.kgroup import WppParams
    >>> h_vb_window(WppParams(4, 6, 12), 12, 1, 0, 5)
    ({}, 0)
    """
    check_generating_E(params, E)
    if (c1 + 2 * lam) % params.d:
        return {}, 0
    found = []
    low, high = 0, 3
    while not found or _form_bound(params, E, c1, low + 1) >= max(found) - depth:
        for A, widths in _triangle_widths(params, c1, lam, low, high):
            found.append(rank2_constant_term(params, E, A, *widths))
        low, high = high, 2 * high
    floor = max(found) - depth
    counts = {}
    for value in found:
        if value >= floor:
            counts[value] = counts.get(value, 0) + 1
    return counts, floor


def h_full(params, E, c1, lam, max_order):
    """Product of the specialized series with the squared chart series.

    The chart factors count rank-1 data on the three open charts, in
    the color-0 grading (an interpretation: the product formula holds at
    the level of classes and does not name a specialization).  The
    result is reported on the top max_order exponents of the rank-2
    factor, where it is exact.  The six chart factors are multiplied as
    level lists by `_times`, each count at the one code 0.
    Returns ({exponent: count}, floor_exponent).
    """
    vb, floor = h_vb_window(params, E, c1, lam, max_order)
    if not vb:
        return {}, 0
    # vb lives in [floor, floor + max_order], so only correction
    # exponents n <= max_order reach the window
    correction = [{0: 1}] + [{} for _ in range(max_order)]
    for chart in (1, 2, 3):
        g = [{0: count} for count in color_zero_series(chart_spec(params, chart), max_order)]
        correction = _times(_times(correction, g), g)
    out = {}
    for e, coeff in vb.items():
        for n, level in enumerate(correction):
            x = e - n
            if x < floor:
                break
            out[x] = out.get(x, 0) + coeff * level[0]
    return out, floor
