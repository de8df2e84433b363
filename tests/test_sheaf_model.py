from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partition_enumeration import partitions_of_size
from sheaf_predicates import coherence_check, dim_at, reflexive_check, torsion_free_check
from wpptoric.errors import InsufficientWindowError, InvalidInputError
from wpptoric.kgroup import (
    WppParams,
    line_bundle_class,
    rank1_class,
    rank2_typeI_class,
    rank2_typeI_laurent,
)
from wpptoric.partitions import Partition
from wpptoric.sheaf_model import (
    STANDARD_POINTS,
    Rank1Sheaf,
    TypeIBundle,
    TruncatedSFamily,
    _deficit,
    check_gluing,
    kclass_by_devissage,
    minimal_halfwidth,
    normalize_point,
    sfamily,
)

P111 = WppParams(1, 1, 1)
P112 = WppParams(1, 1, 2)
P222 = WppParams(2, 2, 2)

PT1 = (1, 0)
PT2 = (0, 1)
PT3 = (1, 1)


def families(params, sheaf, shifts=(0, 0, 0), halfwidth=None):
    return tuple(
        sfamily(params, sheaf, chart, halfwidth=halfwidth, fine_shift=shifts[chart - 1])
        for chart in (1, 2, 3)
    )


def test_normalize_point():
    assert normalize_point((2, 4)) == (1, 2)
    assert normalize_point((0, -3)) == (0, 1)
    with pytest.raises(InvalidInputError):
        normalize_point((0, 0))


def test_type_i_points_normalized_once():
    default = TypeIBundle(0, 0, 0, 1, 1, 1)
    assert all(p is q for p, q in zip((default.p1, default.p2, default.p3), STANDARD_POINTS))
    assert STANDARD_POINTS == ((1, 0), (0, 1), (1, 1))
    # a point given in another form is still normalized, and (0, 0) refused
    datum = TypeIBundle(0, 0, 0, 1, 1, 1, (2, 4), (0, -3), (Fraction(1, 2), 1))
    assert (datum.p1, datum.p2, datum.p3) == ((1, 2), (0, 1), (1, 2))
    for points in (((0, 0), PT2, PT3), (PT1, PT2, (0, 0))):
        with pytest.raises(InvalidInputError):
            TypeIBundle(0, 0, 0, 1, 1, 1, *points)


def test_window_policy():
    sheaf = Rank1Sheaf(1, -2, 0, Partition((2, 1)))
    needed = minimal_halfwidth(P111, sheaf)
    assert needed == 2 + 2 + 2
    with pytest.raises(InvalidInputError):
        sfamily(P111, sheaf, 1, halfwidth=needed - 1)
    fam = sfamily(P111, sheaf, 1, halfwidth=needed + 1)
    assert fam.halfwidth == needed + 1


def test_rank1_staircase_shape():
    sheaf = Rank1Sheaf(0, 0, 0, Partition((1,)))
    fam = sfamily(P111, sheaf, 1)
    box = (0, 0)
    assert dim_at(fam, box, 0, 0) == 0  # the cut corner
    assert dim_at(fam, box, 1, 0) == 1 and dim_at(fam, box, 0, 1) == 1
    assert dim_at(fam, box, -1, 2) == 0
    assert fam.nonzero_boxes() == [box]


def test_rank1_fine_weights_alternate_on_stacky_chart():
    # chart 3 of (1,1,2): weights flip parity with every lattice step and
    # the staircase corner carries A+B+C mod 2
    sheaf = Rank1Sheaf(1, 0, 0)
    fam = sfamily(P112, sheaf, 3)
    corner = min((l1, l2) for (_, l1, l2) in fam.dims)
    assert fam.dims[(fam.nonzero_boxes()[0], *corner)] == (1,)
    for (bx, l1, l2), weights in fam.dims.items():
        assert weights == ((1 + (l1 - corner[0]) + (l2 - corner[1])) % 2,)


def test_typeI_dimension_pattern():
    datum = TypeIBundle(0, 0, 0, 1, 1, 1, PT1, PT2, PT3)
    fam = sfamily(P111, datum, 1)
    box = (0, 0)
    assert dim_at(fam, box, 0, 0) == 0  # distinct points: empty corner box
    assert dim_at(fam, box, 0, 1) == 1 and dim_at(fam, box, 1, 0) == 1
    assert dim_at(fam, box, 1, 1) == 2
    datum_eq = TypeIBundle(0, 0, 0, 1, 1, 1, PT1, PT1, PT3)
    fam_eq = sfamily(P111, datum_eq, 1)
    assert dim_at(fam_eq, box, 0, 0) == 1  # coincident points fill the corner


def test_typeI_zero_widths_are_two_line_bundles():
    datum = TypeIBundle(0, 0, 0, 0, 0, 0, PT1, PT2, PT3)
    fam = sfamily(P111, datum, 2)
    assert dim_at(fam, (0, 0), 0, 0) == 2
    assert dim_at(fam, (0, 0), -1, 0) == 0


@st.composite
def chart_sheaves(draw, max_weight=4):
    """A weight triple <= max_weight, a rank-1 sheaf or type-I bundle on it, a chart, a shift."""
    weights = draw(st.tuples(*[st.integers(1, max_weight)] * 3))
    labels = draw(st.tuples(*[st.integers(-4, 4)] * 3))
    chart, shift = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    if draw(st.booleans()):
        rows = st.lists(st.integers(1, 3), max_size=3)
        lams = [Partition(sorted(draw(rows), reverse=True)) for _ in range(3)]
        return weights, Rank1Sheaf(*labels, *lams), chart, shift
    a, b, c = weights
    widths = [w * draw(st.integers(0, 2)) for w in (b, c, a)]
    # (2, 2) is (1, 1) on the projective line
    points = draw(st.tuples(*[st.sampled_from([PT1, PT2, PT3, (2, 2)])] * 3))
    return weights, TypeIBundle(*labels, *widths, *points), chart, shift


def expected_cells(weights, sheaf, chart, halfwidth, shift):
    """The cell rule written out: (box, l1, l2) -> fine weights, nonzero cells only.

    Chart i has modulus w_i and steps (w_(i+1), w_(i+2)); its box and corner
    split labels i and i + 1 by w_(i+1) and w_(i+2).  A rank-1 sheaf has
    dimension 1 from the corner on, off the chart partition.  A type-I
    bundle has 2 past both lattice widths, 1 past one of them, and on the
    corner rectangle 1 exactly when the chart's two points coincide.
    """
    k, k1, k2 = chart - 1, chart % 3, (chart + 1) % 3
    mod, step1, step2 = weights[k], weights[k1], weights[k2]
    if isinstance(sheaf, Rank1Sheaf):
        labels = (sheaf.A, sheaf.B, sheaf.C)
        lam = (sheaf.lam1, sheaf.lam2, sheaf.lam3)[k]
    else:
        labels = (sheaf.A1, sheaf.A2, sheaf.A3)
        widths = (sheaf.D1, sheaf.D2, sheaf.D3)
        width1, width2 = widths[k] // step1, widths[k1] // step2
        points = (sheaf.p1, sheaf.p2, sheaf.p3)
        (x1, y1), (x2, y2) = points[k], points[k1]
        coincide = x1 * y2 == x2 * y1
    box = (labels[k] % step1, labels[k1] % step2)
    corner = (labels[k] // step1, labels[k1] // step2)
    cells = {}
    for l1 in range(-halfwidth, halfwidth + 1):
        for l2 in range(-halfwidth, halfwidth + 1):
            u, v = l1 - corner[0], l2 - corner[1]
            if u < 0 or v < 0:
                continue
            if isinstance(sheaf, Rank1Sheaf):
                dim = 0 if v < len(lam.rows) and u < lam.rows[v] else 1
            elif u >= width1 and v >= width2:
                dim = 2
            elif u >= width1 or v >= width2:
                dim = 1
            else:
                dim = 1 if coincide else 0
            if dim:
                weight = (sum(labels) + shift + u * step1 + v * step2) % mod
                cells[(box, l1, l2)] = (weight,) * dim
    return cells


@given(chart_sheaves())
@settings(max_examples=300, deadline=None)
def test_sfamily_follows_the_cell_rule(case):
    weights, sheaf, chart, shift = case
    fam = sfamily(WppParams(*weights), sheaf, chart, fine_shift=shift)
    assert fam.dims == expected_cells(weights, sheaf, chart, fam.halfwidth, shift)


def test_rank1_gluing_passes():
    cases = [
        (P111, Rank1Sheaf(0, 0, 0)),
        (P111, Rank1Sheaf(2, -1, 1, Partition((2, 1)), Partition((1,)), Partition((3,)))),
        (P112, Rank1Sheaf(1, 0, -2, Partition((1, 1)), Partition(), Partition((2,)))),
        (P222, Rank1Sheaf(1, 2, 3, Partition((2,)), Partition((1,)), Partition((1, 1)))),
        (WppParams(2, 3, 4), Rank1Sheaf(-1, 2, 5, Partition((2, 2)), Partition((1,)), Partition())),
    ]
    for params, sheaf in cases:
        ok, diag = check_gluing(params, *families(params, sheaf))
        assert ok, (params, sheaf, diag)


def test_rank1_gluing_rejects_mismatched_corners():
    # three charts built from reflexive hulls that disagree in one label
    good = Rank1Sheaf(0, 0, 0)
    bad = Rank1Sheaf(0, 1, 0)
    f1 = sfamily(P111, good, 1, halfwidth=4)
    f2 = sfamily(P111, bad, 2, halfwidth=4)
    f3 = sfamily(P111, good, 3, halfwidth=4)
    ok, diag = check_gluing(P111, f1, f2, f3)
    assert not ok and diag


def test_rank1_gluing_ignores_partitions():
    good = Rank1Sheaf(0, 0, 0)
    lam = Rank1Sheaf(0, 0, 0, Partition((1,)))
    f1 = sfamily(P111, lam, 1, halfwidth=5)
    f2, f3 = (sfamily(P111, good, ch, halfwidth=5) for ch in (2, 3))
    ok, _ = check_gluing(P111, f1, f2, f3)
    assert ok  # partitions sit in the corner and are invisible to the limits


def test_window_guards():
    # generators reject too-small windows outright
    taller = Rank1Sheaf(0, 0, 0, Partition((1, 1, 1, 1, 1, 1, 1)))
    with pytest.raises(InvalidInputError):
        sfamily(P111, taller, 1, halfwidth=5)
    # an unstabilized hand-built family is flagged by the verifier
    dims = {((0, 0), l1, l2): (0,) for l1 in range(-1, 4) for l2 in range(-1, 4)}
    dims[((0, 0), 3, 3)] = ()  # dent at the window edge: no limit yet
    bad = TruncatedSFamily(P111, 1, 3, dims)
    good = sfamily(P111, Rank1Sheaf(0, 0, 0), 2, halfwidth=3)
    good3 = sfamily(P111, Rank1Sheaf(0, 0, 0), 3, halfwidth=3)
    with pytest.raises(InsufficientWindowError):
        check_gluing(P111, bad, good, good3)


@pytest.mark.parametrize("params", [P112, P222])
def test_fine_weight_uniqueness(params):
    # exactly one fine-weight assignment per chart triple glues
    sheaf = Rank1Sheaf(1, 0, 1, Partition((1,)), Partition(), Partition((2,)))
    a, b, c = params.weights()
    passing = []
    for shifts in product(range(a), range(b), range(c)):
        ok, _ = check_gluing(params, *families(params, sheaf, shifts))
        if ok:
            passing.append(shifts)
    assert passing == [(0, 0, 0)]


def test_rank2_gluing_and_mutations():
    params = P112
    halfwidth = 10
    datum = TypeIBundle(0, 1, -1, 1, 2, 1, PT1, PT2, PT3)
    ok, diag = check_gluing(params, *families(params, datum, halfwidth=halfwidth))
    assert ok, diag
    # width parity flip on the stacky chart breaks the fine gradings
    bad_width = TypeIBundle(0, 1, -1, 1, 2, 2, PT1, PT2, PT3)
    fams = list(families(params, datum, halfwidth=halfwidth))
    fams[2] = sfamily(params, bad_width, 3, halfwidth=halfwidth)
    ok, _ = check_gluing(params, *fams)
    assert not ok
    # a mismatched twist label on one chart fails
    shifted = TypeIBundle(0, 1, 1, 1, 2, 1, PT1, PT2, PT3)
    fams = list(families(params, datum, halfwidth=halfwidth))
    fams[1] = sfamily(params, shifted, 2, halfwidth=halfwidth)
    ok, _ = check_gluing(params, *fams)
    assert not ok
    # point-coincidence flip changes a corner dimension on one chart only
    coincident = TypeIBundle(0, 1, -1, 1, 2, 1, PT1, PT1, PT3)
    fams = list(families(params, datum, halfwidth=halfwidth))
    fams[0] = sfamily(params, coincident, 1, halfwidth=halfwidth)
    ok, _ = check_gluing(params, *fams)
    assert ok  # corner boxes do not reach the limits: gluing cannot see them
    # a fine-weight twist on the one chart with a nontrivial group fails
    fams = list(families(params, datum, shifts=(0, 0, 1), halfwidth=halfwidth))
    ok, _ = check_gluing(params, *fams)
    assert not ok


def test_gluing_diagnostic_grades_in_chart_order():
    # equation 31 lists its grades as (mod a, mod c), like 12 and 23 list theirs
    params = WppParams(2, 3, 5)
    sheaf = Rank1Sheaf(1, 0, 1)
    ok, diag = check_gluing(params, *families(params, sheaf, shifts=(1, 0, 0)))
    assert not ok
    assert [d["equation"] for d in diag] == ["12"] * 4 + ["31"] * 4
    assert diag[4:] == [
        {"equation": "31", "outer": 1, "line": line, "lhs": [((1, g), 1)], "rhs": [((0, g), 1)]}
        for line, g in enumerate((1, 4, 2, 0))
    ]


def test_points_distinct():
    assert TypeIBundle(0, 0, 0, 1, 1, 1).points_distinct()
    for points in ((PT1, PT1, PT3), (PT1, PT2, PT2), (PT3, PT2, (2, 2))):
        assert not TypeIBundle(0, 0, 0, 1, 1, 1, *points).points_distinct()


@st.composite
def point_patterns(draw):
    """Weights <= 4, divisible widths and three points, scaled copies of one to three bases."""
    weights = draw(st.tuples(*[st.integers(1, 4)] * 3))
    a, b, c = weights
    widths = [w * draw(st.integers(0, 2)) for w in (b, c, a)]
    coord = st.integers(-3, 3)
    bases = draw(st.lists(st.tuples(coord, coord).filter(any), min_size=1, max_size=3))
    scale = st.sampled_from([1, -1, 2, -3, Fraction(1, 2)])
    points = [tuple(draw(scale) * x for x in draw(st.sampled_from(bases))) for _ in range(3)]
    return weights, widths, points


@given(point_patterns())
@settings(max_examples=300, deadline=None)
def test_same_decides_every_point_comparison(case):
    weights, widths, points = case
    params = WppParams(*weights)
    datum = TypeIBundle(0, 1, -1, *widths, *points)
    # (x1:y1) = (x2:y2) exactly when x1 y2 = x2 y1, scaled duplicates included
    pairs = list(zip(points, points[1:] + points[:1]))
    expected = tuple(p[0] * q[1] == q[0] * p[1] for p, q in pairs)
    assert datum.same == expected
    assert datum.points_distinct() == (not any(expected))
    # _deficit cuts chart k's corner rectangle exactly when p_k and p_(k+1) differ
    for chart in (1, 2, 3):
        _, step1, step2 = params.chart(chart)
        d1, d2 = widths[chart - 1], widths[chart % 3]
        cut = 0 if expected[chart - 1] else (d1 // step1) * (d2 // step2)
        assert sum(_deficit(params, datum, chart).rows) == cut, chart
    # the class, shifted by A1 + A2 + A3 = 0, drops the pair term
    # (1 - g^Di)(1 - g^Dj) of each coincident pair
    D1, D2, D3 = widths
    terms = Counter((0, D1 + D2 + D3))
    for (di, dj), same in zip(((D1, D2), (D2, D3), (D3, D1)), expected):
        if not same:
            for e, sign in ((0, -1), (di, 1), (dj, 1), (di + dj, -1)):
                terms[e] += sign
    laurent = rank2_typeI_laurent(datum)
    assert {e: x for e, x in laurent.items() if x} == {e: x for e, x in terms.items() if x}


def test_rank2_gluing_matched_point_patterns():
    # the same type-I datum generates all three charts, so any point
    # pattern glues; the pattern only shows up in corner regions
    for pts in ((PT1, PT2, PT3), (PT1, PT1, PT3), (PT2, PT2, PT2)):
        datum = TypeIBundle(1, 0, 0, 2, 1, 1, *pts)
        ok, diag = check_gluing(P111, *families(P111, datum))
        assert ok, (pts, diag)


def test_predicates_on_line_bundle():
    fam = sfamily(P112, Rank1Sheaf(1, -1, 2), 3)
    assert coherence_check(fam)
    assert torsion_free_check(fam)
    assert reflexive_check(fam)


def test_predicates_on_rank1_with_partition():
    fam = sfamily(P111, Rank1Sheaf(0, 0, 0, Partition((2, 1))), 1)
    assert coherence_check(fam)
    assert torsion_free_check(fam)
    assert not reflexive_check(fam)


def test_predicates_on_typeI():
    fam = sfamily(P111, TypeIBundle(0, 0, 0, 2, 1, 1, PT1, PT2, PT3), 1)
    assert coherence_check(fam)
    assert torsion_free_check(fam)
    assert reflexive_check(fam)
    fam_eq = sfamily(P111, TypeIBundle(0, 0, 0, 2, 1, 1, PT1, PT1, PT3), 1)
    assert reflexive_check(fam_eq)


def test_non_coherent_window_detected():
    # a family leaking out of the bottom of its window is not coherent
    fam = sfamily(P111, Rank1Sheaf(0, 0, 0), 1)
    leaked = dict(fam.dims)
    leaked[((0, 0), -fam.halfwidth, 0)] = (0,)
    bad = TruncatedSFamily(P111, 1, fam.halfwidth, leaked)
    assert not coherence_check(bad)


def test_box_count_matches_rank():
    fam = sfamily(P222, Rank1Sheaf(1, 2, 3, Partition((1,))), 2)
    assert len(fam.nonzero_boxes()) == 1
    fam2 = sfamily(P222, TypeIBundle(0, 0, 0, 2, 2, 2), 1)
    assert len(fam2.nonzero_boxes()) == 1


def _partition_triples(max_total):
    for total in range(max_total + 1):
        for s1 in range(total + 1):
            for s2 in range(total - s1 + 1):
                s3 = total - s1 - s2
                for l1 in partitions_of_size(s1):
                    for l2 in partitions_of_size(s2):
                        for l3 in partitions_of_size(s3):
                            yield l1, l2, l3


@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 1, 2), (2, 2, 2), (1, 2, 3), (3, 1, 2), (2, 2, 3)])
def test_devissage_matches_rank1_closed_form(weights):
    params = WppParams(*weights)
    abc_grid = [(-3, 0, 2), (0, 0, 0), (2, -1, 3), (-2, -2, -2)]
    for A, B, C in abc_grid:
        for lam1, lam2, lam3 in _partition_triples(4):
            sheaf = Rank1Sheaf(A, B, C, lam1, lam2, lam3)
            assert kclass_by_devissage(params, sheaf) == rank1_class(
                params, A, B, C, lam1, lam2, lam3
            )


@pytest.mark.parametrize("weights", [(1, 1, 1), (1, 1, 2), (2, 2, 2), (1, 2, 3), (2, 2, 3)])
def test_devissage_matches_rank2_closed_form(weights):
    params = WppParams(*weights)
    a, b, c = params.weights()
    patterns = [
        (PT1, PT2, PT3),
        (PT1, PT1, PT3),
        (PT1, PT2, PT1),
        (PT3, PT2, PT2),
        (PT2, PT2, PT2),
    ]
    for A in ((0, 0, 0), (-1, 2, 0)):
        for d1 in range(0, 7, b):
            for d2 in range(0, 7, c):
                for d3 in range(0, 7, a):
                    for pts in patterns:
                        datum = TypeIBundle(*A, d1, d2, d3, *pts)
                        assert kclass_by_devissage(params, datum) == rank2_typeI_class(
                            params, datum
                        )


# ---------------------------------------------------------------------------
# full-scan gluing oracle
# ---------------------------------------------------------------------------

def limit_counter(fam, box, direction, coord):
    """Limit multiset of any box, empty or not, as a Counter of fine weights."""
    mod, step1, step2 = fam.params.chart(fam.chart)
    if direction == 1:
        edge, step = fam.halfwidth, step1
        cell = lambda l: (box, l, coord)
    else:
        edge, step = fam.halfwidth, step2
        cell = lambda l: (box, coord, l)
    last = Counter((w - edge * step) % mod for w in fam.dims.get(cell(edge), ()))
    prev = Counter((w - (edge - 1) * step) % mod for w in fam.dims.get(cell(edge - 1), ()))
    if last != prev:
        raise InsufficientWindowError(
            f"chart {fam.chart} box {box} not stabilized along "
            f"direction {direction} at cross index {coord}"
        )
    return last


def overlap_profile_full_scan(fam, direction, coord, outer, fixed_slot, ranges, twists):
    """One side of a gluing equation, visiting every box of the overlap."""
    profile = Counter()
    for i in range(ranges):
        box = (i, outer) if fixed_slot == 2 else (outer, i)
        for l, mult in limit_counter(fam, box, direction, coord).items():
            profile[twists(i, l)] += mult
    return profile


def check_gluing_full_scan(params, f1, f2, f3):
    """`check_gluing` over all w_t w_u boxes of every overlap line, with Counter profiles."""
    fams = (f1, f2, f3)
    diagnostics = []
    ok = True
    for s, t, u in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        name = f"{s}{t}"
        left, right = fams[s - 1], fams[t - 1]
        ws, wt, wu = params.chart(s)

        def grade(x, y):
            return (y % wt, x % ws) if s > t else (x % ws, y % wt)

        # the lines both windows hold: l2 of the left family, l1 of the right
        lo = max(-left.halfwidth, -right.halfwidth)
        hi = min(left.halfwidth, right.halfwidth)
        for j in range(wu):
            for ell in range(lo, hi + 1):
                lhs = overlap_profile_full_scan(left, 1, ell, j, 2, wt,
                                                lambda i, l: grade(l - i, i))
                shift = j + ell * wu
                rhs = overlap_profile_full_scan(right, 2, ell, j, 1, ws,
                                                lambda i, l: grade(i + shift, l - i - shift))
                if lhs != rhs:
                    ok = False
                    if len(diagnostics) < 8:
                        diagnostics.append({"equation": name, "outer": j, "line": ell,
                                            "lhs": sorted(lhs.items()),
                                            "rhs": sorted(rhs.items())})
    return ok, diagnostics


def gluing_outcome(check, params, fams):
    """(ok, diagnostics), or the InsufficientWindowError message."""
    try:
        return check(params, *fams)
    except InsufficientWindowError as exc:
        return str(exc)


def demo_cases(params):
    """The `glue` demo data and their mutations, on one halfwidth per datum pair."""
    a, b, c = params.weights()
    rank1 = Rank1Sheaf(1, 0, 1, Partition((2, 1)), Partition(), Partition((1,)))
    rank1_bad = Rank1Sheaf(1, 0, 2, Partition((2, 1)), Partition(), Partition((1,)))
    typeI = TypeIBundle(0, 1, -1, b, 2 * c, a)
    typeI_bad = TypeIBundle(0, 1, -1, b, 2 * c, 2 * a)
    for good, bad in ((rank1, rank1_bad), (typeI, typeI_bad)):
        half = max(minimal_halfwidth(params, good), minimal_halfwidth(params, bad))
        yield good, bad, half


def shrunk(fam, halfwidth):
    """The family cut down to a smaller symmetric window, without any check."""
    dims = {key: val for key, val in fam.dims.items()
            if max(abs(key[1]), abs(key[2])) <= halfwidth}
    return TruncatedSFamily(fam.params, fam.chart, halfwidth, dims)


@pytest.mark.parametrize("weights", list(combinations_with_replacement(range(1, 5), 3)))
def test_gluing_matches_full_scan(weights):
    params = WppParams(*weights)
    verdicts = Counter()
    for good, bad, half in demo_cases(params):
        for shifts in product((0, 1), repeat=3):
            fams = families(params, good, shifts, halfwidth=half)
            outcome = check_gluing(params, *fams)
            assert outcome == check_gluing_full_scan(params, *fams), (good, shifts)
            verdicts[outcome[0]] += 1
        fams = (*families(params, good, halfwidth=half)[:2],
                sfamily(params, bad, 3, halfwidth=half))
        outcome = check_gluing(params, *fams)
        assert not outcome[0] and outcome[1]
        assert outcome == check_gluing_full_scan(params, *fams), bad
    # the unshifted data glue on every plane; a shift on a stacky chart does not
    assert verdicts[True] >= 2
    assert (verdicts[False] > 0) == (max(weights) > 1)


@pytest.mark.parametrize("weights", [(1, 1, 2), (2, 2, 2), (2, 2, 4), (1, 3, 4)])
def test_gluing_window_errors_match_full_scan(weights):
    params = WppParams(*weights)
    for good, _, half in demo_cases(params):
        fams = families(params, good, halfwidth=half)
        raised = 0
        for smaller in range(1, half):
            small = tuple(shrunk(fam, smaller) for fam in fams)
            outcome = gluing_outcome(check_gluing, params, small)
            assert outcome == gluing_outcome(check_gluing_full_scan, params, small), (good, smaller)
            raised += isinstance(outcome, str)
        assert raised, good


def test_gluing_reads_the_lines_of_the_smaller_halfwidth():
    # families cut at different halfwidths glue on the lines both windows hold
    params = WppParams(2, 3, 4)
    for good, _, half in demo_cases(params):
        fams = [sfamily(params, good, chart, halfwidth=half + extra)
                for chart, extra in ((1, 0), (2, 3), (3, 1))]
        outcome = check_gluing(params, *fams)
        assert outcome == check_gluing_full_scan(params, *fams) == (True, [])


def test_gluing_ignores_boxes_outside_the_overlap_range():
    # a hand-built box past the overlap's range is skipped, as the full scan skips it
    params = WppParams(2, 3, 4)
    for good, _, half in demo_cases(params):
        fams = list(families(params, good, halfwidth=half))
        (i, j), = fams[0].nonzero_boxes()
        extra = {((i, j + 7), l1, l2): val for (_, l1, l2), val in fams[0].dims.items()}
        fams[0] = TruncatedSFamily(params, 1, half, {**fams[0].dims, **extra})
        assert len(fams[0].nonzero_boxes()) == 2
        outcome = check_gluing(params, *fams)
        assert outcome == check_gluing_full_scan(params, *fams) == (True, [])
