from fractions import Fraction
from itertools import product

import pytest

from partition_enumeration import partitions_of_size
from wpptoric.errors import InsufficientWindowError, InvalidInputError
from wpptoric.kgroup import (
    WppParams,
    line_bundle_class,
    rank1_class,
    rank2_typeI_class,
)
from wpptoric.partitions import Partition
from wpptoric.sheaf_model import (
    STANDARD_POINTS,
    Rank1Sheaf,
    TypeIBundle,
    Window,
    check_gluing,
    coherence_check,
    kclass_by_devissage,
    minimal_halfwidth,
    normalize_point,
    rank1_sfamily,
    reflexive_check,
    torsion_free_check,
    typeI_sfamily,
)

P111 = WppParams(1, 1, 1)
P112 = WppParams(1, 1, 2)
P222 = WppParams(2, 2, 2)

PT1 = (1, 0)
PT2 = (0, 1)
PT3 = (1, 1)


def families(params, sheaf, shifts=(0, 0, 0), window=None):
    make = rank1_sfamily if isinstance(sheaf, Rank1Sheaf) else typeI_sfamily
    return tuple(
        make(params, sheaf, chart, window=window, fine_shift=shifts[chart - 1])
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
        rank1_sfamily(P111, sheaf, 1, window=Window.symmetric(needed - 1))
    fam = rank1_sfamily(P111, sheaf, 1, window=Window.symmetric(needed + 1))
    assert fam.window == Window.symmetric(needed + 1)


def test_rank1_staircase_shape():
    sheaf = Rank1Sheaf(0, 0, 0, Partition((1,)))
    fam = rank1_sfamily(P111, sheaf, 1)
    box = (0, 0)
    assert fam.dim_at(box, 0, 0) == 0  # the cut corner
    assert fam.dim_at(box, 1, 0) == 1 and fam.dim_at(box, 0, 1) == 1
    assert fam.dim_at(box, -1, 2) == 0
    assert fam.nonzero_boxes() == [box]


def test_rank1_fine_weights_alternate_on_stacky_chart():
    # chart 3 of (1,1,2): weights flip parity with every lattice step and
    # the staircase corner carries A+B+C mod 2
    sheaf = Rank1Sheaf(1, 0, 0)
    fam = rank1_sfamily(P112, sheaf, 3)
    corner = min((l1, l2) for (_, l1, l2) in fam.dims)
    assert fam.weights_at(fam.nonzero_boxes()[0], *corner) == (1,)
    for (bx, l1, l2), weights in fam.dims.items():
        assert weights == ((1 + (l1 - corner[0]) + (l2 - corner[1])) % 2,)


def test_typeI_dimension_pattern():
    datum = TypeIBundle(0, 0, 0, 1, 1, 1, PT1, PT2, PT3)
    fam = typeI_sfamily(P111, datum, 1)
    box = (0, 0)
    assert fam.dim_at(box, 0, 0) == 0  # distinct points: empty corner box
    assert fam.dim_at(box, 0, 1) == 1 and fam.dim_at(box, 1, 0) == 1
    assert fam.dim_at(box, 1, 1) == 2
    datum_eq = TypeIBundle(0, 0, 0, 1, 1, 1, PT1, PT1, PT3)
    fam_eq = typeI_sfamily(P111, datum_eq, 1)
    assert fam_eq.dim_at(box, 0, 0) == 1  # coincident points fill the corner


def test_typeI_zero_widths_are_two_line_bundles():
    datum = TypeIBundle(0, 0, 0, 0, 0, 0, PT1, PT2, PT3)
    fam = typeI_sfamily(P111, datum, 2)
    assert fam.dim_at((0, 0), 0, 0) == 2
    assert fam.dim_at((0, 0), -1, 0) == 0


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
    f1 = rank1_sfamily(P111, good, 1, window=Window.symmetric(4))
    f2 = rank1_sfamily(P111, bad, 2, window=Window.symmetric(4))
    f3 = rank1_sfamily(P111, good, 3, window=Window.symmetric(4))
    ok, diag = check_gluing(P111, f1, f2, f3)
    assert not ok and diag


def test_rank1_gluing_ignores_partitions():
    good = Rank1Sheaf(0, 0, 0)
    lam = Rank1Sheaf(0, 0, 0, Partition((1,)))
    f1 = rank1_sfamily(P111, lam, 1, window=Window.symmetric(5))
    f2, f3 = (rank1_sfamily(P111, good, ch, window=Window.symmetric(5)) for ch in (2, 3))
    ok, _ = check_gluing(P111, f1, f2, f3)
    assert ok  # partitions sit in the corner and are invisible to the limits


def test_window_guards():
    # generators reject too-small windows outright
    taller = Rank1Sheaf(0, 0, 0, Partition((1, 1, 1, 1, 1, 1, 1)))
    with pytest.raises(InvalidInputError):
        rank1_sfamily(P111, taller, 1, window=Window.symmetric(5))
    # an unstabilized hand-built family is flagged by the verifier
    from wpptoric.sheaf_model import TruncatedSFamily

    window = Window.symmetric(3)
    dims = {((0, 0), l1, l2): (0,) for l1 in range(-1, 4) for l2 in range(-1, 4)}
    dims[((0, 0), 3, 3)] = ()  # dent at the window edge: no limit yet
    bad = TruncatedSFamily(P111, 1, window, dims)
    good = rank1_sfamily(P111, Rank1Sheaf(0, 0, 0), 2, window=window)
    good3 = rank1_sfamily(P111, Rank1Sheaf(0, 0, 0), 3, window=window)
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
    window = Window.symmetric(10)
    datum = TypeIBundle(0, 1, -1, 1, 2, 1, PT1, PT2, PT3)
    ok, diag = check_gluing(params, *families(params, datum, window=window))
    assert ok, diag
    # width parity flip on the stacky chart breaks the fine gradings
    bad_width = TypeIBundle(0, 1, -1, 1, 2, 2, PT1, PT2, PT3)
    fams = list(families(params, datum, window=window))
    fams[2] = typeI_sfamily(params, bad_width, 3, window=window)
    ok, _ = check_gluing(params, *fams)
    assert not ok
    # a mismatched twist label on one chart fails
    shifted = TypeIBundle(0, 1, 1, 1, 2, 1, PT1, PT2, PT3)
    fams = list(families(params, datum, window=window))
    fams[1] = typeI_sfamily(params, shifted, 2, window=window)
    ok, _ = check_gluing(params, *fams)
    assert not ok
    # point-coincidence flip changes a corner dimension on one chart only
    coincident = TypeIBundle(0, 1, -1, 1, 2, 1, PT1, PT1, PT3)
    fams = list(families(params, datum, window=window))
    fams[0] = typeI_sfamily(params, coincident, 1, window=window)
    ok, _ = check_gluing(params, *fams)
    assert ok  # corner boxes do not reach the limits: gluing cannot see them
    # a fine-weight twist on the one chart with a nontrivial group fails
    fams = list(families(params, datum, shifts=(0, 0, 1), window=window))
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


def test_rank2_gluing_matched_point_patterns():
    # the same type-I datum generates all three charts, so any point
    # pattern glues; the pattern only shows up in corner regions
    for pts in ((PT1, PT2, PT3), (PT1, PT1, PT3), (PT2, PT2, PT2)):
        datum = TypeIBundle(1, 0, 0, 2, 1, 1, *pts)
        ok, diag = check_gluing(P111, *families(P111, datum))
        assert ok, (pts, diag)


def test_predicates_on_line_bundle():
    fam = rank1_sfamily(P112, Rank1Sheaf(1, -1, 2), 3)
    assert coherence_check(fam)
    assert torsion_free_check(fam)
    assert reflexive_check(fam)


def test_predicates_on_rank1_with_partition():
    fam = rank1_sfamily(P111, Rank1Sheaf(0, 0, 0, Partition((2, 1))), 1)
    assert coherence_check(fam)
    assert torsion_free_check(fam)
    assert not reflexive_check(fam)


def test_predicates_on_typeI():
    fam = typeI_sfamily(P111, TypeIBundle(0, 0, 0, 2, 1, 1, PT1, PT2, PT3), 1)
    assert coherence_check(fam)
    assert torsion_free_check(fam)
    assert reflexive_check(fam)
    fam_eq = typeI_sfamily(P111, TypeIBundle(0, 0, 0, 2, 1, 1, PT1, PT1, PT3), 1)
    assert reflexive_check(fam_eq)


def test_non_coherent_window_detected():
    # a family leaking out of the bottom of its window is not coherent
    fam = rank1_sfamily(P111, Rank1Sheaf(0, 0, 0), 1)
    leaked = dict(fam.dims)
    leaked[((0, 0), fam.window.l1min, 0)] = (0,)
    from wpptoric.sheaf_model import TruncatedSFamily

    bad = TruncatedSFamily(P111, 1, fam.window, leaked)
    assert not coherence_check(bad)


def test_box_count_matches_rank():
    fam = rank1_sfamily(P222, Rank1Sheaf(1, 2, 3, Partition((1,))), 2)
    assert len(fam.nonzero_boxes()) == 1
    fam2 = typeI_sfamily(P222, TypeIBundle(0, 0, 0, 2, 2, 2), 1)
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
