"""Window-truncated toric sheaf data on the three charts, with gluing.

A toric sheaf on one chart is a lattice-indexed family of fine-graded
vector spaces; here a family is stored as a finite window of multisets
of fine weights, one multiset per box summand and lattice point.  A
window is the square [-h, h]^2 of lattice points, fixed by one
halfwidth h: `minimal_halfwidth` is the smallest h at which a sheaf's
families have stabilized, and `sfamily` refuses a smaller one.  The
charts follow `WppParams.chart`, the one source of this table: chart i
has fine group Z_(w_i) and weight steps (w_(i+1), w_(i+2)), indices mod
3, and its box and corner come from labels i and i + 1, label k split by
w_(k+1):

    chart 1: box (i/b, j/c), fine group Z_a, weight steps (b, c),
    chart 2: box (j/c, k/a), fine group Z_b, weight steps (c, a),
    chart 3: box (k/a, i/b), fine group Z_c, weight steps (a, b).

Every sheaf here is described the same way on each chart: the line-bundle
staircases of its reflexive hull (`_hulls`: one label triple for a rank-1
sheaf, two nested ones for a type-I bundle), minus a finite deficit
partition cut from the first corner (`_deficit`: the chart partition of a
rank-1 sheaf, or a type-I bundle's corner rectangle of the two widths
where the chart's two points differ).  `sfamily` builds a family from
that description and `kclass_by_devissage` peels its K-class from it.

The gluing verifier compares, along each pairwise chart overlap and for
every line index, two doubly-graded dimension multisets obtained from
the one-directional limits of the families, with the character twists
the overlap demands, on the lines -h..h of the smaller of the two
halfwidths.  Subspace moduli (which line sits where) enter
only through the dimension patterns; that is a faithful shadow of the
gluing equivalence for the rank <= 2 families generated here.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import inf

from .errors import InsufficientWindowError, InvalidInputError
from .kgroup import g_power, kclass_scalar, kclass_sum, line_bundle_class
from .partitions import Partition


def normalize_point(point):
    """Scale a nonzero pair so its first nonzero coordinate is 1."""
    x, y = Fraction(point[0]), Fraction(point[1])
    if x != 0:
        return (Fraction(1), y / x)
    if y != 0:
        return (Fraction(0), Fraction(1))
    raise InvalidInputError("a point of the projective line cannot be (0, 0)")


# (1:0), (0:1), (1:1), normalized; TypeIBundle keeps them as they are
_ONE, _ZERO = Fraction(1), Fraction(0)
STANDARD_POINTS = ((_ONE, _ZERO), (_ZERO, _ONE), (_ONE, _ONE))


@dataclass(frozen=True)
class Rank1Sheaf:
    """Reflexive hull label (A, B, C) and one cokernel partition per chart."""

    A: int
    B: int
    C: int
    lam1: Partition = Partition()
    lam2: Partition = Partition()
    lam3: Partition = Partition()

    def validate(self, params):
        # any labels and partitions make a rank-1 sheaf
        return self


@dataclass(frozen=True)
class TypeIBundle:
    """Rank-2 bundle datum: twists, strip widths, one point per chart pair.

    `same[k - 1]` tells whether chart k's points p_k, p_(k+1) (indices
    mod 3) are equal, decided once after normalizing.
    """

    A1: int
    A2: int
    A3: int
    D1: int
    D2: int
    D3: int
    p1: tuple = STANDARD_POINTS[0]
    p2: tuple = STANDARD_POINTS[1]
    p3: tuple = STANDARD_POINTS[2]
    same: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if min(self.D1, self.D2, self.D3) < 0:
            raise InvalidInputError("widths must be nonnegative")
        for name, standard in zip(("p1", "p2", "p3"), STANDARD_POINTS):
            point = getattr(self, name)
            if point is not standard:
                object.__setattr__(self, name, normalize_point(point))
        p1, p2, p3 = self.p1, self.p2, self.p3
        object.__setattr__(self, "same", (p1 == p2, p2 == p3, p3 == p1))

    def validate(self, params):
        params.check_widths(self.D1, self.D2, self.D3)
        return self

    def points_distinct(self):
        return not any(self.same)


def minimal_halfwidth(params, sheaf):
    """Smallest symmetric window halfwidth that stabilizes the family."""
    if isinstance(sheaf, Rank1Sheaf):
        extent = 0
        for lam in (sheaf.lam1, sheaf.lam2, sheaf.lam3):
            if lam.rows:
                extent = max(extent, lam.rows[0], len(lam.rows))
        return max(abs(sheaf.A), abs(sheaf.B), abs(sheaf.C)) + extent + 2
    sheaf.validate(params)
    return (
        max(abs(sheaf.A1), abs(sheaf.A2), abs(sheaf.A3))
        + sheaf.D1 + sheaf.D2 + sheaf.D3 + 2
    )


class TruncatedSFamily:
    """One chart's family: (box, l1, l2) -> fine-weight multiset, |l1|, |l2| <= halfwidth."""

    __slots__ = ("params", "chart", "halfwidth", "dims", "_boxes")

    def __init__(self, params, chart, halfwidth, dims):
        self.params = params
        self.chart = chart
        self.halfwidth = halfwidth
        self.dims = {key: tuple(sorted(val)) for key, val in dims.items() if val}
        self._boxes = sorted({key[0] for key in self.dims})

    def nonzero_boxes(self):
        """The boxes with a nonzero weight space, sorted; computed once."""
        return self._boxes

    def limit_weights(self, box, direction, coord):
        """Fine weights of the family at +infinity along a direction.

        Weights shift by the chart step along the direction, so each of
        the last two window slices is extrapolated back to index 0 and
        sorted; they must agree, else the window is too small to contain
        the limit.  The stabilized multiset is returned as that sorted
        tuple, the form `dims` stores, so its length is the limiting
        dimension (0 for a box the family leaves empty).
        """
        mod, step1, step2 = self.params.chart(self.chart)
        edge = self.halfwidth
        if direction == 1:
            step, cell = step1, lambda l: (box, l, coord)
        else:
            step, cell = step2, lambda l: (box, coord, l)
        last = sorted((w - edge * step) % mod for w in self.dims.get(cell(edge), ()))
        prev = sorted((w - (edge - 1) * step) % mod for w in self.dims.get(cell(edge - 1), ()))
        if last != prev:
            raise InsufficientWindowError(
                f"chart {self.chart} box {box} not stabilized along "
                f"direction {direction} at cross index {coord}"
            )
        return tuple(last)


def _box_split(value, den):
    """value = residue + den * index with residue in [0, den)."""
    residue = value % den
    return residue, (value - residue) // den


def _pair(triple, chart):
    """Entries chart and chart + 1 of a triple indexed 1..3, cyclically."""
    return triple[chart - 1], triple[chart % 3]


def _box_and_corner(params, labels, chart):
    """Box and lattice corner of a chart from its labels, label k split by w_(k+1)."""
    splits = [_box_split(label, params.chart(k)[1]) for k, label in enumerate(labels, 1)]
    (i, I), (j, J) = _pair(splits, chart)
    return (i, j), (I, J)


def _hulls(sheaf):
    """Label triples of the line bundles that make up the reflexive hull."""
    if isinstance(sheaf, Rank1Sheaf):
        return ((sheaf.A, sheaf.B, sheaf.C),)
    return ((sheaf.A1, sheaf.A2, sheaf.A3),
            (sheaf.A1 + sheaf.D1, sheaf.A2 + sheaf.D2, sheaf.A3 + sheaf.D3))


def _deficit(params, sheaf, chart):
    """Cells cut from the hull on one chart, counted from the first corner.

    The chart partition of a rank-1 sheaf; for a type-I bundle the corner
    rectangle of the chart's two lattice widths, cut only when the chart's
    two points differ.  A type-I datum must be valid for `params`.
    """
    if isinstance(sheaf, Rank1Sheaf):
        return (sheaf.lam1, sheaf.lam2, sheaf.lam3)[chart - 1]
    _, step1, step2 = params.chart(chart)
    d1, d2 = _pair((sheaf.D1, sheaf.D2, sheaf.D3), chart)
    if sheaf.same[chart - 1] or not d1:
        return Partition()
    return Partition((d1 // step1,) * (d2 // step2))


def sfamily(params, sheaf, chart, halfwidth=None, fine_shift=0):
    """Family of a rank-1 sheaf or a type-I bundle on one chart.

    A cell's dimension is the number of hull staircases that contain it,
    minus one on the chart's deficit, cut from the first hull's corner.
    Every summand has the one fine weight that walks away from the corner
    weight, the first hull's label sum, by the chart steps.  `fine_shift`
    twists every fine weight (used to probe that gluing pins the fine
    grading down).  The window is the square [-halfwidth, halfwidth]^2.
    """
    needed = minimal_halfwidth(params, sheaf)
    if halfwidth is None:
        halfwidth = needed
    elif halfwidth < needed:
        raise InvalidInputError(f"halfwidth {halfwidth} too small; need {needed}")
    hulls = _hulls(sheaf)
    box, (c1, c2) = _box_and_corner(params, hulls[0], chart)
    f1 = f2 = inf  # the second staircase's corner, seen from the first
    if len(hulls) == 2:
        _, (d1, d2) = _box_and_corner(params, hulls[1], chart)
        f1, f2 = d1 - c1, d2 - c2
    rows = _deficit(params, sheaf, chart).rows
    mod, step1, step2 = params.chart(chart)
    offset = sum(hulls[0]) + fine_shift
    dims = {}
    for l1 in range(max(-halfwidth, c1), halfwidth + 1):
        u = l1 - c1
        past1, base = u >= f1, offset + u * step1
        height = sum(row > u for row in rows)  # cells v < height of this column are cut
        for l2 in range(max(-halfwidth, c2), halfwidth + 1):
            v = l2 - c2
            dim = 1 + (past1 and v >= f2) - (v < height)
            if dim:
                dims[(box, l1, l2)] = ((base + v * step2) % mod,) * dim
    return TruncatedSFamily(params, chart, halfwidth, dims)


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

def _overlap_profile(fam, direction, coord, outer, fixed_slot, ranges, twists):
    """Doubly-graded dimension multiset of one side of a gluing equation.

    Only the family's nonzero boxes with the given outer slot are
    visited: an empty box has an empty limit, so it neither raises nor
    contributes.  The multiset is a dict of positive counts.
    """
    profile = {}
    for box in fam.nonzero_boxes():
        i, slot = box if fixed_slot == 2 else box[::-1]
        if slot != outer or not 0 <= i < ranges:
            continue
        for l in fam.limit_weights(box, direction, coord):
            key = twists(i, l)
            profile[key] = profile.get(key, 0) + 1
    return profile


def check_gluing(params, f1, f2, f3):
    """Verify the three overlap conditions on a triple of chart families.

    For every overlap line index, both sides are computed as multisets
    of doubly-graded dimensions (the two finite cyclic gradings of the
    overlap), including the character twists; the verdict is their
    equality for every index -h..h, h the smaller halfwidth of the two
    families.
    Returns (ok, diagnostics), with the first eight mismatches.

    Equation st glues chart s to chart t = s + 1 across the outer index
    j mod w_u, u = t + 1; its grades are (mod w_s, mod w_t), listed in
    chart order, so "31" keys are (mod a, mod c).
    """
    fams = (f1, f2, f3)
    diagnostics = []
    ok = True
    for s, t, u in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        name = f"{s}{t}"
        left, right = fams[s - 1], fams[t - 1]
        ws, wt, wu = params.chart(s)

        def grade(x, y):
            return (y % wt, x % ws) if s > t else (x % ws, y % wt)

        h = min(left.halfwidth, right.halfwidth)
        for j in range(wu):
            for ell in range(-h, h + 1):
                lhs = _overlap_profile(left, 1, ell, j, 2, wt, lambda i, l: grade(l - i, i))
                shift = j + ell * wu
                rhs = _overlap_profile(
                    right, 2, ell, j, 1, ws,
                    lambda i, l: grade(i + shift, l - i - shift),
                )
                if lhs != rhs:
                    ok = False
                    if len(diagnostics) < 8:
                        diagnostics.append({
                            "equation": name,
                            "outer": j,
                            "line": ell,
                            "lhs": sorted(lhs.items()),
                            "rhs": sorted(rhs.items()),
                        })
    return ok, diagnostics


# ---------------------------------------------------------------------------
# devissage oracle for K-classes
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1024)
def _point_class(params, chart, twist):
    """(1 - g^w')(1 - g^w'') g^twist built from the two other weights.

    The oracle multiplies KClass objects where the closed forms sum
    Laurent terms.
    """
    _, w1, w2 = params.chart(chart)
    one = kclass_scalar(params, 1)
    return (one - g_power(params, w1)) * (one - g_power(params, w2)) * g_power(params, twist)


def kclass_by_devissage(params, sheaf):
    """K-class by peeling weight spaces into twisted point classes.

    Adds g^(label sum) per hull line bundle, then walks each chart's
    deficit, one cell at a time, and subtracts a twisted point class per
    cell; no per-color counting and no closed formula is used.
    """
    sheaf.validate(params)
    hulls = _hulls(sheaf)
    terms = [(1, line_bundle_class(params, *hull)) for hull in hulls]
    offset = sum(hulls[0])
    for chart in (1, 2, 3):
        mod, step1, step2 = params.chart(chart)
        terms += ((-1, _point_class(params, chart, (offset + l1 * step1 + l2 * step2) % mod))
                  for l1, l2 in _deficit(params, sheaf, chart).boxes())
    return kclass_sum(params, terms)
