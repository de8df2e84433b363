"""Colored 2D partitions and their counts.

A partition is a weakly decreasing tuple of positive row lengths; its
box at column l1 of row l2 carries color (offset + l1*w1 + l2*w2) mod n.
Every count is one row DP fed by a per-color table of (grade, code),
and comes out as levels: levels[s] = {code: count} over grade s.  A
code is an integer that adds like an exponent vector, one base-(order
+ 1) digit per variable; only this module knows that layout.  `_times`
multiplies two level lists grade by grade; it is the package's one
series product.  The rank-1 product `g_series` multiplies the three
charts' levels and decodes once, into the `Series` that `gseries`
prints, in one variable per chart color or a one-variable count.  The
relations among the variables of the three charts are never imposed on
a series.

A one-variable count that no command prints as it is stays integers:
`color_zero_series` and `eta_inv_pow` return the dense list of their
coefficients through q^max_order.  `eta_inv_pow` drops the eta
prefactor q^(-r/24): every exponent is an integer.
"""

from functools import lru_cache
from itertools import accumulate
from math import gcd

from .errors import InternalInconsistencyError, InvalidInputError


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

class Partition:
    """A 2D partition, stored as weakly decreasing positive row lengths."""

    __slots__ = ("rows",)

    def __init__(self, rows=()):
        rows = tuple(int(r) for r in rows)
        if any(r <= 0 for r in rows):
            raise InvalidInputError("partition rows must be positive")
        if any(rows[i] < rows[i + 1] for i in range(len(rows) - 1)):
            raise InvalidInputError("partition rows must be weakly decreasing")
        self.rows = rows

    def boxes(self):
        """Yield the boxes (l1, l2): column l1 of row l2."""
        for l2, length in enumerate(self.rows):
            for l1 in range(length):
                yield (l1, l2)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"Partition{self.rows}"


# ---------------------------------------------------------------------------
# colorings
# ---------------------------------------------------------------------------

class ColoringSpec:
    """Modular box coloring: box (l1, l2) has color offset + l1*w1 + l2*w2 mod n."""

    __slots__ = ("modulus", "w1", "w2", "offset")

    def __init__(self, modulus, w1, w2, offset=0):
        if modulus < 1:
            raise InvalidInputError("coloring modulus must be positive")
        self.modulus = modulus
        self.w1 = w1 % modulus
        self.w2 = w2 % modulus
        self.offset = offset % modulus

    def __repr__(self):
        return f"ColoringSpec(n={self.modulus}, w=({self.w1},{self.w2}), offset={self.offset})"


def chart_spec(params, chart, offset=0):
    """The box coloring of the given affine chart (1, 2 or 3).

    Chart i colors mod w_i with steps (w_(i+1), w_(i+2)), as
    `WppParams.chart` lists them: chart 1 mod a with steps (b, c),
    chart 2 mod b with steps (c, a), chart 3 mod c with steps (a, b).
    For generating functions with first Chern class beta the offset is
    -beta.
    """
    return ColoringSpec(*params.chart(chart), offset)


# ---------------------------------------------------------------------------
# printed series
# ---------------------------------------------------------------------------

class Series:
    """A series a command prints: exponent tuple -> nonzero integer coefficient.

    One exponent per variable of `vars`.  Only the rank-1 counts that
    `gseries` prints and the (1,1,3) reference report build one; every
    other series the package computes is an integer list or an
    {exponent: count} dict.
    """

    __slots__ = ("vars", "coeffs")

    def __init__(self, vars, coeffs):
        self.vars = tuple(vars)
        self.coeffs = {exps: coeff for exps, coeff in coeffs.items() if coeff != 0}

    def coefficient(self, exps):
        return self.coeffs.get(tuple(exps), 0)

    def items(self):
        """Monomials in canonical order: by total degree, then exponents."""
        return sorted(self.coeffs.items(), key=lambda item: (sum(item[0]), item[0]))

    def __eq__(self, other):
        return (
            isinstance(other, Series)
            and self.vars == other.vars
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __repr__(self):
        terms = []
        for exps, coeff in self.items()[:8]:
            mono = "*".join(
                f"{v}^{e}" if e != 1 else v
                for v, e in zip(self.vars, exps)
                if e
            )
            terms.append(f"{coeff}{'*' + mono if mono else ''}")
        more = " + ..." if len(self.coeffs) > 8 else ""
        return f"Series({' + '.join(terms) or '0'}{more})"


# ---------------------------------------------------------------------------
# colored partition generating functions
# ---------------------------------------------------------------------------

def _row_sums(period, caps, trunc, grade, mono):
    """Sum of q^grade x^mono over colored partitions, by a DP over rows.

    A row of length L at row index l2 adds grade[r][L] to the grade and
    mono[r][L] to the monomial, r = l2 mod period; both are sums over
    the row's first L boxes, and a monomial is an integer code that adds
    like an exponent vector.  F_r(cap) sums over the partition tails that
    start at a row index = r (mod period) and have rows of length <= cap:

        F_r(cap) = F_r(cap - 1) + q^grade x^mono F_(r+1)(cap),  F_r(0) = 1.

    The tails from r run through every residue back to r, so F_0(cap) is
    B / (1 - q^G x^M), where B collects the F_j(cap - 1) along one turn of
    rows of length cap and (G, M) sums that turn; F_(period-1), ..., F_1
    follow from F_0.  A turn must raise the grade (G >= 1), or the
    coefficients would be infinite.  Returns F_0(caps) as levels[s] =
    {monomial: count} for every grade s <= trunc.
    """

    def add_shifted(target, source, g, m):
        # target += q^g x^m source, cut at the grade trunc
        for s in range(trunc + 1 - g):
            dest = target[s + g]
            for k, c in source[s].items():
                k += m
                dest[k] = dest.get(k, 0) + c

    # tails[r] holds F_r(cap - 1) and is turned into F_r(cap) in place
    tails = [[{0: 1}] + [{} for _ in range(trunc)] for _ in range(period)]
    for cap in range(1, caps + 1):
        turn = tails[0]
        g, m = grade[0][cap], mono[0][cap]
        for r in range(1, period):
            if g > trunc:
                break
            add_shifted(turn, tails[r], g, m)
            g += grade[r][cap]
            m += mono[r][cap]
        if g == 0:
            raise InternalInconsistencyError("a turn of rows adds no grade: infinite coefficients")
        # level by level upwards: turn /= 1 - q^g x^m
        add_shifted(turn, turn, g, m)
        for r in range(period - 1, 0, -1):
            add_shifted(tails[r], tails[(r + 1) % period], grade[r][cap], mono[r][cap])
    return tails[0]


@lru_cache(maxsize=32)
def _chart_levels(n, w1, w2, offset, table, caps, trunc):
    """`_row_sums` levels of a chart coloring, a box of color l adding table[l].

    table[l] = (grade, code); rows are at most caps long.  Row colors
    repeat with the row index mod n / gcd(w2, n).  Conjugation swaps w1
    and w2, so callers pass them sorted.
    """
    period = n // gcd(w2, n)
    grade, mono = [], []
    for r in range(period):
        boxes = [table[(offset + r * w2 + l1 * w1) % n] for l1 in range(caps)]
        grade.append(list(accumulate((g for g, _ in boxes), initial=0)))
        mono.append(list(accumulate((m for _, m in boxes), initial=0)))
    return _row_sums(period, caps, trunc, grade, mono)


def _decode(levels, base, width):
    """{exponent tuple: count} of levels whose codes hold `width` digits, lowest first."""
    out = {}
    for level in levels:
        for code, count in level.items():
            exps = []
            for _ in range(width):
                code, e = divmod(code, base)
                exps.append(e)
            out[tuple(exps)] = count
    return out


def colored_series(spec, max_order, vars=None):
    """Sum over partitions with <= max_order boxes of the color monomials.

    Color l counts in vars[l], by default in its own q_l: a box adds
    base^l to a code whose digits, base max_order + 1, are the
    exponents.

    >>> s = colored_series(ColoringSpec(1, 0, 0), 4)
    >>> [s.coefficient((k,)) for k in range(5)]
    [1, 1, 2, 3, 5]
    >>> colored_series(ColoringSpec(2, 1, 1), 2).items()
    [((0, 0), 1), ((1, 0), 1), ((1, 1), 2)]
    """
    if max_order < 0:
        raise InvalidInputError("max_order must be nonnegative")
    n, base = spec.modulus, max_order + 1
    vars = tuple(f"q{l}" for l in range(n)) if vars is None else vars
    table = tuple((1, base ** l) for l in range(n))
    w1, w2 = sorted((spec.w1, spec.w2))
    levels = _chart_levels(n, w1, w2, spec.offset, table, max_order, max_order)
    return Series(vars, _decode(levels, base, n))


def color_zero_series(spec, max_order):
    """Partitions counted by their boxes of color 0: counts[k] for k <= max_order.

    Equals colored_series with every other color sent to 1, without a
    bound on the number of boxes.  The coloring must have offset 0: with
    another offset a coefficient can be infinite.  Row 0 has color 0
    every p = n / gcd(w1, n) boxes, so no row is longer than p *
    max_order; every turn of n / gcd(w2, n) rows starts one at color 0.

    >>> color_zero_series(ColoringSpec(7, 1, 1), 1)
    [1, 1429]
    """
    if max_order < 0:
        raise InvalidInputError("max_order must be nonnegative")
    if spec.offset:
        raise InvalidInputError("color-0 counts need a coloring with offset 0")
    n = spec.modulus
    w1, w2 = sorted((spec.w1, spec.w2))
    table = ((1, 0),) + ((0, 0),) * (n - 1)
    levels = _chart_levels(n, w1, w2, 0, table, n // gcd(w1, n) * max_order, max_order)
    return [level.get(0, 0) for level in levels]


def _times(left, right):
    """Product of two level lists of one length, cut at their last grade."""
    out = [{} for _ in left]
    for s1, level in enumerate(left):
        for s2 in range(len(left) - s1):
            dest = out[s1 + s2]
            for k2, c2 in right[s2].items():
                for k1, c1 in level.items():
                    dest[k1 + k2] = dest.get(k1 + k2, 0) + c1 * c2
    return out


def g_series(params, beta, max_order, mode="none"):
    """Triples of partitions, one per chart colored at offset -beta.

    Returns (series, totals): totals[s] counts the triples with s <=
    max_order boxes, and the series counts them by `mode`.  With "none"
    color l of each chart keeps its variable, p_l, q_l or r_l on
    charts 1, 2, 3, and the cross-chart variable relations are not
    imposed; "color0" counts the boxes of color 0 in q, "total" every
    box.  Each chart's row DP gives a box of color l the code base^(start
    + l) with base = max_order + 1 and `start` the chart's first digit
    slot (none), 1 for color 0 and 0 otherwise (color0), or 0 (total).
    The three level lists are multiplied grade by grade under the cut
    at max_order boxes, where codes add without carry, and decoded once.

    >>> from wpptoric.kgroup import WppParams
    >>> series, totals = g_series(WppParams(1, 1, 1), 0, 2)
    >>> series.vars, totals, series.coefficient((1, 0, 1))
    (('p0', 'q0', 'r0'), [1, 3, 9], 1)
    >>> g_series(WppParams(1, 1, 2), 0, 2, "color0")[0].items()
    [((0,), 1), ((1,), 5), ((2,), 7)]
    """
    if max_order < 0:
        raise InvalidInputError("max_order must be nonnegative")
    if mode not in ("none", "color0", "total"):
        raise InvalidInputError(f"unknown count mode {mode!r}")
    base = max_order + 1
    product = [{0: 1}] + [{} for _ in range(max_order)]
    start = 0
    for chart in (1, 2, 3):
        spec = chart_spec(params, chart, -beta)
        n = spec.modulus
        if mode == "none":
            table = tuple((1, base ** (start + l)) for l in range(n))
        else:
            table = ((1, int(mode == "color0")),) + ((1, 0),) * (n - 1)
        start += n
        w1, w2 = sorted((spec.w1, spec.w2))
        product = _times(product, _chart_levels(n, w1, w2, spec.offset, table,
                                                max_order, max_order))
    totals = [sum(level.values()) for level in product]
    if mode == "none":
        vars = tuple(f"{x}{l}" for x, w in zip("pqr", params.weights()) for l in range(w))
        return Series(vars, _decode(product, base, start)), totals
    coeffs = {}
    for s, level in enumerate(product):
        for code, count in level.items():
            key = (code,) if mode == "color0" else (s,)
            coeffs[key] = coeffs.get(key, 0) + count
    return Series(("q",), coeffs), totals


# ---------------------------------------------------------------------------
# the partition function
# ---------------------------------------------------------------------------

def eta_inv_pow(r, max_order):
    """prod_{n>0} (1 - q^n)^(-r) through q^max_order, eta prefactor dropped.

    Each factor 1/(1 - q^n) is a running sum with step n over the
    integer list of coefficients, applied r times.

    >>> eta_inv_pow(1, 4)
    [1, 1, 2, 3, 5]
    """
    if r < 0:
        raise InvalidInputError("negative series powers are not supported")
    coeffs = [1] + [0] * max_order
    for n in range(1, max_order + 1):
        for _ in range(r):
            for k in range(n, max_order + 1):
                coeffs[k] += coeffs[k - n]
    return coeffs


# ---------------------------------------------------------------------------
# reference expansion for the (1,1,3) chart count
# ---------------------------------------------------------------------------

# Expansion quoted from the literature for the weight-(1,1,3) third-chart
# numerator through total order 4.  Its final term names a variable r3
# that cannot exist: colors mod 3 are r0, r1, r2.
REFERENCE_113_NUMERATOR = (
    ({}, 1),
    ({"r0": 1}, 1),
    ({"r0": 1, "r1": 1}, 2),
    ({"r0": 1, "r1": 1, "r2": 1}, 2),
    ({"r0": 1, "r1": 2}, 1),
    ({"r0": 2, "r1": 1, "r2": 1}, 2),
    ({"r0": 1, "r1": 2, "r3": 1}, 3),
)


def reference_113_report(max_order=4):
    """Compare the brute-force (1,1,3) chart-3 count with the quoted terms.

    Returns a dict with the brute-force series, the per-term verdicts,
    and the brute-force terms missing from the reference.  The
    brute-force enumeration is the ground truth; discrepancies are
    reported, never patched into the enumeration.
    """
    spec = ColoringSpec(3, 1, 1, 0)
    vars = ("r0", "r1", "r2")
    brute = colored_series(spec, max_order, vars)
    verdicts = []
    matched = set()
    for mono, coeff in REFERENCE_113_NUMERATOR:
        bad_vars = [v for v in mono if v not in vars]
        if bad_vars:
            verdicts.append({"term": (mono, coeff), "status": "invalid-variable", "variables": bad_vars})
            continue
        exps = tuple(mono.get(v, 0) for v in vars)
        if sum(exps) > max_order:
            verdicts.append({"term": (mono, coeff), "status": "beyond-order"})
            continue
        actual = brute.coefficient(exps)
        matched.add(exps)
        verdicts.append({
            "term": (mono, coeff),
            "status": "ok" if actual == coeff else "mismatch",
            "brute_coefficient": actual,
        })
    missing = [
        (dict(zip(vars, exps)), coeff)
        for exps, coeff in brute.items()
        if exps not in matched and coeff != 0
    ]
    return {"brute": brute, "verdicts": verdicts, "unmatched_brute_terms": missing}
