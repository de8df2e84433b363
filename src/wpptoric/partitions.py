"""Colored 2D partitions, sparse multivariate series, q-series checkers.

A partition is a weakly decreasing tuple of positive row lengths; its
box at column l1 of row l2 carries color (offset + l1*w1 + l2*w2) mod n.
Generating functions over colored partitions are sparse `Series` in one
formal variable per color.  Variable relations among the three charts
of a weighted projective plane are never imposed on stored series; the
example identities are checked after explicit specialization.

All fractional series prefactors (q^(1/6) and friends) are dropped:
every stored exponent is an integer and comparisons align lowest-order
terms.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt

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

    def size(self):
        return sum(self.rows)

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


@lru_cache(maxsize=None)
def _partitions_of(n):
    """All row tuples of size n, sorted lexicographically."""
    if n == 0:
        return ((),)
    out = []

    def build(remaining, max_part, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, max_part), 0, -1):
            prefix.append(part)
            build(remaining - part, part, prefix)
            prefix.pop()

    build(n, n, [])
    return tuple(sorted(out))


def enumerate_partitions(max_boxes):
    """Yield every partition with at most `max_boxes` boxes, exactly once.

    Deterministic order: by size, then lexicographically on the rows.
    """
    if max_boxes < 0:
        raise InvalidInputError("max_boxes must be nonnegative")
    for n in range(max_boxes + 1):
        for rows in _partitions_of(n):
            yield Partition(rows)


def partitions_of_size(n):
    """All partitions of exactly n boxes, in lexicographic row order."""
    return [Partition(rows) for rows in _partitions_of(n)]


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

    def color(self, l1, l2):
        return (self.offset + l1 * self.w1 + l2 * self.w2) % self.modulus

    def __repr__(self):
        return f"ColoringSpec(n={self.modulus}, w=({self.w1},{self.w2}), offset={self.offset})"


def color_count(partition, spec):
    """Vector whose l-th entry counts the boxes of color l."""
    counts = [0] * spec.modulus
    for l1, l2 in partition.boxes():
        counts[spec.color(l1, l2)] += 1
    return tuple(counts)


def chart_spec(params, chart, offset=0):
    """The box coloring of the given affine chart (1, 2 or 3).

    Chart 1 colors mod a with steps (b, c), chart 2 mod b with steps
    (c, a), chart 3 mod c with steps (a, b).  For generating functions
    with first Chern class beta the offset is -beta.
    """
    a, b, c = params.a, params.b, params.c
    if chart == 1:
        return ColoringSpec(a, b, c, offset)
    if chart == 2:
        return ColoringSpec(b, c, a, offset)
    if chart == 3:
        return ColoringSpec(c, a, b, offset)
    raise InvalidInputError("chart must be 1, 2 or 3")


# ---------------------------------------------------------------------------
# sparse multivariate series
# ---------------------------------------------------------------------------

def _natural_var_key(name):
    head = name.rstrip("0123456789")
    tail = name[len(head):]
    return (head, int(tail) if tail else -1)


class Series:
    """Sparse formal series: exponent vector -> rational coefficient.

    `truncation` bounds the total degree of stored monomials (None means
    unbounded).  Products re-truncate to the smaller operand bound.
    Exponents may be negative for Laurent-type series (truncation None).
    """

    __slots__ = ("vars", "coeffs", "truncation")

    def __init__(self, vars, coeffs=None, truncation=None):
        self.vars = tuple(vars)
        self.truncation = truncation
        clean = {}
        for exps, coeff in (coeffs or {}).items():
            exps = tuple(exps)
            if len(exps) != len(self.vars):
                raise InvalidInputError("exponent vector length mismatch")
            if coeff == 0:
                continue
            if truncation is not None and sum(exps) > truncation:
                continue
            clean[exps] = clean.get(exps, 0) + coeff
        self.coeffs = {e: c for e, c in clean.items() if c != 0}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def one(vars, truncation=None):
        return Series(vars, {(0,) * len(tuple(vars)): 1}, truncation)

    @staticmethod
    def monomial(vars, exps, coeff=1, truncation=None):
        return Series(vars, {tuple(exps): coeff}, truncation)

    # -- ring operations ----------------------------------------------------

    def _common_truncation(self, other):
        if self.truncation is None:
            return other.truncation
        if other.truncation is None:
            return self.truncation
        return min(self.truncation, other.truncation)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Series.monomial(self.vars, (0,) * len(self.vars), other)
        if self.vars != other.vars:
            raise InvalidInputError("series variable mismatch")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return Series(self.vars, out, self._common_truncation(other))

    __radd__ = __add__

    def __neg__(self):
        return Series(self.vars, {e: -c for e, c in self.coeffs.items()}, self.truncation)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Series.monomial(self.vars, (0,) * len(self.vars), other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Series(
                self.vars,
                {e: c * other for e, c in self.coeffs.items()},
                self.truncation,
            )
        if self.vars != other.vars:
            raise InvalidInputError("series variable mismatch")
        trunc = self._common_truncation(other)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                if trunc is not None and sum(e) > trunc:
                    continue
                out[e] = out.get(e, 0) + c1 * c2
        return Series(self.vars, out, trunc)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise InvalidInputError("negative series powers are not supported")
        result = Series.one(self.vars, self.truncation)
        for _ in range(k):
            result = result * self
        return result

    def truncate(self, bound):
        return Series(self.vars, self.coeffs, bound)

    def coefficient(self, exps):
        return self.coeffs.get(tuple(exps), 0)

    def items(self):
        """Monomials in canonical order: by total degree, then exponents."""
        return sorted(self.coeffs.items(), key=lambda item: (sum(item[0]), item[0]))

    def shift_exponents(self, offset):
        """Multiply a one-variable series by q^offset."""
        if len(self.vars) != 1:
            raise InvalidInputError("shift_exponents needs a one-variable series")
        return Series(self.vars, {(e[0] + offset,): c for e, c in self.coeffs.items()}, None)

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


def geometric_factor(vars, exps, truncation, power=1):
    """(1 - m)^(-power) expanded to the truncation bound, m a monomial."""
    deg = sum(exps)
    if deg <= 0:
        raise InvalidInputError("geometric factor needs a positive-degree monomial")
    base = Series.one(vars, truncation)
    if truncation is not None:
        terms = {}
        for k in range(truncation // deg + 1):
            terms[tuple(k * e for e in exps)] = 1
        base = Series(vars, terms, truncation)
    return base ** power


def specialize(series, assignment, result_vars=None):
    """Substitute a monomial (or 1) for every variable of the series.

    Assignment values may be 1, a variable name, a pair (name, exponent)
    or a {name: exponent} mapping.  Monomials are rewritten one at a
    time; the truncation bound carries over, so when a variable is sent
    to 1 the low-order coefficients are only complete if the source was
    expanded far enough.
    """
    normalized = {}
    names = []
    for var in series.vars:
        if var not in assignment:
            raise InvalidInputError(f"no assignment for variable {var}")
        target = assignment[var]
        if target == 1:
            normalized[var] = {}
        elif isinstance(target, str):
            normalized[var] = {target: 1}
        elif isinstance(target, tuple) and len(target) == 2 and isinstance(target[0], str):
            normalized[var] = {target[0]: target[1]}
        elif isinstance(target, dict):
            normalized[var] = dict(target)
        else:
            raise InvalidInputError(f"bad assignment target for {var}: {target!r}")
        names.extend(normalized[var])
    if result_vars is None:
        result_vars = tuple(sorted(set(names), key=_natural_var_key))
    index = {v: i for i, v in enumerate(result_vars)}
    out = {}
    for exps, coeff in series.coeffs.items():
        new = [0] * len(result_vars)
        for var, e in zip(series.vars, exps):
            if e == 0:
                continue
            for name, mult in normalized[var].items():
                new[index[name]] += e * mult
        key = tuple(new)
        out[key] = out.get(key, 0) + coeff
    return Series(result_vars, out, series.truncation)


# ---------------------------------------------------------------------------
# colored partition generating functions
# ---------------------------------------------------------------------------

def colored_series(spec, max_order, vars=None):
    """Sum over partitions with <= max_order boxes of the color monomials."""
    n = spec.modulus
    if vars is None:
        vars = tuple(f"q{l}" for l in range(n))
    coeffs = {}
    for lam in enumerate_partitions(max_order):
        key = color_count(lam, spec)
        coeffs[key] = coeffs.get(key, 0) + 1
    return Series(vars, coeffs, max_order)


def chart_variables(params):
    """Canonical variable ordering p0..p(a-1), q0..q(b-1), r0..r(c-1)."""
    return tuple(
        [f"p{l}" for l in range(params.a)]
        + [f"q{l}" for l in range(params.b)]
        + [f"r{l}" for l in range(params.c)]
    )


def _chart_letter(chart):
    return {1: "p", 2: "q", 3: "r"}[chart]


def chart_series(params, chart, beta, max_order):
    """Generating function of one chart's colored partitions.

    Counts all partitions with the chart coloring at offset -beta, one
    variable per color of the chart's cyclic group.
    """
    spec = chart_spec(params, chart, -beta)
    letter = _chart_letter(chart)
    vars = tuple(f"{letter}{l}" for l in range(spec.modulus))
    return colored_series(spec, max_order, vars)


def g_series(params, beta, max_order):
    """Product of the three chart series in free variables.

    The cross-chart variable relations are not imposed here; callers
    compare series only after an explicit specialization.
    """
    vars = chart_variables(params)
    index = {v: i for i, v in enumerate(vars)}
    result = Series.one(vars, max_order)
    for chart in (1, 2, 3):
        factor = chart_series(params, chart, beta, max_order)
        lifted = {}
        for exps, coeff in factor.coeffs.items():
            full = [0] * len(vars)
            for v, e in zip(factor.vars, exps):
                full[index[v]] = e
            lifted[tuple(full)] = coeff
        result = result * Series(vars, lifted, max_order)
    return result


def total_count_specialization(series, target="q"):
    """Send every variable to the same q, turning colors into box counts."""
    return specialize(series, {v: target for v in series.vars})


def color_zero_specialization(series, target="q"):
    """Track only the index-0 variable of each letter block.

    p0, q0, r0 go to the target variable; every other variable goes
    to 1.  This is the Euler-characteristic grading of the point
    classes: the twisted point sheaves with nonzero twist have
    vanishing holomorphic Euler characteristic.
    """
    assignment = {}
    for v in series.vars:
        head = v.rstrip("0123456789")
        idx = v[len(head):]
        assignment[v] = target if idx == "0" else 1
    return specialize(series, assignment)


# ---------------------------------------------------------------------------
# balanced-coloring closed formula
# ---------------------------------------------------------------------------

def balanced_spec(k, offset=0):
    """The coloring of the balanced cyclic action: steps (1, k-1) mod k."""
    return ColoringSpec(k, 1, k - 1, offset)


def balanced_rhs(k, max_order):
    """Closed-form series for balanced k-colorings, truncated.

    Product of k inverse Euler factors in the full-cycle monomial Q =
    q0*...*q(k-1) times the rank-(k-1) lattice theta sum

        sum over n in Z^(k-1) of Q^(sum n_i^2 - sum n_i n_{i+1})
                                 * q1^(n1) * ... * q(k-1)^(n_{k-1}).

    The reference display garbles the theta factor for k >= 3 (its
    exponents q_{k-r}^(r^2/2 + n1*r - r/2) depend on n1 alone and already
    miss the constant term); the form above is fixed by the brute-force
    enumeration, with which it agrees coefficient-by-coefficient, and
    reduces to the same series for k <= 2.  Every variable exponent is a
    nonnegative integer; a violation signals an internal inconsistency.
    """
    if k < 1:
        raise InvalidInputError("k must be positive")
    vars = tuple(f"q{l}" for l in range(k))
    full_cycle = (1,) * k
    prefactor = Series.one(vars, max_order)
    j = 1
    while j * k <= max_order:
        prefactor = prefactor * geometric_factor(vars, tuple(j * e for e in full_cycle), max_order, power=k)
        j += 1

    # The full-cycle exponent is Q(n) = (n1^2 + n_{k-1}^2 +
    # sum (n_i - n_{i+1})^2)/2, so any term of total degree <= N has
    # |n_1| <= isqrt(2N) and steps |n_{i+1} - n_i| <= isqrt(2N).
    theta_terms = {}
    if k == 1:
        theta_terms[(0,) * k] = 1
    else:
        bound = k * (isqrt(2 * max_order) + 1)
        from itertools import product as iproduct

        for n in iproduct(range(-bound, bound + 1), repeat=k - 1):
            q_form = sum(x * x for x in n) - sum(n[i] * n[i + 1] for i in range(k - 2))
            if q_form > max_order:
                continue
            exps = [q_form] * k
            for r in range(1, k):
                exps[r] += n[r - 1]
            if sum(exps) > max_order:
                continue
            if any(e < 0 for e in exps):
                raise InternalInconsistencyError(
                    f"negative theta exponent at n={n}: {exps}"
                )
            key = tuple(exps)
            theta_terms[key] = theta_terms.get(key, 0) + 1
    return prefactor * Series(vars, theta_terms, max_order)


# ---------------------------------------------------------------------------
# one-variable q-series: eta, theta, affine character combinations
# ---------------------------------------------------------------------------

def eta_inv_pow(r, max_order):
    """prod_{n>0} (1 - q^n)^(-r), fractional eta prefactor dropped.

    >>> eta_inv_pow(1, 4).coeffs[(4,)]
    5
    """
    out = Series.one(("q",), max_order)
    for n in range(1, max_order + 1):
        out = out * geometric_factor(("q",), (n,), max_order, power=r)
    return out


def theta3(max_order, scale=1):
    """sum over n in Z of q^(scale*n^2), truncated."""
    coeffs = {(0,): 1}
    n = 1
    while scale * n * n <= max_order:
        coeffs[(scale * n * n,)] = 2
        n += 1
    return Series(("q",), coeffs, max_order)


def theta2_pair(max_order):
    """Integer-normalized theta2(q) * theta2(q^3).

    The two quarter-power prefactors combine to a single power of q, so
    the product has integer exponents: 4*q*sum q^(n^2+n+3m^2+3m).
    """
    coeffs = {}
    n = 0
    while n * n + n + 1 <= max_order:
        m = 0
        while n * n + n + 3 * (m * m + m) + 1 <= max_order:
            e = n * n + n + 3 * (m * m + m) + 1
            coeffs[(e,)] = coeffs.get((e,), 0) + 4
            m += 1
        n += 1
    return Series(("q",), coeffs, max_order)


def su_k_character_proxy(k, max_order):
    """Integer-normalized numerator of the k-color single-variable count.

    For k=2 this is theta3(q); for k=3 it is the hexagonal lattice theta
    theta3(q)theta3(q^3) + theta2(q)theta2(q^3).
    """
    if k == 2:
        return theta3(max_order)
    if k == 3:
        return theta3(max_order) * theta3(max_order, scale=3) + theta2_pair(max_order)
    raise InvalidInputError("character proxy implemented for k = 2, 3 only")


# ---------------------------------------------------------------------------
# the (1, c, c) closed form
# ---------------------------------------------------------------------------

def one_cc_closed_form(c, max_order, leading_power=3):
    """Closed-form count for the (1, c, c) weights, in variables r0..r(c-1).

    With R = r0*...*r(c-1) this is

        prod_{k>0} (1 - R^k)^(-leading_power)
        * [ prod_{k>0} prod_{i=0}^{c-2} (1 - r0...ri R^(k-1)) ]^(-2).

    The reference display in the literature prints leading_power = 1,
    which contradicts both the brute-force count and the formula's own
    degeneration at c = 1; the mathematically consistent value is 3.
    Callers can evaluate either.
    """
    if c < 1:
        raise InvalidInputError("c must be positive")
    vars = tuple(f"r{l}" for l in range(c))
    full = (1,) * c
    out = Series.one(vars, max_order)
    j = 1
    while j * c <= max_order:
        out = out * geometric_factor(vars, tuple(j * e for e in full), max_order, power=leading_power)
        j += 1
    for i in range(c - 1):
        k = 1
        while True:
            exps = tuple((1 if l <= i else 0) + (k - 1) for l in range(c))
            if sum(exps) > max_order:
                break
            out = out * geometric_factor(vars, exps, max_order, power=2)
            k += 1
    return out


# ---------------------------------------------------------------------------
# cross-chart variable relations
# ---------------------------------------------------------------------------

def variable_relations(params):
    """The identification rows among the point-class variables.

    Each row is a list of monomials (as {variable: exponent} dicts) that
    stand for equal zero-dimensional K-classes: d rows relating all
    three charts, then pairwise rows for each d_ij.  Stored series never
    impose these; they are data for specialization choices and for the
    K-class cross-check.
    """
    a, b, c = params.a, params.b, params.c
    d, d12, d13, d23 = params.d, params.d12, params.d13, params.d23

    def monomial(letter, modulus, step, shift):
        mono = {}
        for i in range(modulus // step):
            var = f"{letter}{i * step + shift}"
            mono[var] = mono.get(var, 0) + 1
        return mono

    rows = []
    for t in range(d):
        rows.append([monomial("p", a, d, t), monomial("q", b, d, t), monomial("r", c, d, t)])
    for t in range(d12):
        rows.append([monomial("p", a, d12, t), monomial("q", b, d12, t)])
    for t in range(d23):
        rows.append([monomial("q", b, d23, t), monomial("r", c, d23, t)])
    for t in range(d13):
        rows.append([monomial("p", a, d13, t), monomial("r", c, d13, t)])
    return rows


def euler_char_degree(monomial):
    """Total exponent of the index-0 variables of a relation monomial.

    Twisted point classes have holomorphic Euler characteristic zero, so
    this is the Euler characteristic of the 0-dimensional class the
    monomial stands for.
    """
    return sum(e for v, e in monomial.items() if v[1:] == "0")


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
