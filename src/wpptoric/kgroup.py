"""The Grothendieck ring of a weighted projective plane.

For weights (a, b, c) the ring is Z[g, 1/g] modulo the principal ideal
generated by P(g) = (1 - g^a)(1 - g^b)(1 - g^c), where g is the class
of the tautological line bundle O(-1).  Since P has constant term 1 and
leading coefficient -1, g is already invertible in Z[g]/(P), and every
class has a unique integer representative of degree < a + b + c.
Equality of classes is equality of those coefficient vectors.

Every class of a toric sheaf is an integer Laurent polynomial in g.  The
chart-i point class P/(1 - g^w_i) is the product of the two other
factors of P, and a sheaf's class is one integer sum of cached
representatives (`kclass_sum`) over the terms of its Laurent polynomial,
with no division and no object per term.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm

from .errors import InvalidInputError
from .exact_arith import poly_mul, reduce_by_tail


@dataclass(frozen=True)
class WppParams:
    """Weights of the stack, with their gcd/lcm bookkeeping.

    The one chart convention lives here: chart i is [C^2/mu_(w_i)] and
    its two steps are the other weights in cyclic order, so `chart(i)`
    is (w_i, w_(i+1), w_(i+2)) with indices mod 3.  Everything derived
    from (a, b, c), the hash included, is computed once; equality is on
    (a, b, c).
    """

    a: int
    b: int
    c: int

    def __post_init__(self):
        a, b, c = self.a, self.b, self.c
        if min(a, b, c) < 1:
            raise InvalidInputError("weights must be positive integers")
        for name, value in (
            ("d", gcd(a, b, c)), ("d12", gcd(a, b)), ("d13", gcd(a, c)),
            ("d23", gcd(b, c)), ("m", lcm(a, b, c)), ("degree", a + b + c),
            ("_charts", ((a, b, c), (b, c, a), (c, a, b))), ("_hash", hash((a, b, c))),
        ):
            object.__setattr__(self, name, value)

    def __hash__(self):
        return self._hash

    def weights(self):
        return (self.a, self.b, self.c)

    def chart(self, i):
        """(w_i, w_(i+1), w_(i+2)): chart i's modulus, then its two steps."""
        if i not in (1, 2, 3):
            raise InvalidInputError("chart must be 1, 2 or 3")
        return self._charts[i - 1]

    def check_widths(self, D1, D2, D3):
        """Width k of a rank-2 datum must be a multiple of w_(k+1), chart k's first step."""
        if D1 % self.b or D2 % self.c or D3 % self.a:
            raise InvalidInputError("widths must satisfy b | D1, c | D2, a | D3")


def relation_poly(params):
    """(1 - x^a)(1 - x^b)(1 - x^c) as an integer coefficient tuple."""
    out = [1]
    for w in params.weights():
        factor = [0] * (w + 1)
        factor[0], factor[w] = 1, -1
        out = poly_mul(out, factor)
    return tuple(out)


@lru_cache(maxsize=128)
def _relation_tail(params):
    """(j, P_j) for the nonzero terms of P below its leading one.

    P = (1 - g^a)(1 - g^b)(1 - g^c) has leading coefficient -1, so
    g^(deg P) = sum_j P_j g^j in the K-group.
    """
    rel = relation_poly(params)
    return tuple((j, p) for j, p in enumerate(rel[:-1]) if p)


def _reduce(params, coeffs):
    """Canonical representative, by division-free reduction modulo P."""
    return tuple(reduce_by_tail(coeffs, params.degree, _relation_tail(params)))


class KClass:
    """A class in the integral K-group, by its canonical representative."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params, coeffs, reduce=True):
        if reduce:
            coeffs = _reduce(params, coeffs)
        self.params = params
        self.coeffs = tuple(coeffs)

    def _check(self, other):
        if self.params != other.params:
            raise InvalidInputError("K-classes live over different weights")

    def __add__(self, other):
        self._check(other)
        return KClass(
            self.params,
            tuple(x + y for x, y in zip(self.coeffs, other.coeffs)),
            reduce=False,
        )

    def __neg__(self):
        return KClass(self.params, tuple(-x for x in self.coeffs), reduce=False)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return KClass(self.params, poly_mul(list(self.coeffs), list(other.coeffs)))

    def __eq__(self, other):
        return (
            isinstance(other, KClass)
            and self.params == other.params
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.params, self.coeffs))

    def to_triples(self):
        """Serialize as ordered (exponent, coefficient, 1) triples."""
        return [(e, c, 1) for e, c in enumerate(self.coeffs) if c != 0]

    def __repr__(self):
        terms = " + ".join(f"{c}*g^{e}" for e, c in enumerate(self.coeffs) if c != 0)
        return f"KClass[{terms or '0'}]"


def kclass_scalar(params, value):
    coeffs = [value] + [0] * (params.degree - 1)
    return KClass(params, coeffs, reduce=False)


# g^m is reduced from a list of m + 1 coefficients, so m bounds time and memory
MAX_PERIOD = 10**6


@lru_cache(maxsize=128)
def _period_nilpotent(params):
    """N = 1 - g^m and N^2, m = lcm(a,b,c).

    Each factor 1 - g^w of the relation divides 1 - g^m, so N^3 = 0.
    """
    if params.m > MAX_PERIOD:
        raise InvalidInputError(
            f"lcm(a,b,c) = {params.m} exceeds {MAX_PERIOD}, the largest K-group period"
        )
    nil = kclass_scalar(params, 1) - KClass(params, [0] * params.m + [1])
    return nil, nil * nil


@lru_cache(maxsize=4096)
def g_power(params, e):
    """Canonical representative of g^e for any integer e.

    With e = qm + r and 0 <= r < m, g^(qm) = (1 - N)^q = 1 - qN +
    q(q-1)/2 N^2 for every integer q, since N^3 = 0.  That sum is one
    integer vector V of the cached representatives of N and N^2, and
    g^e is g^r V: V shifted up by r places and reduced once, without
    division.
    """
    q, r = divmod(e, params.m)
    nil, nil2 = _period_nilpotent(params)
    half = q * (q - 1) // 2
    vec = [half * y - q * x for x, y in zip(nil.coeffs, nil2.coeffs)]
    vec[0] += 1
    return KClass(params, [0] * r + vec)


def kclass_sum(params, pairs):
    """Class of the sum of coeff * cls over the (coeff, cls) pairs.

    The representatives are added into one list, so the sum builds one
    KClass and needs no reduction.
    """
    out = [0] * params.degree
    for coeff, cls in pairs:
        if coeff:
            for j, x in enumerate(cls.coeffs):
                if x:
                    out[j] += coeff * x
    return KClass(params, out, reduce=False)


def kclass_from_laurent(params, terms):
    """Class of a finite Laurent polynomial {exponent: coefficient} in g."""
    return kclass_sum(params, ((c, g_power(params, e)) for e, c in terms.items() if c))


def line_bundle_class(params, A, B, C):
    """Class of the equivariant line bundle labelled (A, B, C): g^(A+B+C)."""
    return g_power(params, A + B + C)


def rank1_class(params, A, B, C, lam1, lam2, lam3):
    """Class of the rank-1 torsion-free sheaf with reflexive hull (A, B, C).

    The hull contributes g^o, o = A+B+C, and each chart partition takes
    away the point classes (1 - t1)(1 - t2) g^o t1^l1 t2^l2 of its boxes
    (l1, l2), with t1 = g^w1 and t2 = g^w2 the chart's steps.  Over rows
    lam_0 >= ... >= lam_(L-1), and lam_L = 0, that sum telescopes to

        g^o (1 - sum_(j=0..L) t1^lam_j t2^j + sum_(j=1..L) t1^lam_(j-1) t2^j),

    whose terms for j >= 1 cancel where lam_(j-1) = lam_j: the class is
    one Laurent polynomial with a term per corner of each partition.
    """
    offset = A + B + C
    terms = {offset: 1}
    for chart, lam in ((1, lam1), (2, lam2), (3, lam3)):
        # an empty partition adds -1 and +1 at the offset
        _, w1, w2 = params.chart(chart)
        terms[offset] -= 1
        rows = lam.rows + (0,)
        for j, length in enumerate(rows):
            if j and rows[j - 1] == length:
                continue
            e = offset + length * w1 + j * w2
            terms[e] = terms.get(e, 0) + 1
            if j:
                e = offset + rows[j - 1] * w1 + j * w2
                terms[e] = terms.get(e, 0) - 1
    return kclass_from_laurent(params, terms)


def rank2_typeI_laurent(datum):
    """Laurent polynomial {exponent: coeff} in g of a rank-2 type-I bundle.

    `datum` carries integers A1, A2, A3, widths D1, D2, D3 with
    b | D1, c | D2, a | D3 (the caller has checked them), and the flags
    `same` of its point pairs (p1, p2), (p2, p3), (p3, p1).  The
    polynomial is g^(A1+A2+A3) (1 + g^(D1+D2+D3) - sum (1 - g^Di)
    (1 - g^Dj)), the sum over the pairs of distinct points; exponents
    may be negative, and a coefficient may be 0.
    """
    # (exponent above the shift, coeff) before like terms are collected
    D1, D2, D3 = datum.D1, datum.D2, datum.D3
    pairs = [(0, 1), (D1 + D2 + D3, 1)]
    for di, dj, coincide in zip((D1, D2, D3), (D2, D3, D1), datum.same):
        if not coincide:
            pairs += ((0, -1), (di, 1), (dj, 1), (di + dj, -1))
    shift = datum.A1 + datum.A2 + datum.A3
    terms = {}
    for e, coeff in pairs:
        terms[shift + e] = terms.get(shift + e, 0) + coeff
    return terms


def rank2_typeI_class(params, datum):
    """Class of a rank-2 bundle with one box summand per chart (`rank2_typeI_laurent`)."""
    params.check_widths(datum.D1, datum.D2, datum.D3)
    return kclass_from_laurent(params, rank2_typeI_laurent(datum))
