"""Inertia-stack sectors and the orbifold Chern character.

The connected components of the inertia stack are indexed by rationals
f in [0, 1): the 2-dimensional ones by multiples of 1/d, the
1-dimensional ones by multiples of 1/d_ij not already counted, and the
0-dimensional ones by multiples of 1/hat(i) not counted before.  On a
sector the tautological class g acts as the root of unity e^(-2 pi i f)
times exp(-x) truncated at the sector dimension; extending that map
multiplicatively gives a ring map from the K-group to the direct sum of
truncated cohomologies with cyclotomic coefficients, and the map is an
isomorphism, so exact coefficientwise comparison of the images is a
complete equality test.

The coefficients on the sector f = p/n live in Q(zeta_n), and they are
stored there, at order n = f.denominator; only `ChernVector.to_records`
writes them in the order-lcm(a,b,c) field, so that every sector's
record uses one basis.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import InvalidInputError
from .exact_arith import Cyclotomic, zeta_pow

KIND_RANK = {"2dim": 0, "1dim": 1, "0dim": 2}


@dataclass(frozen=True)
class Sector:
    f: Fraction
    kind: str  # "2dim" | "1dim" | "0dim"
    which: tuple  # () | (i, j) with i < j | (i,)

    @property
    def dim(self):
        return 2 - KIND_RANK[self.kind]

    def sort_key(self):
        return (self.f, KIND_RANK[self.kind], self.which)


def sectors(params):
    """Canonically ordered sectors of the inertia stack.

    >>> from wpptoric.kgroup import WppParams
    >>> [ (str(s.f), s.kind) for s in sectors(WppParams(1, 1, 2)) ]
    [('0', '2dim'), ('1/2', '0dim')]
    """
    d = params.d
    two = {Fraction(l, d) for l in range(d)}
    pair_gcds = {(1, 2): params.d12, (1, 3): params.d13, (2, 3): params.d23}
    one = {}
    for pair, dij in pair_gcds.items():
        one[pair] = {Fraction(l, dij) for l in range(dij)} - two
    chart_pairs = {1: ((1, 2), (1, 3)), 2: ((1, 2), (2, 3)), 3: ((1, 3), (2, 3))}
    zero = {}
    for i in (1, 2, 3):
        used = set(two)
        for pair in chart_pairs[i]:
            used |= one[pair]
        zero[i] = {Fraction(l, params.hat(i)) for l in range(params.hat(i))} - used
    out = [Sector(f, "2dim", ()) for f in two]
    for pair, fs in one.items():
        out.extend(Sector(f, "1dim", pair) for f in fs)
    for i, fs in zero.items():
        out.extend(Sector(f, "0dim", (i,)) for f in fs)
    return tuple(sorted(out, key=Sector.sort_key))


def _root(f, exponent=1):
    """e^(-2 pi i f exponent) in Q(zeta_n), n = f.denominator."""
    return zeta_pow(f.denominator, -f.numerator * exponent)


def _at_order(value, n):
    """A rational or a cyclotomic number of order dividing n, at order n."""
    if not isinstance(value, Cyclotomic):
        return Cyclotomic(n, [value])
    if value.order == n:
        return value
    if n % value.order:
        raise InvalidInputError(f"order {value.order} does not divide {n}")
    # the sum lives at order lcm(value.order, n) = n
    return value + Cyclotomic(n, [])


class ChernVector:
    """Per-sector truncated polynomials in the sector hyperplane class.

    Entries are tuples of cyclotomic coefficients in ascending degree
    (length dim+1).  Every entry of the sector f is stored at order
    f.denominator, so that equality is plain coefficient comparison;
    rationals and numbers of a dividing order are brought there on
    input.  Codegree k of a sector of dimension n is the degree n-k
    coefficient.
    """

    __slots__ = ("params", "entries")

    def __init__(self, params, entries):
        self.params = params
        fixed = {}
        for sector, coeffs in entries.items():
            if len(coeffs) != sector.dim + 1:
                raise InvalidInputError("sector entry length must be dim + 1")
            n = sector.f.denominator
            fixed[sector] = tuple(_at_order(c, n) for c in coeffs)
        self.entries = fixed

    def sector_list(self):
        return tuple(sorted(self.entries, key=Sector.sort_key))

    def codegree(self, sector, k):
        return self.entries[sector][sector.dim - k]

    def __eq__(self, other):
        if not isinstance(other, ChernVector) or self.params != other.params:
            return False
        if set(self.entries) != set(other.entries):
            return False
        for sector, coeffs in self.entries.items():
            theirs = other.entries[sector]
            if any(a != b for a, b in zip(coeffs, theirs)):
                return False
        return True

    __hash__ = None

    def to_records(self):
        """JSON-ready records, every coefficient in the order-lcm(a,b,c) field."""
        m = self.params.m
        records = []
        for sector in self.sector_list():
            coeffs = [
                [m, [[x.numerator, x.denominator] for x in c.embed(m).coeffs]]
                for c in self.entries[sector]
            ]
            records.append({
                "f": [sector.f.numerator, sector.f.denominator],
                "kind": sector.kind,
                "which": list(sector.which),
                "coeffs": coeffs,
            })
        return records

    def __repr__(self):
        parts = [f"{s.f}:{s.kind}" for s in self.sector_list()]
        return f"ChernVector({', '.join(parts)})"


def tch_of_kclass(kclass):
    """Orbifold Chern character of a K-class, sector by sector.

    On the sector f = p/n, g maps to w e^(-x) with w = zeta_n^(-p),
    truncated at the sector dimension, so the degree-k coefficient of
    sum_e c_e g^e is (1/k!) sum_e c_e (-e)^k w^e: a vector of rationals
    indexed by e mod n, folded into one element of Q(zeta_n).
    """
    params = kclass.params
    entries = {}
    for sector in sectors(params):
        n, p = sector.f.denominator, sector.f.numerator
        entry = []
        for k in range(sector.dim + 1):
            folded = [Fraction(0)] * n
            for e, coeff in enumerate(kclass.coeffs):
                if coeff:
                    folded[-p * e % n] += coeff * (-e) ** k
            entry.append(Cyclotomic(n, [x / factorial(k) for x in folded]))
        entries[sector] = entry
    return ChernVector(params, entries)


def tch_rank2_closed_form(params, datum):
    """Closed-form orbifold Chern character of a rank-2 type-I bundle.

    Requires positive widths, mutually distinct points, the divisibility
    b | D1, c | D2, a | D3 and the normalization A1 = A2 = 0; the whole
    character is then a function of A = A3 and the widths.
    """
    a, b, c = params.weights()
    if datum.D1 % b or datum.D2 % c or datum.D3 % a:
        raise InvalidInputError("widths must satisfy b | D1, c | D2, a | D3")
    if min(datum.D1, datum.D2, datum.D3) <= 0:
        raise InvalidInputError("closed form needs strictly positive widths")
    if datum.p1 == datum.p2 or datum.p2 == datum.p3 or datum.p3 == datum.p1:
        raise InvalidInputError("closed form needs mutually distinct points")
    if datum.A1 != 0 or datum.A2 != 0:
        raise InvalidInputError("closed form is stated for A1 = A2 = 0")
    A = datum.A3
    D = (datum.D1, datum.D2, datum.D3)
    sum_d = sum(D)
    sum_d2 = sum(x * x for x in D)
    # sector pair -> (index of D_j twist, D_i, D_k) per the cyclic display
    pair_roles = {(1, 2): (1, 0, 2), (2, 3): (2, 1, 0), (1, 3): (0, 2, 1)}
    entries = {}
    for sector in sectors(params):
        omega_a = _root(sector.f, A)
        if sector.kind == "2dim":
            entries[sector] = (
                2 * omega_a,
                -(2 * A + sum_d) * omega_a,
                (Fraction(A * A) + sum_d * A + Fraction(sum_d2, 2)) * omega_a,
            )
        elif sector.kind == "1dim":
            j_idx, i_idx, k_idx = pair_roles[sector.which]
            twist = _root(sector.f, D[j_idx])
            const = (1 + twist) * omega_a
            linear = -((1 + twist) * A + D[i_idx] + twist * D[j_idx] + D[k_idx]) * omega_a
            entries[sector] = (const, linear)
        else:
            (i,) = sector.which
            di = D[i - 1]
            dnext = D[i % 3]
            entries[sector] = ((_root(sector.f, di) + _root(sector.f, dnext)) * omega_a,)
    return ChernVector(params, entries)
