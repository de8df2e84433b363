"""Inertia-stack sectors and the orbifold Chern character.

The connected components of the inertia stack are indexed by the
rationals f = l/w_i in [0, 1), one sector for each: with n the order of
f, the sector is 2-dimensional when n divides d, 1-dimensional on the
pair (i, j) when n divides d_ij (then it divides no other pair gcd,
since two of them have gcd d), and 0-dimensional on the one weight n
divides otherwise.  On a sector the tautological class g acts as the
root of unity e^(-2 pi i f) times exp(-x) truncated at the sector
dimension; extending that map multiplicatively gives a ring map from
the K-group to the direct sum of truncated cohomologies with cyclotomic
coefficients, and the map is an isomorphism, so exact coefficientwise
comparison of the images is a complete equality test.

The coefficients on the sector f = p/n live in Q(zeta_n), and they are
stored there, at order n = f.denominator, one entry per sector in
`sectors` order, and written there by `ChernVector.to_records`, one
record per sector: each record names its order, and each coordinate is
a reduced [numerator, denominator] pair read off the integers it is
stored as.  Each one is an integer combination of powers of
omega = zeta_n^(-p) over a small integer, and `sector_value` builds it
from those integers in one fold, with no cyclotomic arithmetic: the
character of a K-class from the moments of its integer coefficients
over k!, the rank-2 closed form from the terms of its display.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd

from .errors import InvalidInputError
from .exact_arith import Cyclotomic

@dataclass(frozen=True)
class Sector:
    f: Fraction
    kind: str  # "2dim" | "1dim" | "0dim"
    which: tuple  # () | (i, j) with i < j | (i,)
    dim: int


@lru_cache(maxsize=128)
def sectors(params):
    """The sectors of the inertia stack, one per fraction l/w_i, in ascending f.

    >>> from wpptoric.kgroup import WppParams
    >>> [ (str(s.f), s.kind) for s in sectors(WppParams(1, 1, 2)) ]
    [('0', '2dim'), ('1/2', '0dim')]
    """
    weights = params.weights()
    pairs = (((1, 2), params.d12), ((1, 3), params.d13), ((2, 3), params.d23))
    out = []
    for f in sorted({Fraction(l, w) for w in weights for l in range(w)}):
        n = f.denominator
        # n divides all three pair gcds (n | d), exactly one, or none
        on = [pair for pair, dij in pairs if dij % n == 0]
        if len(on) == 3:
            out.append(Sector(f, "2dim", (), 2))
        elif on:
            out.append(Sector(f, "1dim", on[0], 1))
        else:
            which = tuple(i for i, w in enumerate(weights, 1) if w % n == 0)
            out.append(Sector(f, "0dim", which, 0))
    return tuple(out)


def sector_value(f, terms, den=1):
    """sum c omega^e / den over the pairs (e, c) of terms, on the sector f = p/n.

    omega = zeta_n^(-p) is the root of unity g acts by on the sector, so
    omega^e is zeta_n at the slot -p e mod n: the integers c are placed
    there and the value is built at order n in one step.
    """
    n, p = f.denominator, f.numerator
    folded = [0] * n
    for e, c in terms:
        folded[-p * e % n] += c
    return Cyclotomic.from_integers(n, folded, den)


class ChernVector:
    """Per-sector truncated polynomials in the sector hyperplane class.

    `entries` holds one tuple per sector, in `sectors(params)` order:
    the cyclotomic coefficients of the sector in ascending degree
    (length dim+1), each at order f.denominator, so that equality is
    plain comparison of the entries.  Codegree k of a sector of
    dimension n is the degree n-k coefficient.
    """

    __slots__ = ("params", "entries")

    def __init__(self, params, entries):
        entries, order = tuple(entries), sectors(params)
        if len(entries) != len(order) or any(
                len(coeffs) != sector.dim + 1 for sector, coeffs in zip(order, entries)):
            raise InvalidInputError("need one entry per sector, of length dim + 1")
        self.params = params
        self.entries = entries

    def __eq__(self, other):
        return (isinstance(other, ChernVector) and self.params == other.params
                and self.entries == other.entries)

    __hash__ = None

    def to_records(self):
        """JSON-ready records, every coefficient at its sector's order f.denominator.

        A coordinate x / den is written in lowest terms, [x // g, den // g]
        with g = gcd(x, den), straight from the integer numerators.
        """
        records = []
        for sector, entry in zip(sectors(self.params), self.entries):
            coeffs = [
                [c.order, [[x // (g := gcd(x, c.den)), c.den // g] for x in c.nums]]
                for c in entry
            ]
            records.append({
                "f": [sector.f.numerator, sector.f.denominator],
                "kind": sector.kind,
                "which": list(sector.which),
                "coeffs": coeffs,
            })
        return records

    def __repr__(self):
        parts = [f"{s.f}:{s.kind}" for s in sectors(self.params)]
        return f"ChernVector({', '.join(parts)})"


def tch_of_kclass(kclass):
    """Orbifold Chern character of a K-class, sector by sector.

    On the sector f = p/n, g maps to w e^(-x) with w = zeta_n^(-p),
    truncated at the sector dimension, so the degree-k coefficient of
    sum_e c_e g^e is (1/k!) sum_e c_e (-e)^k w^e.  The integers
    c_e (-e)^k are summed by e mod n once for each order n and k, and
    `sector_value` folds the sums with k! as the denominator.
    """
    params = kclass.params
    terms = [(e, c) for e, c in enumerate(kclass.coeffs) if c]
    moments = {}  # (n, k) -> sums of c_e (-e)^k over the residues e mod n
    entries = []
    for sector in sectors(params):
        n = sector.f.denominator
        entry = []
        for k in range(sector.dim + 1):
            sums = moments.get((n, k))
            if sums is None:
                sums = [0] * n
                for e, c in terms:
                    sums[e % n] += c * (-e) ** k
                moments[(n, k)] = sums
            entry.append(sector_value(sector.f, enumerate(sums), factorial(k)))
        entries.append(tuple(entry))
    return ChernVector(params, entries)


def tch_rank2_closed_form(params, datum):
    """Closed-form orbifold Chern character of a rank-2 type-I bundle.

    Requires positive widths, mutually distinct points, the divisibility
    b | D1, c | D2, a | D3 and the normalization A1 = A2 = 0; the whole
    character is then a function of A = A3 and the widths.  Each entry
    of the display is a short list of (power of omega, integer) terms.
    """
    params.check_widths(datum.D1, datum.D2, datum.D3)
    if min(datum.D1, datum.D2, datum.D3) <= 0:
        raise InvalidInputError("closed form needs strictly positive widths")
    if not datum.points_distinct():
        raise InvalidInputError("closed form needs mutually distinct points")
    if datum.A1 != 0 or datum.A2 != 0:
        raise InvalidInputError("closed form is stated for A1 = A2 = 0")
    A = datum.A3
    D = (datum.D1, datum.D2, datum.D3)
    sum_d = sum(D)
    sum_d2 = sum(x * x for x in D)
    # sector pair -> (index of D_j twist, D_i, D_k) per the cyclic display
    pair_roles = {(1, 2): (1, 0, 2), (2, 3): (2, 1, 0), (1, 3): (0, 2, 1)}
    entries = []
    for sector in sectors(params):
        f = sector.f
        if sector.dim == 2:
            entries.append((
                sector_value(f, [(A, 2)]),
                sector_value(f, [(A, -(2 * A + sum_d))]),
                sector_value(f, [(A, 2 * A * A + 2 * sum_d * A + sum_d2)], 2),
            ))
        elif sector.dim == 1:
            j_idx, i_idx, k_idx = pair_roles[sector.which]
            dj = D[j_idx]
            entries.append((
                sector_value(f, [(A, 1), (A + dj, 1)]),
                sector_value(f, [(A, -(A + D[i_idx] + D[k_idx])), (A + dj, -(A + dj))]),
            ))
        else:
            (i,) = sector.which
            entries.append((sector_value(f, [(A + D[i - 1], 1), (A + D[i % 3], 1)]),))
    return ChernVector(params, entries)
