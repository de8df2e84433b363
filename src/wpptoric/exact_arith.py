"""Exact cyclotomic numbers, built from integers and compared.

A cyclotomic number of order n lives in Q(zeta_n) = Q[x]/(Phi_n) and
is stored as phi(n) integer power-basis numerators over one positive
denominator, with no common factor left among them, so each value of a
given order has one representation.  Phi_n is monic with integer
coefficients, so reducing modulo Phi_n needs no division and integer
numerators stay integers.

Every value the library needs is an integer combination of powers of
zeta_n over a small integer (`inertia.sector_value`), so `Cyclotomic`
has one constructor, `from_integers`, and no arithmetic: values are
compared at their own order and written out.  The ring and field
operations live with the tests' oracles.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import InternalInconsistencyError, InvalidInputError


# ---------------------------------------------------------------------------
# dense polynomials over Q, coefficient lists in increasing degree
# ---------------------------------------------------------------------------

def poly_trim(p):
    """Drop trailing zero coefficients."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p, q):
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


# ---------------------------------------------------------------------------
# cyclotomic polynomials
# ---------------------------------------------------------------------------

def _squarefree_sign(k):
    """The Moebius function: (-1)^(number of primes) for squarefree k, else 0."""
    sign, p = 1, 2
    while p * p <= k:
        if k % p == 0:
            k //= p
            if k % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if k > 1 else sign


def cyclotomic_poly(n):
    """The n-th cyclotomic polynomial Phi_n as an integer coefficient tuple.

    Phi_n is the product of (x^d - 1)^mu(n/d) over the divisors d of n:
    the factors with mu = 1 are multiplied out first, then each factor
    with mu = -1 is divided out exactly, in integers.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)
    """
    if n < 1:
        raise InvalidInputError("cyclotomic order must be positive")
    signs = [(d, _squarefree_sign(n // d)) for d in range(1, n + 1) if n % d == 0]
    out = [1]
    for d, sign in signs:
        if sign == 1:  # times x^d - 1
            out = [(out[i - d] if i >= d else 0) - (out[i] if i < len(out) else 0)
                   for i in range(len(out) + d)]
    for d, sign in signs:
        if sign == -1:  # the exact quotient q of p = q (x^d - 1): p_i = q_(i-d) - q_i
            quo = []
            for i in range(len(out) - d):
                quo.append((quo[i - d] if i >= d else 0) - out[i])
            out = quo
    return tuple(out)


@lru_cache(maxsize=256)
def _reducer(n):
    """(phi(n), tail) with x^phi(n) = sum of c x^j over (j, c) in tail, mod Phi_n."""
    phi_n = cyclotomic_poly(n)
    return len(phi_n) - 1, tuple((j, -c) for j, c in enumerate(phi_n[:-1]) if c)


def reduce_by_tail(nums, deg, tail):
    """The deg low coordinates of sum nums[i] x^i, reduced without division.

    The relation x^deg = sum of t x^j over (j, t) in tail is monic, so
    each coefficient at degree deg or above is pushed down through the
    tail from the top, and integers stay integers.
    """
    rem = list(nums)
    if len(rem) <= deg:
        rem.extend([0] * (deg - len(rem)))
        return rem
    for i in range(len(rem) - 1, deg - 1, -1):
        c = rem[i]
        if c:
            base = i - deg
            for j, t in tail:
                rem[base + j] += c * t
    del rem[deg:]
    return rem


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

class Cyclotomic:
    """An element of Q(zeta_n): integer power-basis numerators over one denominator.

    `nums` holds phi(n) integers and `den` a positive integer with
    gcd(den, *nums) = 1; the value is sum nums[i] zeta_n^i / den.
    """

    __slots__ = ("order", "nums", "den")

    @staticmethod
    def from_integers(order, nums, den=1):
        """sum nums[i] zeta_order^i / den, for integers nums of any length and den > 0."""
        nums = reduce_by_tail(nums, *_reducer(order))
        g = gcd(den, *nums)
        out = object.__new__(Cyclotomic)
        out.order = order
        if g == 1:
            out.nums, out.den = tuple(nums), den
        else:
            out.nums, out.den = tuple(x // g for x in nums), den // g
        return out

    @property
    def coeffs(self):
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def __eq__(self, other):
        """Equality of two values stored at the same order, by their one representation."""
        if not isinstance(other, Cyclotomic):
            return NotImplemented
        if self.order != other.order:
            raise InternalInconsistencyError(
                f"compared cyclotomic numbers of orders {self.order} and {other.order}")
        return self.nums == other.nums and self.den == other.den

    def __repr__(self):
        terms = " + ".join(f"{c}*z{self.order}^{k}" for k, c in enumerate(self.coeffs) if c)
        return f"Cyc[{terms or '0'}]"
