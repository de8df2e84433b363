"""Exact rational and cyclotomic arithmetic.

Rational scalars are ``fractions.Fraction`` (arbitrary precision, stored
in lowest terms with positive denominator).  A cyclotomic number of
order n lives in Q(zeta_n) = Q[x]/(Phi_n) and is stored as phi(n)
integer power-basis numerators over one positive denominator, with no
common factor left among them, so each value of a given order has one
representation.  Phi_n is monic with integer coefficients, so reducing
modulo Phi_n needs no division and integer numerators stay integers.

The library needs only the ring operations (+, -, *), equality and the
embedding between orders; field division lives with the tests' oracles.
Mixed-order operations embed both operands into Q(zeta_lcm) via
zeta_n -> zeta_N^(N/n).  A rational operand has order 1: `*` scales by
it without embedding, while `+`, `-` and `==` lift it to the other
order like any operand (`_pair`).  Results are not demoted to smaller orders;
`as_rational` is the only change of representation offered.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InvalidInputError


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


@lru_cache(maxsize=1024)
def _zeta_power_basis(n, e):
    """Integer coordinates of zeta_n^e in the power basis of Q(zeta_n)."""
    e %= n
    return tuple(reduce_by_tail([0] * e + [1], *_reducer(n)))


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

def _lowest(nums, den):
    """Integer numerators over den > 0, divided by their common factor."""
    g = gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(x // g for x in nums), den // g


def _canonical(order, nums, den):
    """A Cyclotomic from phi(order) integer numerators over den > 0."""
    out = object.__new__(Cyclotomic)
    out.order = order
    out.nums, out.den = _lowest(nums, den)
    return out


def _rational(q):
    """The rational q as a Cyclotomic of order 1."""
    return _canonical(1, [q.numerator], q.denominator)


def _operand(other):
    """A Cyclotomic for a Cyclotomic or rational operand, None for anything else."""
    if isinstance(other, Cyclotomic):
        return other
    if isinstance(other, (int, Fraction)):
        return _rational(other)
    return None


def _lift(c, N):
    """The numerators of c at order N, for c.order | N."""
    n = c.order
    if n == N:
        return c.nums
    step = N // n
    spread = [0] * ((len(c.nums) - 1) * step + 1)
    spread[::step] = c.nums
    return reduce_by_tail(spread, *_reducer(N))


class Cyclotomic:
    """An element of Q(zeta_n): integer power-basis numerators over one denominator.

    `nums` holds phi(n) integers and `den` a positive integer with
    gcd(den, *nums) = 1; the value is sum nums[i] zeta_n^i / den.
    """

    __slots__ = ("order", "nums", "den")

    def __init__(self, order, coeffs):
        coeffs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = lcm(1, *(c.denominator for c in coeffs))
        nums = reduce_by_tail([c.numerator * (den // c.denominator) for c in coeffs],
                              *_reducer(order))
        self.order = order
        self.nums, self.den = _lowest(nums, den)

    @staticmethod
    def from_integers(order, nums, den=1):
        """sum nums[i] zeta_order^i / den, for integers nums of any length and den > 0."""
        return _canonical(order, reduce_by_tail(nums, *_reducer(order)), den)

    @property
    def coeffs(self):
        """The power-basis coordinates as Fractions."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    def embed(self, target_order):
        """Image in Q(zeta_N) for order | N, via zeta_n -> zeta_N^(N/n)."""
        n, N = self.order, target_order
        if N % n:
            raise InvalidInputError(f"order {n} does not divide {N}")
        if N == n:
            return self
        return _canonical(N, _lift(self, N), self.den)

    def _pair(self, other):
        """(order, numerators of self, numerators of other) at a common order."""
        n, m = self.order, other.order
        if n == m:
            return n, self.nums, other.nums
        N = lcm(n, m)
        return N, _lift(self, N), _lift(other, N)

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        n, a, b = self._pair(other)
        da, db = self.den, other.den
        if da == db:
            return _canonical(n, [x + y for x, y in zip(a, b)], da)
        return _canonical(n, [x * db + y * da for x, y in zip(a, b)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _canonical(self.order, [-x for x in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        if other.order == 1 or self.order == 1:
            scalar, vector = (other, self) if other.order == 1 else (self, other)
            s = scalar.nums[0]
            return _canonical(vector.order, [x * s for x in vector.nums],
                              scalar.den * vector.den)
        n, a, b = self._pair(other)
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return _canonical(n, reduce_by_tail(prod, *_reducer(n)), self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        if self.order == other.order:
            return self.nums == other.nums and self.den == other.den
        _, a, b = self._pair(other)
        da, db = self.den, other.den
        return all(x * db == y * da for x, y in zip(a, b))

    __hash__ = None  # cross-order equality makes a consistent hash awkward

    def __repr__(self):
        if self.order == 1:
            return f"Cyc({self.coeffs[0]})"
        terms = " + ".join(
            f"{c}*z{self.order}^{k}" for k, c in enumerate(self.coeffs) if c != 0
        )
        return f"Cyc[{terms or '0'}]"


def zeta_pow(n, k):
    """zeta_n^k as a Cyclotomic of order n.

    >>> zeta_pow(2, 1) == -1
    True
    """
    if n < 1:
        raise InvalidInputError("order must be positive")
    return _canonical(n, _zeta_power_basis(n, k % n), 1)


def as_rational(a):
    """The Fraction value of `a` if it is rational, else None.

    Power-basis coordinates are unique, so rationality is exactly the
    vanishing of every non-constant coordinate.
    """
    if isinstance(a, (int, Fraction)):
        return Fraction(a)
    if any(a.nums[1:]):
        return None
    return Fraction(a.nums[0], a.den)
