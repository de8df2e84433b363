"""The field Q(zeta_n) and division in Q[x], for the oracles of the tests.

The library does no arithmetic on cyclotomic numbers and divides
nowhere: `Cyclotomic` values are built from integers and compared, and
K-classes are reduced without division.  The references that compute
in the field live here.  `Cyc` is an element of Q(zeta_n) = Q[x]/(Phi_n)
with Fraction coordinates in the power basis, reduced by `poly_mod`;
its ring operations and equality take any mix of orders, rationals and
library `Cyclotomic` values, embedded into Q(zeta_lcm) via
zeta_n -> zeta_N^(N/n).  `inverse` works by extended Euclid against
Phi_n in Q[x].  `poly_divmod`/`poly_mod` are also the division routes of
the point class, K-class reduction and the Chern fold, and Euler's
totient serves the tests as well.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

from wpptoric.errors import InvalidInputError
from wpptoric.exact_arith import Cyclotomic, cyclotomic_poly, poly_mul, poly_trim


def euler_phi(n):
    """Euler's totient."""
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def poly_divmod(p, q):
    """Quotient and remainder in Q[x]; q must be nonzero."""
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = poly_trim([Fraction(c) for c in p])
    lead = Fraction(q[-1])
    quo = [Fraction(0)] * max(0, len(rem) - len(q) + 1)
    while len(rem) >= len(q):
        shift = len(rem) - len(q)
        factor = rem[-1] / lead
        quo[shift] = factor
        for i, c in enumerate(q):
            rem[shift + i] -= factor * c
        rem = poly_trim(rem)
    return poly_trim(quo), rem


def poly_mod(p, q):
    return poly_divmod(p, q)[1]


def _poly_sub(p, q):
    n = max(len(p), len(q))
    p, q = list(p) + [0] * (n - len(p)), list(q) + [0] * (n - len(q))
    return poly_trim([x - y for x, y in zip(p, q)])


def poly_ext_gcd(p, q):
    """Extended Euclid in Q[x]: returns (g, s, t) with s*p + t*q = g, g monic."""
    r0, r1 = poly_trim([Fraction(c) for c in p]), poly_trim([Fraction(c) for c in q])
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        quo, rem = poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, _poly_sub(s0, poly_mul(quo, s1))
        t0, t1 = t1, _poly_sub(t0, poly_mul(quo, t1))
    if r0:
        inv = 1 / r0[-1]
        r0 = [c * inv for c in r0]
        s0 = [c * inv for c in s0]
        t0 = [c * inv for c in t0]
    return r0, s0, t0


_phi_poly = lru_cache(maxsize=None)(cyclotomic_poly)


class Cyc:
    """An element of Q(zeta_n): Fraction power-basis coordinates, reduced mod Phi_n."""

    def __init__(self, order, coords):
        self.order = order
        phi_n = _phi_poly(order)
        degree = len(phi_n) - 1
        rem = poly_mod(coords, phi_n) if len(coords) > degree else list(map(Fraction, coords))
        self.coords = tuple(rem) + (Fraction(0),) * (degree - len(rem))

    def embed(self, target_order):
        """The image in Q(zeta_N) for order | N, via zeta_n -> zeta_N^(N/n)."""
        step = target_order // self.order
        if step == 1:
            return self
        spread = [0] * (len(self.coords) * step)
        spread[::step] = self.coords
        return Cyc(target_order, spread)

    def _common(self, other):
        """(N, coordinates of self, coordinates of other) in Q(zeta_N), N the lcm."""
        other = field(other)
        N = lcm(self.order, other.order)
        return N, self.embed(N).coords, other.embed(N).coords

    def __add__(self, other):
        N, a, b = self._common(other)
        return Cyc(N, [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        N, a, b = self._common(other)
        return Cyc(N, [x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        return field(other) - self

    def __neg__(self):
        return Cyc(self.order, [-x for x in self.coords])

    def __mul__(self, other):
        N, a, b = self._common(other)
        return Cyc(N, poly_mul(a, b))

    __radd__ = __add__
    __rmul__ = __mul__

    def __eq__(self, other):
        _, a, b = self._common(other)
        return a == b

    def as_rational(self):
        """The Fraction value if it is rational, else None (the coordinates are unique)."""
        return None if any(self.coords[1:]) else self.coords[0]

    def __repr__(self):
        return f"Cyc({self.order}, {list(map(str, self.coords))})"


def field(value):
    """A Cyc for a Cyc, a library `Cyclotomic` or a rational."""
    if isinstance(value, Cyc):
        return value
    if isinstance(value, Cyclotomic):
        return Cyc(value.order, value.coeffs)
    return Cyc(1, [value])


def zeta(n, k=1):
    """zeta_n^k in Q(zeta_n)."""
    return Cyc(n, [0] * (k % n) + [1])


def inverse(a):
    """Multiplicative inverse of a nonzero element (or rational)."""
    a = field(a)
    if a == 0:
        raise InvalidInputError("division by zero in a cyclotomic field")
    g, s, _ = poly_ext_gcd(a.coords, _phi_poly(a.order))
    # Phi_n is irreducible over Q, so the gcd with a nonzero residue is 1.
    assert g == [Fraction(1)]
    return Cyc(a.order, s)


def power(a, e):
    """a**e by repeated squaring; a negative e inverts first."""
    if e < 0:
        return power(inverse(a), -e)
    result = field(1)
    while e:
        if e & 1:
            result = result * a
        a = a * a
        e >>= 1
    return result
