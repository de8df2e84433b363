"""Division in Q[x] and in Q(zeta_n), for the oracles of the tests.

The library divides nowhere: `Cyclotomic` offers only the ring
operations, K-classes and cyclotomic numbers are reduced without
division, and the point class is a product.  The references that need
a quotient live here: `poly_divmod`/`poly_mod` (the division routes of
the point class, K-class reduction and the Chern fold), and the
inverse behind the cyclotomic `psi_E` and `hilb_top` oracles, by
extended Euclid against Phi_n in Q[x].  Euler's totient and rationals
as cyclotomic numbers of order 1 serve the tests as well.
"""

from fractions import Fraction

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


def rational(q):
    """The rational q as a Cyclotomic of order 1."""
    q = Fraction(q)
    return Cyclotomic.from_integers(1, [q.numerator], q.denominator)


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


def inverse(a):
    """Multiplicative inverse of a nonzero Cyclotomic (or rational)."""
    if not isinstance(a, Cyclotomic):
        a = rational(a)
    if a == 0:
        raise InvalidInputError("division by zero in a cyclotomic field")
    g, s, _ = poly_ext_gcd(a.coeffs, cyclotomic_poly(a.order))
    # Phi_n is irreducible over Q, so the gcd with a nonzero residue is 1.
    assert g == [Fraction(1)]
    return Cyclotomic(a.order, s)


def power(a, e):
    """a**e by repeated squaring; a negative e inverts first."""
    if e < 0:
        return power(inverse(a), -e)
    result = rational(1)
    while e:
        if e & 1:
            result = result * a
        a = a * a
        e >>= 1
    return result
