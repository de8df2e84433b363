"""Exact rational and cyclotomic arithmetic.

Rational scalars are ``fractions.Fraction`` (arbitrary precision, stored
in lowest terms with positive denominator).  A cyclotomic number of
order n lives in Q(zeta_n) = Q[x]/(Phi_n) and is stored by its phi(n)
power-basis coordinates.  Working modulo the cyclotomic polynomial
Phi_n, rather than modulo x^n - 1, keeps the ring a field, so every
nonzero element is invertible.

Mixed-order operations embed both operands into Q(zeta_lcm) via
zeta_n -> zeta_N^(N/n).  Results are not demoted to smaller orders;
`as_rational` is the only change of representation offered.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InvalidInputError

Rational = Fraction  # arbitrary-precision rationals, lowest terms, den > 0


# ---------------------------------------------------------------------------
# dense polynomials over Q, coefficient lists in increasing degree
# ---------------------------------------------------------------------------

def poly_trim(p):
    """Drop trailing zero coefficients."""
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_add(p, q):
    n = max(len(p), len(q))
    return poly_trim([
        (p[i] if i < len(p) else 0) + (q[i] if i < len(q) else 0)
        for i in range(n)
    ])


def poly_sub(p, q):
    return poly_add(p, [-c for c in q])


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


def poly_divmod(p, q):
    """Quotient and remainder in Q[x]; q must be nonzero."""
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    rem = poly_trim(rem)
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


def poly_ext_gcd(p, q):
    """Extended Euclid in Q[x]: returns (g, s, t) with s*p + t*q = g."""
    r0, r1 = poly_trim([Fraction(c) for c in p]), poly_trim([Fraction(c) for c in q])
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        quo, rem = poly_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_sub(s0, poly_mul(quo, s1))
        t0, t1 = t1, poly_sub(t0, poly_mul(quo, t1))
    if r0:
        inv = 1 / r0[-1]  # normalise gcd to be monic
        r0 = [c * inv for c in r0]
        s0 = [c * inv for c in s0]
        t0 = [c * inv for c in t0]
    return r0, s0, t0


# ---------------------------------------------------------------------------
# cyclotomic polynomials and Euler's totient
# ---------------------------------------------------------------------------

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


@lru_cache(maxsize=None)
def cyclotomic_poly(n):
    """The n-th cyclotomic polynomial Phi_n as an integer coefficient tuple.

    Computed by dividing x^n - 1 by the product of Phi_d over the proper
    divisors d of n.

    >>> cyclotomic_poly(1)
    (-1, 1)
    >>> cyclotomic_poly(6)
    (1, -1, 1)
    """
    if n < 1:
        raise InvalidInputError("cyclotomic order must be positive")
    xn_minus_1 = [-1] + [0] * (n - 1) + [1]
    divisor = [1]
    for d in range(1, n):
        if n % d == 0:
            divisor = poly_mul(divisor, list(cyclotomic_poly(d)))
    quo, rem = poly_divmod(xn_minus_1, divisor)
    assert not rem
    return tuple(int(c) for c in quo)


@lru_cache(maxsize=None)
def _zeta_power_basis(n, e):
    """Coordinates of zeta_n^e in the power basis of Q(zeta_n)."""
    e %= n
    phi = euler_phi(n)
    if e < phi:
        coords = [Fraction(0)] * phi
        coords[e] = Fraction(1)
        return tuple(coords)
    rem = poly_mod([0] * e + [1], list(cyclotomic_poly(n)))
    return tuple(rem[i] if i < len(rem) else Fraction(0) for i in range(phi))


# ---------------------------------------------------------------------------
# cyclotomic numbers
# ---------------------------------------------------------------------------

class Cyclotomic:
    """An element of Q(zeta_n) in power-basis coordinates modulo Phi_n."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        phi = euler_phi(order)
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > phi:
            rem = poly_mod(coeffs, list(cyclotomic_poly(order)))
            coeffs = list(rem)
        coeffs += [Fraction(0)] * (phi - len(coeffs))
        self.order = order
        self.coeffs = tuple(coeffs)

    @staticmethod
    def from_rational(q):
        return Cyclotomic(1, [Fraction(q)])

    def embed(self, target_order):
        """Image in Q(zeta_N) for order | N, via zeta_n -> zeta_N^(N/n)."""
        n, N = self.order, target_order
        if N % n:
            raise InvalidInputError(f"order {n} does not divide {N}")
        if N == n:
            return self
        step = N // n
        phi = euler_phi(N)
        out = [Fraction(0)] * phi
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            for i, b in enumerate(_zeta_power_basis(N, k * step)):
                out[i] += c * b
        return Cyclotomic(N, out)

    def _pair(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other)
        n = lcm(self.order, other.order)
        return self.embed(n), other.embed(n), n

    def __add__(self, other):
        a, b, n = self._pair(other)
        return Cyclotomic(n, [x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other if isinstance(other, Cyclotomic) else Cyclotomic.from_rational(-Fraction(other)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        a, b, n = self._pair(other)
        prod = poly_mul(list(a.coeffs), list(b.coeffs))
        return Cyclotomic(n, prod)

    __rmul__ = __mul__

    def inverse(self):
        """Multiplicative inverse, via extended Euclid against Phi_n."""
        if self.is_zero():
            raise InvalidInputError("division by zero in a cyclotomic field")
        g, s, _ = poly_ext_gcd(list(self.coeffs), list(cyclotomic_poly(self.order)))
        # Phi_n is irreducible over Q, so the gcd with a nonzero residue is 1.
        assert g == [Fraction(1)]
        return Cyclotomic(self.order, s)

    def __truediv__(self, other):
        if not isinstance(other, Cyclotomic):
            other = Cyclotomic.from_rational(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return Cyclotomic.from_rational(other) / self

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        result = Cyclotomic(1, [1])
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, (Cyclotomic, int, Fraction)):
            return NotImplemented
        a, b, _ = self._pair(other)
        return a.coeffs == b.coeffs

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
    return Cyclotomic(n, _zeta_power_basis(n, k % n))


def as_rational(a):
    """The Fraction value of `a` if it is rational, else None.

    Power-basis coordinates are unique, so rationality is exactly the
    vanishing of every non-constant coordinate.
    """
    if isinstance(a, (int, Fraction)):
        return Fraction(a)
    if all(c == 0 for c in a.coeffs[1:]):
        return a.coeffs[0]
    return None
