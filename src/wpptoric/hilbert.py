"""Hilbert-polynomial coefficients and the monomial-counting oracle.

The Hilbert polynomial of a sheaf F is chi(F(mt)) with m = lcm(a,b,c);
its quadratic and linear coefficients for twists of the structure sheaf
come from an orbifold Riemann-Roch evaluation over the inertia sectors
and are computed here in closed form.  The independent oracle counts
monomials: chi(O(r)) = N(r) + N(-r-a-b-c) with N(s) the number of
weighted monomials of degree s, using that middle cohomology of a line
bundle vanishes on these surfaces.  Constant terms are never produced
by the closed form, only by the oracle's quadratic fit.

The twisted-sector contributions are sums over roots of unity with
rational values (Fourier-Dedekind sums).  They are computed as integer
sums: for x^n = 1 and x != 1, 1/(1-x) = -(1/n) sum_{j<n} j x^j, and a
sum of a power of zeta_n over a set of exponents is an integer
(`_root_sum`).  No cyclotomic arithmetic is used here.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .errors import InternalInconsistencyError, InvalidInputError
from .kgroup import WppParams


@dataclass(frozen=True)
class HilbTop:
    """Quadratic and linear coefficients of a Hilbert polynomial in t."""

    quad: Fraction
    lin: Fraction


@dataclass(frozen=True)
class GeneratingSheafSpec:
    """Rank parameter E of the generating sheaf: the sum of O(-u), u < E.

    The convention requires lcm(a,b,c) | E; that guarantees in
    particular the pairwise-gcd divisibility the closed formulas need.
    """

    E: int

    def validate(self, params):
        if self.E < 1 or self.E % params.m:
            raise InvalidInputError("E must be a positive multiple of lcm(a,b,c)")
        return self


def _root_sum(n, e, t):
    """Sum of zeta_n^(h t) over h = 1..n-1, skipping the multiples of e (e | n).

    The full sum over h < n is n [n | t]; the multiples of e contribute
    (n/e) [(n/e) | t], the term h = 0 included.
    """
    return (n if t % n == 0 else 0) - (n // e if t % (n // e) == 0 else 0)


def psi_E(E, m1, m2, m3, n):
    """Galois-stable character sum over the n-th roots of unity.

    Sums (1 + w^(-k m2)) w^(-k m3) phi_E(w^k) / (1 - w^(-k m1)) over
    k = 1..n-1 with n/gcd(m1, n) not dividing k, w the primitive n-th
    root and phi_E(x) = x + 2x^2 + ... + (E-1)x^(E-1).  The twist data
    m2, m3 enter with the sign opposite to the residual weight m1 in the
    denominator: the reference display carries the denominator with the
    other sign, which fails the holomorphic Euler characteristic oracle
    as soon as some pairwise gcd exceeds 2 (weights (1,3,3) already
    witness it), and in particular breaks the integrality of the rank-2
    constant term there.  The constraint excludes exactly the vanishing
    denominators.

    The sum is rational and is computed with integers.  For x^n = 1,
    x != 1 one has 1/(1-x) = -(1/n) sum_{j<n} j x^j, and n | E gives
    phi_E(x) = E/(x-1); both denominators expand that way, and the sum
    over k of each resulting power of w is a `_root_sum`.

    >>> psi_E(2, 1, 0, 0, 2)
    Fraction(-1, 1)
    """
    if n < 1:
        raise InvalidInputError("n must be positive")
    if E % n:
        raise InvalidInputError("psi_E needs n | E")
    excluder = n // gcd(m1, n)
    total = 0
    for i in range(n):
        for j in range(n):
            t = i - m1 * j - m3
            total += i * j * (_root_sum(n, excluder, t) + _root_sum(n, excluder, t - m2))
    return Fraction(-E * total, n * n)


@lru_cache(maxsize=None)
def hilb_top(params, r):
    """Top two Hilbert coefficients of the r-th twist of O.

    Vanishes identically unless d | r; otherwise the quadratic term is
    d m^2/(2abc) and the linear term adds, to the untwisted part, one
    Galois-stable root-of-unity sum per pair of weights: the sum of
    zeta^(-hr)/(1 - zeta^(h khat)) over h = 1..d_ij-1 with d_ij/d not
    dividing h, zeta the primitive d_ij-th root and khat the third
    weight.  Expanding 1/(1-x) = -(1/n) sum_{j<n} j x^j turns it into
    an integer sum over j.
    """
    a, b, c = params.weights()
    d, m = params.d, params.m
    if r % d:
        return HilbTop(Fraction(0), Fraction(0))
    abc = a * b * c
    quad = Fraction(d * m * m, 2 * abc)
    lin = Fraction((2 * r + a + b + c) * d, 2 * abc)
    pair_data = ((params.d12, c), (params.d13, b), (params.d23, a))
    pair_weights = ((a, b), (a, c), (b, c))
    for (dij, khat), (wi, wj) in zip(pair_data, pair_weights):
        # the twist eigenvalue enters inverted relative to the residual
        # weight in the denominator; the monomial-counting oracle pins
        # this orientation (the same-sign variant fails already on
        # weights (1,3,3))
        total = sum(j * _root_sum(dij, dij // d, khat * j - r) for j in range(dij))
        lin -= Fraction(total, wi * wj * dij)
    return HilbTop(quad, m * lin)


def hilb_top_E(params, spec, r):
    """Top two modified Hilbert coefficients of the r-th twist of O.

    Tensoring with the dual of the generating sheaf turns the single
    twist r into the twists r+u for u < E; the pair sums cancel because
    every pairwise gcd divides E, leaving only the u with d | r + u.
    """
    a, b, c = params.weights()
    E = spec.E
    for dij in (params.d12, params.d13, params.d23):
        if E % dij:
            raise InvalidInputError("E must be divisible by every pairwise gcd")
    abc = a * b * c
    quad = Fraction(E * params.m * params.m, 2 * abc)
    lin = Fraction(0)
    for u in range(E):
        if (r + u) % params.d == 0:
            lin += Fraction((2 * r + 2 * u + a + b + c) * params.m * params.d, 2 * abc)
    return HilbTop(quad, lin)


def hilb_top_E_of_kclass(params, spec, kclass):
    """Extend hilb_top_E linearly over a K-class.

    The canonical representative writes the class as a sum of powers
    g^e = [O(-e)], and the Hilbert coefficients are additive.
    """
    quad = Fraction(0)
    lin = Fraction(0)
    for e, coeff in enumerate(kclass.coeffs):
        if coeff == 0:
            continue
        top = hilb_top_E(params, spec, -e)
        quad += coeff * top.quad
        lin += coeff * top.lin
    return HilbTop(quad, lin)


@lru_cache(maxsize=None)
def _monomial_count(params, s):
    """N(s): lattice points (i, j, k) >= 0 with ai + bj + ck = s."""
    a, b, c = params.weights()
    if s < 0:
        return 0
    total = 0
    g = gcd(b, a)
    step = a // g
    for k in range(s // c + 1):
        rem = s - c * k
        if rem % g:
            continue
        j_max = rem // b
        target = (rem // g) % step if step > 1 else 0
        if step == 1:
            total += j_max + 1
            continue
        j0 = (target * pow(b // g, -1, step)) % step
        if j0 <= j_max:
            total += (j_max - j0) // step + 1
    return total


def chi_oracle(params, r):
    """Euler characteristic of the r-th twist by direct monomial counting.

    >>> chi_oracle(WppParams(1, 1, 1), 2)
    6
    """
    s = params.a + params.b + params.c
    return _monomial_count(params, r) + _monomial_count(params, -r - s)


def hilb_fit_oracle(params, r):
    """Quadratic fit of chi through t = 0, 1, 2, with a t = 3 self-check.

    Samples chi(O(r + mt)) and Lagrange-fits the quadratic; if the t = 3
    sample misses the fit, the values were not quadratic and something
    is deeply wrong.
    Returns (quad, lin, const).
    """
    m = params.m
    samples = [chi_oracle(params, r + m * t) for t in range(4)]
    y0, y1, y2, y3 = (Fraction(v) for v in samples)
    quad = (y2 - 2 * y1 + y0) / 2
    lin = y1 - y0 - quad
    const = y0
    if quad * 9 + lin * 3 + const != y3:
        raise InternalInconsistencyError(
            f"chi values {samples} for r={r} do not lie on a quadratic"
        )
    return (quad, lin, const)


def slope_mu(params, spec, quad, lin):
    """Modified slope: linear over quadratic Hilbert coefficient."""
    if quad == 0:
        raise InvalidInputError("slope needs a 2-dimensional sheaf (quad != 0)")
    return Fraction(lin) / Fraction(quad)


def width_free_bracket(params, E, c1, Ad):
    """The terms of the rank-2 constant-term bracket free of the widths.

    `Ad` is the reduced twist residue [A]_d; the widths add
    sum D_i^2/4 - sum D_i D_j/2 to this.
    """
    a, b, c = params.weights()
    d = params.d
    s = a + b + c
    return (
        Fraction(c1 * c1, 4)
        + Fraction(s * c1, 2)
        + Fraction(a * a + b * b + c * c, 6)
        + Fraction(a * b + b * c + c * a, 2)
        + (c1 + s + E - d) * Ad
        + Fraction((c1 + s) * (E - d), 2)
        + Ad * Ad
        + Fraction(E * E, 3)
        - Fraction(E * d, 2)
        + Fraction(d * d, 6)
    )


def rank2_constant_term(params, spec, c1, lam, D1, D2, D3):
    """Constant term of the modified Hilbert polynomial of a rank-2 bundle.

    The inputs fix the first Chern data (c1, lam) and widths (D1,D2,D3);
    the twist normalization A = -(c1 + D1 + D2 + D3)/2 must exist (even
    sum) and reduce to lam mod d.  Follows the closed-form display
    literally: the bracket uses the reduced residue [A]_d, while the
    three character sums receive A itself.  The result is asserted to be
    an integer; a fractional value would point at a transcription
    ambiguity, not a valid output.
    """
    a, b, c = params.weights()
    E, d = spec.validate(params).E, params.d
    if D1 % b or D2 % c or D3 % a:
        raise InvalidInputError("widths must satisfy b | D1, c | D2, a | D3")
    if min(D1, D2, D3) < 1:
        raise InvalidInputError("widths must be positive")
    total_d = D1 + D2 + D3
    if (c1 + total_d) % 2:
        raise InvalidInputError("c1 + D1 + D2 + D3 must be even")
    A = -(c1 + total_d) // 2
    if (A - lam) % d:
        raise InvalidInputError("A = -(c1+D1+D2+D3)/2 must be lam mod d")
    bracket = (
        width_free_bracket(params, E, c1, A % d)
        + Fraction(D1 * D1 + D2 * D2 + D3 * D3, 4)
        - Fraction(D1 * D2 + D2 * D3 + D3 * D1, 2)
    )
    value = Fraction(E, a * b * c) * bracket
    value += Fraction(1, a * b) * psi_E(E, c, D2, A, params.d12)
    value += Fraction(1, a * c) * psi_E(E, b, D1, A, params.d13)
    value += Fraction(1, b * c) * psi_E(E, a, D3, A, params.d23)
    if value.denominator != 1:
        raise InternalInconsistencyError(
            f"constant term {value} is not an integer for "
            f"c1={c1}, lam={lam}, D=({D1},{D2},{D3}) on {params}"
        )
    return value
