"""Hilbert-polynomial coefficients and the monomial-counting oracle.

The Hilbert polynomial of a sheaf F is chi(F(mt)) with m = lcm(a,b,c);
its quadratic and linear coefficients for twists of the structure sheaf
come from an orbifold Riemann-Roch evaluation over the inertia sectors
and are computed here in closed form.  The independent oracle counts
monomials: chi(O(r)) = N(r) + N(-r-a-b-c) with N(s) the number of
weighted monomials of degree s, using that middle cohomology of a line
bundle vanishes on these surfaces.  The constant term of a twist of
the structure sheaf comes only from the oracle's quadratic fit, made in
integers (`hilb_fit_oracle`); the one constant term in closed form is
that of the modified Hilbert polynomial of a rank-2 bundle
(`rank2_constant_term`), which the tests check against `chi_oracle`.

The modified coefficients twist by the generating sheaf, the sum of
O(-u) over u < E.  Their closed form (`hilb_top_E`) is O(1) because
the pair sums cancel over every window of E twists.  The check of it
keeps the pair sums explicit and still costs no more than one period
P = lcm(d12, d13, d23) of twists, P/d numerators: a numerator
changes by a fixed integer from one period to the next
(`lin_numerator_window`).

The twisted-sector contributions are sums over roots of unity with
rational values (Fourier-Dedekind sums).  They are computed as integer
sums: for x^n = 1 and x != 1, 1/(1-x) = -(1/n) sum_{j<n} j x^j, and a
sum of a power of zeta_n over a set of exponents is an integer
(`_root_sum`).  No cyclotomic arithmetic is used here.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InternalInconsistencyError, InvalidInputError
from .kgroup import WppParams


@dataclass(frozen=True)
class HilbTop:
    """Quadratic and linear coefficients of a Hilbert polynomial in t."""

    quad: Fraction
    lin: Fraction


def _root_sum(n, e, t):
    """Sum of zeta_n^(h t) over h = 1..n-1, skipping the multiples of e (e | n).

    The full sum over h < n is n [n | t]; the multiples of e contribute
    (n/e) [(n/e) | t], the term h = 0 included.
    """
    return (n if t % n == 0 else 0) - (n // e if t % (n // e) == 0 else 0)


@lru_cache(maxsize=None)
def _psi_sum(n, m1, m2, m3):
    """The integer double sum behind psi_E, for residues m1, m2, m3 mod n.

    psi_E(E, m1, m2, m3, n) = -E/n^2 times this sum, which depends on
    m1, m2, m3 only mod n; callers reduce them, so the cache holds at
    most n^3 entries for each n.
    """
    excluder = n // gcd(m1, n)
    total = 0
    for i in range(n):
        for j in range(n):
            t = i - m1 * j - m3
            total += i * j * (_root_sum(n, excluder, t) + _root_sum(n, excluder, t - m2))
    return total


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
    over k of each resulting power of w is a `_root_sum` (`_psi_sum`).

    >>> psi_E(2, 1, 0, 0, 2)
    Fraction(-1, 1)
    """
    if n < 1:
        raise InvalidInputError("n must be positive")
    if E % n:
        raise InvalidInputError("psi_E needs n | E")
    return Fraction(-E * _psi_sum(n, m1 % n, m2 % n, m3 % n), n * n)


_ZERO_TOP = HilbTop(Fraction(0), Fraction(0))


@lru_cache(maxsize=4096)
def _pair_sum(n, e, khat, r):
    """sum_{j<n} j _root_sum(n, e, khat j - r), for residues khat, r mod n.

    `_root_sum` depends on its exponent only mod n, so callers reduce
    khat and r: a weight triple needs one entry per residue of r mod
    each pairwise gcd, whatever the twists it is asked about.
    """
    return sum(j * _root_sum(n, e, khat * j - r) for j in range(n))


def hilb_lin_numerator(params, r):
    """The linear Hilbert coefficient of the r-th twist of O as one integer L.

    lin = m L / (2abc d12 d13 d23), and L = 0 unless d | r.  Besides
    the untwisted part, L has one Galois-stable root-of-unity sum per
    pair of weights: the sum of zeta^(-hr)/(1 - zeta^(h khat)) over
    h = 1..d_ij-1 with d_ij/d not dividing h, zeta the primitive d_ij-th
    root and khat the third weight.  Expanding 1/(1-x) = -(1/n)
    sum_{j<n} j x^j turns it into an integer sum over j (`_pair_sum`),
    and 2abc/(w_i w_j) = 2 khat puts every term over the one
    denominator.
    """
    d = params.d
    if r % d:
        return 0
    gcd_product = params.d12 * params.d13 * params.d23
    lin = (2 * r + params.degree) * d * gcd_product
    for dij, khat in ((params.d12, params.c), (params.d13, params.b), (params.d23, params.a)):
        # the twist eigenvalue enters inverted relative to the residual
        # weight in the denominator; the monomial-counting oracle pins
        # this orientation (the same-sign variant fails already on
        # weights (1,3,3))
        lin -= 2 * khat * (gcd_product // dij) * _pair_sum(dij, dij // d, khat % dij, r % dij)
    return lin


def lin_numerator_window(params, r, E):
    """The twists r + u, u < E, with d | r + u: their count and the sum of their L.

    E must pass `_check_E`, checked here, so the period
    P = lcm(d12, d13, d23) divides E.  L(s) depends on s only through
    its linear term and s mod each d_ij, so L(s + P) - L(s) = 2 P d G
    with G = d12 d13 d23.  The window is B = E/P copies of the period
    [r, r + P): each rho there with d | rho stands for rho + kP, k < B,
    whose numerators sum to B L(rho) + P d G B(B - 1).  The count is
    E/d.  The pair sums of each L stay explicit, so this sum does not
    assume that they cancel over the window, which `hilb_top_E` does.
    """
    _check_E(params, E)
    d = params.d
    gcd_product = params.d12 * params.d13 * params.d23
    period = lcm(params.d12, params.d13, params.d23)
    B = E // period
    per_period = sum(hilb_lin_numerator(params, rho)
                     for rho in range(r + (-r) % d, r + period, d))
    # P/d residues, each adding P d G B(B - 1)
    return E // d, B * per_period + period * period * gcd_product * B * (B - 1)


def hilb_top_from_sums(params, count, lin_numerator):
    """HilbTop of a sum of `count` twists r with d | r and L(r) summing to `lin_numerator`.

    Each such twist adds d m^2/(2abc) to the quadratic term; the linear
    term is m L/(2abc d12 d13 d23) (`hilb_lin_numerator`).
    """
    m = params.m
    two_abc = 2 * params.a * params.b * params.c
    gcd_product = params.d12 * params.d13 * params.d23
    return HilbTop(Fraction(count * params.d * m * m, two_abc),
                   Fraction(m * lin_numerator, two_abc * gcd_product))


def hilb_top(params, r):
    """Top two Hilbert coefficients of the r-th twist of O.

    Vanishes identically unless d | r; otherwise the quadratic term is
    d m^2/(2abc) and the linear term is m L/(2abc d12 d13 d23) with L
    the integer `hilb_lin_numerator`.

    >>> hilb_top(WppParams(1, 1, 1), 0)
    HilbTop(quad=Fraction(1, 2), lin=Fraction(3, 2))
    """
    if r % params.d:
        return _ZERO_TOP
    return hilb_top_from_sums(params, 1, hilb_lin_numerator(params, r))


def _check_E(params, E):
    """The E rule of `hilb_top_E`: E >= 1 and every pairwise gcd divides E."""
    if E < 1:
        raise InvalidInputError("E must be positive")
    for dij in (params.d12, params.d13, params.d23):
        if E % dij:
            raise InvalidInputError("E must be divisible by every pairwise gcd")


def check_generating_E(params, E):
    """The E rule of the rank-2 invariants, stronger than `_check_E`: lcm(a,b,c) | E."""
    if E < 1 or E % params.m:
        raise InvalidInputError("E must be a positive multiple of lcm(a,b,c)")


def _twist_window_sum(params, E, r):
    """Sum of 2(r+u) + a+b+c over the u < E with d | r+u.

    Since d | E these are u0 + d k for k < E/d, u0 = (-r) mod d.
    """
    d = params.d
    k = E // d
    return k * (2 * (r + (-r) % d) + params.degree) + d * k * (k - 1)


def hilb_top_E(params, E, r):
    """Top two modified Hilbert coefficients of the r-th twist of O.

    Tensoring with the dual of the generating sheaf turns the single
    twist r into the twists r+u for u < E; the pair sums cancel because
    every pairwise gcd divides E, leaving only the u with d | r + u,
    each adding (2r + 2u + a+b+c) m d/(2abc) to the linear term.  So
    there are E/d twists, and their numerators L sum to d G times
    `_twist_window_sum`, G = d12 d13 d23.
    """
    _check_E(params, E)
    gcd_product = params.d12 * params.d13 * params.d23
    return hilb_top_from_sums(params, E // params.d,
                              params.d * gcd_product * _twist_window_sum(params, E, r))


def rank_and_twists(params, E, terms):
    """The rank and twist sum of a class, for an E that passed `check_generating_E`.

    `terms` are (exponent, coeff) pairs of any Laurent representative
    of a class: the sum of coeff * g^e, g^e = [O(-e)].  The rank is the
    sum of the coefficients, the twist sum that of coeff *
    _twist_window_sum(-e).  Both descend to the K-group: the relation
    P(g) g^j has coefficients summing to P(1) = 0, all its exponents lie
    in one residue class mod d, where _twist_window_sum is affine, and
    the alternating sum of an affine function over the eight corners of
    (1 - g^a)(1 - g^b)(1 - g^c) vanishes.  The modified coefficients
    of the class are `hilb_top_from_sums(params, rank * E // d,
    d * G * twists)`, G = d12 d13 d23, as in `hilb_top_E`, so its
    modified slope lin/quad is twists * d / (rank * E * m).  E is not
    checked here: the caller checks it once for all the classes it
    compares.
    """
    rank = 0
    twists = 0
    for e, coeff in terms:
        if coeff:
            rank += coeff
            twists += coeff * _twist_window_sum(params, E, -e)
    return rank, twists


@lru_cache(maxsize=4096)
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

    Samples y_t = chi(O(r + mt)) and fits the quadratic in integers:
    twice its coefficients are 2quad = y2 - 2y1 + y0 and 2lin =
    2(y1 - y0) - 2quad, and const = y0.  If the t = 3 sample misses the
    fit (9 2quad + 3 2lin + 2y0 != 2y3), the values were not quadratic
    and something is deeply wrong.
    Returns (quad, lin, const): quad and lin as `Fraction`s, const an int.
    """
    m = params.m
    samples = [chi_oracle(params, r + m * t) for t in range(4)]
    y0, y1, y2, y3 = samples
    quad2 = y2 - 2 * y1 + y0
    lin2 = 2 * (y1 - y0) - quad2
    if 9 * quad2 + 3 * lin2 + 2 * y0 != 2 * y3:
        raise InternalInconsistencyError(
            f"chi values {samples} for r={r} do not lie on a quadratic"
        )
    return (Fraction(quad2, 2), Fraction(lin2, 2), y0)


@lru_cache(maxsize=128)
def width_free_bracket_12(params, E, c1, Ad):
    """Twelve times the terms of the rank-2 constant-term bracket free of
    the widths, an integer.

    `Ad` is the reduced twist residue [A]_d; the widths add
    sum D_i^2/4 - sum D_i D_j/2 to the bracket.
    """
    a, b, c = params.weights()
    d = params.d
    s = a + b + c
    return (
        3 * c1 * c1
        + 6 * s * c1
        + 2 * (a * a + b * b + c * c)
        + 6 * (a * b + b * c + c * a)
        + 12 * (c1 + s + E - d) * Ad
        + 6 * (c1 + s) * (E - d)
        + 12 * Ad * Ad
        + 4 * E * E
        - 6 * E * d
        + 2 * d * d
    )


def rank2_constant_term(params, E, A, D1, D2, D3):
    """Constant term of the modified Hilbert polynomial of a rank-2 bundle.

    The inputs are the twist A and the widths (D1, D2, D3) of a type-I
    datum, as the enumerators give them; its first Chern class is
    c1 = -(2A + D1 + D2 + D3).  Follows the closed-form display
    literally: the bracket uses the reduced residue [A]_d, while the
    three character sums receive A itself.  The value is assembled as
    one integer numerator over 12 abc (d12 d13 d23)^2 and must divide
    out; a remainder would point at a transcription ambiguity, not a
    valid output.
    """
    a, b, c = params.weights()
    check_generating_E(params, E)
    params.check_widths(D1, D2, D3)
    if min(D1, D2, D3) < 1:
        raise InvalidInputError("widths must be positive")
    c1 = -(2 * A + D1 + D2 + D3)
    bracket = (
        width_free_bracket_12(params, E, c1, A % params.d)
        + 3 * (D1 * D1 + D2 * D2 + D3 * D3)
        - 6 * (D1 * D2 + D2 * D3 + D3 * D1)
    )
    # psi_E(E, khat, D, A, n) / (w_i w_j) = -E S / (n^2 w_i w_j), and
    # 12 abc G^2 / (n^2 w_i w_j) = 12 khat (G/n)^2
    G = params.d12 * params.d13 * params.d23
    psi = 0
    for n, khat, width in ((params.d12, c, D2), (params.d13, b, D1), (params.d23, a, D3)):
        psi += khat * (G // n) ** 2 * _psi_sum(n, khat % n, width % n, A % n)
    numerator = E * (bracket * G * G - 12 * psi)
    denominator = 12 * a * b * c * G * G
    value, rem = divmod(numerator, denominator)
    if rem:
        raise InternalInconsistencyError(
            f"constant term {Fraction(numerator, denominator)} is not an integer "
            f"for A={A}, D=({D1},{D2},{D3}) on {params}"
        )
    return value
