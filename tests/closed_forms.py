"""Closed forms that check the package's counts from outside.

No `wpptoric` command evaluates these; each is the oracle of a path
that one does:

* `balanced_rhs` (Euler factors times a lattice theta sum) of
  `colored_series` and `color_zero_series` on the balanced colorings;
* `su_k_character_proxy`, with `theta3` and `theta2_pair`, of the
  color-0 count of `colored_series` on the balanced colorings, and
  theta3 / eta^4 of the color-0 fold of `g_series` on P(1,1,2);
* `one_cc_closed_form` of `g_series` on P(1,c,c), after the
  cross-chart relations are imposed;
* `geometric_factor` of `eta_inv_pow`;
* `hilb_top_E_of_kclass` (the canonical representative, term by term)
  of the integer slopes of `rank2.slope_oracle_stability`, which read
  any Laurent representative through `hilbert.rank_and_twists`;
* `enumerate_refined_by_maps` with `refined_targets` (sector values
  given as maps, on any sector) of `rank2.enumerate_refined_solutions`,
  and `h_vb_refined` with `refined_key`, the refined rank-2 series
  (ROADMAP item 7).

All fractional series prefactors (q^(1/6) and friends) are dropped:
every exponent is an integer, and comparisons align lowest-order terms.
A series is a `Series`, which the package only prints; `series_product`
is the one product of the tests, and a power of a series is a loop of
products.  `q_series` reads a dense one-variable count of the package,
an integer list, as a `Series` in q.
"""

from fractions import Fraction
from math import isqrt

from wpptoric.errors import InternalInconsistencyError, InvalidInputError
from wpptoric.hilbert import _check_E, hilb_top_from_sums, rank_and_twists
from wpptoric.inertia import sector_value, sectors, tch_rank2_closed_form
from wpptoric.partitions import ColoringSpec, Series
from wpptoric.rank2 import _admissible_widths
from wpptoric.sheaf_model import TypeIBundle


def series_product(left, right, cut=None):
    """left * right over every pair of terms, without the terms of total degree above `cut`.

    `cut` None keeps every term.
    """
    out = {}
    for e1, c1 in left.coeffs.items():
        for e2, c2 in right.coeffs.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            if cut is None or sum(e) <= cut:
                out[e] = out.get(e, 0) + c1 * c2
    return Series(left.vars, out)


def q_series(counts):
    """A dense coefficient list, counts[k] at q^k, as a `Series` in q."""
    return Series(("q",), {(k,): c for k, c in enumerate(counts)})


def series_one(vars):
    """The constant series 1 in the given variables."""
    return Series(vars, {(0,) * len(vars): 1})


def geometric_factor(vars, exps, truncation, power=1):
    """(1 - m)^(-power) expanded to the truncation bound, m a monomial."""
    deg = sum(exps)
    if deg <= 0:
        raise InvalidInputError("geometric factor needs a positive-degree monomial")
    if power < 0:
        raise InvalidInputError("negative series powers are not supported")
    base = Series(vars, {tuple(k * e for e in exps): 1 for k in range(truncation // deg + 1)})
    result = series_one(vars)
    for _ in range(power):
        result = series_product(result, base, truncation)
    return result


# ---------------------------------------------------------------------------
# balanced-coloring closed formula
# ---------------------------------------------------------------------------

def balanced_spec(k, offset=0):
    """The coloring of the balanced cyclic action: steps (1, k-1) mod k."""
    return ColoringSpec(k, 1, k - 1, offset)


def balanced_rhs(k, max_order):
    """Closed-form series for balanced k-colorings, truncated.

    Product of k inverse Euler factors in the full-cycle monomial Q =
    q0*...*q(k-1) times the rank-(k-1) lattice theta sum

        sum over n in Z^(k-1) of Q^(sum n_i^2 - sum n_i n_{i+1})
                                 * q1^(n1) * ... * q(k-1)^(n_{k-1}).

    The reference display garbles the theta factor for k >= 3 (its
    exponents q_{k-r}^(r^2/2 + n1*r - r/2) depend on n1 alone and already
    miss the constant term); the form above is fixed by the brute-force
    enumeration, with which it agrees coefficient-by-coefficient, and
    reduces to the same series for k <= 2.  Every variable exponent is a
    nonnegative integer; a violation signals an internal inconsistency.
    """
    if k < 1:
        raise InvalidInputError("k must be positive")
    vars = tuple(f"q{l}" for l in range(k))
    full_cycle = (1,) * k
    prefactor = series_one(vars)
    j = 1
    while j * k <= max_order:
        factor = geometric_factor(vars, tuple(j * e for e in full_cycle), max_order, power=k)
        prefactor = series_product(prefactor, factor, max_order)
        j += 1

    # The full-cycle exponent is Q(n) = (n1^2 + n_{k-1}^2 +
    # sum (n_i - n_{i+1})^2)/2, half the squared steps of the walk
    # 0, n1, ..., n_{k-1}, 0.  The walk is extended one step at a time
    # and a prefix is dropped once its squared steps exceed 2N.
    theta_terms = {}
    limit = 2 * max_order

    def extend(n, squares):
        last = n[-1] if n else 0
        if len(n) == k - 1:
            if squares + last * last > limit:
                return
            q_form = sum(x * x for x in n) - sum(n[i] * n[i + 1] for i in range(k - 2))
            exps = [q_form] * k
            for r in range(1, k):
                exps[r] += n[r - 1]
            if sum(exps) > max_order:
                return
            if any(e < 0 for e in exps):
                raise InternalInconsistencyError(
                    f"negative theta exponent at n={n}: {exps}"
                )
            key = tuple(exps)
            theta_terms[key] = theta_terms.get(key, 0) + 1
            return
        reach = isqrt(limit - squares)
        for x in range(last - reach, last + reach + 1):
            extend(n + (x,), squares + (x - last) ** 2)

    extend((), 0)
    return series_product(prefactor, Series(vars, theta_terms), max_order)


# ---------------------------------------------------------------------------
# one-variable q-series: theta, affine character combinations
# ---------------------------------------------------------------------------

def theta3(max_order, scale=1):
    """sum over n in Z of q^(scale*n^2), truncated."""
    coeffs = {(0,): 1}
    n = 1
    while scale * n * n <= max_order:
        coeffs[(scale * n * n,)] = 2
        n += 1
    return Series(("q",), coeffs)


def theta2_pair(max_order):
    """Integer-normalized theta2(q) * theta2(q^3).

    The two quarter-power prefactors combine to a single power of q, so
    the product has integer exponents: 4*q*sum q^(n^2+n+3m^2+3m).
    """
    coeffs = {}
    n = 0
    while n * n + n + 1 <= max_order:
        m = 0
        while n * n + n + 3 * (m * m + m) + 1 <= max_order:
            e = n * n + n + 3 * (m * m + m) + 1
            coeffs[(e,)] = coeffs.get((e,), 0) + 4
            m += 1
        n += 1
    return Series(("q",), coeffs)


def su_k_character_proxy(k, max_order):
    """Integer-normalized numerator of the k-color single-variable count.

    For k=2 this is theta3(q); for k=3 it is the hexagonal lattice theta
    theta3(q)theta3(q^3) + theta2(q)theta2(q^3).
    """
    if k == 2:
        return theta3(max_order)
    if k == 3:
        coeffs = series_product(theta3(max_order), theta3(max_order, scale=3), max_order).coeffs
        for e, c in theta2_pair(max_order).coeffs.items():
            coeffs[e] = coeffs.get(e, 0) + c
        return Series(("q",), coeffs)
    raise InvalidInputError("character proxy implemented for k = 2, 3 only")


# ---------------------------------------------------------------------------
# the (1, c, c) closed form
# ---------------------------------------------------------------------------

def one_cc_closed_form(c, max_order, leading_power=3):
    """Closed-form count for the (1, c, c) weights, in variables r0..r(c-1).

    With R = r0*...*r(c-1) this is

        prod_{k>0} (1 - R^k)^(-leading_power)
        * [ prod_{k>0} prod_{i=0}^{c-2} (1 - r0...ri R^(k-1)) ]^(-2).

    The reference display in the literature prints leading_power = 1,
    which contradicts both the brute-force count and the formula's own
    degeneration at c = 1; the mathematically consistent value is 3.
    Callers can evaluate either.
    """
    if c < 1:
        raise InvalidInputError("c must be positive")
    vars = tuple(f"r{l}" for l in range(c))
    full = (1,) * c
    out = series_one(vars)
    j = 1
    while j * c <= max_order:
        factor = geometric_factor(vars, tuple(j * e for e in full), max_order, power=leading_power)
        out = series_product(out, factor, max_order)
        j += 1
    for i in range(c - 1):
        k = 1
        while True:
            exps = tuple((1 if l <= i else 0) + (k - 1) for l in range(c))
            if sum(exps) > max_order:
                break
            out = series_product(out, geometric_factor(vars, exps, max_order, power=2), max_order)
            k += 1
    return out


# ---------------------------------------------------------------------------
# modified Hilbert coefficients of a class
# ---------------------------------------------------------------------------

def hilb_top_E_of_kclass(params, E, kclass):
    """Extend hilb_top_E linearly over a K-class.

    The canonical representative writes the class as a sum of powers
    g^e = [O(-e)], and the Hilbert coefficients are additive.  E must
    pass the rule of `hilb_top_E`.
    """
    _check_E(params, E)
    rank, twists = rank_and_twists(params, E, enumerate(kclass.coeffs))
    gcd_product = params.d12 * params.d13 * params.d23
    return hilb_top_from_sums(params, rank * E // params.d, params.d * gcd_product * twists)


# ---------------------------------------------------------------------------
# the refined rank-2 series
# ---------------------------------------------------------------------------

def by_sector(chern):
    """{sector: entry} of a ChernVector, whose entries are in `sectors` order."""
    return dict(zip(sectors(chern.params), chern.entries, strict=True))


def codegree(chern, sector, k):
    """The codegree-k coefficient of the sector's entry."""
    return by_sector(chern)[sector][sector.dim - k]


def refined_key(params, chern):
    """Canonical hashable key of the codegree-0 character entries.

    Sectors in canonical order; each entry in power-basis coordinates at
    the sector's own order f.denominator, so equal values collide
    exactly.
    """
    key = []
    for sector in sectors(params):
        value = codegree(chern, sector, 0)
        key.append((
            sector.f.numerator,
            sector.f.denominator,
            sector.kind,
            sector.which,
            tuple(value.coeffs),
        ))
    return tuple(key)


def enumerate_refined_by_maps(params, alpha, beta, max_sum):
    """Solutions (A, widths, character) of the refined constraints.

    `alpha` maps sector indices f in D to codegree-2 targets; `beta`
    maps sector indices in D or D_ij to codegree-1 targets.  Sectors
    missing from the maps are unconstrained.  The twist A is solved from
    the untwisted f = 0 equation: beta[0] must be an even-defect integer
    with A = -(beta_0 + D1 + D2 + D3)/2.
    """
    beta0 = beta.get(Fraction(0))
    if beta0 is None:
        raise InvalidInputError("beta must constrain the untwisted sector f = 0")
    if beta0.den != 1:  # order 1: the value is nums[0] / den
        raise InvalidInputError("the f = 0 component of beta must be an integer")
    beta0 = beta0.nums[0]
    checks = []  # (sector, codegree, target)
    for sector in sectors(params):
        if sector.kind == "2dim" and alpha.get(sector.f) is not None:
            checks.append((sector, 2, alpha[sector.f]))
        if sector.kind in ("2dim", "1dim") and beta.get(sector.f) is not None:
            checks.append((sector, 1, beta[sector.f]))
    for widths in _admissible_widths(params, beta0, max_sum):
        A = -(beta0 + sum(widths)) // 2
        chern = tch_rank2_closed_form(params, TypeIBundle(0, 0, A, *widths))
        if all(codegree(chern, sector, k) == target for sector, k, target in checks):
            yield (A, widths, chern)


def h_vb_refined(params, alpha, beta, max_sum):
    """Multiplicities of codegree-0 character keys over the solutions."""
    counts = {}
    for _, _, chern in enumerate_refined_by_maps(params, alpha, beta, max_sum):
        key = refined_key(params, chern)
        counts[key] = counts.get(key, 0) + 1
    return counts


def refined_targets(params, c1, lam):
    """(alpha, beta) selectors matching the specialized invariants (c1, lam).

    On every 2-dimensional sector f the codegree-2 value is forced to
    2 e^(-2 pi i f lam) and the codegree-1 value to c1 e^(-2 pi i f lam);
    1-dimensional sectors are left unconstrained.
    """
    alpha = {}
    beta = {}
    for sector in sectors(params):
        if sector.kind != "2dim":
            continue
        alpha[sector.f] = sector_value(sector.f, [(lam, 2)])
        beta[sector.f] = sector_value(sector.f, [(lam, c1)])
    return alpha, beta
