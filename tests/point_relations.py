"""Twisted point classes and the identification rows among them, checked in K.

`structure_sheaf_point` is the class of one box: summed box by box it
is the oracle of the corner formula of `kgroup.rank1_class`.  No
`wpptoric` command imposes the rows; they are the oracle of
`structure_sheaf_point`: on every row the summed point classes of the
three charts agree, although each is built from its own chart's two
weights.
"""

from wpptoric.kgroup import g_power, kclass_sum


def structure_sheaf_point(params, i, j=0):
    """Class of the chart-i fixed point's structure sheaf, twisted by g^j.

    P/(1 - g^w_i) is the product of the two other factors of P, so
    the class is (1 - g^w')(1 - g^w'') g^j, a Laurent polynomial in g.
    """
    _, w1, w2 = params.chart(i)
    return kclass_sum(params, (
        (sign, g_power(params, j + e))
        for sign, e in ((1, 0), (-1, w1), (-1, w2), (1, w1 + w2))
    ))


def variable_relations(params):
    """The identification rows among the point-class variables.

    Each row is a list of monomials (as {variable: exponent} dicts) that
    stand for equal zero-dimensional K-classes: d rows relating all
    three charts, then pairwise rows for each d_ij.  Stored series never
    impose these; they are data for specialization choices and for the
    K-class cross-check.
    """
    a, b, c = params.a, params.b, params.c
    d, d12, d13, d23 = params.d, params.d12, params.d13, params.d23

    def monomial(letter, modulus, step, shift):
        mono = {}
        for i in range(modulus // step):
            var = f"{letter}{i * step + shift}"
            mono[var] = mono.get(var, 0) + 1
        return mono

    rows = []
    for t in range(d):
        rows.append([monomial("p", a, d, t), monomial("q", b, d, t), monomial("r", c, d, t)])
    for t in range(d12):
        rows.append([monomial("p", a, d12, t), monomial("q", b, d12, t)])
    for t in range(d23):
        rows.append([monomial("q", b, d23, t), monomial("r", c, d23, t)])
    for t in range(d13):
        rows.append([monomial("p", a, d13, t), monomial("r", c, d13, t)])
    return rows


def verify_relations(params):
    """Check the identification rows of `variable_relations`.

    A variable p_j, q_j or r_j stands for the twisted point class
    structure_sheaf_point(params, chart, j) of chart 1, 2 or 3; each
    monomial of a row is summed as one class, and the row holds when
    all its canonical representatives agree.
    """
    for row in variable_relations(params):
        sums = {
            kclass_sum(params, (
                (exp, structure_sheaf_point(params, "pqr".index(var[0]) + 1, int(var[1:])))
                for var, exp in mono.items()
            ))
            for mono in row
        }
        if len(sums) != 1:
            return False
    return True
