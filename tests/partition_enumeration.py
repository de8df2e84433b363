"""Brute-force enumeration of 2D partitions, for the oracles of the tests.

The library counts colored partitions by a DP over rows and never lists
them, and decodes its counts once into the series it prints; the tests'
partition walks and box-count checks list them here, color them box by
box, and fold multicolor series down to fewer variables.
"""

from functools import lru_cache

from wpptoric.errors import InvalidInputError
from wpptoric.partitions import Partition, Series


@lru_cache(maxsize=128)
def _partitions_of(n):
    """All row tuples of size n, sorted lexicographically."""
    if n == 0:
        return ((),)
    out = []

    def build(remaining, max_part, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, max_part), 0, -1):
            prefix.append(part)
            build(remaining - part, part, prefix)
            prefix.pop()

    build(n, n, [])
    return tuple(sorted(out))


def enumerate_partitions(max_boxes):
    """Yield every partition with at most `max_boxes` boxes, exactly once.

    Deterministic order: by size, then lexicographically on the rows.
    """
    if max_boxes < 0:
        raise InvalidInputError("max_boxes must be nonnegative")
    for n in range(max_boxes + 1):
        for rows in _partitions_of(n):
            yield Partition(rows)


def partitions_of_size(n):
    """All partitions of exactly n boxes, in lexicographic row order."""
    return [Partition(rows) for rows in _partitions_of(n)]


def box_color(spec, l1, l2):
    """Color of box (l1, l2) under the coloring: offset + l1*w1 + l2*w2 mod n."""
    return (spec.offset + l1 * spec.w1 + l2 * spec.w2) % spec.modulus


def color_count(partition, spec):
    """Vector whose l-th entry counts the boxes of color l."""
    counts = [0] * spec.modulus
    for l1, l2 in partition.boxes():
        counts[box_color(spec, l1, l2)] += 1
    return tuple(counts)


def fold(series, assignment, result_vars=("q",), cut=None):
    """Substitute 1, a variable or a monomial {variable: exponent} for each variable.

    The targets are variables of `result_vars`; terms of total degree
    above `cut` are dropped (None keeps them all).  When a variable is
    sent to 1 the low-order coefficients are only complete if the source
    was expanded far enough.
    """
    index = {v: i for i, v in enumerate(result_vars)}
    moves = []
    for var in series.vars:
        target = assignment[var]
        target = {} if target == 1 else {target: 1} if isinstance(target, str) else target
        moves.append([(index[name], mult) for name, mult in target.items()])
    out = {}
    for exps, coeff in series.coeffs.items():
        new = [0] * len(result_vars)
        for e, targets in zip(exps, moves):
            for i, mult in targets:
                new[i] += e * mult
        if cut is None or sum(new) <= cut:
            key = tuple(new)
            out[key] = out.get(key, 0) + coeff
    return Series(result_vars, out)


def total_count(series):
    """Every variable sent to q: colors become box counts."""
    return fold(series, dict.fromkeys(series.vars, "q"))


def _is_color_zero(var):
    """True for the index-0 variable of a letter block (p0, q0, r0)."""
    return var[len(var.rstrip("0123456789")):] == "0"


def color_zero_specialization(series, target="q"):
    """Track only the index-0 variable of each letter block.

    p0, q0, r0 go to the target variable; every other variable goes
    to 1.  This is the Euler-characteristic grading of the point
    classes: the twisted point sheaves with nonzero twist have
    vanishing holomorphic Euler characteristic.
    """
    return fold(series, {v: target if _is_color_zero(v) else 1 for v in series.vars},
                (target,))
