"""Brute-force enumeration of 2D partitions, for the oracles of the tests.

The library counts colored partitions by a DP over rows and never lists
them; the tests' partition walks and box-count checks list them here,
and fold multicolor series down to their color-0 counts.
"""

from functools import lru_cache

from wpptoric.errors import InvalidInputError
from wpptoric.partitions import Partition, specialize


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
    return specialize(series, {v: target if _is_color_zero(v) else 1 for v in series.vars})
