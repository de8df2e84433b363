"""Coherence, torsion-freeness and reflexivity of a chart family.

No `wpptoric` command asks these of a family; they are the oracle of
`sheaf_model.sfamily`: a family built from a sheaf's hull staircases and
deficit partition must be coherent and torsion-free; a line bundle's or
a type-I bundle's must be reflexive, and a rank-1 sheaf's with a
nonempty partition must not.  They read the family's `dims`,
(box, l1, l2) -> sorted fine weights, on the window [-h, h]^2 of its
halfwidth h.
"""

from collections import Counter

from wpptoric.errors import InsufficientWindowError, InvalidInputError


def dim_at(fam, box, l1, l2):
    """The dimension of one weight space of the family (0 off its support)."""
    return len(fam.dims.get((box, l1, l2), ()))


def coherence_check(fam):
    """Finite window shadow of coherence.

    All multisets are finite by construction; the window's negative
    edges must be empty (weight spaces vanish far down) and both
    positive directions must have stabilized.
    """
    h = fam.halfwidth
    for (box, l1, l2) in fam.dims:
        if l1 == -h or l2 == -h:
            return False
    try:
        for box in fam.nonzero_boxes():
            for l2 in range(-h, h + 1):
                fam.limit_weights(box, 1, l2)
            for l1 in range(-h, h + 1):
                fam.limit_weights(box, 2, l1)
    except InsufficientWindowError:
        return False
    return True


def torsion_free_check(fam):
    """Multiplication maps are injective: weight multisets nest, shifted."""
    if not coherence_check(fam):
        return False
    mod, step1, step2 = fam.params.chart(fam.chart)
    h = fam.halfwidth
    for (box, l1, l2), weights in fam.dims.items():
        for dl1, dl2, step in ((1, 0, step1), (0, 1, step2)):
            if l1 + dl1 > h or l2 + dl2 > h:
                continue
            shifted = Counter((x + step) % mod for x in weights)
            target = Counter(fam.dims.get((box, l1 + dl1, l2 + dl2), ()))
            if any(mult > target.get(key, 0) for key, mult in shifted.items()):
                return False
    return True


def reflexive_check(fam):
    """Intersection-of-filtrations dimension pattern, for rank <= 2.

    With v and w the limiting dimensions of the row and column through
    a lattice point and r the box rank, the cell dimension must be
    min(v, w) when either filtration is full, and max(0, v + w - r)
    otherwise, except that two transverse-or-equal lines (v = w = 1,
    r = 2) may meet in dimension 0 or 1.
    """
    if not torsion_free_check(fam):
        return False
    inner = range(-fam.halfwidth + 1, fam.halfwidth)  # the window without its edges
    for box in fam.nonzero_boxes():
        col = {l1: len(fam.limit_weights(box, 2, l1)) for l1 in inner}
        row = {l2: len(fam.limit_weights(box, 1, l2)) for l2 in inner}
        rank = max(col.values(), default=0)
        if rank > 2:
            raise InvalidInputError("reflexivity test implemented for rank <= 2")
        for l1 in inner:
            for l2 in inner:
                v, u = col[l1], row[l2]
                dim = dim_at(fam, box, l1, l2)
                if v == rank or u == rank:
                    if dim != min(v, u):
                        return False
                elif rank == 2 and v == 1 and u == 1:
                    if dim not in (0, 1):
                        return False
                elif dim != max(0, v + u - rank):
                    return False
    return True
