"""Hurwitz class numbers from reduced binary quadratic forms, for the tests.

Klyachko's count of the torus-fixed stable rank-2 bundles on P^2 with
c1 = -1 and second Chern class c2 is 3 H(4 c2 - 1) (A. A. Klyachko,
"Moduli of vector bundles and numbers of classes", Funct. Anal. Appl.
25, 1991; toric derivation in M. Kool, arXiv:0906.3393).  That is an
oracle from outside the paper for the rank-2 window.
"""


def three_hurwitz(n):
    """3 H(n), three times the Hurwitz class number, for n = 3 (mod 4).

    H(n) counts the reduced positive definite forms (a, b, c) with
    b^2 - 4ac = -n, |b| <= a <= c and b >= 0 when |b| = a or a = c; the
    form with a = b = c, a multiple of x^2 + xy + y^2, has weight 1/3.
    b is odd since n is, so the forms are walked with b > 0: one with
    b < a < c stands for itself and its mirror (a, -b, c) and counts 6,
    the other forms count 3, and a = b = c counts 1.
    """
    if n <= 0 or n % 4 != 3:
        raise ValueError(f"n = {n} must be a positive integer = 3 (mod 4)")
    total = 0
    b = 1
    while 3 * b * b <= n:  # b^2 <= ac = (n + b^2)/4
        ac = (n + b * b) // 4
        a = b
        while a * a <= ac:
            if ac % a == 0:
                c = ac // a
                total += 1 if a == b == c else 3 if a == b or a == c else 6
            a += 1
        b += 2
    return total
