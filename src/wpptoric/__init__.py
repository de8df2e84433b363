"""Exact invariants of toric sheaves on stacky weighted projective planes.

Everything is computed in exact arithmetic: rationals, cyclotomic
numbers, sparse formal series.  Each closed formula in the library is
paired with an independent brute-force oracle, and the test suite
enforces their agreement.
"""

__version__ = "0.2.0"
