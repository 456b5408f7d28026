"""Matrix kernels keyed on the scalar ring.

`matmul`, `matvec` and `gauss_solve` hand the work to the ring, which
multiplies in its own packed form where it has one (Q, F_p and dual
towers; see rings.py) and runs the generic loops of generic.py otherwise.
Rank and pivot search always run the generic elimination.
"""

from .generic import (gauss_rank, madd, meye, mneg, mscale, msub,
                      mtranspose, pivot_columns)

BACKEND = "packed"


def matmul(a, b, ring):
    return ring.matmul(a, b)


def matvec(a, v, ring):
    """A v, computed as the product of A with the column v."""
    if not v:
        return [ring.zero() for _ in a]
    return [r[0] for r in ring.matmul(a, [[x] for x in v])]


def gauss_solve(a, b, ring):
    """Solve A X = B for square A; returns X rows or None if no unit
    pivot can be found for some column (A not invertible over `ring`)."""
    return ring.solve(a, b)
