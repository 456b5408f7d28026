"""Matrix kernels keyed on the scalar ring.

Every kernel here hands the work to the ring, which computes in its own
packed form where it has one (Q, F_p and dual towers; see rings.py) and
runs the generic loops of generic.py otherwise (float64). Products use
packed forms on all three; rank and pivot search eliminate integer rows
over Q and F_p, and the mask-0 jet coordinates over a dual ring. Solve
runs one packed root solve per field: fraction-free on integer-scaled
rows over Q, on residues over F_p; over a dual ring that root solve of
the mask-0 part runs against every jet, then back-substitution by mask.
"""

from .generic import madd, meye, mneg, mscale, msub, mtranspose

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


def gauss_rank(a, ring):
    """Number of unit pivots found by row elimination; over a dual ring,
    the rank of the re-part."""
    return len(ring.pivot_columns(a))


def pivot_columns(a, ring):
    """Column indices where row elimination finds a unit pivot."""
    return ring.pivot_columns(a)
