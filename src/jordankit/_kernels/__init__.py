"""Matrix kernels keyed on the scalar ring.

Every kernel here hands the work to the ring, which computes on the
matrices in its own form (see rings.py), the form a Matrix keeps for its
whole life: over Q, F_p and float64 packed rows (rings.Packed), integer
rows over one denominator, residue rows or float rows; over a dual ring
one such matrix per nilpotent mask (rings.Jets). The kernels take and
return that form only; a vector is a column in it. A dual product is the
subset convolution of the mask blocks, a dual solve one root solve of
the mask-0 block against the other blocks with back-substitution by
mask, and dual rank and pivots are those of the mask-0 block. The row
loops on scalars that these kernels replaced are the oracle of the
parity tests (tests/generic_loops.py).
"""

BACKEND = "packed"


def matmul(a, b, ring):
    return ring.matmul(a, b)


def matvec(a, v, ring):
    """A v for a column v; the zero column when v is empty (A has no
    columns)."""
    if not v:
        return ring.ints([[0] for _ in range(len(a))])
    return ring.matmul(a, v)


def gauss_solve(a, b, ring):
    """Solve A X = B for square A; returns X, or None if no unit pivot
    can be found for some column (A not invertible over `ring`)."""
    return ring.solve(a, b)


def gauss_rank(a, ring):
    """Number of unit pivots found by row elimination; over a dual ring,
    the rank of the re-part."""
    return len(ring.pivot_columns(a))


def pivot_columns(a, ring):
    """Column indices where row elimination finds a unit pivot."""
    return ring.pivot_columns(a)
