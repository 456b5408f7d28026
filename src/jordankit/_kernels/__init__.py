"""Matrix kernels keyed on the scalar ring.

Every kernel here hands the work to the ring, which computes on the
matrices in its own form (see rings.py), the form a Matrix keeps for its
whole life: over Q and F_p packed rows (rings.Packed), integer rows over
one denominator or residue rows; over a dual ring one such matrix per
nilpotent mask (rings.Jets). Products, solves and rank run on these
resident integers and return the same form; a vector is a column in it.
A dual product is the subset convolution of the mask blocks, a dual
solve one root solve of the mask-0 block against the other blocks with
back-substitution by mask, and dual rank and pivots are those of the
mask-0 block. Rows of scalars are packed on the way in and unpacked on
the way out. Float64 runs the generic loops of generic.py.
"""

from .generic import meye

BACKEND = "packed"


def matmul(a, b, ring):
    return ring.matmul(a, b)


def matvec(a, v, ring):
    """A v for the list of scalars v; over Q, F_p and dual rings, an A in
    the ring's form takes a column v in that form and returns one."""
    return ring.matvec(a, v)


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
