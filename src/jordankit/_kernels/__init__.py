"""Matrix kernels keyed on the scalar ring.

Every kernel here hands the work to the ring, which computes on the
matrices in its own form (see rings.py). Over Q and F_p that form is
packed rows (rings.Packed): integer rows over one denominator, or residue
rows, which a Matrix keeps for its whole life, so products, solves and
rank run on resident integers and return packed rows; a vector is a
packed column. Rows of scalars are packed on the way in and unpacked on
the way out. Over a dual ring the rows hold jets: products and solves run
on their packed coordinates, with one root solve of the mask-0 part
against every jet and back-substitution by mask, and rank and pivots are
those of the mask-0 part. Float64 runs the generic loops of generic.py.
"""

from .generic import meye

BACKEND = "packed"


def matmul(a, b, ring):
    return ring.matmul(a, b)


def matvec(a, v, ring):
    """A v for the list of scalars v; over Q and F_p, a packed A takes a
    packed column v and returns one."""
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
