"""Literal oracles of the materialized operators: each map evaluated on a
basis of its domain, one column per basis element.

`op_from_action` is the oracle of the Kronecker-form builders
`left_mult`, `right_mult` and `sandwich` and of `graded.ad_operator`;
`grading_block` (with the degree pieces `degree_basis` and
`degree_component` of gl_2(A)) is the oracle of the chart denominators
of `graded.denominators`.
"""

from jordankit.algebra import LinearOperator, Matrix, matrix_unit_basis
from jordankit.graded import blocks, check, diag_embed, hat, pr1


def from_columns(ring, cols):
    """The operator whose j-th column is `cols[j]`, the image of the j-th
    basis vector (a column matrix or a sequence of scalars)."""
    cols = [c if isinstance(c, Matrix) else Matrix(ring, [[x] for x in c])
            for c in cols]
    if not cols:
        return LinearOperator(Matrix.zeros(ring, 0))
    return LinearOperator(cols[0].hstack(*cols[1:]))


def prm1(X, n):
    """The degree -1 block of X: its lower-left n x n block."""
    return X.submatrix(range(n, 2 * n), range(n))


def op_from_action(f, basis, ring):
    """Materialize a linear map by applying it to a basis of its domain.

    `f` maps Matrix -> Matrix; the result's columns are the flattened
    images, so apply_flat works on row-major coordinates.
    """
    return from_columns(ring, [f(b).vec() for b in basis])


def degree_basis(ring, n, degree):
    """The matrix units of the degree piece of gl_2(A), row-major; in
    degree 0 those of the a block, then those of the d block."""
    units = matrix_unit_basis(ring, n)
    if degree == 1:
        return [hat(u) for u in units]
    if degree == -1:
        return [check(u) for u in units]
    if degree == 0:
        z = Matrix.zeros(ring, n)
        return [diag_embed(u, z) for u in units] + [diag_embed(z, u) for u in units]
    raise ValueError(f"degree {degree} not in the grading")


def degree_component(X, n, degree):
    """Flattened coordinates of the degree component of X."""
    if degree == 1:
        return pr1(X, n).flatten()
    if degree == -1:
        return prm1(X, n).flatten()
    a, _, _, d = blocks(X, n)
    return a.flatten() + d.flatten()


def grading_block(g, i, j):
    """Component of Ad(g) mapping the degree-j piece to the degree-i piece."""
    ring, n = g.ring, g.n
    gi = g.inverse_mat()
    return from_columns(
        ring, [degree_component(g.mat @ b @ gi, n, i)
               for b in degree_basis(ring, n, j)])
