"""Matrix algebra layer: inversion, involutions, splitting, operators."""

import pytest

from jordankit import _kernels as K
from jordankit.algebra import (CoordinateBasis, Involution, Matrix,
                               dual_combine, dual_split, herm_split,
                               matrix_unit_basis, op_apply, op_from_action,
                               op_solve)
from jordankit.errors import (NotInvertible, NotInSubspace,
                              SingularOperator)
from jordankit.jordan import JordanContext
from jordankit.randgen import (rand_in_context, rand_invertible, rand_matrix,
                               rand_scalar, trial_rng)
from jordankit.rings import FLOAT64, RATIONAL, DualRing, PrimeFieldRing

Q = RATIONAL


def mat(rows):
    return Matrix.from_ints(Q, rows)


def test_alg_invert_examples():
    assert Matrix.identity(Q, 3).inverse() == Matrix.identity(Q, 3)
    x = mat([[1, 1], [0, 1]])
    xi = x.inverse()
    assert xi == mat([[1, -1], [0, 1]])
    assert x @ xi == Matrix.identity(Q, 2)
    with pytest.raises(NotInvertible):
        mat([[1, 1], [1, 1]]).inverse()


def test_transpose_involution():
    iota = Involution()
    e12 = Matrix.unit(Q, 2, 0, 1)
    assert iota.apply(e12) == Matrix.unit(Q, 2, 1, 0)


def test_form_adjoint_identity_form_is_transpose(rng):
    iota = Involution("form_adjoint", Matrix.identity(Q, 2), "symmetric")
    for _ in range(20):
        x = rand_matrix(rng, Q, 2)
        assert iota.apply(x) == x.transpose()


def test_form_adjoint_skew_example():
    b = mat([[0, 1], [-1, 0]])
    iota = Involution("form_adjoint", b, "skew")
    x = mat([[3, 0], [0, 7]])
    assert iota.apply(x) == mat([[7, 0], [0, 3]])


def test_form_validation():
    with pytest.raises(ValueError):
        Involution("form_adjoint", mat([[0, 1], [-1, 0]]), "symmetric")
    with pytest.raises(ValueError):
        Involution("form_adjoint", mat([[1, 0], [0, 1]]), "skew")


def test_involution_is_antiautomorphism(rng):
    forms = [Involution(),
             Involution("form_adjoint", mat([[0, 1], [-1, 0]]), "skew"),
             Involution("form_adjoint", mat([[2, 1], [1, 1]]), "symmetric")]
    for iota in forms:
        for _ in range(60):
            x = rand_matrix(rng, Q, 2)
            y = rand_matrix(rng, Q, 2)
            assert iota.apply(x @ y) == iota.apply(y) @ iota.apply(x)
            assert iota.apply(iota.apply(x)) == x


def test_inverse_commutes_with_involution(rng):
    iota = Involution("form_adjoint", mat([[0, 1], [-1, 0]]), "skew")
    for _ in range(40):
        x = rand_invertible(rng, Q, 2)
        assert iota.apply(x.inverse()) == iota.apply(x).inverse()


def test_herm_split():
    iota = Involution()
    x = mat([[1, 2], [4, 3]])
    h, a = herm_split(iota, x)
    assert iota.apply(h) == h
    assert iota.apply(a) == -a
    assert h + a == x
    sym = mat([[1, 2], [2, 5]])
    assert herm_split(iota, sym) == (sym, Matrix.zeros(Q, 2))
    e12 = Matrix.unit(Q, 2, 0, 1)
    h, a = herm_split(iota, e12)
    half = Q.half()
    e21 = Matrix.unit(Q, 2, 1, 0)
    assert h == (e12 + e21).scale(half)
    assert a == (e12 - e21).scale(half)


def test_op_from_action_examples():
    basis = matrix_unit_basis(Q, 2)
    ident = op_from_action(lambda w: w, basis, Q)
    assert ident.mat == Matrix.identity(Q, 4)

    a = mat([[2, 0], [0, 1]])
    op = op_from_action(lambda w: a @ w, basis, Q)
    # E11, E12 scale by 2; E21, E22 by 1 (row-major basis order)
    assert op.mat == Matrix.from_ints(Q, [[2, 0, 0, 0], [0, 2, 0, 0],
                                          [0, 0, 1, 0], [0, 0, 0, 1]])

    nil = Matrix.unit(Q, 2, 0, 1)
    op2 = op_from_action(lambda w: nil @ w, basis, Q)
    assert op2.mat.rank() == 2 < 4


def test_op_apply_and_solve(rng):
    basis = matrix_unit_basis(Q, 2)
    two = op_from_action(lambda w: w.scale(Q.from_int(2)), basis, Q)
    y = rand_matrix(rng, Q, 2)
    assert op_apply(two, y) == y.scale(Q.from_int(2))
    assert op_solve(two, y) == y.scale(Q.half())

    nil = Matrix.unit(Q, 2, 0, 1)
    sing = op_from_action(lambda w: nil @ w, basis, Q)
    outside = Matrix.unit(Q, 2, 1, 0)  # E21 is not of the form E12 w
    with pytest.raises(SingularOperator):
        op_solve(sing, outside)


def test_materialized_operator_reproduces_action(rng):
    basis = matrix_unit_basis(Q, 2)
    a = rand_matrix(rng, Q, 2)
    b = rand_matrix(rng, Q, 2)
    op = op_from_action(lambda w: a @ w @ b, basis, Q)
    for _ in range(30):
        w = rand_matrix(rng, Q, 2)
        assert op_apply(op, w) == a @ w @ b


def test_dual_matrix_inverse_first_order(rng):
    ring = DualRing(Q)
    for _ in range(40):
        m0 = rand_invertible(rng, Q, 2)
        m1 = rand_matrix(rng, Q, 2)
        m = dual_combine(m0, m1)
        mi = m.inverse()
        re, eps = dual_split(mi)
        i0 = m0.inverse()
        assert re == i0
        assert eps == -(i0 @ m1 @ i0)
        assert m @ mi == Matrix.identity(ring, 2)


def test_coordinate_basis_membership():
    iota = Involution()
    basis = [Matrix.unit(Q, 2, 0, 0), Matrix.unit(Q, 2, 1, 1),
             Matrix.unit(Q, 2, 0, 1) + Matrix.unit(Q, 2, 1, 0)]
    space = CoordinateBasis(Q, 2, basis)
    sym = mat([[1, 2], [2, 3]])
    assert space.coords(sym) == [Q.from_int(1), Q.from_int(3), Q.from_int(2)]
    assert space.from_coords(space.coords(sym)) == sym
    assert not space.contains(mat([[0, 1], [0, 0]]))
    with pytest.raises(NotInSubspace):
        space.coords(mat([[0, 1], [0, 0]]))


@pytest.mark.parametrize("ring", [DualRing(FLOAT64),
                                  DualRing(DualRing(FLOAT64))], ids=repr)
def test_membership_over_float_duals(ring):
    """Float membership compares every component of a dual difference."""
    herm = JordanContext(2, ring, "hermitian", Involution())
    assert herm.space.contains(Matrix.identity(ring, 2))
    assert not herm.space.contains(Matrix.unit(ring, 2, 0, 1))


SUBSPACE_RINGS = [Q, PrimeFieldRing(5), DualRing(Q), DualRing(DualRing(Q))]


def restricted_contexts(ring):
    """Hermitian and antihermitian parts of M_n for the transpose at
    n = 2, 3 and for the symplectic adjoint at n = 2 (odd n carries no
    symplectic form)."""
    symplectic = Involution("form_adjoint",
                            Matrix.from_ints(ring, [[0, 1], [-1, 0]]), "skew")
    for n, iota in ((2, Involution()), (3, Involution()), (2, symplectic)):
        for flavor in ("hermitian", "antihermitian"):
            yield JordanContext(n, ring, flavor, iota)


@pytest.mark.parametrize("ring", SUBSPACE_RINGS, ids=repr)
def test_membership_on_free_rows_matches_full_reconstruction(ring):
    """contains() compares only the non-pivot rows; a full reconstruction
    from the pivot-row coordinates gives the same verdict on members,
    random matrices and members perturbed by one off-subspace entry
    (over dual rings, possibly in the eps-part alone)."""
    rng = trial_rng(11, 0)
    for ctx in restricted_contexts(ring):
        space, n = ctx.space, ctx.n
        verdicts = set()
        for _ in range(8):
            member = rand_in_context(rng, ctx)
            i, j = rng.randrange(n), rng.randrange(n)
            bump = Matrix.unit(ring, n, i, j).scale(rand_scalar(rng, ring))
            for x in (member, rand_matrix(rng, ring, n), member + bump):
                flat = x.flatten()
                c = K.matvec(space._left_inv.rows,
                             [flat[r] for r in space._pivot_rows], ring)
                full = space.from_coords(c) == x
                assert space.contains(x) == full
                verdicts.add(full)
        assert verdicts == {True, False}


@pytest.mark.parametrize("ring", SUBSPACE_RINGS[:3], ids=repr)
def test_embedded_basis_equals_fresh_basis(ring):
    """embed() carries the pivot rows and the embedded left inverse over;
    both equal what elimination over the extension computes."""
    for ctx in restricted_contexts(ring):
        for target in (DualRing(ring), DualRing(DualRing(ring))):
            space = ctx.space
            lifted = space.embed(target)
            fresh = CoordinateBasis(target, space.n,
                                    [b.embed(target) for b in space.basis])
            assert lifted._pivot_rows == fresh._pivot_rows
            assert lifted._left_inv == fresh._left_inv
            assert lifted._free_rows == fresh._free_rows
            assert lifted._cols == fresh._cols
            assert lifted.basis == fresh.basis
