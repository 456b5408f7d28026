"""Matrix algebra layer: inversion, involutions, splitting, operators."""

from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generic_loops as generic
from generic_loops import bits, on_rows
from jordankit import _kernels as K
from jordankit.algebra import (CoordinateBasis, Involution, LinearOperator,
                               Matrix, dual_combine, dual_split,
                               herm_split, left_mult, matrix_unit_basis,
                               op_solve, right_mult, sandwich)
from jordankit.errors import (NotInvertible, NotInSubspace,
                              SingularOperator)
from jordankit.jordan import JordanContext
from jordankit.randgen import (rand_in_context, rand_invertible, rand_matrix,
                               rand_scalar, rand_unit, trial_rng)
from jordankit.rings import (FLOAT64, RATIONAL, Dual, DualRing, Jets, Packed,
                             PrimeFieldRing, _rational)
from operator_oracles import op_from_action

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
    assert (two.apply_flat(y.vec()).flatten()
            == y.scale(Q.from_int(2)).flatten())
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
        assert op.apply_flat(w.vec()).flatten() == (a @ w @ b).flatten()


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
    assert (space.coords(sym).flatten()
            == [Q.from_int(1), Q.from_int(3), Q.from_int(2)])
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


MEMBERSHIP_RINGS = [Q, PrimeFieldRing(3), PrimeFieldRing(5), FLOAT64,
                    DualRing(Q), DualRing(DualRing(Q))]


def membership_contexts(ring):
    """Hermitian and antihermitian parts of M_n, n = 1..4, for the
    transpose, the adjoint of the symmetric form diag(1, 2, 1, 2, ...)
    and, at even n, the adjoint of the skew form with blocks (0 1; -1 0)
    on the diagonal."""
    for n in range(1, 5):
        sym = Matrix.from_ints(ring, [[(1 + i % 2) * (i == j)
                                       for j in range(n)] for i in range(n)])
        involutions = [Involution(), Involution("form_adjoint", sym)]
        if n % 2 == 0:
            skew = Matrix.from_ints(ring, [
                [int(i % 2 == 0 and j == i + 1) - int(j % 2 == 0 and i == j + 1)
                 for j in range(n)] for i in range(n)])
            involutions.append(Involution("form_adjoint", skew, "skew"))
        for iota in involutions:
            for flavor in ("hermitian", "antihermitian"):
                yield JordanContext(n, ring, flavor, iota)


def _off_subspace_bump(rng, ring, n):
    """A multiple of one matrix unit by a unit of the ring; over a dual
    ring it lies in the eps-part alone."""
    i, j = rng.randrange(n), rng.randrange(n)
    if ring.kind != "dual":
        return Matrix.unit(ring, n, i, j).scale(rand_unit(rng, ring))
    eps = Matrix.unit(ring.base, n, i, j).scale(rand_unit(rng, ring.base))
    return dual_combine(Matrix.zeros(ring.base, n), eps)


def _agree(ring, a, b):
    """a == b over exact rings; within 1e-9 in every component over float
    rings."""
    return a == b if ring.is_exact() else (a - b).max_abs() <= 1e-9


@pytest.mark.parametrize("ring", MEMBERSHIP_RINGS, ids=repr)
def test_membership_matches_reconstruction_and_involution(ring):
    """contains() is one constraint matvec, N vec(x) = 0. Its verdict is
    that of the full reconstruction from the pivot-row coordinates and
    that of iota(x) = x (hermitian) or -x (antihermitian), on members,
    random matrices and members bumped in one entry (over dual rings in
    the eps-part alone); coords() refuses exactly the non-members."""
    rng = trial_rng(11, 0)
    for ctx in membership_contexts(ring):
        space, n, iota = ctx.space, ctx.n, ctx.involution
        verdicts = set()
        for _ in range(8):
            member = rand_in_context(rng, ctx)
            bump = _off_subspace_bump(rng, ring, n)
            for x in (member, rand_matrix(rng, ring, n), member + bump):
                flat = x.flatten()
                c = (on_rows(K.matvec, space._left_inv.rows,
                             [flat[r] for r in space._pivot_rows], ring)
                     if space.dim else [])
                full = _agree(ring, space.from_coords(c), x)
                by_iota = _agree(ring, iota.apply(x),
                                 x if ctx.flavor == "hermitian" else -x)
                assert space.contains(x) == full == by_iota
                if full:
                    assert _agree(ring, space.from_coords(space.coords(x)), x)
                else:
                    with pytest.raises(NotInSubspace):
                        space.coords(x)
                verdicts.add(full)
        assert verdicts == ({True} if space.dim == n * n else {True, False})


@pytest.mark.parametrize("ring", MEMBERSHIP_RINGS, ids=repr)
def test_materialize_refuses_an_operator_that_leaves_the_subspace(ring):
    """x -> a x a* preserves V and materializes to the map it is on
    coordinates; x -> e00 x leaves V (n > 1, V neither 0 nor M_n) and is
    refused."""
    rng = trial_rng(12, 0)
    for ctx in membership_contexts(ring):
        space, n, iota = ctx.space, ctx.n, ctx.involution
        a = rand_matrix(rng, ring, n)
        op = space.materialize(sandwich(a, iota.apply(a)))
        x = rand_in_context(rng, ctx)
        got = space.from_coords(op.apply_flat(space.coords(x)))
        assert _agree(ring, got, a @ x @ iota.apply(a))
        if n > 1 and 0 < space.dim < n * n:
            with pytest.raises(NotInSubspace,
                               match="^operator does not preserve the "
                                     "subspace$"):
                space.materialize(left_mult(Matrix.unit(ring, n, 0, 0)))


@pytest.mark.parametrize("ring", [Q, PrimeFieldRing(5), DualRing(Q)],
                         ids=repr)
def test_embedded_basis_equals_fresh_basis(ring):
    """embed() carries the pivot rows, the embedded left inverse and the
    embedded constraint matrix over; all three equal what elimination
    over the extension computes."""
    for ctx in membership_contexts(ring):
        for target in (DualRing(ring), DualRing(DualRing(ring))):
            space = ctx.space
            lifted = space.embed(target)
            fresh = CoordinateBasis(target, space.n,
                                    [b.embed(target) for b in space.basis])
            assert lifted._pivot_rows == fresh._pivot_rows
            assert lifted._left_inv == fresh._left_inv
            assert lifted._constraints == fresh._constraints
            assert lifted._cols == fresh._cols
            assert lifted.basis == fresh.basis


# -- packed and entry forms over Q, F_p, float64 and dual towers -------------

PACKED_RINGS = [Q, PrimeFieldRing(3), PrimeFieldRing(7),
                PrimeFieldRing(2**31 - 1), FLOAT64]
JET_RINGS = [DualRing(Q), DualRing(DualRing(Q)),
             DualRing(DualRing(DualRing(Q))), DualRing(PrimeFieldRing(5)),
             DualRing(FLOAT64)]
# Over R64[e] these add in another order than the generic loops on jets;
# over float64 itself every operation repeats their arithmetic.
ROUNDED = {"matmul", "solve", "inverse", "apply_flat"}
# Layouts put 0.0 among the entries, where the reference's product with
# the identity gives -0.0 next to a negative entry.
LAYOUTS = {"left_mult", "right_mult"}


def _root(ring):
    return ring.root if ring.kind == "dual" else ring


def _size(ring):
    """The number of jet coordinates of a scalar of `ring`."""
    return ring.size if ring.kind == "dual" else 1


@st.composite
def _int_rows(draw, n, m, ring=Q):
    """n x m rows of entries of `ring`, each a list of (numerator,
    denominator) pairs: its jet coordinates in mask order (one for a
    root field). Zero one time in five; over a dual ring some masks are
    zero in every entry. Small exact binary fractions over float64."""
    size = _size(ring)
    if draw(st.integers(0, 4)) == 0:
        return [[[(0, 1)] * size] * m for _ in range(n)]
    live = [size == 1 or draw(st.integers(0, 2)) > 0 for _ in range(size)]
    if _root(ring) == FLOAT64:
        num, den = st.integers(-3, 3), st.sampled_from([1, 2, 4])
    else:
        num = st.integers(-3, 3) | st.sampled_from([10**12, -(10**9) - 7])
        den = st.sampled_from([1, 2, 3, 10**20])
    return [[[(draw(num), draw(den)) if on else (0, 1) for on in live]
             for _ in range(m)] for _ in range(n)]


def _built_both_ways(ring, kd, g):
    """The matrix of the entries kd (see _int_rows), whose pairs (k, d)
    mean k/d over Q and float64 and k d over F_p, built packed and built
    from rows of scalars: nested Dual(re, eps) over a dual ring. The
    packed one comes from integer rows, per mask, over g times the lcm of
    the denominators, which the packed form must cancel."""
    root = _root(ring)
    den = lcm(*[d for r in kd for e in r for _, d in e]) * g

    def coord(k, d):
        """The coordinate of (k, d) in the root's packed form, over den
        over Q."""
        if root == Q:
            return k * (den // d)
        return k / d if root == FLOAT64 else k * d

    def entry(pairs):
        """The scalar of the coordinates `pairs`: nested Dual(re, eps)."""
        if len(pairs) > 1:
            h = len(pairs) // 2
            return Dual(entry(pairs[:h]), entry(pairs[h:]))
        k, d = pairs[0]
        if root == Q:
            return _rational(Fraction(k, d))
        return root.from_int(0) + coord(k, d)

    rows = [[entry(e) for e in r] for r in kd]
    form = root._reduce([[coord(*e[m]) for e in r]
                         for m in range(_size(ring)) for r in kd],
                        den if root == Q else 1)
    if ring.kind == "dual":
        form = Jets(form, len(kd))
    return Matrix._of(ring, form), Matrix(ring, rows)


def _is_packed(m):
    """Whether m holds its canonical packed form: over a dual ring one
    stack of every mask's block in the root's form."""
    form, root = m._form, _root(m.ring)
    if m.ring.kind == "dual":
        if type(form) is not Jets or len(form.stack) != m.ring.size * m.nrows:
            return False
        form = form.stack
    flat = [x for r in form for x in r]
    if type(form) is not Packed:
        return False
    if root == FLOAT64:
        return form.d == 1 and all(type(x) is float for x in flat)
    if root == Q:
        return form.d > 0 and gcd(form.d, *flat) == 1
    return form.d == 1 and all(0 <= x < root.p for x in flat)


def _rows_of(x):
    """A result as plain data: the rows of a matrix, the data of each
    part of a tuple, or the value itself."""
    if isinstance(x, Matrix):
        assert _is_packed(x)
        return x.rows
    if isinstance(x, LinearOperator):
        return _rows_of(x.mat)
    if isinstance(x, tuple):
        return tuple(_rows_of(y) for y in x)
    return x


def _coords(x):
    """The root coordinates of plain data, flattened."""
    if isinstance(x, Dual):
        return [x._root(m) for m in range(len(x.v))]
    if isinstance(x, (list, tuple)):
        return [c for y in x for c in _coords(y)]
    return [x]


def _close(got, want):
    """Equal shapes and root coordinates equal up to float rounding."""
    if got is None or want is None:
        return got is want
    g, w = _coords(got), _coords(want)
    scale = 1.0 + max(map(abs, w), default=0.0)
    return (len(g) == len(w) and len(got) == len(want)
            and all(abs(x - y) <= 1e-9 * scale for x, y in zip(g, w)))


def _or_none(f, *args):
    try:
        return f(*args)
    except (NotInvertible, SingularOperator):
        return None


def _root_part(x):
    while isinstance(x, Dual):
        x = x.re
    return x


def _generic_ops(ring):
    """(name, operation on matrices, reference on rows of scalars by the
    generic loops, argument shapes as (rows, columns) over n, m, k)."""
    def rank(a):
        return len(generic.pivots(a, ring))

    def kron(a, b):
        return [[x * y for x in ra for y in rb] for ra in a for rb in b]

    def eye(n):
        return generic.meye(n, ring)

    def matvec(a, v):
        return [[x] for x in generic.matvec(a, [r[0] for r in v], ring)]

    def lift(a, zero):
        return [[Dual(x, zero) for x in r] for r in a]

    up = DualRing(ring)
    ops = [
        ("matmul", lambda a, b: a @ b,
         lambda a, b: generic.matmul(a, b, ring), ("nm", "mk")),
        ("add", lambda a, b: a + b, generic.madd, ("nm", "nm")),
        ("sub", lambda a, b: a - b, generic.msub, ("nm", "nm")),
        ("neg", lambda a: -a, generic.mneg, ("nm",)),
        ("scale", lambda a, s: a.scale(s[0, 0]),
         lambda a, s: generic.mscale(a, s[0][0]), ("nm", "11")),
        ("transpose", Matrix.transpose,
         lambda a: [list(c) for c in zip(*a)], ("nm",)),
        ("hstack", lambda a, b: a.hstack(b),
         lambda a, b: [x + y for x, y in zip(a, b)], ("nm", "nk")),
        ("vstack", lambda a, b: a.vstack(b), lambda a, b: a + b,
         ("nm", "km")),
        ("submatrix", lambda a: a.submatrix([len(a.rows) - 1, 0], [0]),
         lambda a: [[a[-1][0]], [a[0][0]]], ("nm",)),
        ("rank", Matrix.rank, rank, ("nm",)),
        ("solve", lambda a, b: _or_none(a.solve, b),
         lambda a, b: generic.gauss_solve(a, b, ring), ("nn", "nk")),
        ("inverse", lambda a: _or_none(a.inverse),
         lambda a: generic.gauss_solve(a, eye(len(a)), ring), ("nn",)),
        ("left_mult", left_mult, lambda a: kron(a, eye(len(a))), ("nn",)),
        ("right_mult", right_mult,
         lambda a: kron(eye(len(a)), [list(c) for c in zip(*a)]), ("nn",)),
        ("sandwich", sandwich,
         lambda a, b: kron(a, [list(c) for c in zip(*b)]), ("nn", "nn")),
        ("apply_flat", lambda a, v: LinearOperator(a).apply_flat(v),
         matvec, ("nm", "m1")),
        ("embed", lambda a: (a.embed(up), a.embed(DualRing(up))),
         lambda a: (lift(a, ring.zero()),
                    lift(lift(a, ring.zero()), up.zero())), ("nm",)),
        ("dual_combine", dual_combine,
         lambda a, b: [[Dual(x, y) for x, y in zip(ra, rb)]
                       for ra, rb in zip(a, b)], ("nm", "nm")),
        ("base_part", Matrix.base_part,
         lambda a: [[_root_part(x) for x in r] for r in a], ("nm",)),
    ]
    if ring.kind == "dual":
        ops.append(("dual_split", dual_split,
                    lambda a: ([[x.re for x in r] for r in a],
                               [[x.eps for x in r] for r in a]), ("nm",)))
    return ops


@settings(derandomize=True, max_examples=220, deadline=None)
@given(data=st.data(), ring=st.sampled_from(PACKED_RINGS + JET_RINGS),
       dims=st.tuples(st.integers(1, 3), st.integers(1, 3),
                      st.integers(1, 3)),
       g=st.sampled_from([1, 6]))
def test_packed_matches_entry_rows_and_generic_loops(data, ring, dims, g):
    """Every Matrix operation over Q, F_p, float64 and dual towers over
    them gives the same entries run on a matrix built packed, on one
    built from rows of scalars, and by the generic row loops on the rows
    (bit for bit over float64; over float64 jets, up to rounding where the
    loops add in another order); both constructions are equal matrices,
    and every result is in canonical packed form: over a dual ring one
    stack of per-mask blocks, over Q with d > 0 and gcd 1 across all
    masks."""
    size = dict(zip("nmk1", dims + (1,)))
    drawn = {}

    def arg(shape, i):
        """The i-th argument of an operation; one draw per shape and
        position, shared by all operations."""
        if (shape, i) not in drawn:
            kd = data.draw(_int_rows(size[shape[0]], size[shape[1]], ring))
            drawn[shape, i] = packed, entries = _built_both_ways(ring, kd, g)
            assert packed == entries and _is_packed(packed)
        return drawn[shape, i]

    for name, op, ref, shapes in _generic_ops(ring):
        built = [arg(shape, i) for i, shape in enumerate(shapes)]
        got_packed = op(*[p for p, _ in built])
        got_entries = op(*[e for _, e in built])
        assert got_packed == got_entries, name
        want = ref(*[e.rows for _, e in built])
        got = _rows_of(got_packed)
        assert got == _rows_of(got_entries), name
        if ring.is_exact() or ring.kind != "dual" or name not in ROUNDED:
            assert got == want, name
            assert name in LAYOUTS or bits(got) == bits(want), name
        else:
            assert _close(got, want), name
    n, m = dims[:2]
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    zero = [[ring.zero()] * m for _ in range(n)]
    unit = [[ring.one() if (r, c) == (i, j) else ring.zero()
             for c in range(n)] for r in range(n)]
    for got, want in ((Matrix.identity(ring, n), generic.meye(n, ring)),
                      (Matrix.zeros(ring, n, m), zero),
                      (Matrix.unit(ring, n, i, j), unit)):
        assert got == Matrix(ring, want) and _rows_of(got) == want


@settings(derandomize=True, max_examples=75, deadline=None)
@given(data=st.data(), ring=st.sampled_from(PACKED_RINGS),
       n=st.integers(1, 3), flavor=st.sampled_from(["full", "hermitian"]),
       g=st.sampled_from([1, 6]))
def test_packed_coordinates_match_generic_loops(data, ring, n, flavor, g):
    """coords, from_coords and materialize agree on matrices built packed
    and from rows of scalars, and with the generic loops: from_coords(c)
    is the sum of c_j b_j, coords inverts it, and the materialized
    sandwich M of x satisfies cols M = (x (x) x^T) cols for the matrix
    cols whose columns are the flattened basis; and the base part of a
    jet matrix is its re-part."""
    ctx = JordanContext(n, ring, flavor,
                        None if flavor == "full" else Involution())
    space = ctx.space
    kd = data.draw(_int_rows(space.dim, 1))
    cp, ce = _built_both_ways(ring, kd, g)
    c = [r[0] for r in ce.rows]
    want = [[ring.zero()] * n for _ in range(n)]
    for s, b in zip(c, space.basis):
        want = generic.madd(want, generic.mscale(b.rows, s))
    xs = [space.from_coords(cp), space.from_coords(c)]
    for x in xs:
        assert _rows_of(x) == want
        assert _rows_of(space.coords(x)) == ce.rows
    x = xs[0]
    cols = [[b.rows[i // n][i % n] for b in space.basis]
            for i in range(n * n)]
    for y in xs:
        op = space.materialize(sandwich(y, y))
        assert op == space.materialize(sandwich(xs[1], xs[1]))
        assert (generic.matmul(cols, _rows_of(op), ring)
                == generic.matmul(sandwich(x, x).mat.rows, cols, ring))
    jets = dual_combine(x, x.scale(ring.from_int(2)))
    for m in (jets, jets.embed(DualRing(jets.ring))):
        assert m.base_part() == x and _is_packed(m.base_part())


@pytest.mark.parametrize("ring", [DualRing(Q), DualRing(DualRing(Q)),
                                  DualRing(PrimeFieldRing(5)),
                                  DualRing(FLOAT64)], ids=repr)
def test_stack_paths_match_the_general_paths(ring):
    """Over dual rings `vec` builds the column from the stack in one pass,
    `is_zero` reads the stack, and `mscale` by an exact root scalar (every
    eps-coordinate 0) scales the stack in one root scaling. Each gives the
    form of the general path: `reshape`, comparison with `Matrix.zeros`,
    and the Kronecker product with the 1 x 1 scalar matrix."""
    rng = trial_rng(28, 0)
    for n, m in ((1, 1), (2, 3), (3, 2), (4, 4)):
        a = rand_matrix(rng, ring, n, m)
        for x in (a, a.base_part().embed(ring), Matrix.zeros(ring, n, m)):
            v = x.vec()
            assert v.shape == (n * m, 1)
            assert v._form == x.reshape(n * m, 1)._form
            assert x.is_zero() == (x == Matrix.zeros(ring, n, m))
            for k in (ring.half(), ring.inv_int(4), ring.from_int(-2),
                      ring.zero(), rand_scalar(rng, ring)):
                assert (ring.mscale(x._form, k)
                        == ring.mkron(ring.pack([[k]]), x._form))
        assert not a.is_zero() and Matrix.zeros(ring, n, m).is_zero()


def test_is_zero_and_scaling_over_float_rings_keep_ieee_semantics():
    """Over float64 and R64[e], -0.0 counts as zero and nan does not, as
    with ==; and a real scalar times a matrix with an infinite entry gives
    nan in the zero eps-block, as the jet product does (0.0 * inf)."""
    inf, nan = float("inf"), float("nan")
    for ring, lift in ((FLOAT64, float), (DualRing(FLOAT64),
                                          lambda t: Dual(t, 0.0))):
        for entry, zero in ((-0.0, True), (0.0, True), (nan, False),
                            (1e-300, False)):
            x = Matrix(ring, [[lift(0.0), lift(entry)]])
            assert x.is_zero() == zero == (x == Matrix.zeros(ring, 1, 2))
    ring = DualRing(FLOAT64)
    x = Matrix(ring, [[Dual(inf, 0.0)]]).scale(ring.from_int(2))
    assert x[0, 0].re == inf and x[0, 0].eps != x[0, 0].eps
