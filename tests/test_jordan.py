"""Jordan products, representations, inverses, Bergman operators and
quasi-inverses, with the associative oracles."""

import struct

import pytest

from jordankit.algebra import Involution, Matrix, dual_combine, dual_split
from jordankit.errors import (NotInSubspace, NotInvertible,
                              NotQuasiInvertible, SingularOperator)
from jordankit.jordan import (JordanContext, bergman_closed,
                              bergman_operator, full_quasi_inverse_oracle,
                              is_jordan_invertible, is_quasi_invertible,
                              jordan_inverse,
                              jordan_product, loos_bergman,
                              loos_quasi_inverse, quad_apply,
                              quad_triple_operator, quasi_inverse,
                              rep_operators, triple_product)
from jordankit.randgen import rand_in_context, rand_matrix, trial_rng
from jordankit.rings import (FLOAT64, RATIONAL, Dual, DualRing, PrimeFieldRing,
                             embed_scalar)

Q = RATIONAL


def mat(rows):
    return Matrix.from_ints(Q, rows)


@pytest.fixture
def full2():
    return JordanContext(2, Q, "full")


@pytest.fixture
def herm2():
    return JordanContext(2, Q, "hermitian", Involution())


@pytest.fixture
def aherm2():
    return JordanContext(2, Q, "antihermitian", Involution())


def test_subspace_dimensions(full2, herm2, aherm2):
    assert full2.dim == 4
    assert herm2.dim == 3
    assert aherm2.dim == 1


def test_product_examples(full2):
    x = mat([[1, 2], [3, 4]])
    assert jordan_product(full2, x, full2.unit()) == x
    assert jordan_product(full2, mat([[1, 0], [0, 2]]), mat([[3, 0], [0, 4]])) \
        == mat([[3, 0], [0, 8]])
    e12 = Matrix.unit(Q, 2, 0, 1)
    e21 = Matrix.unit(Q, 2, 1, 0)
    assert jordan_product(full2, e12, e21) == Matrix.identity(Q, 2).scale(Q.half())


def test_product_needs_closed_flavor(aherm2):
    v = rand_in_context(trial_rng(5, 0), aherm2)
    with pytest.raises(NotInSubspace):
        jordan_product(aherm2, v, v)
    with pytest.raises(NotInSubspace):
        rep_operators(aherm2, v)


def test_hermitian_membership_enforced(herm2):
    with pytest.raises(NotInSubspace):
        jordan_product(herm2, mat([[0, 1], [0, 0]]), herm2.unit())


def test_contains_rejects_other_ring_or_shape():
    """Every flavor answers False, rather than raising, for an element
    over another ring or of another size."""
    f5 = PrimeFieldRing(5)
    for flavor in ("full", "hermitian", "antihermitian"):
        ctx = JordanContext(2, Q, flavor, Involution())
        assert not ctx.contains(Matrix.identity(f5, 2))
        assert not ctx.contains(Matrix.identity(Q, 3))
    herm = JordanContext(2, Q, "hermitian", Involution())
    assert not is_jordan_invertible(herm, Matrix.identity(f5, 2))
    assert is_jordan_invertible(herm, herm.unit())


def test_rep_operator_examples(full2):
    _, q1 = rep_operators(full2, full2.unit())
    assert q1.mat == Matrix.identity(Q, 4)
    x = mat([[0, 1], [1, 0]])
    y = mat([[1, 0], [0, 2]])
    _, qx = rep_operators(full2, x)
    assert full2.space.from_coords(qx.apply_flat(full2.space.coords(y))) \
        == mat([[2, 0], [0, 1]])  # oracle: x y x
    _, qx2, qxx = rep_operators(full2, x, x)
    assert qxx == qx2.scale(Q.from_int(2))


def test_quad_triple_operator_all_flavors(aherm2):
    v = rand_in_context(trial_rng(6, 0), aherm2)
    w = rand_in_context(trial_rng(6, 1), aherm2)
    got = aherm2.space.from_coords(
        quad_triple_operator(aherm2, v).apply_flat(aherm2.space.coords(w)))
    assert got == v @ w @ v


def test_jordan_inverse_examples(herm2, full2):
    x = mat([[2, 0], [0, 3]])
    xi = jordan_inverse(herm2, x)
    assert xi == Matrix(Q, [[Q.half(), Q.zero()],
                            [Q.zero(), Q.invert(Q.from_int(3))]])
    assert jordan_inverse(full2, full2.unit()) == full2.unit()
    with pytest.raises(NotInvertible):
        jordan_inverse(full2, Matrix.unit(Q, 2, 0, 1))


def test_jordan_inverse_matches_algebra_inverse(full2):
    rng = trial_rng(7, 0)
    for _ in range(30):
        x = rand_matrix(rng, Q, 2)
        if not x.is_invertible():
            continue
        assert jordan_inverse(full2, x) == x.inverse()


def test_triple_examples(full2):
    one = full2.unit()
    assert triple_product(full2, one, one, one) == one.scale(Q.from_int(2))
    e12 = Matrix.unit(Q, 2, 0, 1)
    e21 = Matrix.unit(Q, 2, 1, 0)
    assert triple_product(full2, e12, e21, e12) == e12.scale(Q.from_int(2))
    rng = trial_rng(8, 0)
    for _ in range(20):
        x, y, z = (rand_matrix(rng, Q, 2) for _ in range(3))
        assert triple_product(full2, x, y, z) == triple_product(full2, z, y, x)


def scalar_ctx():
    return JordanContext(1, Q, "full")


def test_bergman_scalar_examples():
    ctx = scalar_ctx()
    one = ctx.unit()
    b = bergman_operator(ctx, one, one)
    assert b.mat == Matrix.from_ints(Q, [[4]])
    b = bergman_operator(ctx, one, one.scale(Q.from_int(-2)))
    assert b.mat == Matrix.from_ints(Q, [[1]])
    y = one.scale(Q.from_int(5))
    assert bergman_operator(ctx, one.scale(Q.zero()), y).mat \
        == Matrix.identity(Q, 1)


def test_bergman_ad_equals_closed(full2, herm2):
    rng = trial_rng(9, 0)
    for ctx in (full2, herm2):
        for _ in range(25):
            x = rand_in_context(rng, ctx)
            y = rand_in_context(rng, ctx)
            assert bergman_operator(ctx, x, y) == bergman_closed(ctx, x, y)


def test_quasi_invertibility_examples(full2):
    ctx = scalar_ctx()
    one = ctx.unit()
    assert is_quasi_invertible(ctx, one.scale(Q.zero()), one.scale(Q.from_int(3)))
    assert not is_quasi_invertible(ctx, one, -one)
    e12 = Matrix.unit(Q, 2, 0, 1)
    e21 = Matrix.unit(Q, 2, 1, 0)
    assert is_quasi_invertible(full2, e12, e21)


def test_quasi_inverse_examples(full2):
    ctx = scalar_ctx()
    one = ctx.unit()
    assert quasi_inverse(ctx, one, one) == one.scale(Q.half())
    with pytest.raises(NotQuasiInvertible):
        quasi_inverse(ctx, one, -one)
    x = rand_matrix(trial_rng(10, 0), Q, 2)
    assert quasi_inverse(full2, x, Matrix.zeros(Q, 2)) == x


def test_quasi_inverse_oracle(full2):
    rng = trial_rng(11, 0)
    hits = 0
    while hits < 25:
        x = rand_matrix(rng, Q, 2)
        y = rand_matrix(rng, Q, 2)
        if not is_quasi_invertible(full2, x, y):
            continue
        hits += 1
        assert quasi_inverse(full2, x, y) == full_quasi_inverse_oracle(full2, x, y)


def test_quasi_inverse_stays_hermitian(herm2):
    rng = trial_rng(12, 0)
    hits = 0
    while hits < 15:
        x = rand_in_context(rng, herm2)
        y = rand_in_context(rng, herm2)
        if not is_quasi_invertible(herm2, x, y):
            continue
        hits += 1
        assert herm2.contains(quasi_inverse(herm2, x, y))


def quasi_inverse_two_ranks(ctx, x, y):
    """The quasi-inverse with both Bergman operators checked: solve with
    B(x,y), then rank B(y,x) as well, on every ring."""
    try:
        c = bergman_operator(ctx, x, y).solve_flat(
            ctx.space.coords(x + x @ y @ x))
    except SingularOperator as e:
        raise NotQuasiInvertible("Bergman operator is singular") from e
    if not bergman_operator(ctx, y, x).is_invertible():
        raise NotQuasiInvertible("Bergman operator is singular")
    return ctx.space.from_coords(c)


def outcome(f, *args):
    try:
        return f(*args)
    except NotQuasiInvertible as e:
        return type(e)


@pytest.mark.parametrize("ring", [Q, PrimeFieldRing(5), DualRing(Q)],
                         ids=str)
def test_quasi_inverse_equals_two_rank_reference(ring):
    rng = trial_rng(16, 0)
    refused = 0
    for n in (1, 2):
        for flavor in ("full", "hermitian", "antihermitian"):
            ctx = JordanContext(n, ring, flavor, Involution())
            for _ in range(40):
                x = rand_in_context(rng, ctx, lo=-1, hi=1)
                y = rand_in_context(rng, ctx, lo=-1, hi=1)
                got = outcome(quasi_inverse, ctx, x, y)
                assert got == outcome(quasi_inverse_two_ranks, ctx, x, y)
                refused += got is NotQuasiInvertible
    assert 0 < refused < 240


def tower_context(n, ring, flavor, depth):
    ctx = JordanContext(n, ring, flavor, Involution())
    for _ in range(depth):
        ring = DualRing(ring)
    return ctx.at_ring(ring)


@pytest.mark.parametrize("ring, depth", [(Q, 0), (PrimeFieldRing(5), 0),
                                         (Q, 1), (Q, 3)],
                         ids=["Q", "F5", "Q[e]", "Q[e][e][e]"])
def test_quad_apply_equals_materialized_q(ring, depth):
    rng = trial_rng(17, depth)
    for n in (1, 2, 3):
        for flavor in ("full", "hermitian"):
            ctx = tower_context(n, ring, flavor, depth)
            for _ in range(2 if depth == 3 else 4):
                x = rand_in_context(rng, ctx)
                v = rand_in_context(rng, ctx)
                _, qx = rep_operators(ctx, x)
                want = ctx.space.from_coords(
                    qx.apply_flat(ctx.space.coords(v)))
                assert quad_apply(ctx, x, v) == want


def test_quad_apply_needs_product_closed_flavor(aherm2, herm2):
    x = rand_in_context(trial_rng(18, 0), aherm2)
    with pytest.raises(NotInSubspace):
        quad_apply(aherm2, x, x)
    with pytest.raises(NotInSubspace):
        quad_apply(herm2, herm2.unit(), mat([[0, 1], [0, 0]]))


def test_loos_convention_round_trip(full2):
    rng = trial_rng(13, 0)
    hits = 0
    while hits < 20:
        x = rand_matrix(rng, Q, 2)
        w = rand_matrix(rng, Q, 2)
        if not is_quasi_invertible(full2, x, -w):
            continue
        hits += 1
        assert loos_quasi_inverse(full2, x, w) == quasi_inverse(full2, x, -w)
        assert loos_bergman(full2, x, w) == bergman_operator(full2, x, -w)
        # closed Loos form: x (1 - w x)^-1
        assert loos_quasi_inverse(full2, x, w) \
            == x @ (full2.unit() - w @ x).inverse()


def test_symplectic_involution_flavors():
    """With the skew-form adjoint on M_2 (x* = adjugate), the hermitian
    part is the scalars and the anti-hermitian part is trace-zero."""
    b = mat([[0, 1], [-1, 0]])
    iota = Involution("form_adjoint", b, "skew")
    herm = JordanContext(2, Q, "hermitian", iota)
    aherm = JordanContext(2, Q, "antihermitian", iota)
    assert herm.dim == 1 and aherm.dim == 3
    assert herm.contains(Matrix.identity(Q, 2).scale(Q.from_int(3)))
    assert aherm.contains(mat([[1, 2], [3, -1]]))
    assert not aherm.contains(Matrix.identity(Q, 2))
    rng = trial_rng(15, 0)
    for _ in range(15):
        x = rand_in_context(rng, aherm)
        y = rand_in_context(rng, aherm)
        z = rand_in_context(rng, aherm)
        assert aherm.contains(triple_product(aherm, x, y, z))
        assert bergman_operator(aherm, x, y) == bergman_closed(aherm, x, y)


def test_fundamental_formula_small(full2):
    rng = trial_rng(14, 0)
    for _ in range(25):
        x = rand_in_context(rng, full2)
        y = rand_in_context(rng, full2)
        _, qx = rep_operators(full2, x)
        _, qy = rep_operators(full2, y)
        qxy = full2.space.from_coords(qx.apply_flat(full2.space.coords(y)))
        _, lhs = rep_operators(full2, qxy)
        assert lhs == qx.compose(qy).compose(qx)


# -- inverses of embedded elements, one ring down ---------------------------

F7 = PrimeFieldRing(7)


def literal_inverse(ctx, x):
    """x^-1 with Q(x) materialized and solved over the ring of x."""
    _, qx = rep_operators(ctx, x)
    try:
        c = qx.solve_flat(ctx.space.coords(x))
    except SingularOperator as e:
        raise NotInvertible("quadratic representation is singular") from e
    return ctx.space.from_coords(c)


def literal_invertible(ctx, x):
    return ctx.contains(x) and rep_operators(ctx, x)[1].is_invertible()


def bits(m):
    """The IEEE bit patterns of every base component of a float matrix
    (so -0.0 and 0.0 differ)."""
    def comps(s):
        return comps(s.re) + comps(s.eps) if isinstance(s, Dual) else [s]
    return [struct.pack("<d", c) for r in m.rows for s in r
            for c in comps(s)]


def rand_coord(rng, ring):
    """A random scalar whose every base component is non-zero; floats are
    not integers, so the inverses round."""
    if isinstance(ring, DualRing):
        return Dual(rand_coord(rng, ring.base), rand_coord(rng, ring.base))
    if ring.kind == "float64":
        return rng.choice((-1, 1)) * rng.uniform(0.3, 2.0)
    return ring.from_int(rng.choice((-3, -2, -1, 1, 2, 3)))


def embedded_element(rng, ctx):
    """An element of V whose top eps-part is zero, from coordinates over
    the ring one level down (the lifted contexts have such a basis)."""
    base = ctx.ring.base
    return ctx.space.from_coords([embed_scalar(rand_coord(rng, base), base,
                                               ctx.ring)
                                  for _ in range(ctx.dim)])


def assert_inverse_parity(ctx, x):
    """jordan_inverse and is_jordan_invertible against the literal dual
    path: the same value or NotInvertible. Over floats the values agree
    bit for bit, except that for an x with zero eps-part the literal
    solve may leave -0.0 where the embedded inverse has 0.0; there the
    re-parts agree bit for bit and both eps-parts are zero."""
    assert is_jordan_invertible(ctx, x) == literal_invertible(ctx, x)
    try:
        want = literal_inverse(ctx, x)
    except NotInvertible:
        with pytest.raises(NotInvertible):
            jordan_inverse(ctx, x)
        return
    got = jordan_inverse(ctx, x)
    assert got == want
    if not ctx.ring.is_exact():
        if dual_split(x)[1].is_zero():
            got, want = dual_split(got)[0], dual_split(want)[0]
        assert bits(got) == bits(want)


PARITY_RINGS = {"Q[e]": DualRing(Q), "Q[e][e]": DualRing(DualRing(Q)),
                "Q[e][e][e]": DualRing(DualRing(DualRing(Q))),
                "F7[e]": DualRing(F7), "R64[e]": DualRing(FLOAT64)}


@pytest.mark.parametrize("name", list(PARITY_RINGS))
def test_jordan_inverse_of_embedded_elements_matches_literal(name):
    """Lifted contexts of every unital flavor: elements with zero top
    eps-part (inverted one ring down), the same elements with an eps-part
    in one coordinate only (inverted literally), and a singular embedded
    element."""
    ring = PARITY_RINGS[name]
    bottom = ring
    while isinstance(bottom, DualRing):
        bottom = bottom.base
    rng = trial_rng(31, len(name))
    reps = 1 if name == "Q[e][e][e]" else 3
    symplectic = Involution("form_adjoint",
                            Matrix.from_ints(bottom, [[0, 1], [-1, 0]]),
                            "skew")
    for n, flavor, iota in ((1, "full", None), (2, "full", None),
                            (2, "hermitian", Involution()),
                            (3, "hermitian", Involution()),
                            (2, "hermitian", symplectic)):
        ctx = JordanContext(n, bottom, flavor, iota).at_ring(ring)
        one_eps = Dual(ring.base.zero(), ring.base.one())
        for _ in range(reps):
            x = embedded_element(rng, ctx)
            assert dual_split(x)[1].is_zero()
            assert_inverse_parity(ctx, x)
            bump = [ring.zero()] * ctx.dim
            bump[rng.randrange(ctx.dim)] = one_eps
            y = x + ctx.space.from_coords(bump)
            assert not dual_split(y)[1].is_zero()
            assert_inverse_parity(ctx, y)
        singular = (ctx.zero() if ctx.dim == 1
                    else Matrix.unit(ring, n, 0, 0))
        assert not is_jordan_invertible(ctx, singular)
        with pytest.raises(NotInvertible):
            jordan_inverse(ctx, singular)
        assert_inverse_parity(ctx, singular)


def test_jordan_inverse_one_ring_down_on_eps_varying_form():
    """A context built directly over Q[e][e] whose form has a non-zero
    inner eps-part: its hermitian part is not the root's lifted to Q[e],
    so the lower context must be this context's own re-part."""
    d1 = DualRing(Q)
    d2 = DualRing(d1)
    form = dual_combine(mat([[2, 1], [1, 1]]), mat([[1, 0], [0, 3]]))
    inner = JordanContext(2, d1, "hermitian",
                          Involution("form_adjoint", form, "symmetric"))
    ctx = JordanContext(2, d2, "hermitian",
                        Involution("form_adjoint", form.embed(d2),
                                   "symmetric"))
    rng = trial_rng(32, 0)
    lifted_root = ctx.root.at_ring(d1)
    seen_off_root = False
    for _ in range(6):
        x0 = inner.space.from_coords([rand_coord(rng, d1)
                                      for _ in range(inner.dim)])
        x = x0.embed(d2)
        assert ctx.contains(x)
        seen_off_root |= not lifted_root.contains(x0)
        assert_inverse_parity(ctx, x)
        assert jordan_inverse(ctx, x) == jordan_inverse(inner, x0).embed(d2)
    assert seen_off_root
