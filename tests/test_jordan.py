"""Jordan products, representations, inverses, Bergman operators and
quasi-inverses, with the associative oracles."""

from fractions import Fraction

import pytest

from jordankit import cli
from jordankit.algebra import Involution, Matrix, dual_combine, dual_split
from jordankit.errors import NotInSubspace, NotInvertible, NotQuasiInvertible
from jordankit.jordan import (JordanContext, bergman_closed,
                              bergman_operator, full_quasi_inverse_oracle,
                              is_jordan_invertible, is_quasi_invertible,
                              jordan_inverse, jordan_product,
                              quad_triple_operator, quasi_inverse,
                              quasi_inverse_literal, rep_operators,
                              triple_product)
from jordankit.randgen import rand_in_context, rand_matrix, trial_rng
from jordankit.rings import FLOAT64, RATIONAL, Dual, DualRing, PrimeFieldRing
from jordankit.serialize import matrix_from_json, matrix_to_json
from jordankit.suites import check_units_literal, literal_units
from jordankit.symspace import JordanUnitsSpace

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
    """The literal quasi-inverse with both Bergman operators checked:
    solve with B(x,y), then rank B(y,x) as well, on every ring."""
    q = quasi_inverse_literal(ctx, x, y)
    if not bergman_operator(ctx, y, x).is_invertible():
        raise NotQuasiInvertible("Bergman operator is singular")
    return q


def outcome(f, *args):
    try:
        return f(*args)
    except NotQuasiInvertible as e:
        return type(e)


def _quasi_contexts(ring, n):
    """Every flavor under the transpose and, at n = 2, the hermitian and
    antihermitian flavors of the symplectic adjoint."""
    iotas = [Involution()]
    if n == 2:
        iotas.append(Involution("form_adjoint",
                                Matrix.from_ints(ring, [[0, 1], [-1, 0]]),
                                "skew"))
    yield JordanContext(n, ring, "full")
    for iota in iotas:
        for flavor in ("hermitian", "antihermitian"):
            yield JordanContext(n, ring, flavor, iota)


@pytest.mark.parametrize("ring", [Q, PrimeFieldRing(3), PrimeFieldRing(5),
                                  DualRing(Q)], ids=str)
def test_quasi_inverse_equals_two_rank_reference(ring):
    """quasi_inverse, x(1+yx)^-1 by one n x n solve, equals the literal
    B(x,y)^-1 (x + Q(x)y) with both Bergman operators ranked, refusals
    included, and is_quasi_invertible, by whether 1 + yx is invertible,
    decides as those two ranks do. At n = 1..3, under the transpose and
    the symplectic adjoint; a y = w - x^-1 makes 1 + yx = wx, singular
    when w is."""
    rng = trial_rng(16, 0)
    refused = pairs = 0
    for n in (1, 2, 3):
        for ctx in _quasi_contexts(ring, n):
            for _ in range(12):
                x = rand_in_context(rng, ctx, lo=-1, hi=1)
                ys = [rand_in_context(rng, ctx, lo=-1, hi=1)]
                if x.is_invertible():
                    ys.append(rand_in_context(rng, ctx, lo=-1, hi=1)
                              - x.inverse())
                for y in ys:
                    want = outcome(quasi_inverse_two_ranks, ctx, x, y)
                    assert outcome(quasi_inverse, ctx, x, y) == want
                    assert outcome(quasi_inverse_literal, ctx, x, y) == want
                    assert is_quasi_invertible(ctx, x, y) == (
                        want is not NotQuasiInvertible)
                    refused += want is NotQuasiInvertible
                    pairs += 1
    assert 0 < refused < pairs


def test_float_quasi_inverse_is_no_less_accurate_than_literal():
    """Over float64, the largest error of quasi_inverse against the exact
    result over Q, on the same integer inputs, is no larger than that of
    quasi_inverse_literal. Pairs that are not quasi-invertible over Q are
    skipped; 1 + yx then has an integer determinant of at least 1."""
    rng = trial_rng(20, 0)
    worst = {quasi_inverse: 0, quasi_inverse_literal: 0}
    compared = 0
    for n in (1, 2, 3):
        fctx, qctx = JordanContext(n, FLOAT64), JordanContext(n, Q)
        for _ in range(60):
            ints = [[[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                    for _ in range(2)]
            try:
                want = quasi_inverse(qctx, *(mat(m) for m in ints))
            except NotQuasiInvertible:
                continue
            compared += 1
            xf, yf = (Matrix.from_ints(FLOAT64, m) for m in ints)
            scale = max(1, max(abs(e) for r in want.rows for e in r))
            for f in worst:
                got = f(fctx, xf, yf)
                err = max(abs(Fraction(g) - w) for gr, wr
                          in zip(got.rows, want.rows) for g, w in zip(gr, wr))
                worst[f] = max(worst[f], err / scale)
    assert compared > 100
    assert worst[quasi_inverse] <= worst[quasi_inverse_literal]
    assert worst[quasi_inverse] < 1e-12


@pytest.mark.parametrize("ring", [Q, PrimeFieldRing(5), DualRing(Q),
                                  DualRing(DualRing(DualRing(Q)))],
                         ids=["Q", "F5", "Q[e]", "Q[e][e][e]"])
def test_quad_apply_equals_materialized_q(ring):
    """The unit space applies Q(x) to y^-1 in closed form, x y^-1 x; it
    equals the materialized Q(x) applied to the literal Q(y)^-1 y, and
    both refuse the same singular draws. At seed 17 every ring, size and
    flavor has trials where both x and y are units."""
    for n in (1, 2, 3):
        for flavor in ("full", "hermitian"):
            res = check_units_literal(ring, n, 8, 17, flavor=flavor)
            assert res.ok and res.passed == 8, res.first_counterexample


def test_quad_apply_needs_product_closed_flavor(aherm2, herm2):
    """The closed forms keep the literal ones' contract: the
    antihermitian part has no Jordan inverse, and the unit space takes
    only elements of V."""
    x = rand_in_context(trial_rng(18, 0), aherm2)
    with pytest.raises(NotInSubspace):
        jordan_inverse(aherm2, x)
    with pytest.raises(NotInSubspace):
        is_jordan_invertible(aherm2, x)
    space = JordanUnitsSpace(herm2)
    outside = mat([[0, 1], [0, 0]]) + herm2.unit()
    with pytest.raises(NotInSubspace):
        space.mul(herm2.unit(), outside)
    with pytest.raises(NotInSubspace):
        space.mul(outside, herm2.unit())


def test_loos_convention_round_trip(full2):
    """A "loos" request with w answers as the "ad" request with -w: the
    same quasi-inverse, x(1 - wx)^-1, the same Bergman operator and the
    same failure."""
    def ask(op, convention, x, y):
        req = {"op": op, "ring": "rational", "n": 2,
               "convention": convention,
               "x": matrix_to_json(x), "y": matrix_to_json(y)}
        try:
            resp = cli.compute(req)
        except NotQuasiInvertible as e:
            return {"error": str(e)}
        assert resp.pop("convention") == convention
        return resp

    rng = trial_rng(13, 0)
    hits = 0
    while hits < 20:
        x = rand_matrix(rng, Q, 2)
        w = rand_matrix(rng, Q, 2)
        loos = ask("quasi_inverse", "loos", x, w)
        ad = ask("quasi_inverse", "ad", x, -w)
        assert loos == ad
        if not is_quasi_invertible(full2, x, -w):
            assert "error" in loos
            continue
        hits += 1
        assert matrix_from_json(Q, loos["result"]) \
            == quasi_inverse(full2, x, -w) \
            == x @ (full2.unit() - w @ x).inverse()
        assert matrix_from_json(Q, ask("bergman", "loos", x, w)["result"]) \
            == bergman_operator(full2, x, -w).mat
    # w = x^-1 makes 1 - wx zero: both conventions refuse it alike.
    x = mat([[1, 2], [3, 4]])
    loos = ask("quasi_inverse", "loos", x, x.inverse())
    assert loos == ask("quasi_inverse", "ad", x, -x.inverse())
    assert loos == {"error": "Bergman operator is singular"}


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


# -- inverses of embedded elements ------------------------------------------

F7 = PrimeFieldRing(7)


def exact_lift(m):
    """A matrix over float64 or R64[e] as the same matrix over Q or Q[e]:
    floats are dyadic rationals, so the lift is exact."""
    def lift(s):
        if isinstance(s, Dual):
            return Dual(lift(s.re), lift(s.eps))
        f = Fraction(s)
        return Q.from_int(f.numerator) * Q.invert(Q.from_int(f.denominator))
    ring, r = Q, m.ring
    while isinstance(r, DualRing):
        ring, r = DualRing(ring), r.base
    return Matrix(ring, [[lift(s) for s in row] for row in m.rows])


def assert_near_exact_inverse(x, got):
    """Every jet coordinate of the float inverse `got` of x lies within
    64 n u kappa_inf(xbar) max|X| of the exact inverse X of x, computed
    over Q[e] (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, on the forward error of a solve)."""
    xq = exact_lift(x)
    want = xq.inverse()
    base = xq.base_part()

    def norm(m):
        return max(sum(abs(s) for s in r) for r in m.rows)

    kappa = norm(base) * norm(base.inverse())
    bound = 64 * x.nrows * 2.0 ** -53 * kappa * want.max_abs()
    assert (exact_lift(got) - want).max_abs() <= bound


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
    coords = Matrix(base, [[rand_coord(rng, base)] for _ in range(ctx.dim)])
    return ctx.space.from_coords(coords.embed(ctx.ring))


def assert_inverse_parity(ctx, x):
    """jordan_inverse and is_jordan_invertible against the literal path:
    the same decision on every ring, and the same value over exact rings.
    Over R64[e] the closed and the literal inverse round differently, so
    the closed one is compared with the exact inverse."""
    x_inv, want, _ = literal_units(ctx, x, x)
    assert is_jordan_invertible(ctx, x) == x_inv
    if not x_inv:
        with pytest.raises(NotInvertible):
            jordan_inverse(ctx, x)
        return
    got = jordan_inverse(ctx, x)
    if ctx.ring.is_exact():
        assert got == want
    else:
        assert_near_exact_inverse(x, got)


PARITY_RINGS = {"Q[e]": DualRing(Q), "Q[e][e]": DualRing(DualRing(Q)),
                "Q[e][e][e]": DualRing(DualRing(DualRing(Q))),
                "F7[e]": DualRing(F7), "R64[e]": DualRing(FLOAT64)}


@pytest.mark.parametrize("name", list(PARITY_RINGS))
def test_jordan_inverse_of_embedded_elements_matches_literal(name):
    """Lifted contexts of every unital flavor: elements with zero top
    eps-part, the same elements with an eps-part in one coordinate only,
    and a singular embedded element."""
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
    inner eps-part: its hermitian part is not the one of the bottom
    context lifted to Q[e], and the inverse of an element embedded from
    the Q[e] context is the embedded inverse there."""
    d1 = DualRing(Q)
    d2 = DualRing(d1)
    form = dual_combine(mat([[2, 1], [1, 1]]), mat([[1, 0], [0, 3]]))
    inner = JordanContext(2, d1, "hermitian",
                          Involution("form_adjoint", form, "symmetric"))
    ctx = JordanContext(2, d2, "hermitian",
                        Involution("form_adjoint", form.embed(d2),
                                   "symmetric"))
    bottom = JordanContext(2, Q, "hermitian",
                           Involution("form_adjoint", mat([[2, 1], [1, 1]]),
                                      "symmetric"))
    rng = trial_rng(32, 0)
    lifted_bottom = bottom.at_ring(d1)
    seen_off_bottom = False
    for _ in range(6):
        x0 = inner.space.from_coords([rand_coord(rng, d1)
                                      for _ in range(inner.dim)])
        x = x0.embed(d2)
        assert ctx.contains(x)
        seen_off_bottom |= not lifted_bottom.contains(x0)
        assert_inverse_parity(ctx, x)
        assert jordan_inverse(ctx, x) == jordan_inverse(inner, x0).embed(d2)
    assert seen_off_bottom


@pytest.mark.parametrize("scale", [1.0, 1e4])
@pytest.mark.parametrize("ring", [FLOAT64, DualRing(FLOAT64)], ids=str)
def test_units_results_are_bit_hermitian_over_floats(ring, scale):
    """mul and jordan_inverse project their result onto V, so over float
    rings it is hermitian bit for bit, not only up to rounding, and no
    scale makes them refuse: at scale 1e4, x has entries near 1e4, y near
    1e-8, y^-1 near 1e8 and x y^-1 x near 1e16, where the two triangles
    of the unprojected product differ by far more than any fixed
    tolerance."""
    rng = trial_rng(33, 0)
    for n in (2, 3):
        ctx = JordanContext(n, ring, "hermitian", Involution())
        space = JordanUnitsSpace(ctx)
        for _ in range(4):
            x, y = (ctx.space.from_coords([rand_coord(rng, ring)
                                           for _ in range(ctx.dim)])
                    for _ in range(2))
            x = x.scale(Matrix(FLOAT64, [[scale]]).embed(ring)[0, 0])
            y = y.scale(Matrix(FLOAT64, [[scale ** -2]]).embed(ring)[0, 0])
            for z in (space.mul(x, y), jordan_inverse(ctx, x),
                      jordan_inverse(ctx, y)):
                assert z == ctx.involution.apply(z)
