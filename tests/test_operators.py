"""Operator parity: every operator built in Kronecker form (L, Q, Q(x,y),
the triple quadratic operator, the literal and closed Bergman operators,
the ad blocks and the chart denominators) must equal the operator found
by evaluating its defining map on each basis element: exactly over exact
rings, within a relative 1e-12 over float64."""

import random

import pytest

from jordankit.algebra import (Involution, LinearOperator, Matrix,
                               left_mult, matrix_unit_basis, right_mult,
                               sandwich)
from jordankit.errors import NotInSubspace
from jordankit.graded import (GroupElement, ad_blocks, ad_bracket, check,
                              denominators, hat, pr1)
from jordankit.jordan import (JordanContext, bergman_closed,
                              bergman_operator, quad_triple_operator,
                              rep_operators)
from jordankit.randgen import rand_group_word, rand_in_context, rand_matrix
from jordankit.rings import (FLOAT64, RATIONAL, Dual, DualRing,
                             PrimeFieldRing)
from operator_oracles import (degree_basis, degree_component, grading_block,
                              op_from_action)

RINGS = [RATIONAL, PrimeFieldRing(5), DualRing(PrimeFieldRing(7)),
         DualRing(RATIONAL), DualRing(DualRing(RATIONAL)), FLOAT64]


def contexts(ring):
    """Full, hermitian and antihermitian contexts for the transpose at
    n = 1, 2, 3, and the two symplectic-adjoint contexts at n = 2."""
    for n in (1, 2, 3):
        yield JordanContext(n, ring)
        for flavor in ("hermitian", "antihermitian"):
            yield JordanContext(n, ring, flavor, Involution())
    symplectic = Involution("form_adjoint",
                            Matrix.from_ints(ring, [[0, 1], [-1, 0]]), "skew")
    for flavor in ("hermitian", "antihermitian"):
        yield JordanContext(2, ring, flavor, symplectic)


def element(rng, ctx):
    """A random element of the context's subspace; over float64 its
    coordinates are non-integral, so rounding is exercised."""
    if ctx.ring == FLOAT64:
        return ctx.space.from_coords([rng.uniform(-3.0, 3.0)
                                      for _ in range(ctx.dim)])
    return rand_in_context(rng, ctx)


def matrix(rng, ring, n):
    if ring == FLOAT64:
        return Matrix(ring, [[rng.uniform(-3.0, 3.0) for _ in range(n)]
                             for _ in range(n)])
    return rand_matrix(rng, ring, n)


def per_basis(space, f):
    """The restriction of f to the subspace, found one basis element at a
    time: the coordinates of f(b) for each basis element b."""
    return LinearOperator.from_columns(
        space.ring, [space.coords(f(b)) for b in space.basis])


def _close(a, b, scale):
    if isinstance(a, Dual):
        return _close(a.re, b.re, scale) and _close(a.eps, b.eps, scale)
    return abs(a - b) <= 1e-12 * scale


def _base_abs(s):
    if isinstance(s, Dual):
        return max(_base_abs(s.re), _base_abs(s.eps))
    return abs(s)


def assert_same(got, want):
    """Exact equality over exact rings, relative 1e-12 over float rings."""
    got = got.mat if isinstance(got, LinearOperator) else got
    want = want.mat if isinstance(want, LinearOperator) else want
    assert got.shape == want.shape
    if want.ring.is_exact():
        assert got == want
        return
    scale = max([1.0] + [_base_abs(x) for x in want.flatten()])
    assert all(_close(a, b, scale) for a, b in zip(got.flatten(),
                                                   want.flatten()))


def old_bergman(x, y, n, quarter):
    """The literal gl_2 evaluation: w + pr1 ad(x^)ad(y^) w^
    + (1/4) pr1 ad(x^)^2 ad(y^)^2 w^."""
    xh, yc = hat(x), check(y)

    def action(w):
        wh = hat(w)
        t1 = pr1(ad_bracket(xh, ad_bracket(yc, wh)), n)
        y2w = ad_bracket(yc, ad_bracket(yc, wh))
        t2 = pr1(ad_bracket(xh, ad_bracket(xh, y2w)), n)
        return w + t1 + t2.scale(quarter)

    return action


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_kronecker_operators_match_per_basis_evaluation(ring):
    rng = random.Random(41)
    for n in (1, 2, 3):
        units = matrix_unit_basis(ring, n)
        a, b = matrix(rng, ring, n), matrix(rng, ring, n)
        assert_same(left_mult(a), op_from_action(lambda w: a @ w, units, ring))
        assert_same(right_mult(b),
                    op_from_action(lambda w: w @ b, units, ring))
        assert_same(sandwich(a, b),
                    op_from_action(lambda w: a @ w @ b, units, ring))


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_jordan_operators_match_per_basis_evaluation(ring):
    rng = random.Random(42)
    half, quarter = ring.half(), ring.inv_int(4)
    for ctx in contexts(ring):
        space, n = ctx.space, ctx.n
        x, y = element(rng, ctx), element(rng, ctx)
        if ctx.flavor != "antihermitian":
            lx, qx, qxy = rep_operators(ctx, x, y)
            assert_same(lx, per_basis(
                space, lambda w: (x @ w + w @ x).scale(half)))
            assert_same(qx, per_basis(space, lambda w: x @ w @ x))
            assert_same(qxy, per_basis(
                space, lambda w: x @ w @ y + y @ w @ x))
        assert_same(quad_triple_operator(ctx, x),
                    per_basis(space, lambda w: x @ w @ x))
        assert_same(bergman_operator(ctx, x, y),
                    per_basis(space, old_bergman(x, y, n, quarter)))
        one = ctx.unit()
        a, b = one + x @ y, one + y @ x
        assert_same(bergman_closed(ctx, x, y),
                    per_basis(space, lambda w: a @ w @ b))


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_ad_blocks_match_degree_components(ring):
    """Each block of ad(hat(v)) and ad(check(v)) maps degree_basis(j) to
    the degree_component of the bracket in degree j + degree."""
    rng = random.Random(43)
    for n in (1, 2, 3):
        v = matrix(rng, ring, n)
        for degree, vv in ((1, hat(v)), (-1, check(v))):
            blocks = ad_blocks(v, degree)
            assert sorted(blocks) == sorted({0, -degree})
            for j, block in blocks.items():
                want = LinearOperator.from_columns(ring, [
                    degree_component(ad_bracket(vv, e), n, j + degree)
                    for e in degree_basis(ring, n, j)])
                assert_same(block, want)


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_denominators_match_grading_blocks(ring):
    """d is the (1,1) block of Ad(h^-1) and c the (-1,-1) block of Ad(h),
    for h = g exp_ad(x, +1)."""
    rng = random.Random(44)
    for n in (1, 2, 3):
        for _ in range(2):
            g = rand_group_word(rng, ring, n, length=3)
            x = matrix(rng, ring, n)
            d, c, _ = denominators(g, x)
            h = g @ GroupElement.exp_ad(x, 1)
            assert_same(d, grading_block(h.inverse(), 1, 1))
            assert_same(c, grading_block(h, -1, -1))


@pytest.mark.parametrize("ring", [RATIONAL, FLOAT64], ids=repr)
def test_materialize_rejects_operator_leaving_the_subspace(ring):
    """w -> a w maps a symmetric w outside the symmetric matrices unless
    a is scalar; restricting it raises, as coords() does for a
    non-member."""
    a = Matrix.from_ints(ring, [[1, 2], [0, 1]])
    for flavor in ("hermitian", "antihermitian"):
        ctx = JordanContext(2, ring, flavor, Involution())
        with pytest.raises(NotInSubspace):
            ctx.space.materialize(left_mult(a))
        assert_same(ctx.space.materialize(sandwich(a, a.transpose())),
                    per_basis(ctx.space, lambda w: a @ w @ a.transpose()))
