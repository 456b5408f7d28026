"""gl_2(A): grading, elementary generators, denominators, chart action."""

import pytest

from jordankit.algebra import Matrix, op_solve
from jordankit.errors import NotInChart
from jordankit.graded import (GroupElement, act, ad_bracket, blocks, check,
                              denominators, euler, hat, in_chart, pr1)
from jordankit.jordan import JordanContext, bergman_operator
from jordankit.randgen import rand_group_word, rand_matrix, trial_rng
from jordankit.rings import RATIONAL
from operator_oracles import (degree_basis, degree_component, grading_block,
                              prm1)

Q = RATIONAL


def mat(rows):
    return Matrix.from_ints(Q, rows)


def test_bracket_basics():
    x = rand_matrix(trial_rng(1, 0), Q, 4)
    assert ad_bracket(x, x) == Matrix.zeros(Q, 4)


def test_euler_grading():
    e = euler(Q, 2)
    rng = trial_rng(2, 0)
    xh = hat(rand_matrix(rng, Q, 2))
    yc = check(rand_matrix(rng, Q, 2))
    d = rand_matrix(rng, Q, 2)
    d2 = rand_matrix(rng, Q, 2)
    from jordankit.graded import diag_embed
    dd = diag_embed(d, d2)
    assert ad_bracket(e, xh) == xh            # degree +1
    assert ad_bracket(e, dd) == Matrix.zeros(Q, 4)  # degree 0
    assert ad_bracket(e, yc) == -yc           # degree -1
    # bracket of opposite degrees is diagonal
    br = ad_bracket(xh, yc)
    assert pr1(br, 2).is_zero() and prm1(br, 2).is_zero()


def test_exp_ad_shapes():
    v = mat([[1, 2], [3, 4]])
    up = GroupElement.exp_ad(v, 1)
    a, b, c, d = up.blocks()
    assert b == v and c.is_zero()
    lo = GroupElement.exp_ad(v, -1)
    a, b, c, d = lo.blocks()
    assert c == v and b.is_zero()
    z = Matrix.zeros(Q, 2)
    assert GroupElement.exp_ad(z, 1).mat == Matrix.identity(Q, 4)
    with pytest.raises(ValueError):
        GroupElement.exp_ad(v, 0)


def test_exp_ad_conjugation_law():
    rng = trial_rng(3, 0)
    half = Q.half()
    for _ in range(30):
        v = rand_matrix(rng, Q, 2)
        deg = rng.choice((1, -1))
        g = GroupElement.exp_ad(v, deg)
        vh = hat(v) if deg == 1 else check(v)
        x = rand_matrix(rng, Q, 4)
        rhs = x + ad_bracket(vh, x) \
            + ad_bracket(vh, ad_bracket(vh, x)).scale(half)
        assert g.ad(x) == rhs


def test_conjugated_euler_example():
    x = mat([[1, 2], [0, 1]])
    g = GroupElement.exp_ad(x, 1)
    e = euler(Q, 2)
    assert g.ad(e) == e - hat(x)


def test_grading_block_examples():
    ident = GroupElement.identity(Q, 2)
    assert grading_block(ident, 1, 1).mat == Matrix.identity(Q, 4)
    assert grading_block(ident, -1, 1).mat.is_zero()

    g = GroupElement.from_blocks(mat([[2]]), mat([[0]]), mat([[0]]), mat([[1]]))
    assert grading_block(g, 1, 1).mat == Matrix.from_ints(Q, [[2]])

    x = rand_matrix(trial_rng(4, 0), Q, 2)
    g = GroupElement.exp_ad(x, 1)
    corner = grading_block(g, 1, -1)
    half = Q.half()
    for u in degree_basis(Q, 2, -1):
        want = ad_bracket(hat(x), ad_bracket(hat(x), u)).scale(half)
        got = corner.apply_flat(prm1(u, 2).flatten())
        assert got.flatten() == pr1(want, 2).flatten()


def test_upper_generator_block_pattern():
    """Ad of (1 x; 0 1) in the (g1, g0, g-1) block ordering: identity on
    the diagonal, ad(x^) one step up, (1/2) ad(x^)^2 in the corner,
    nothing below the diagonal."""
    rng = trial_rng(40, 0)
    x = rand_matrix(rng, Q, 2)
    g = GroupElement.exp_ad(x, 1)
    xh = hat(x)
    dims = {1: 4, 0: 8, -1: 4}
    for d in (1, 0, -1):
        assert grading_block(g, d, d).mat == Matrix.identity(Q, dims[d])
    for (i, j) in ((0, 1), (-1, 1), (-1, 0)):
        assert grading_block(g, i, j).mat.is_zero()
    for (i, j) in ((1, 0), (0, -1)):
        block = grading_block(g, i, j)
        for u in degree_basis(Q, 2, j):
            want = degree_component(ad_bracket(xh, u), 2, i)
            assert (block.apply_flat(degree_component(u, 2, j)).flatten()
                    == want)


def test_word_witness():
    rng = trial_rng(5, 0)
    g = rand_group_word(rng, Q, 2, length=3)
    assert g.word is not None
    assert GroupElement.from_word(Q, 2, g.word).mat == g.mat
    gi = g.inverse()
    assert GroupElement.from_word(Q, 2, gi.word).mat == gi.mat
    assert (g @ gi).mat == Matrix.identity(Q, 4)


def test_denominators_identity_and_translation():
    x = rand_matrix(trial_rng(6, 0), Q, 2)
    d, c, nval = denominators(GroupElement.identity(Q, 2), x)
    assert d.mat == Matrix.identity(Q, 4)
    assert c.mat == Matrix.identity(Q, 4)
    assert nval == x

    v = rand_matrix(trial_rng(6, 1), Q, 2)
    d, c, nval = denominators(GroupElement.exp_ad(v, 1), x)
    assert d.mat == Matrix.identity(Q, 4)
    assert nval == x + v


def test_denominator_is_bergman():
    ctx = JordanContext(2, Q, "full")
    rng = trial_rng(7, 0)
    for _ in range(20):
        x = rand_matrix(rng, Q, 2)
        y = rand_matrix(rng, Q, 2)
        d, _, _ = denominators(GroupElement.exp_ad(y, -1), x)
        assert d == bergman_operator(ctx, x, y)


def test_nominator_of_lower_generator():
    # for (1 0; y 1) the nominator at x is x + Q(x)y = x + xyx
    rng = trial_rng(7, 1)
    for _ in range(20):
        x = rand_matrix(rng, Q, 2)
        y = rand_matrix(rng, Q, 2)
        _, _, nval = denominators(GroupElement.exp_ad(y, -1), x)
        assert nval == x + x @ y @ x


def test_act_examples():
    v = mat([[1, 0], [2, 1]])
    x = mat([[0, 3], [1, 1]])
    assert act(GroupElement.exp_ad(v, 1), x) == x + v

    one = Matrix.identity(Q, 1)
    g = GroupElement.exp_ad(one, -1)  # (1 0; 1 1)
    assert act(g, one) == one.scale(Q.half())

    j = GroupElement.jmat(Q, 1)
    with pytest.raises(NotInChart):
        act(j, Matrix.zeros(Q, 1))
    assert not in_chart(j, Matrix.zeros(Q, 1))
    # J acts on invertible chart points as z -> -z^-1
    z = mat([[2]])
    assert act(j, z) == Matrix(Q, [[-Q.half()]])


def test_act_matches_denominator_solve():
    rng = trial_rng(8, 0)
    for _ in range(20):
        g = rand_group_word(rng, Q, 2, length=2)
        x = rand_matrix(rng, Q, 2)
        if not in_chart(g, x):
            continue
        d, c, nval = denominators(g, x)
        assert act(g, x) == op_solve(d, nval)


def test_standard_matrices():
    c = GroupElement.cayley(Q, 2)
    f = GroupElement.swap(Q, 2)
    j = GroupElement.jmat(Q, 2)
    assert c.mat @ c.mat == Matrix.identity(Q, 4).scale(Q.from_int(2))
    assert f.mat @ f.mat == Matrix.identity(Q, 4)
    assert j.word is not None and len(j.word) == 3
    assert blocks(j.mat, 2)[1] == Matrix.identity(Q, 2)
