"""Symmetric spaces: the three contexts, canonical fields, Lts, exp."""

import itertools
import math

import pytest

from jordankit.algebra import (CoordinateBasis, Involution, Matrix,
                               dual_combine, dual_split)
from jordankit.errors import NotInSpace
from jordankit.graded import GroupElement
from jordankit.jordan import JordanContext, jordan_inverse, jordan_product
from jordankit.projline import Polarity, chart_coords, gamma_chart
from jordankit.randgen import (rand_filtered, rand_in_context, rand_invertible,
                               rand_matrix, rand_orthogonal2, trial_rng)
from jordankit.rings import FLOAT64, RATIONAL, Dual, DualRing, PrimeFieldRing
from jordankit.suites import (group_space, jordan_ctx, literal_units,
                              numeric_lts, proj_space_i11, proj_space_swap,
                              unitary_space, units_space)
from jordankit.symspace import (JordanUnitsSpace, ProjectiveSpace, exp_tanh,
                                lts_bracket, quadratic_rep_point, sym_mul,
                                tilde_field, transvection)

Q = RATIONAL


def mat(rows):
    return Matrix.from_ints(Q, rows)


def scalar_units():
    return units_space(Q, 1)


def test_m1_fixed_point():
    space = units_space(Q, 2)
    x = rand_in_context(trial_rng(1, 0), space.jctx)
    if space.contains(x):
        assert sym_mul(space, x, x) == x


def test_jordan_units_scalar_example():
    space = scalar_units()
    two = mat([[2]])
    one = mat([[1]])
    assert sym_mul(space, two, one) == mat([[4]])


def test_group_rotation_example():
    space = unitary_space(Q, 2)
    r = rand_orthogonal2(trial_rng(2, 0), Q)
    assert sym_mul(space, r, Matrix.identity(Q, 2)) == r @ r


def test_not_in_space():
    space = scalar_units()
    with pytest.raises(NotInSpace):
        sym_mul(space, mat([[0]]), mat([[1]]))


def test_singular_base_point_rejected_at_construction():
    ctx = JordanContext(2, Q)
    with pytest.raises(NotInSpace):
        JordanUnitsSpace(ctx, mat([[1, 2], [2, 4]]))
    with pytest.raises(NotInSpace):
        JordanUnitsSpace(ctx.at_ring(DualRing(Q)),
                         mat([[1, 2], [2, 4]]).embed(DualRing(Q)))


def test_lifts_are_built_once_per_ring():
    d1 = DualRing(Q)
    d2 = DualRing(d1)
    ctx = JordanContext(2, Q, "hermitian", Involution())
    assert ctx.at_ring(DualRing(Q)) is ctx.at_ring(DualRing(Q))
    assert ctx.at_ring(Q) is ctx
    for space in (units_space(Q, 2), proj_space_swap(Q, 2),
                  unitary_space(Q, 2)):
        lifted = space.at_ring(d1)
        assert space.at_ring(Q) is space
        assert space.at_ring(DualRing(Q)) is lifted
        if hasattr(space, "jctx"):
            assert lifted.jctx is space.jctx.at_ring(d1)
        assert lifted.at_ring(d2) is lifted.at_ring(DualRing(DualRing(Q)))


def test_embed_is_the_identity_on_its_own_ring():
    form = mat([[0, 1], [-1, 0]])
    g = GroupElement.jmat(Q, 2)
    polarities = (Polarity("linear", S=g, H=mat([[2, 1], [1, 1]])),
                  Polarity("semilinear", GroupElement.identity(Q, 2), j=3))
    for obj in (form, g, Involution("form_adjoint", form, "skew"),
                Involution(), *polarities, gamma_chart(mat([[1, 2], [3, 4]]))):
        assert obj.embed(Q) is obj


def dual_units_spaces():
    """Unit spaces over dual rings: lifted ones, and ones built directly
    over Q[e], with a form whose eps-part is not zero."""
    d1, d2 = DualRing(Q), DualRing(DualRing(Q))
    form = dual_combine(mat([[2, 1], [1, 1]]), mat([[1, 0], [0, 3]]))
    iota = Involution("form_adjoint", form, "symmetric")
    return [units_space(Q, 2).at_ring(d1), units_space(Q, 3).at_ring(d2),
            JordanUnitsSpace(JordanContext(2, Q).at_ring(d1)),
            JordanUnitsSpace(JordanContext(2, d1, "hermitian", Involution())),
            JordanUnitsSpace(JordanContext(2, d1, "hermitian", iota))]


def test_units_mul_over_duals_matches_materialized_q():
    rng = trial_rng(19, 0)
    for space in dual_units_spaces():
        hits = 0
        while hits < 4:
            x = rand_in_context(rng, space.jctx)
            y = rand_in_context(rng, space.jctx)
            if not (space.contains(x) and space.contains(y)):
                continue
            hits += 1
            assert space.mul(x, y) == literal_units(space.jctx, x, y)[2]


def singular_element(jctx):
    """A non-zero element of the context whose base part is singular."""
    for c in itertools.product((0, 1, -1), repeat=jctx.dim):
        m = jctx.space.from_coords([jctx.ring.from_int(k) for k in c])
        if any(c) and not m.base_part().is_invertible():
            return m
    raise AssertionError("no singular element with coordinates in {-1, 0, 1}")


def test_units_mul_decides_left_invertibility_on_re_parts():
    """x = s + eps r with s singular over the bottom ring: its re-part is
    singular and its eps-part is not zero, so x is not in the space; the
    materialized dual Q(x) decides the same."""
    for space in dual_units_spaces():
        jctx = space.jctx
        ring = jctx.ring
        r = rand_in_context(trial_rng(20, 0), jctx)
        x = singular_element(jctx) + r.scale(
            Dual(ring.base.zero(), ring.base.one()))
        assert not dual_split(x)[1].is_zero()
        assert not dual_split(x)[1].is_zero()
        with pytest.raises(NotInSpace):
            space.mul(x, space.o)
        assert literal_units(jctx, x, space.o)[2] is None


@pytest.mark.parametrize("ring", [Q, PrimeFieldRing(5),
                                  DualRing(DualRing(Q))], ids=str)
def test_unit_space_materializes_no_operator(ring, monkeypatch):
    """With CoordinateBasis.materialize made to raise, the unit space is
    still built and its mul, contains, jordan_inverse and tilde_field
    still answer: none of them builds an n^2 x n^2 operator (every
    operator of the Jordan context reaches V through `materialize`)."""
    def refuse(*args, **kwargs):
        raise AssertionError("an n^2 x n^2 operator was built")

    monkeypatch.setattr(CoordinateBasis, "materialize", refuse)
    rng = trial_rng(21, 0)
    for n in (1, 2):
        space = units_space(ring, n)
        jctx = space.jctx
        x, y = (rand_filtered(rng, lambda r: rand_in_context(r, jctx),
                              space.contains) for _ in range(2))
        assert space.mul(x, y) == x @ y.inverse() @ x
        assert jordan_inverse(jctx, x) == x.inverse()
        assert not space.contains(jctx.zero())
        v = rand_in_context(rng, jctx)
        assert tilde_field(space, v, x) == jordan_product(jctx, v, x)


def test_quadratic_rep_point():
    space = scalar_units()
    q2 = quadratic_rep_point(space, mat([[2]]))
    assert q2(mat([[1]])) == mat([[4]])
    qo = quadratic_rep_point(space, space.o)
    x = mat([[7]])
    assert qo(x) == x


def test_quadratic_rep_agrees_with_jordan_q():
    space = units_space(Q, 2)
    from jordankit.jordan import rep_operators
    rng = trial_rng(3, 0)
    hits = 0
    while hits < 20:
        x = rand_in_context(rng, space.jctx)
        y = rand_in_context(rng, space.jctx)
        if not (space.contains(x) and space.contains(y)):
            continue
        hits += 1
        _, qx = rep_operators(space.jctx, x)
        want = space.jctx.space.from_coords(
            qx.apply_flat(space.jctx.space.coords(y)))
        assert quadratic_rep_point(space, x)(y) == want


def test_transvection_examples():
    space = scalar_units()
    x = mat([[3]])
    t = transvection(space, x, x)
    assert t(mat([[5]])) == mat([[5]])
    t21 = transvection(space, mat([[2]]), mat([[1]]))
    z = mat([[7]])
    assert t21(z) == z.scale(Q.from_int(4))


def test_tilde_field_examples():
    space = scalar_units()
    v = mat([[1]])
    p = mat([[3]])
    assert tilde_field(space, v, p) == mat([[3]])
    assert tilde_field(space, v, space.o_chart) == v

    space2 = units_space(Q, 2)
    rng = trial_rng(4, 0)
    for _ in range(10):
        v = rand_in_context(rng, space2.jctx)
        p = rand_in_context(rng, space2.jctx)
        if not space2.contains(p):
            continue
        assert tilde_field(space2, v, p) == jordan_product(space2.jctx, v, p)


def test_tilde_field_on_dual_unit_spaces_is_jordan_product():
    """X_v(p) = v o p on the unit space. The outer product of tilde_field
    inverts the embedded p^-1 one ring down; over lifted and directly
    built dual spaces (one with a form whose eps-part is not zero, so its
    lift to the next dual ring has a non-zero inner eps-part) the field is
    still v o p."""
    rng = trial_rng(21, 0)
    for space in dual_units_spaces():
        hits = 0
        while hits < 3:
            v = rand_in_context(rng, space.jctx)
            p = rand_in_context(rng, space.jctx)
            if not space.contains(p):
                continue
            hits += 1
            assert tilde_field(space, v, p) == jordan_product(space.jctx, v, p)


def test_m4_via_duals_all_contexts():
    rng = trial_rng(5, 0)
    dring = DualRing(Q)
    for space in (units_space(Q, 2), group_space(Q, 2), proj_space_swap(Q, 2)):
        space_e = space.at_ring(dring)
        for _ in range(5):
            if hasattr(space, "jctx"):
                x = rand_in_context(rng, space.jctx)
                v = rand_in_context(rng, space.jctx)
                ok = (space.contains(gamma_chart(x))
                      if space.__class__.__name__ == "ProjectiveSpace"
                      else space.contains(x))
            else:
                x = rand_invertible(rng, Q, 2)
                v = rand_matrix(rng, Q, 2)
                ok = x is not None
            if not ok:
                continue
            try:
                out = space_e.mul_chart(x.embed(dring), dual_combine(x, v))
            except Exception:
                continue
            re, eps = dual_split(out)
            assert re == x and eps == -v


def test_lts_examples():
    full_proj = proj_space_swap(Q, 2)
    e12 = Matrix.unit(Q, 2, 0, 1)
    e21 = Matrix.unit(Q, 2, 1, 0)
    assert lts_bracket(full_proj, e12, e21, e12) == e12.scale(Q.from_int(2))
    w = rand_matrix(trial_rng(6, 0), Q, 2)
    u = rand_matrix(trial_rng(6, 1), Q, 2)
    assert lts_bracket(full_proj, u, u, w).is_zero()

    ju = units_space(Q, 2)
    v = rand_in_context(trial_rng(6, 2), ju.jctx)
    w = rand_in_context(trial_rng(6, 3), ju.jctx)
    assert lts_bracket(ju, v, v, w).is_zero()


def test_lts_group_quarter_bracket():
    g = group_space(Q, 2)
    rng = trial_rng(7, 0)
    u, v, w = (rand_matrix(rng, Q, 2) for _ in range(3))
    uv = u @ v - v @ u
    assert lts_bracket(g, u, v, w) == (uv @ w - w @ uv).scale(
        Q.invert(Q.from_int(4)))


def test_numeric_lts_matches_closed_forms():
    rng = trial_rng(8, 0)
    for space in (units_space(Q, 2), group_space(Q, 2), proj_space_swap(Q, 2)):
        for _ in range(3):
            if hasattr(space, "jctx"):
                u, v, w = (rand_in_context(rng, space.jctx, lo=-1, hi=1)
                           for _ in range(3))
            else:
                u, v, w = (rand_matrix(rng, Q, 2, lo=-1, hi=1)
                           for _ in range(3))
            assert numeric_lts(space, u, v, w) == lts_bracket(space, u, v, w)


def test_numeric_lts_on_restricted_flavors():
    """The triple-system tangent flavors used by the exponential and by
    the unitary line satisfy the same coherence."""
    rng = trial_rng(8, 1)
    herm = proj_space_swap(Q, 2, flavor="hermitian")
    for _ in range(3):
        u, v, w = (rand_in_context(rng, herm.jctx, lo=-1, hi=1)
                   for _ in range(3))
        assert numeric_lts(herm, u, v, w) == lts_bracket(herm, u, v, w)
    aherm = proj_space_swap(Q, 3, flavor="antihermitian")
    assert aherm.jctx.dim == 3
    for _ in range(2):
        u, v, w = (rand_in_context(rng, aherm.jctx, lo=-1, hi=1)
                   for _ in range(3))
        assert numeric_lts(aherm, u, v, w) == lts_bracket(aherm, u, v, w)
        assert lts_bracket(aherm, u, v, w) == -lts_bracket(aherm, v, u, w)


def test_exp_tanh_scalar_oracle():
    space = proj_space_swap(FLOAT64, 1, flavor="hermitian")
    v = Matrix(FLOAT64, [[0.5]])
    e = exp_tanh(space, v, 24)
    got = chart_coords(e)[0, 0]
    assert abs(got - math.tanh(0.5)) < 1e-12
    z = Matrix.zeros(FLOAT64, 1)
    assert exp_tanh(space, z, 24) == space.o


def test_exp_tanh_rational_is_exact_truncation():
    space = proj_space_swap(Q, 1, flavor="hermitian")
    v = Matrix(Q, [[Q.half()]])
    e = exp_tanh(space, v, 2)
    # truncated cosh = 1 + v^2/2 + v^4/24, sinh = v + v^3/6 + v^5/120
    c = 1 + Q.half() ** 2 * Q.half() + Q.half() ** 4 * Q.invert(Q.from_int(24))
    s = Q.half() + Q.half() ** 3 * Q.invert(Q.from_int(6)) \
        + Q.half() ** 5 * Q.invert(Q.from_int(120))
    assert chart_coords(e)[0, 0] == s / c


def test_exp_tanh_doubling_sym2():
    space = proj_space_swap(FLOAT64, 2, flavor="hermitian")
    v = Matrix(FLOAT64, [[0.2, 0.1], [0.1, -0.15]])
    ev = exp_tanh(space, v, 24)
    e2v = exp_tanh(space, v.scale(2.0), 24)
    m = sym_mul(space, ev, space.o)
    assert (chart_coords(m) - chart_coords(e2v)).max_abs() < 1e-10


def test_jmat_polarity_satisfies_axioms():
    space = ProjectiveSpace(Polarity("linear", S=GroupElement.jmat(Q, 1)),
                            jordan_ctx(Q, 1))
    rng = trial_rng(9, 0)
    hits = 0
    while hits < 10:
        xs = [gamma_chart(rand_matrix(rng, Q, 1)) for _ in range(2)]
        if not all(space.contains(p) for p in xs):
            continue
        x, y = xs
        try:
            m_xy = sym_mul(space, x, y)
            assert sym_mul(space, x, m_xy) == y
            assert sym_mul(space, x, x) == x
        except NotInSpace:
            continue
        hits += 1


def test_i11_space_group_multiplication():
    space = proj_space_i11(Q, 2)
    rng = trial_rng(10, 0)
    hits = 0
    while hits < 10:
        x = rand_invertible(rng, Q, 2)
        y = rand_invertible(rng, Q, 2)
        try:
            got = space.mul_chart(x, y)
        except Exception:
            continue
        hits += 1
        assert got == x @ y.inverse() @ x
