"""Symmetric spaces: the three contexts, canonical fields, Lts, exp."""

import itertools
import math
import re

import pytest

from jordankit.algebra import (CoordinateBasis, Involution, Matrix,
                               dual_combine, dual_split)
from jordankit import symspace
from jordankit.errors import NotInChart, NotInSpace, RingMismatch
from jordankit.graded import GroupElement
from jordankit.jordan import (JordanContext, jordan_inverse, jordan_product,
                              mult_operator)
from jordankit.projline import (Polarity, base_plus, chart_coords, gamma_chart,
                                mu_dilation, transversal)
from jordankit.randgen import (rand_filtered, rand_in_context, rand_invertible,
                               rand_matrix, rand_orthogonal2, trial_rng)
from jordankit.rings import FLOAT64, RATIONAL, Dual, DualRing, PrimeFieldRing
from jordankit.suites import (SPACES, group_space, jordan_ctx,
                              literal_units, numeric_lts, proj_space_i11,
                              proj_space_swap, unitary_space, units_space)
from jordankit.symspace import (GroupSpace, JordanUnitsSpace, ProjectiveSpace,
                                exp_tanh, lts_bracket, quadratic_rep_point,
                                sym_mul, tilde_field, transvection)

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


def test_group_base_point_must_lie_in_the_group():
    """A singular o, or an o of the unitary group with o* o != 1, is
    refused when the space is built, as the other spaces refuse theirs."""
    with pytest.raises(NotInSpace):
        GroupSpace(2, Q, o=Matrix.zeros(Q, 2))
    with pytest.raises(NotInSpace):
        GroupSpace(2, Q, "unitary", Involution(), o=mat([[2, 0], [0, 1]]))


def test_unitary_tangent_is_taken_at_the_base_point():
    """At o = diag(1, 1, -1) the tangent space of the unitary group is o
    times the skew matrices: o s is tangent, and its bracket is the one of
    the nested dual oracle; a skew s with o^-1 s symmetric is refused."""
    o = Matrix.from_ints(Q, [[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    space = GroupSpace(3, Q, "unitary", Involution(), o=o)

    def skew(a, b, c):
        return Matrix.from_ints(Q, [[0, a, b], [-a, 0, c], [-b, -c, 0]])

    u, v, w = (o @ skew(*t) for t in ((1, 2, 0), (0, 1, -1), (2, 0, 1)))
    got = lts_bracket(space, u, v, w)
    assert not got.is_zero()
    assert got == numeric_lts(space, u, v, w)
    with pytest.raises(NotInSpace):
        lts_bracket(space, skew(0, 1, 0), v, w)


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
    still built and its mul, contains, jordan_inverse, tilde_field and
    lts_bracket still answer: none of them builds an n^2 x n^2 operator
    (every operator of the Jordan context reaches V through
    `materialize`)."""
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
        quarter = ring.inv_int(4)
        assert lts_bracket(space, v, x, y) == (
            v @ x @ y + y @ x @ v - x @ v @ y - y @ v @ x).scale(quarter)


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


def _band(ring, n, symmetric):
    """2 on the diagonal and 1 beside it: invertible over Q, F_5 and F_7
    at n <= 3."""
    return Matrix.from_ints(ring, [
        [2 if i == j else int(j == i + 1 or (symmetric and i == j + 1))
         for j in range(n)] for i in range(n)])


def lts_configurations(ring, n):
    """Unit, group and projective spaces away from o = 1 and from the swap
    polarity at Gamma_0, where a bracket that ignores theta is wrong."""
    one, swap = GroupElement.identity(ring, n), GroupElement.swap(ring, n)
    osym, ofull = _band(ring, n, True), _band(ring, n, False)
    full, herm = jordan_ctx(ring, n), jordan_ctx(ring, n, "hermitian")
    z = Matrix.unit(ring, n, 0, 0).scale(ring.from_int(3))
    return [
        units_space(ring, n),
        JordanUnitsSpace(herm, osym),
        JordanUnitsSpace(full, ofull),
        GroupSpace(n, ring, o=ofull),
        proj_space_swap(ring, n),
        ProjectiveSpace(Polarity("linear", S=swap), full, gamma_chart(ofull)),
        proj_space_i11(ring, n),
        ProjectiveSpace(Polarity("linear", S=one, H=osym), full),
        ProjectiveSpace(Polarity("linear", S=one, H=osym), herm,
                        gamma_chart(z)),
        ProjectiveSpace(Polarity("semilinear", S=swap, j=1), full),
        ProjectiveSpace(Polarity("semilinear", S=swap, j=2), full,
                        gamma_chart(z)),
        ProjectiveSpace(Polarity("semilinear", S=swap, j=2),
                        jordan_ctx(ring, n, "antihermitian"))]


def test_numeric_lts_matches_closed_forms():
    """The one bracket T(u, theta v, w) - T(v, theta u, w) equals the
    nested dual bracket of the canonical fields on 12 configurations."""
    rng = trial_rng(8, 0)
    for ring, n in itertools.product((Q, PrimeFieldRing(7)), (1, 2)):
        for space in lts_configurations(ring, n):
            for _ in range(2):
                if hasattr(space, "jctx"):
                    u, v, w = (rand_in_context(rng, space.jctx, lo=-1, hi=1)
                               for _ in range(3))
                else:
                    u, v, w = (rand_matrix(rng, ring, n, lo=-1, hi=1)
                               for _ in range(3))
                assert (numeric_lts(space, u, v, w)
                        == lts_bracket(space, u, v, w)), space


def test_lts_units_away_from_one():
    """theta = (1/4) o^-1 v o^-1: at o = diag(2, 1) the bracket of E11,
    E12, E21 is E11/8 - E22/16, not the (E11 - E22)/4 of o = 1."""
    space = JordanUnitsSpace(JordanContext(2, Q), mat([[2, 0], [0, 1]]))
    e = [[Matrix.unit(Q, 2, i, j) for j in range(2)] for i in range(2)]
    want = e[0][0].scale(Q.inv_int(8)) - e[1][1].scale(Q.inv_int(16))
    assert lts_bracket(space, e[0][0], e[0][1], e[1][0]) == want


@pytest.mark.parametrize("ring", [Q, PrimeFieldRing(5), DualRing(Q)],
                         ids=str)
def test_unit_lts_at_one_is_the_materialized_bracket(ring):
    """At o = 1 the bracket is [L(u), L(v)] w, with L materialized as an
    operator on V, on the full, the transpose-hermitian and a
    symmetric-form hermitian flavor."""
    rng = trial_rng(22, 0)
    for n in (1, 2, 3):
        iota = Involution("form_adjoint", _band(ring, n, True), "symmetric")
        for jctx in (JordanContext(n, ring),
                     JordanContext(n, ring, "hermitian", Involution()),
                     JordanContext(n, ring, "hermitian", iota)):
            space = JordanUnitsSpace(jctx)
            u, v, w = (rand_in_context(rng, jctx) for _ in range(3))
            lu, lv = mult_operator(jctx, u), mult_operator(jctx, v)
            op = lu.compose(lv) - lv.compose(lu)
            want = jctx.space.from_coords(
                op.apply_flat(jctx.space.coords(w)))
            assert lts_bracket(space, u, v, w) == want


def test_unitary_tangent_checks_shape_and_ring():
    """A tangent of the unitary group is an n x n matrix over its ring
    with v* = -v; anything else is refused before any product."""
    space = unitary_space(Q, 2)
    skew = mat([[0, 1], [-1, 0]])
    assert lts_bracket(space, skew, skew, skew).is_zero()
    for bad in (Matrix.zeros(Q, 3),
                Matrix.from_ints(PrimeFieldRing(5), [[0, 1], [4, 0]]),
                mat([[1, 0], [0, 0]])):
        with pytest.raises(NotInSpace):
            lts_bracket(space, bad, skew, skew)
        with pytest.raises(NotInSpace):
            lts_bracket(space, skew, skew, bad)


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


def _group_mul_by_ranks(space, x, y):
    """m(x, y) = x y^-1 x gated by the membership of both arguments, as
    GroupSpace.mul was first written: None when either is refused."""
    if not (space.contains(x) and space.contains(y)):
        return None
    return x @ y.inverse() @ x


@pytest.mark.parametrize("ring", [Q, PrimeFieldRing(5), DualRing(Q)],
                         ids=["Q", "F5", "Q[e]"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_mul_decides_invertibility_as_the_rank_does(ring, n):
    """GroupSpace.mul lets the inverse of y decide whether y is
    invertible; its results and refusals are those of the rank-gated
    product. Draws include singular matrices (a cleared row; over Q[e]
    also a singular re-part under a non-zero eps-part) and, over Q at
    n = 2, the unitary group with orthogonal and other draws."""
    rng = trial_rng(43, n)
    spaces = [group_space(ring, n)]
    if ring == Q and n == 2:
        spaces.append(unitary_space(ring))
    refused = 0
    for space in spaces:
        for _ in range(8):
            x, y, s = (rand_matrix(rng, ring, n) for _ in range(3))
            s = Matrix(ring, list(s.rows[:-1]) + [[ring.zero()] * n])
            draws = [x, y, s]
            if isinstance(ring, DualRing):
                draws.append(dual_combine(dual_split(s)[0],
                                          rand_matrix(rng, Q, n)))
            if space.kind == "unitary":
                draws += [rand_orthogonal2(rng, ring) for _ in range(2)]
            for a, b in itertools.product(draws, repeat=2):
                want = _group_mul_by_ranks(space, a, b)
                if want is None:
                    refused += 1
                    with pytest.raises(NotInSpace, match="^arguments must "
                                                         "lie in the group$"):
                        space.mul(a, b)
                else:
                    assert space.mul(a, b) == want
        # The shape, ring and unitary tests stay.
        one = Matrix.identity(ring, n)
        bad = [Matrix.identity(ring, n + 1), Matrix.identity(FLOAT64, n)]
        if space.kind == "unitary":
            bad.append(one.scale(ring.from_int(2)))
        for b in bad:
            for args in ((one, b), (b, one)):
                with pytest.raises(NotInSpace):
                    space.mul(*args)
    assert refused


QE, QEE = DualRing(Q), DualRing(DualRing(Q))


@pytest.mark.parametrize("ring", [QE, QEE], ids=repr)
def test_lifts_carry_the_validated_base_point(ring):
    """A lift is built from the validated space without checking o again:
    its o is the embedded base o, lies in the lifted space, and its chart
    coordinate is the embedded base one; so through an intermediate
    lift."""
    spaces = [kind.build(Q, 2) for kind in SPACES.values()]
    spaces += [unitary_space(Q, 2), proj_space_i11(Q, 2)]
    for space in spaces:
        for lifted in (space.at_ring(ring), space.at_ring(QE).at_ring(ring)):
            assert lifted.ring == ring and type(lifted) is type(space)
            assert lifted.o == space.o.embed(ring)
            assert lifted.contains(lifted.o)
            assert lifted.o_chart == space.o_chart.embed(ring)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_tilde_field_decides_tangency_at_every_depth(depth):
    """A v that is not tangent at o is refused whether it comes over the
    base ring or over the ring of the chart point; a tangent one gives
    v at o."""
    ring = Q
    for _ in range(depth):
        ring = DualRing(ring)
    skew, upper = mat([[0, 1], [-1, 0]]), mat([[0, 1], [0, 0]])
    for space, tangent in ((units_space(Q, 2), upper + upper.transpose()),
                           (proj_space_swap(Q, 2, "hermitian"),
                            upper + upper.transpose()),
                           (unitary_space(Q, 2), skew)):
        p = space.o_chart.embed(ring)
        for v in (upper, upper.embed(ring)):
            with pytest.raises(NotInSpace,
                               match="^v is not tangent at the base point$"):
                tilde_field(space, v, p)
        assert tilde_field(space, tangent, p) == tangent.embed(ring)


def test_an_off_chart_base_point_is_refused_by_chart_work_every_time():
    """A projective space at o = o+ builds, but o+ has no chart
    coordinate: o_chart, a chart product that lands on o, the canonical
    field and the bracket refuse with NotInChart, and again on a second
    call (a refusal is not kept)."""
    space = ProjectiveSpace(Polarity("linear", S=GroupElement.swap(Q, 2)),
                            jordan_ctx(Q, 2), base_plus(Q, 2))
    one = Matrix.identity(Q, 2)
    two = one.scale(Q.from_int(2))
    y = one.scale(Q.from_int(5) * Q.invert(Q.from_int(4)))
    assert space.mul(gamma_chart(two), gamma_chart(y)) == space.o
    v = mat([[1, 2], [0, 1]])
    calls = [lambda: space.o_chart, lambda: space.mul_chart(two, y),
             lambda: tilde_field(space, v, two),
             lambda: lts_bracket(space, v, two, v)]
    for call in calls:
        for _ in range(2):
            with pytest.raises(NotInChart):
                call()


@pytest.mark.parametrize("ring", [Q, PrimeFieldRing(5), FLOAT64, DualRing(Q)],
                         ids=repr)
def test_projective_refusals_keep_their_type_message_and_order(ring,
                                                              monkeypatch):
    """On the I_{1,1} space Gamma_z is isotropic exactly when z is
    singular, and p(Gamma_z) = Gamma_{-z}, which Gamma_w meets exactly
    when w + z is singular. The solve of the dilation decides a product;
    a refusal keeps its type, its message and its order: the left
    argument isotropic, then the right one isotropic or not a point, then
    y meeting p(x). A product that succeeds makes no rank test of x."""
    space = proj_space_i11(ring, 2)

    def chart(rows):
        return gamma_chart(Matrix.from_ints(ring, rows))

    iso, x = chart([[1, 0], [0, 0]]), chart([[2, 1], [0, 1]])
    y, meet = chart([[1, 0], [1, 3]]), chart([[-1, -1], [0, -1]])
    other = gamma_chart(Matrix.identity(PrimeFieldRing(7), 2))
    not_a_point = Matrix.identity(ring, 2)
    left, right = "left argument is isotropic", "right argument is isotropic"
    dilation = "dilation needs x and y transversal to a"
    cases = [(iso, iso, left), (iso, y, left), (iso, meet, left),
             (iso, not_a_point, left), (iso, other, left),
             (x, iso, right), (x, not_a_point, right),
             (x, space.polarity.apply(x), dilation), (x, meet, dilation)]
    assert space.contains(meet) and not space.contains(iso)
    for a, b, message in cases:
        with pytest.raises(NotInSpace, match=f"^{message}$"):
            space.mul(a, b)
    with pytest.raises(RingMismatch, match=f"^{re.escape(repr(ring))} vs F7$"):
        space.mul(x, other)
    ranked = []
    monkeypatch.setattr(symspace, "transversal",
                        lambda *a: ranked.append(a) or transversal(*a))
    got = space.mul(x, y)
    assert not ranked
    assert got == mu_dilation(-ring.one(), x, space.polarity.apply(x), y)
    with pytest.raises(NotInSpace, match=f"^{left}$"):
        space.mul(iso, y)
    assert ranked


def test_unitary_space_inverts_its_base_point_once(monkeypatch):
    """The tangent test and theta of the unitary group share one o^-1,
    computed once over the life of the space."""
    o = Matrix.from_ints(Q, [[1, 0], [0, -1]])
    u, v, w = (o @ mat([[0, k], [-k, 0]]) for k in (1, 2, 3))
    want = numeric_lts(GroupSpace(2, Q, "unitary", Involution(), o=o),
                       u, v, w)
    space = GroupSpace(2, Q, "unitary", Involution(), o=o)
    inverted, inverse = [], Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse",
                        lambda m: inverted.append(m) or inverse(m))
    for _ in range(3):
        assert lts_bracket(space, u, v, w) == want
    assert inverted == [o]
