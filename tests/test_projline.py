"""Projective line: charts, transversality, fractional action, dilations,
block involutions, classification, polarities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordankit import projline
from jordankit.algebra import Involution, Matrix
from jordankit.errors import NotInChart, NotTransversal, ShapeMismatch
from jordankit.graded import GroupElement, act, in_chart as act_in_chart
from jordankit.projline import (Polarity, ProjectivePoint, act_frac,
                                base_minus, base_plus, chart_coords,
                                classify_point, gamma_chart, in_chart,
                                modification_matrix, mu_dilation,
                                phi_involution, standard_complement,
                                transversal)
from jordankit.randgen import (rand_group_word, rand_invertible, rand_matrix,
                               rand_point, rand_unit, trial_rng)
from jordankit.rings import FLOAT64, RATIONAL, DualRing, PrimeFieldRing

Q = RATIONAL


def mat(rows):
    return Matrix.from_ints(Q, rows)


def frac(p, q):
    return Q.from_int(p) * Q.invert(Q.from_int(q))


def test_base_points_and_charts():
    assert gamma_chart(Matrix.zeros(Q, 2)) == base_minus(Q, 2)
    with pytest.raises(NotInChart):
        chart_coords(base_plus(Q, 2))
    z = mat([[1, 2], [3, 4]])
    assert chart_coords(gamma_chart(z)) == z
    e = ProjectivePoint(Matrix.from_ints(Q, [[2], [4]]), 1)
    assert chart_coords(e) == Matrix(Q, [[Q.half()]])


def test_chart_membership_is_transversality_to_o_plus():
    rng = trial_rng(1, 0)
    for _ in range(20):
        e = rand_point(rng, Q, 2)
        assert in_chart(e) == transversal(e, base_plus(Q, 2))
    z = rand_matrix(rng, Q, 2)
    assert transversal(gamma_chart(z), base_plus(Q, 2))


def test_transversal_examples():
    assert transversal(base_plus(Q, 2), base_minus(Q, 2))
    e = rand_point(trial_rng(2, 0), Q, 2)
    assert not transversal(e, e)
    g1 = gamma_chart(Matrix.identity(Q, 1))
    g0 = gamma_chart(Matrix.zeros(Q, 1))
    assert transversal(g1, g0)


def test_point_equality_mod_basis_change():
    rep = Matrix.from_ints(Q, [[1, 0], [0, 1], [1, 2], [3, 4]])
    e = ProjectivePoint(rep, 2)
    g = Matrix.from_ints(Q, [[1, 1], [0, 1]])
    assert ProjectivePoint(rep @ g, 2) == e
    assert e != base_plus(Q, 2)


def test_act_frac_examples():
    one = Matrix.identity(Q, 1)
    z = mat([[3]])
    tr = GroupElement.exp_ad(one, 1)
    assert act_frac(tr, gamma_chart(z)) == gamma_chart(mat([[4]]))
    f = GroupElement.swap(Q, 1)
    assert act_frac(f, gamma_chart(z)) == gamma_chart(Matrix(Q, [[frac(1, 3)]]))
    i11 = GroupElement.i11(Q, 1)
    assert act_frac(i11, gamma_chart(z)) == gamma_chart(mat([[-3]]))


def test_act_frac_is_group_action():
    rng = trial_rng(3, 0)
    for _ in range(25):
        g = rand_group_word(rng, Q, 2, length=2)
        h = rand_group_word(rng, Q, 2, length=2)
        e = rand_point(rng, Q, 2)
        assert act_frac(g @ h, e) == act_frac(g, act_frac(h, e))


def test_chart_compatibility_with_act():
    rng = trial_rng(4, 0)
    for _ in range(40):
        g = rand_group_word(rng, Q, 2, length=2)
        z = rand_matrix(rng, Q, 2)
        gz = act_frac(g, gamma_chart(z))
        assert act_in_chart(g, z) == in_chart(gz)
        if in_chart(gz):
            assert chart_coords(gz) == act(g, z)


def test_mu_examples():
    z = mat([[1, 2], [3, 4]])
    r = frac(2, 3)
    got = mu_dilation(r, base_minus(Q, 2), base_plus(Q, 2), gamma_chart(z))
    assert got == gamma_chart(z.scale(r))
    x = rand_point(trial_rng(5, 0), Q, 2)
    a = base_plus(Q, 2)
    if transversal(x, a):
        assert mu_dilation(Q.one(), x, a, x) == x
        assert mu_dilation(-Q.one(), x, a, x) == x


def test_mu_transversality_errors():
    x = gamma_chart(mat([[1]]))
    with pytest.raises(NotTransversal):
        mu_dilation(Q.one(), x, x, x)


def test_mu_coherence():
    rng = trial_rng(6, 0)
    x = gamma_chart(mat([[0]]))
    a = base_plus(Q, 1)
    y = gamma_chart(mat([[5]]))
    r, s = frac(2, 1), frac(-3, 1)
    lhs = mu_dilation(r, x, a, mu_dilation(s, x, a, y))
    assert lhs == mu_dilation(r * s, x, a, y)


def test_phi_chart_examples():
    iota = Involution()
    z = mat([[1, 2], [3, 4]])
    assert phi_involution(1, iota, gamma_chart(z)) == gamma_chart(z.transpose())
    o_plus = base_plus(Q, 1)
    assert phi_involution(1, iota, o_plus) == o_plus
    # order two on random points, every j
    rng = trial_rng(7, 0)
    for j in (1, 2, 3, 4):
        for _ in range(10):
            e = rand_point(rng, Q, 2)
            assert phi_involution(j, iota, phi_involution(j, iota, e)) == e


def test_phi_complement_independence():
    iota = Involution()
    rng = trial_rng(8, 0)
    for _ in range(10):
        e = rand_point(rng, Q, 2)
        ref = phi_involution(2, iota, e)
        comp = standard_complement(e)
        assert phi_involution(2, iota, e, complement=comp) == ref
        for _ in range(3):
            other = rand_point(rng, Q, 2)
            if transversal(e, other):
                assert phi_involution(2, iota, e, complement=other) == ref


def test_classify_examples():
    iota = Involution()
    sym = mat([[1, 2], [2, 5]])
    flags = classify_point(iota, gamma_chart(sym))
    assert flags["hermitian"] and not flags["antihermitian"]
    skew = mat([[0, 3], [-3, 0]])
    flags = classify_point(iota, gamma_chart(skew))
    assert flags["antihermitian"] and not flags["hermitian"]
    rot = Matrix(Q, [[frac(3, 5), frac(-4, 5)], [frac(4, 5), frac(3, 5)]])
    assert rot.transpose() @ rot == Matrix.identity(Q, 2)
    assert classify_point(iota, gamma_chart(rot))["unitary"]


def test_polarity_linear_i11():
    pol = Polarity("linear", S=GroupElement.i11(Q, 1))
    assert pol.nonisotropic(gamma_chart(mat([[2]])))
    assert not pol.nonisotropic(gamma_chart(mat([[0]])))
    assert not pol.nonisotropic(base_plus(Q, 1))


def test_gamma_units_exhaustive_f5():
    ring = PrimeFieldRing(5)
    pol = Polarity("linear", S=GroupElement.i11(ring, 1))
    good = []
    for k in range(5):
        e = gamma_chart(Matrix.from_ints(ring, [[k]]))
        if pol.nonisotropic(e):
            good.append(k)
    assert good == [1, 2, 3, 4]
    assert not pol.nonisotropic(base_plus(ring, 1))


def test_polarity_semilinear_j3():
    pol = Polarity("semilinear", GroupElement.identity(Q, 1), j=3)
    assert pol.apply(base_plus(Q, 1)) == base_minus(Q, 1)
    assert pol.nonisotropic(base_plus(Q, 1))
    e = gamma_chart(mat([[2]]))
    assert pol.apply(pol.apply(e)) == e


def test_modification_h_one_is_swap_polarity():
    h1 = Matrix.identity(Q, 2)
    pol_mod = Polarity("linear", S=GroupElement.identity(Q, 2), H=h1)
    pol_f = Polarity("linear", S=GroupElement.swap(Q, 2))
    rng = trial_rng(9, 0)
    for _ in range(10):
        e = rand_point(rng, Q, 2)
        assert pol_mod.apply(e) == pol_f.apply(e)


def test_modification_is_order_two():
    h = mat([[2, 1], [1, 1]])
    pol = Polarity("linear", S=GroupElement.identity(Q, 2), H=h)
    rng = trial_rng(10, 0)
    for _ in range(10):
        e = rand_point(rng, Q, 2)
        assert pol.apply(pol.apply(e)) == e
    m = modification_matrix(h)
    assert m.mat @ m.mat == Matrix.identity(Q, 4)


def test_phi_equivariance():
    from jordankit.projline import phi_group
    iota = Involution()
    rng = trial_rng(11, 0)
    for _ in range(15):
        j = rng.choice((1, 2, 3, 4))
        g = rand_group_word(rng, Q, 2, length=2)
        e = rand_point(rng, Q, 2)
        assert phi_involution(j, iota, act_frac(g, e)) \
            == act_frac(phi_group(j, iota, g), phi_involution(j, iota, e))


def test_cayley_conjugation_identity():
    c = GroupElement.cayley(Q, 2)
    i11 = GroupElement.i11(Q, 2)
    f = GroupElement.swap(Q, 2)
    assert c.inverse_mat() @ i11.mat @ c.mat == f.mat


def test_j_factorization_and_base_point_swap():
    j = GroupElement.jmat(Q, 2)
    assert GroupElement.from_word(Q, 2, j.word).mat == j.mat
    assert act_frac(j, base_plus(Q, 2)) == base_minus(Q, 2)


# -- one elimination per decision, against the rank-based decisions ---------

QE = DualRing(Q)
F5 = PrimeFieldRing(5)


def _mu_by_ranks(r, x, a, y):
    """mu_r(x, a, y) gated by two ranks, as the dilation was first
    written: None when x or y meets a."""
    if not (transversal(x, a) and transversal(y, a)):
        return None
    n = x.n
    pq = x.rep.hstack(a.rep).solve(y.rep)
    p = pq.submatrix(range(n), range(n))
    q = pq.submatrix(range(n, 2 * n), range(n))
    return ProjectivePoint(x.rep @ p + a.rep @ q.scale(r), n)


def _meeting(rng, ring, a):
    """A point sharing the first column of a and, for n > 1, at least one
    random other column; None when the draw is rank-deficient."""
    n = a.n
    rows = [[a.rep[i, 0]] + list(rand_matrix(rng, ring, 1, n - 1).rows[0])
            for i in range(2 * n)]
    rep = Matrix(ring, rows)
    return ProjectivePoint(rep, n) if rep.rank() == n else None


@pytest.mark.parametrize("ring", [Q, F5, QE], ids=["Q", "F5", "Q[e]"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_mu_decides_transversality_as_the_ranks_do(ring, n):
    rng = trial_rng(40, n)
    pol = Polarity("linear", S=GroupElement.i11(ring, n))
    for _ in range(8):
        r = rand_unit(rng, ring)
        x, a, y = (rand_point(rng, ring, n) for _ in range(3))
        # A singular z makes Gamma_z isotropic for the I_{1,1} polarity.
        z = rand_matrix(rng, ring, n)
        z = Matrix(ring, list(z.rows[:-1]) + [[ring.zero()] * n])
        iso = gamma_chart(z)
        assert not pol.nonisotropic(iso)
        cases = [(x, a, y), (x, x, y), (x, a, a), (iso, pol.apply(iso), y),
                 (iso, pol.apply(iso), pol.apply(iso)),
                 (x, pol.apply(x), y)]
        meet = _meeting(rng, ring, a)
        if meet is not None:
            cases.append((x, a, meet))
        for x_, a_, y_ in cases:
            want = _mu_by_ranks(r, x_, a_, y_)
            if want is None:
                with pytest.raises(NotTransversal,
                                   match="^dilation needs x and y "
                                         "transversal to a$"):
                    mu_dilation(r, x_, a_, y_)
            else:
                assert mu_dilation(r, x_, a_, y_) == want


@pytest.mark.parametrize("ring", [Q, F5, FLOAT64, QE, DualRing(QE)],
                         ids=repr)
def test_mu_image_is_x_p_plus_a_q_r(ring):
    """mu_dilation forms its image as y + a Q (r - 1), since y = x P + a Q:
    the point x P + a Q r on every ring, and the same rep on exact rings,
    whose packed forms are canonical."""
    rng = trial_rng(45, 0)
    built = 0
    for n in (1, 2, 3):
        for _ in range(6):
            r = rand_unit(rng, ring)
            x, a, y = (rand_point(rng, ring, n) for _ in range(3))
            want = _mu_by_ranks(r, x, a, y)
            if want is None:
                continue
            got = mu_dilation(r, x, a, y)
            assert got == want
            if ring.is_exact():
                assert got.rep == want.rep
            built += 1
    assert built >= 12


@pytest.mark.parametrize("n", [1, 2])
def test_float64_dilation_solve_decides_as_the_rank_does(n):
    """Over float64 "x meets a" is a threshold decision. The solve of
    [x | a] in mu_dilation and the rank in transversal eliminate the same
    block with the same pivot rule, so they decide alike on both sides of
    the threshold (1e-12): here [x | a] = (1 1; 0 d) blockwise."""
    one = Matrix.identity(FLOAT64, n)
    x = base_plus(FLOAT64, n)
    y = base_minus(FLOAT64, n)
    seen = set()
    for d in (1e-6, 1e-11, 2e-12, 1.0000001e-12, 1e-12, 5e-13, 1e-15, 0.0):
        a = ProjectivePoint(one.vstack(one.scale(d)), n)
        meets = not transversal(x, a)
        seen.add(meets)
        if meets:
            with pytest.raises(NotTransversal):
                mu_dilation(FLOAT64.from_int(-1), x, a, y)
        else:
            mu_dilation(FLOAT64.from_int(-1), x, a, y)
    assert seen == {True, False}


@pytest.mark.parametrize("ring", [Q, F5, QE], ids=["Q", "F5", "Q[e]"])
def test_chart_coords_refuses_exactly_off_chart(ring):
    rng = trial_rng(41, 0)
    points = [base_plus(ring, 2), base_minus(ring, 2)]
    points += [rand_point(rng, ring, n) for n in (1, 2, 3) for _ in range(10)]
    assert not all(in_chart(e) for e in points)
    for e in points:
        if in_chart(e):
            assert gamma_chart(chart_coords(e)) == e
        else:
            with pytest.raises(NotInChart,
                               match="^point is not transversal to o\\+$"):
                chart_coords(e)


@pytest.mark.parametrize("ring", [Q, F5], ids=["Q", "F5"])
def test_classify_matches_the_three_point_maps(ring):
    rng = trial_rng(42, 0)
    skew = Matrix.from_ints(ring, [[0, 1], [-1, 0]])
    involutions = [Involution(), Involution("form_adjoint", skew, "skew")]
    flags = {"hermitian": 1, "antihermitian": 2, "unitary": 3}
    seen = set()
    for iota in involutions:
        for _ in range(12):
            z = rand_matrix(rng, ring, 2)
            chart = [gamma_chart(m) for m in
                     (z, z + iota.apply(z), z - iota.apply(z),
                      Matrix.identity(ring, 2))]
            g = rand_group_word(rng, ring, 2, length=2)
            for e in chart + [act_frac(g, c) for c in chart] \
                    + [rand_point(rng, ring, 2)]:
                got = classify_point(iota, e)
                assert got == {k: phi_involution(j, iota, e) == e
                               for k, j in flags.items()}
                seen.update(k for k, v in got.items() if v)
                seen.add("off-chart" if not in_chart(e) else "chart")
    assert seen == set(flags) | {"chart", "off-chart"}


def test_phi_refuses_a_non_complement():
    rng = trial_rng(43, 0)
    for ring in (Q, F5):
        e = rand_point(rng, ring, 2)
        meet = _meeting(rng, ring, e)
        for f in (e, meet):
            if f is None:
                continue
            with pytest.raises(NotTransversal, match="^complement is not "
                               "transversal to the point$"):
                phi_involution(1, Involution(), e, complement=f)


def _rebased(rng, ring, e):
    """The point e on another basis, with fractional entries over Q: rep
    times an invertible matrix over a random denominator."""
    b = rand_invertible(rng, ring, e.n)
    k = ring.from_int(rng.choice((2, 3, 6)))
    return ProjectivePoint(e.rep @ b.scale(ring.invert(k)), e.n)


QEE = DualRing(QE)


@pytest.mark.parametrize("ring", [Q, F5, FLOAT64, QE, QEE], ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_joined_re_parts_rank_as_the_hstack_does(ring, n):
    """transversal and == rank the numerators of the re-parts side by
    side; on transversal, meeting and equal pairs with fractional reps
    they decide as the rank of E.rep.hstack(F.rep) does."""
    rng = trial_rng(44, n)
    seen = set()
    for _ in range(6):
        e, f = (_rebased(rng, ring, rand_point(rng, ring, n))
                for _ in range(2))
        pairs = [(e, f), (e, e), (e, _rebased(rng, ring, e))]
        meet = _meeting(rng, ring, e)
        if meet is not None:
            pairs.append((e, _rebased(rng, ring, meet)))
        for x, y in pairs:
            rank = x.rep.hstack(y.rep).rank()
            assert projline._joined_rank(x, y) == rank
            assert transversal(x, y) == (rank == 2 * n)
            assert (x == y) == (rank == n)
            seen.add(rank)
    assert {n, 2 * n} <= seen
    if n > 1:
        assert seen - {n, 2 * n}


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       ring=st.sampled_from([Q, F5, QE, QEE]), n=st.integers(1, 3))
def test_points_built_without_the_rank_check_have_full_rank(seed, ring, n):
    """Every point built without ranking its rep (charts, base points,
    embeddings, complements, involution images, images under an
    invertible g and dilation images over exact rings) has a rep that
    the checked constructor accepts."""
    rng = trial_rng(seed, n)
    e, x, a, y = (rand_point(rng, ring, n) for _ in range(4))
    g = rand_group_word(rng, ring, n, length=2)
    semilinear = Polarity("semilinear", GroupElement.swap(ring, n), j=2)
    built = [gamma_chart(rand_matrix(rng, ring, n)), base_plus(ring, n),
             base_minus(ring, n), e.embed(DualRing(ring)),
             standard_complement(e), act_frac(g, e), semilinear.apply(e)]
    built += [phi_involution(j, Involution(), e) for j in (1, 2, 3, 4)]
    try:
        built.append(mu_dilation(rand_unit(rng, ring), x, a, y))
    except NotTransversal:
        pass
    for p in built:
        assert ProjectivePoint(Matrix(p.ring, p.rep.rows), p.n) == p


@pytest.mark.parametrize("ring", [Q, F5, QE], ids=["Q", "F5", "Q[e]"])
def test_act_frac_by_a_singular_g_ranks_the_image(ring):
    one, zero = Matrix.identity(ring, 2), Matrix.zeros(ring, 2)
    g = GroupElement.from_blocks(one, zero, zero, zero)
    assert act_frac(g, base_plus(ring, 2)) == base_plus(ring, 2)
    with pytest.raises(ShapeMismatch, match="^point rep is rank-deficient$"):
        act_frac(g, base_minus(ring, 2))


@pytest.mark.parametrize("ring", [Q, FLOAT64], ids=repr)
def test_only_float64_images_are_ranked(ring, monkeypatch):
    """Over float64 "g is invertible" and "P is invertible" are threshold
    decisions, so act_frac and mu_dilation rank their images there; over
    Q the image has full rank by construction and is not ranked."""
    z = Matrix.from_ints(ring, [[1, 2], [3, 4]])
    g = GroupElement.exp_ad(z, -1)
    ranked, rank = [], Matrix.rank
    monkeypatch.setattr(Matrix, "rank",
                        lambda m: ranked.append(m) or rank(m))
    outs = [act_frac(g, gamma_chart(z)),
            mu_dilation(ring.from_int(2), base_minus(ring, 2),
                        base_plus(ring, 2), gamma_chart(z))]
    for out in outs:
        assert any(m is out.rep for m in ranked) == (ring is FLOAT64)


def test_float64_act_frac_refuses_an_image_below_the_threshold():
    """g is invertible at the float64 pivot threshold (1e-12) and so is
    the rep, but the image (0; 1e-13) is not: its rank decides."""
    one, zero = Matrix.identity(FLOAT64, 2), Matrix.zeros(FLOAT64, 2)
    g = GroupElement.from_blocks(one, zero, zero, one.scale(1e-7))
    e = ProjectivePoint(zero.vstack(one.scale(1e-6)), 2)
    assert g.mat.is_invertible()
    with pytest.raises(ShapeMismatch, match="^point rep is rank-deficient$"):
        act_frac(g, e)
