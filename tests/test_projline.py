"""Projective line: charts, transversality, fractional action, dilations,
block involutions, classification, polarities."""

import pytest

from jordankit.algebra import Involution, Matrix
from jordankit.errors import NotInChart, NotTransversal
from jordankit.graded import GroupElement, act, in_chart as act_in_chart
from jordankit.projline import (Polarity, ProjectivePoint, act_frac,
                                base_minus, base_plus, chart_coords,
                                classify_point, gamma_chart, in_chart,
                                modification_matrix, mu_dilation,
                                phi_involution, standard_complement,
                                transversal)
from jordankit.randgen import (rand_group_word, rand_matrix, rand_point,
                               trial_rng)
from jordankit.rings import RATIONAL, PrimeFieldRing

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
