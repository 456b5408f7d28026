"""Difference quotients, dual derivatives, field brackets, law checker."""

import pytest

from jordankit import calculus, suites
from jordankit.algebra import Matrix
from jordankit.errors import DomainViolation, NotAUnit, NotInvertible
from jordankit.graded import GroupElement
from jordankit.jordan import JordanContext
from jordankit.randgen import rand_invertible, rand_matrix, trial_rng
from jordankit.rings import FLOAT64, RATIONAL, DualRing, PrimeFieldRing

Q = RATIONAL


def mat(rows):
    return Matrix.from_ints(Q, rows)


def frac(p, q):
    return Q.from_int(p) * Q.invert(Q.from_int(q))


def constant_map(c):
    return calculus.MapHandle("constant", lambda ring, x: c.embed(ring))


def quasi_inverse_in_second(jctx, x):
    from jordankit.jordan import quasi_inverse

    def ev(ring, y):
        return quasi_inverse(jctx.at_ring(ring), x.embed(ring), y)

    return calculus.MapHandle("quasi_inverse_y", ev)


def test_diff_quotient_examples():
    sq = calculus.squaring()
    one = mat([[1]])
    assert calculus.diff_quotient(sq, one, one, Q.one()) == mat([[3]])

    a = mat([[2, 0], [1, 1]])
    lin = calculus.linear_map(a)
    x = rand_matrix(trial_rng(1, 0), Q, 2)
    h = rand_matrix(trial_rng(1, 1), Q, 2)
    assert calculus.diff_quotient(lin, x, h, Q.half()) == a @ h

    inv = calculus.alg_inversion()
    assert calculus.diff_quotient(inv, one, one, Q.one()) \
        == Matrix(Q, [[-Q.half()]])

    with pytest.raises(NotAUnit):
        calculus.diff_quotient(sq, one, one, Q.zero())


def test_dual_derivative_examples():
    inv = calculus.alg_inversion()
    two = mat([[2]])
    one = mat([[1]])
    assert calculus.dual_derivative(inv, two, one) == Matrix(Q, [[frac(-1, 4)]])

    const = constant_map(mat([[5]]))
    assert calculus.dual_derivative(const, two, one) == Matrix.zeros(Q, 1)

    ctx = JordanContext(2, Q, "full")
    y = rand_matrix(trial_rng(2, 0), Q, 2)
    f = calculus.quasi_inverse_in_first(ctx, y)
    v = rand_matrix(trial_rng(2, 1), Q, 2)
    assert calculus.dual_derivative(f, Matrix.zeros(Q, 2), v) == v


def test_dual_derivative_domain_violation():
    inv = calculus.alg_inversion()
    with pytest.raises(DomainViolation):
        calculus.dual_derivative(inv, Matrix.zeros(Q, 1), mat([[1]]))


def test_quasi_inverse_second_slot_derivative():
    # derivative in the second slot at y = 0 is -Q(x): x(1+yx)^-1 expands
    # to x - y-linear term x v x
    ctx = JordanContext(2, Q, "full")
    rng = trial_rng(5, 0)
    for _ in range(10):
        x = rand_matrix(rng, Q, 2)
        v = rand_matrix(rng, Q, 2)
        f = quasi_inverse_in_second(ctx, x)
        got = calculus.dual_derivative(f, Matrix.zeros(Q, 2), v)
        assert got == -(x @ v @ x)


def test_act_derivative_example():
    one = Matrix.identity(Q, 1)
    g = GroupElement.exp_ad(one, -1)  # x -> x (1 + x)^-1
    f = calculus.group_action(g)
    got = calculus.dual_derivative(f, one, one)
    assert got == Matrix(Q, [[frac(1, 4)]])


def test_bracket_examples():
    a = mat([[0, 1], [0, 0]])
    b = mat([[0, 0], [1, 0]])
    fa = calculus.linear_map(a)
    fb = calculus.linear_map(b)
    x = mat([[1], [1]])
    got = calculus.lie_bracket_fields(fa, fb, x)
    assert got == mat([[-1], [1]])
    assert calculus.lie_bracket_fields(fa, fa, x).is_zero()
    c1 = constant_map(mat([[1], [2]]))
    c2 = constant_map(mat([[3], [4]]))
    assert calculus.lie_bracket_fields(c1, c2, x).is_zero()


def test_field_bracket_nests():
    a = mat([[0, 1], [0, 0]])
    b = mat([[0, 0], [1, 0]])
    fa = calculus.linear_map(a)
    fb = calculus.linear_map(b)
    inner = calculus.field_bracket(fa, fb)
    outer = calculus.field_bracket(inner, fa)
    x = mat([[1], [1]])
    # linear fields: [Av, Bv] is the field of -[A, B]; nesting stays linear
    ab = a @ b - b @ a
    want_op = -(ab @ a - a @ ab)  # [[A,B],A] operator with field signs
    assert outer(Q, x) == -(want_op @ x)


def bracket_reference(xfield, yfield, x):
    """The bracket by four evaluations: X(x) and Y(x) on their own, then
    one dual derivative of each field."""
    ring = x.ring
    xv = xfield(ring, x)
    yv = yfield(ring, x)
    return (calculus.dual_derivative(yfield, x, xv)
            - calculus.dual_derivative(xfield, x, yv))


def reference_field(xfield, yfield):
    return calculus.MapHandle(
        "ref", lambda ring, p: bracket_reference(xfield, yfield, p))


@pytest.mark.parametrize("ring", [Q, PrimeFieldRing(5), DualRing(Q),
                                  FLOAT64], ids=str)
def test_bracket_equals_four_evaluation_reference(ring):
    """Bit-identical on every ring, float64 included: the re-part of the
    dual evaluation of X runs the operations of X(x) in the same order."""
    for i in range(6):
        rng = trial_rng(21, i)
        # the fields of check_bracket_fields: linear fields on columns
        a, b = rand_matrix(rng, ring, 2), rand_matrix(rng, ring, 2)
        fa = calculus.linear_map(a, "A")
        fb = calculus.linear_map(b, "B")
        col = rand_matrix(rng, ring, 2, 1)
        assert (calculus.lie_bracket_fields(fa, fb, col)
                == bracket_reference(fa, fb, col))
        # non-linear fields on invertible matrices, single and nested
        x = rand_invertible(rng, ring, 2)
        sq = calculus.squaring()
        inv = calculus.alg_inversion()
        lin = calculus.linear_map(a)
        assert (calculus.lie_bracket_fields(sq, inv, x)
                == bracket_reference(sq, inv, x))
        got = calculus.field_bracket(calculus.field_bracket(inv, lin), sq)
        want = reference_field(reference_field(inv, lin), sq)
        assert got(ring, x) == want(ring, x)


def counted(handle, log):
    def ev(ring, x):
        log.append((handle.name, ring.depth))
        return handle(ring, x)
    return calculus.MapHandle(handle.name, ev)


def test_bracket_evaluates_three_times():
    log = []
    rng = trial_rng(22, 0)
    x = rand_invertible(rng, Q, 2)
    sq = counted(calculus.squaring(), log)
    inv = counted(calculus.alg_inversion(), log)
    lin = counted(calculus.linear_map(rand_matrix(rng, Q, 2)), log)
    calculus.lie_bracket_fields(sq, inv, x)
    assert log == [("alg_inversion", 0), ("squaring", 1),
                   ("alg_inversion", 1)]
    # the nested bracket's inner field is evaluated once, over the duals
    log.clear()
    calculus.field_bracket(calculus.field_bracket(sq, inv), lin)(Q, x)
    assert log == [("linear", 0), ("alg_inversion", 1), ("squaring", 2),
                   ("alg_inversion", 2), ("linear", 1)]


def test_bracket_field_undefined_at_x_raises_its_own_error():
    x = mat([[1, 1], [1, 1]])
    inv = calculus.alg_inversion()
    sq = calculus.squaring()
    for xf, yf in ((inv, sq), (sq, inv), (inv, inv)):
        with pytest.raises(NotInvertible):
            calculus.lie_bracket_fields(xf, yf, x)
    # a field defined at x but not at x + eps v is a domain violation

    def base_only(ring, p):
        if ring.kind == "dual":
            raise NotInvertible("no dual extension")
        return p
    odd = calculus.MapHandle("base_only", base_only)
    for xf, yf in ((odd, sq), (sq, odd)):
        with pytest.raises(DomainViolation):
            calculus.lie_bracket_fields(xf, yf, x)


def test_tangent_map_and_chain_rule():
    sq = calculus.squaring()
    inv = calculus.alg_inversion()
    comp = calculus.compose(inv, sq)
    rng = trial_rng(3, 0)
    x = rand_invertible(rng, Q, 2)
    v = rand_matrix(rng, Q, 2)
    fx, dfv = calculus.tangent_map(sq, x, v)
    assert fx == x @ x and dfv == x @ v + v @ x
    gfx, dgdf = calculus.tangent_map(inv, fx, dfv)
    assert calculus.tangent_map(comp, x, v) == (gfx, dgdf)


def test_derivative_check_reports():
    inv = calculus.alg_inversion()

    def expected(x, v):
        xi = x.inverse()
        return -(xi @ v @ xi)

    sample = calculus.alg_inverse_law(Q, 2).sample
    law = calculus.DerivativeLaw(inv, expected, sample)
    rep = suites.law_check(inv.name, law, 30, 99)
    assert rep.ok and rep.passed == 30 and rep.max_deviation is None
    j = rep.to_json()
    assert j["check"] == "alg_inversion" and j["failed"] == 0
    assert "max_deviation" not in j

    def wrong(x, v):
        return expected(x, v).scale(Q.from_int(2))

    rep2 = suites.law_check(inv.name,
                            calculus.DerivativeLaw(inv, wrong, sample), 5, 99)
    assert not rep2.ok and rep2.first_counterexample is not None


def test_derivative_check_with_every_sample_skipped_fails():
    """A check whose samples all skipped has shown nothing."""
    law = calculus.DerivativeLaw(calculus.squaring(), lambda x, v: x,
                                 lambda rng: None)
    rep = suites.law_check("squaring", law, 5, 1)
    assert rep.skipped == 5 and rep.passed == 0 and not rep.ok
    assert rep.to_json()["skipped"] == 5


def test_law_check_over_float64_within_tolerance():
    """Over float64 a trial passes within tol, and the report carries the
    largest deviation; a wrong closed form fails at its first trial."""
    inv = calculus.alg_inversion()
    law = calculus.alg_inverse_law(FLOAT64, 2)
    rep = suites.law_check(inv.name, law, 20, 7)
    assert rep.ok and rep.passed + rep.skipped == 20 and rep.passed > 0
    assert 0 <= rep.max_deviation <= 1e-9
    assert rep.to_json()["max_deviation"] == rep.max_deviation

    wrong = calculus.DerivativeLaw(
        inv, lambda x, v: law.expected(x, v).scale(2.0), law.sample)
    bad = suites.law_check(inv.name, wrong, 20, 7)
    assert not bad.ok and bad.failed == rep.passed
    assert bad.max_deviation > 1e-9
    first = next(i for i in range(20)
                 if law.sample(trial_rng(7, i)) is not None)
    assert bad.first_counterexample == {"trial": first, "seed": 7}


def test_law_check_skips_domain_violations():
    """A sample whose dual evaluation leaves the domain is a skip, not an
    error: here x = 0 is not invertible."""
    law = calculus.DerivativeLaw(
        calculus.alg_inversion(), lambda x, v: v,
        lambda rng: (Matrix.zeros(Q, 2), rand_matrix(rng, Q, 2)))
    rep = suites.law_check("alg_inversion", law, 3, 1)
    assert rep.skipped == 3 and not rep.ok


def test_schwarz_second_derivatives():
    inv = calculus.alg_inversion()
    rng = trial_rng(4, 0)
    x = rand_invertible(rng, Q, 2)
    v = rand_matrix(rng, Q, 2)
    w = rand_matrix(rng, Q, 2)

    def second(aa, bb):
        g = calculus.MapHandle(
            "partial",
            lambda rr, p: calculus.dual_derivative(inv, p, bb.embed(rr)))
        return calculus.dual_derivative(g, x, aa)

    assert second(v, w) == second(w, v)
    # oracle: d^2 i(x)[v,w] = x^-1 v x^-1 w x^-1 + x^-1 w x^-1 v x^-1
    xi = x.inverse()
    assert second(v, w) == xi @ v @ xi @ w @ xi + xi @ w @ xi @ v @ xi
