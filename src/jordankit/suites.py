"""Seeded verification suites.

Each check function runs `trials` independent trials, drawing every
trial's inputs from a substream keyed by (seed, trial), and returns a
CheckResult. `SUITES`, one table, holds each suite's ring kinds and checks;
`run_suite`, the CLI and the tests read it. The acceptance tests call the
same checks with their own trial counts and tolerances.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import calculus, jordan, randgen
from .algebra import (Involution, LinearOperator, Matrix, dual_combine,
                      dual_split, op_solve)
from .errors import (DomainViolation, NotInChart, NotInSpace, NotInvertible,
                     NotQuasiInvertible)
from .graded import (GroupElement, act, ad_bracket, ad_operator, check,
                     denominators, hat, in_chart, pr1)
from .jordan import (JordanContext, bergman_closed, bergman_operator,
                     jordan_inverse, jordan_product, mult_operator,
                     quasi_inverse, rep_operators, triple_product)
from .projline import (Polarity, act_frac, base_minus, base_plus,
                       chart_coords, classify_point, gamma_chart,
                       in_chart as point_in_chart, mu_dilation,
                       phi_group, phi_involution, phi_matrix, transversal)
from .rings import FLOAT64, RATIONAL, DualRing, PrimeFieldRing, ring_to_json
from .symspace import (GroupSpace, JordanUnitsSpace, ProjectiveSpace,
                       exp_tanh, lts_bracket, sym_mul, tilde_field,
                       transvection)


@dataclass
class CheckResult:
    name: str
    trials: int
    passed: int = 0
    failed: int = 0
    skipped: int = 0
    first_counterexample: object = None
    # The largest deviation seen by a check that compares within a
    # tolerance (law_check over float rings); None elsewhere.
    max_deviation: float | None = None

    @property
    def ok(self):
        """No trial failed, and some trial ran: a check whose trials all
        skipped has shown nothing."""
        return self.failed == 0 and not 0 < self.trials == self.skipped

    def to_json(self):
        out = {"check": self.name, "trials": self.trials,
               "passed": self.passed, "failed": self.failed,
               "skipped": self.skipped}
        if self.first_counterexample is not None:
            out["first_counterexample"] = self.first_counterexample
        if self.max_deviation is not None:
            out["max_deviation"] = self.max_deviation
        return out


def run_check(name, trials, seed, trial_fn):
    """trial_fn(rng, i) -> True | False | None (skip) | (False, info).

    Each trial draws from the substream keyed by (seed, trial), so a
    reported counterexample is reproducible from those two numbers.
    """
    res = CheckResult(name, trials)
    for i in range(trials):
        rng = randgen.trial_rng(seed, i)
        out = trial_fn(rng, i)
        if out is None:
            res.skipped += 1
        elif out is True:
            res.passed += 1
        else:
            info = {"trial": i, "seed": seed}
            if isinstance(out, tuple) and out[1] is not None:
                info.update(out[1])
            res.failed += 1
            if res.first_counterexample is None:
                res.first_counterexample = info
    return res


# -- context builders --------------------------------------------------------

def jordan_ctx(ring, n, flavor="full"):
    """The Jordan context of `flavor`; the restricted flavors use the
    transpose involution."""
    return JordanContext(n, ring, flavor,
                         None if flavor == "full" else Involution())


def units_space(ring, n):
    return JordanUnitsSpace(jordan_ctx(ring, n, "hermitian"))


def group_space(ring, n):
    return GroupSpace(n, ring, "full_linear")


def unitary_space(ring, n=2):
    return GroupSpace(n, ring, "unitary", Involution())


def proj_space_swap(ring, n, flavor="full"):
    """Projective symmetric space of the polarity E -> F.E at Gamma_0;
    its Lts at the base point is T(u,v,w) - T(v,u,w)."""
    jctx = jordan_ctx(ring, n, flavor)
    return ProjectiveSpace(Polarity("linear", S=GroupElement.swap(ring, n)), jctx)


def proj_space_i11(ring, n):
    """Projective symmetric space of E -> I_{1,1}.E at Gamma_1: the
    invertible elements with m(x,y) = x y^-1 x."""
    jctx = jordan_ctx(ring, n)
    o = gamma_chart(Matrix.identity(ring, n))
    return ProjectiveSpace(Polarity("linear", S=GroupElement.i11(ring, n)),
                           jctx, o)


# -- jordan-algebra checks ---------------------------------------------------

def check_jordan_identity(ring, n, trials, seed, flavor="full"):
    ctx = jordan_ctx(ring, n, flavor)

    def trial(rng, i):
        x = randgen.rand_in_context(rng, ctx)
        y = randgen.rand_in_context(rng, ctx)
        xx = jordan_product(ctx, x, x)
        lhs = jordan_product(ctx, x, jordan_product(ctx, xx, y))
        rhs = jordan_product(ctx, xx, jordan_product(ctx, x, y))
        return lhs == rhs

    return run_check(f"jordan-identity[{flavor}]", trials, seed, trial)


def check_fundamental_formula(ring, n, trials, seed, flavor="full"):
    ctx = jordan_ctx(ring, n, flavor)

    def trial(rng, i):
        x = randgen.rand_in_context(rng, ctx)
        y = randgen.rand_in_context(rng, ctx)
        _, qx = rep_operators(ctx, x)
        _, qy = rep_operators(ctx, y)
        qxy = ctx.space.from_coords(qx.apply_flat(ctx.space.coords(y)))
        _, lhs = rep_operators(ctx, qxy)
        rhs = qx.compose(qy).compose(qx)
        return lhs == rhs

    return run_check(f"fundamental-formula[{flavor}]", trials, seed, trial)


def check_l_inverse(ring, n, trials, seed, flavor="hermitian"):
    ctx = jordan_ctx(ring, n, flavor)

    def trial(rng, i):
        x = randgen.rand_filtered(
            rng, lambda r: randgen.rand_in_context(r, ctx),
            lambda x: rep_operators(ctx, x)[1].is_invertible())
        if x is None:
            return None
        xi = jordan_inverse(ctx, x)
        if jordan_product(ctx, x, xi) != ctx.unit():
            return False
        lx = mult_operator(ctx, x)
        lxi = mult_operator(ctx, xi)
        return lx.compose(lxi) == lxi.compose(lx)

    return run_check(f"l-inverse[{flavor}]", trials, seed, trial)


def check_rep_oracle(ring, n, trials, seed, flavor="full"):
    """Q(x) from 2L^2 - L(x^2) agrees with the associative oracle xwx,
    and Q(x,x) = 2 Q(x)."""
    ctx = jordan_ctx(ring, n, flavor)

    def trial(rng, i):
        x = randgen.rand_in_context(rng, ctx)
        w = randgen.rand_in_context(rng, ctx)
        _, qx, qxx = rep_operators(ctx, x, x)
        lhs = ctx.space.from_coords(qx.apply_flat(ctx.space.coords(w)))
        if lhs != x @ w @ x:
            return False
        return qxx == qx.scale(ring.from_int(2))

    return run_check(f"rep-oracle[{flavor}]", trials, seed, trial)


def check_pair_identities(ring, n, trials, seed, flavor="full"):
    """Outer symmetry and the five-term identity of the triple product."""
    ctx = jordan_ctx(ring, n, flavor)

    def t(a, b, c):
        return triple_product(ctx, a, b, c)

    def trial(rng, i):
        xs = [randgen.rand_in_context(rng, ctx) for _ in range(5)]
        x, y, u, v, w = xs
        if t(x, y, u) != t(u, y, x):
            return False
        lhs = t(x, y, t(u, v, w))
        rhs = t(t(x, y, u), v, w) - t(u, t(y, x, v), w) + t(u, v, t(x, y, w))
        return lhs == rhs

    return run_check(f"pair-identities[{flavor}]", trials, seed, trial)


def check_triple_vs_gl2(ring, n, trials, seed):
    """T(x,y,z) equals the double bracket [[x^, y^], z^] in gl_2(A)."""
    ctx = jordan_ctx(ring, n)

    def trial(rng, i):
        x, y, z = (randgen.rand_matrix(rng, ring, n) for _ in range(3))
        db = ad_bracket(ad_bracket(hat(x), check(y)), hat(z))
        return pr1(db, n) == triple_product(ctx, x, y, z)

    return run_check("triple-vs-gl2", trials, seed, trial)


def check_bergman_coherence(ring, n, trials, seed, flavor="full"):
    ctx = jordan_ctx(ring, n, flavor)

    def trial(rng, i):
        x = randgen.rand_in_context(rng, ctx)
        y = randgen.rand_in_context(rng, ctx)
        return bergman_operator(ctx, x, y) == bergman_closed(ctx, x, y)

    return run_check(f"bergman-coherence[{flavor}]", trials, seed, trial)


def check_quasi_full_oracle(ring, n, trials, seed):
    """Quasi-inverse equals x(1+yx)^-1 in the full flavor."""
    ctx = jordan_ctx(ring, n)

    def trial(rng, i):
        pair = randgen.rand_quasi_invertible(rng, ctx)
        if pair is None:
            return None
        x, y = pair
        return quasi_inverse(ctx, x, y) == jordan.full_quasi_inverse_oracle(ctx, x, y)

    return run_check("quasi-full-oracle", trials, seed, trial)


def check_quasi_vs_act(ring, n, trials, seed):
    """quasi_inverse(x, y) = act(exp_ad(y, -1), x), including agreement
    of the failure predicates."""
    ctx = jordan_ctx(ring, n)

    def trial(rng, i):
        x = randgen.rand_matrix(rng, ring, n)
        y = randgen.rand_matrix(rng, ring, n)
        g = GroupElement.exp_ad(y, -1)
        dop, cop, nval = denominators(g, x)
        chart_ok = dop.is_invertible() and cop.is_invertible()
        try:
            qv = quasi_inverse(ctx, x, y)
        except NotQuasiInvertible:
            return not chart_ok
        if not chart_ok:
            return False
        return qv == op_solve(dop, nval)

    return run_check("quasi-vs-act", trials, seed, trial)


# -- graded / group checks ---------------------------------------------------

def check_exp_ad_conjugation(ring, n, trials, seed):
    """Conjugation by exp_ad(v, deg) equals 1 + ad + ad^2/2 on gl_2."""
    half = ring.half()

    def trial(rng, i):
        v = randgen.rand_matrix(rng, ring, n)
        deg = rng.choice((1, -1))
        g = GroupElement.exp_ad(v, deg)
        vh = hat(v) if deg == 1 else check(v)
        x = randgen.rand_matrix(rng, ring, 2 * n)
        lhs = g.ad(x)
        rhs = x + ad_bracket(vh, x) + ad_bracket(vh, ad_bracket(vh, x)).scale(half)
        return lhs == rhs

    return run_check("exp-ad-conjugation", trials, seed, trial)


def check_ad_multiplicative(ring, n, trials, seed):

    def trial(rng, i):
        g = randgen.rand_group_word(rng, ring, n, length=2)
        h = randgen.rand_group_word(rng, ring, n, length=2)
        return ad_operator(g @ h) == ad_operator(g).compose(ad_operator(h))

    return run_check("ad-multiplicative", trials, seed, trial)


def check_cocycle(ring, n, trials, seed):
    """d_{fh}(x) = d_h(x) d_f(h.x) whenever h.x stays in the chart."""

    def trial(rng, i):
        for _ in range(50):
            f = randgen.rand_group_word(rng, ring, n, length=rng.randint(1, 2))
            h = randgen.rand_group_word(rng, ring, n, length=rng.randint(1, 2))
            x = randgen.rand_matrix(rng, ring, n)
            if not in_chart(h, x):
                continue
            hx = act(h, x)
            d_fh = denominators(f @ h, x)[0]
            d_h = denominators(h, x)[0]
            d_f_hx = denominators(f, hx)[0]
            return d_fh == d_h.compose(d_f_hx)
        return None

    return run_check("cocycle", trials, seed, trial)


def check_act_chart_agreement(ring, n, trials, seed):
    """act agrees with the fractional point action, including when the
    chart is left."""

    def trial(rng, i):
        g = randgen.rand_group_word(rng, ring, n, length=rng.randint(1, 3))
        z = randgen.rand_matrix(rng, ring, n)
        gz = act_frac(g, gamma_chart(z))
        if in_chart(g, z) != point_in_chart(gz):
            return (False, {"reason": "chart predicate mismatch", "trial": i})
        if not point_in_chart(gz):
            return True
        return act(g, z) == chart_coords(gz)

    return run_check("act-chart-agreement", trials, seed, trial)


def check_translation_action(ring, n, trials, seed):

    def trial(rng, i):
        v = randgen.rand_matrix(rng, ring, n)
        x = randgen.rand_matrix(rng, ring, n)
        if act(GroupElement.exp_ad(v, 1), x) != x + v:
            return False
        d, c, nval = denominators(GroupElement.identity(ring, n), x)
        ident = LinearOperator.identity(ring, n * n)
        return d == ident and c == ident and nval == x

    return run_check("translation-action", trials, seed, trial)


# -- projective-line checks --------------------------------------------------

def check_frac_group_action(ring, n, trials, seed):

    def trial(rng, i):
        g = randgen.rand_group_word(rng, ring, n, length=2)
        h = randgen.rand_group_word(rng, ring, n, length=2)
        e = randgen.rand_point(rng, ring, n)
        return act_frac(g @ h, e) == act_frac(g, act_frac(h, e))

    return run_check("frac-group-action", trials, seed, trial)


def check_cayley_identities(ring, n):

    def trial(rng, i):
        one2 = Matrix.identity(ring, 2 * n)
        c = GroupElement.cayley(ring, n)
        f = GroupElement.swap(ring, n)
        j = GroupElement.jmat(ring, n)
        i11 = GroupElement.i11(ring, n)
        ok = (c.inverse_mat() @ i11.mat @ c.mat) == f.mat
        ok = ok and (c.mat @ c.mat == one2.scale(ring.from_int(2)))
        ok = ok and (f.mat @ f.mat == one2)
        ok = ok and GroupElement.from_word(ring, n, j.word).mat == j.mat
        ok = ok and act_frac(j, base_plus(ring, n)) == base_minus(ring, n)
        return ok or (False, {"identity": "cayley block"})

    return run_check("cayley-identities", 1, 0, trial)


def check_cayley_transport(ring, trials, seed, n=2):
    """C maps unitary points to anti-hermitian points and C^-1 maps them
    back (the two lines are isomorphic)."""
    iota = Involution()
    c = GroupElement.cayley(ring, n)

    def skew(rng):
        t = randgen.rand_scalar(rng, ring)
        m = [list(r) for r in Matrix.zeros(ring, n).rows]
        m[0][1] = t
        m[1][0] = -t
        return Matrix(ring, m)

    def trial(rng, i):
        z = randgen.rand_orthogonal2(rng, ring)
        e_un = gamma_chart(z)
        if not classify_point(iota, e_un)["unitary"]:
            return (False, {"reason": "sample not unitary"})
        e_ah = act_frac(c, e_un)
        if not classify_point(iota, e_ah)["antihermitian"]:
            return False
        w = skew(rng)
        back = act_frac(c.inverse(), gamma_chart(w))
        return classify_point(iota, back)["unitary"]

    return run_check("cayley-transport", trials, seed, trial)


def check_phi_antiautomorphism(ring, n, trials, seed):
    """Phi_j are K-linear anti-automorphisms of order 2 on M_2(A)."""
    iota = Involution()

    def trial(rng, i):
        j = rng.choice((1, 2, 3, 4))
        x = randgen.rand_matrix(rng, ring, 2 * n)
        y = randgen.rand_matrix(rng, ring, 2 * n)
        pxy = phi_matrix(j, iota, x @ y, n)
        if pxy != phi_matrix(j, iota, y, n) @ phi_matrix(j, iota, x, n):
            return False
        return phi_matrix(j, iota, phi_matrix(j, iota, x, n), n) == x

    return run_check("phi-antiautomorphism", trials, seed, trial)


def _rand_transversal(rng, ring, n, e, first=True):
    """A random point f transversal to the point e, tested as
    transversal(e, f), or as transversal(f, e) when not `first`; None
    when the draws run out."""
    return randgen.rand_filtered(
        rng, lambda r: randgen.rand_point(r, ring, n),
        (lambda f: transversal(e, f)) if first
        else (lambda f: transversal(f, e)))


def check_phi_complement_independence(ring, n, trials, seed, complements=5):

    def trial(rng, i):
        j = rng.choice((1, 2, 3, 4))
        e = randgen.rand_point(rng, ring, n)
        ref = phi_involution(j, Involution(), e)
        for _ in range(complements):
            comp = _rand_transversal(rng, ring, n, e)
            if comp is None:
                return None
            if phi_involution(j, Involution(), e, complement=comp) != ref:
                return False
        return True

    return run_check("phi-complement-independence", trials, seed, trial)


def check_phi_order_two(ring, n, trials, seed):

    def trial(rng, i):
        j = rng.choice((1, 2, 3, 4))
        e = randgen.rand_point(rng, ring, n)
        iota = Involution()
        return phi_involution(j, iota, phi_involution(j, iota, e)) == e

    return run_check("phi-order-two", trials, seed, trial)


def check_phi_chart(ring, n, trials, seed):
    """Chart formulas: the point map of Phi_1 restricts to z -> z*, and
    the hermitian / anti-hermitian / unitary point classes meet the chart
    in z* = z, z* = -z, z* = z^-1."""
    iota = Involution()

    def trial(rng, i):
        z = randgen.rand_matrix(rng, ring, n)
        e = gamma_chart(z)
        if phi_involution(1, iota, e) != gamma_chart(iota.apply(z)):
            return False
        zs = iota.apply(z)
        flags = classify_point(iota, e)
        if flags["hermitian"] != (zs == z):
            return False
        if flags["antihermitian"] != (zs == -z):
            return False
        unit = z.is_invertible() and zs == z.inverse()
        return flags["unitary"] == unit

    return run_check("phi-chart", trials, seed, trial)


def check_phi_equivariance(ring, n, trials, seed):
    """The point map intertwines: phi~(g.E) = Phi(g)^-1 . phi~(E)."""
    iota = Involution()

    def trial(rng, i):
        j = rng.choice((1, 2, 3, 4))
        g = randgen.rand_group_word(rng, ring, n, length=2)
        e = randgen.rand_point(rng, ring, n)
        lhs = phi_involution(j, iota, act_frac(g, e))
        rhs = act_frac(phi_group(j, iota, g), phi_involution(j, iota, e))
        return lhs == rhs

    return run_check("phi-equivariance", trials, seed, trial)


def check_mu_examples(ring, n, trials, seed):

    def trial(rng, i):
        z = randgen.rand_matrix(rng, ring, n)
        r = randgen.rand_unit(rng, ring)
        if r is None:
            return None
        o_plus = base_plus(ring, n)
        gamma0 = base_minus(ring, n)
        if mu_dilation(r, gamma0, o_plus, gamma_chart(z)) != gamma_chart(z.scale(r)):
            return False
        x = randgen.rand_point(rng, ring, n)
        a = _rand_transversal(rng, ring, n, x)
        if a is None:
            return None
        y = _rand_transversal(rng, ring, n, a, first=False)
        if y is None:
            return None
        if mu_dilation(ring.one(), x, a, y) != y:
            return False
        return mu_dilation(-ring.one(), x, a, x) == x

    return run_check("mu-examples", trials, seed, trial)


def check_mu_coherence(ring, n, trials, seed):

    def trial(rng, i):
        x = randgen.rand_point(rng, ring, n)
        a = _rand_transversal(rng, ring, n, x)
        if a is None:
            return None
        y = _rand_transversal(rng, ring, n, a, first=False)
        if y is None:
            return None
        r = randgen.rand_unit(rng, ring)
        s = randgen.rand_unit(rng, ring)
        if r is None or s is None:
            return None
        lhs = mu_dilation(r, x, a, mu_dilation(s, x, a, y))
        return lhs == mu_dilation(r * s, x, a, y)

    return run_check("mu-coherence", trials, seed, trial)


def check_thm34_agreement(ring, n, trials, seed):
    """With the I_{1,1} polarity, the projective multiplication in the
    chart is Q(x) y^-1 = x y^-1 x."""
    space = proj_space_i11(ring, n)

    def trial(rng, i):
        for _ in range(100):
            x = randgen.rand_invertible(rng, ring, n)
            y = randgen.rand_invertible(rng, ring, n)
            if x is None or y is None:
                return None
            try:
                out = space.mul_chart(x, y)
            except (NotInSpace, NotInChart):
                continue
            return out == x @ y.inverse() @ x
        return None

    return run_check("thm34-agreement", trials, seed, trial)


def check_gamma_units_f5():
    """Exhaustive over F_5, n = 1: the non-isotropic set of I_{1,1} meets
    the line exactly in the invertible chart points."""
    ring = PrimeFieldRing(5)

    def trial(rng, i):
        pol = Polarity("linear", S=GroupElement.i11(ring, 1))
        points = [gamma_chart(Matrix(ring, [[ring.from_int(k)]]))
                  for k in range(5)]
        points.append(base_plus(ring, 1))
        want = [k != 0 for k in range(5)] + [False]
        got = [pol.nonisotropic(e) for e in points]
        chart = [point_in_chart(e) for e in points]
        return ((got == want and chart == [True] * 5 + [False])
                or (False, {"got": got, "want": want}))

    return run_check("gamma-units-f5", 1, 0, trial)


# -- symmetric-space checks --------------------------------------------------

def _space(name, ring, n):
    """The symmetric space of the suites called `name`."""
    return {"jordan_units": units_space, "projective": proj_space_swap,
            "group": group_space}[name](ring, n)


def _rand_tangent(rng, space, lo=-randgen.BOX, hi=randgen.BOX):
    """A random tangent vector at the base point: an element of the
    Jordan context of a unit or projective space, a matrix for a group."""
    if hasattr(space, "jctx"):
        return randgen.rand_in_context(rng, space.jctx, lo, hi)
    return randgen.rand_matrix(rng, space.ring, space.n, lo=lo, hi=hi)


def _rand_space_point(rng, space):
    """A random point of the space, as a point object."""
    if isinstance(space, JordanUnitsSpace):
        return randgen.rand_filtered(
            rng, lambda r: randgen.rand_in_context(r, space.jctx),
            space.contains)
    if isinstance(space, GroupSpace):
        return randgen.rand_invertible(rng, space.ring, space.n)
    return randgen.rand_filtered(
        rng, lambda r: gamma_chart(randgen.rand_matrix(r, space.ring, space.jctx.n)),
        space.contains)


def check_m_axioms(space_name, ring, n, trials, seed):
    space = _space(space_name, ring, n)

    def trial(rng, i):
        for _ in range(100):
            pts = [_rand_space_point(rng, space) for _ in range(3)]
            if any(p is None for p in pts):
                return None
            x, y, z = pts
            try:
                if sym_mul(space, x, x) != x:
                    return (False, {"axiom": "M1"})
                mxy = sym_mul(space, x, y)
            except NotInSpace:
                # domain hole of the chart realization of sigma; resample
                continue
            if not space.contains(mxy):
                return (False, {"axiom": "closure"})
            try:
                if sym_mul(space, x, mxy) != y:
                    return (False, {"axiom": "M2"})
                lhs = sym_mul(space, x, sym_mul(space, y, z))
                mxz = sym_mul(space, x, z)
                rhs = sym_mul(space, mxy, mxz)
            except NotInSpace:
                continue
            if lhs != rhs:
                return (False, {"axiom": "M3"})
            return True
        return None

    return run_check(f"m-axioms[{space_name}]", trials, seed, trial)


def literal_units(ctx, x, y):
    """The unit space by the literal Q(x) = 2 L(x)^2 - L(x o x),
    materialized over the ring of ctx, for x and y in V: whether Q(x) is
    invertible, Q(x)^-1 x (None if it is not), and Q(x) Q(y)^-1 y (None
    unless Q(x) and Q(y) both are)."""
    space = ctx.space
    _, qx = rep_operators(ctx, x)
    _, qy = rep_operators(ctx, y)
    x_inv = qx.is_invertible()
    xi = space.from_coords(qx.solve_flat(space.coords(x))) if x_inv else None
    if not (x_inv and qy.is_invertible()):
        return x_inv, xi, None
    yi = space.from_coords(qy.solve_flat(space.coords(y)))
    return x_inv, xi, space.from_coords(qx.apply_flat(space.coords(yi)))


def check_units_literal(ring, n, trials, seed, flavor="hermitian"):
    """The unit space's closed forms against `literal_units`: contains(x)
    is the rank decision of Q(x), jordan_inverse(x) is Q(x)^-1 x and
    mul(x, y) is Q(x) Q(y)^-1 y, or both sides refuse. Coordinates come
    from {-1, 0, 1}, so singular draws are common."""
    ctx = jordan_ctx(ring, n, flavor)
    space = JordanUnitsSpace(ctx)

    def closed(f, *args):
        try:
            return f(*args)
        except (NotInvertible, NotInSpace):
            return None

    def trial(rng, i):
        x = randgen.rand_in_context(rng, ctx, lo=-1, hi=1)
        y = randgen.rand_in_context(rng, ctx, lo=-1, hi=1)
        x_inv, xi, z = literal_units(ctx, x, y)
        if space.contains(x) != x_inv:
            return (False, {"form": "contains"})
        if closed(jordan_inverse, ctx, x) != xi:
            return (False, {"form": "inverse"})
        return closed(space.mul, x, y) == z or (False, {"form": "mul"})

    return run_check(f"units-literal[{flavor}]", trials, seed, trial)


def check_m4_dual(space_name, ring, n, trials, seed):
    """eps-part of sigma_x(x + eps v) is -v, at chart level."""
    space = _space(space_name, ring, n)
    dring = DualRing(ring)
    space_e = space.at_ring(dring)

    def chart_value(rng):
        if isinstance(space, ProjectiveSpace):
            return randgen.rand_filtered(
                rng,
                lambda r: randgen.rand_matrix(r, ring, n),
                lambda z: space.contains(gamma_chart(z)))
        return _rand_space_point(rng, space)

    def trial(rng, i):
        x = chart_value(rng)
        if x is None:
            return None
        v = _rand_tangent(rng, space)
        xe = x.embed(dring)
        lifted = dual_combine(x, v)
        try:
            out = space_e.mul_chart(xe, lifted)
        except (NotInSpace, NotInChart):
            return None
        re, eps = dual_split(out)
        return re == x and eps == -v

    return run_check(f"m4-dual[{space_name}]", trials, seed, trial)


def check_fiber_law(space_name, ring, n, trials, seed):
    """Tm(v, w) = 2v - w on the tangent fiber of the base point."""
    space = _space(space_name, ring, n)
    dring = DualRing(ring)
    space_e = space.at_ring(dring)
    o = space.o_chart
    two = ring.from_int(2)

    def trial(rng, i):
        v, w = (_rand_tangent(rng, space) for _ in range(2))
        out = space_e.mul_chart(dual_combine(o, v), dual_combine(o, w))
        re, eps = dual_split(out)
        return re == o and eps == v.scale(two) - w

    return run_check(f"fiber-law[{space_name}]", trials, seed, trial)


def check_tilde_field(ring, n, trials, seed):
    """tilde v is the linear field v o p on the unit space, and equals v
    at the base point for all contexts."""
    spaces = [units_space(ring, n), group_space(ring, n),
              proj_space_swap(ring, n)]

    def trial(rng, i):
        u = spaces[0]
        v = randgen.rand_in_context(rng, u.jctx)
        p = _rand_space_point(rng, u)
        if p is None:
            return None
        if tilde_field(u, v, p) != jordan_product(u.jctx, v, p):
            return False
        for sp in spaces:
            vv = _rand_tangent(rng, sp)
            if tilde_field(sp, vv, sp.o_chart) != vv:
                return False
        return True

    return run_check("tilde-field", trials, seed, trial)


def numeric_lts(space, u, v, w):
    """[[u~, v~], w~](o) computed from Eq.-style chart brackets with
    nested dual layers."""
    def handle(vec, tag):
        return calculus.MapHandle(
            tag, lambda ring, p: tilde_field(space, vec, p))

    ut, vt, wt = handle(u, "u~"), handle(v, "v~"), handle(w, "w~")
    inner = calculus.field_bracket(ut, vt)
    outer = calculus.field_bracket(inner, wt)
    o = space.o_chart
    return outer(o.ring, o)


def check_lts_axioms(space_name, ring, n, trials, seed):
    space = _space(space_name, ring, n)

    def trial(rng, i):
        u, v, w = (_rand_tangent(rng, space) for _ in range(3))
        if not lts_bracket(space, u, u, w).is_zero():
            return (False, {"axiom": "alternating"})
        if lts_bracket(space, u, v, w) != -lts_bracket(space, v, u, w):
            return (False, {"axiom": "antisymmetry"})
        jac = (lts_bracket(space, u, v, w) + lts_bracket(space, v, w, u)
               + lts_bracket(space, w, u, v))
        if not jac.is_zero():
            return (False, {"axiom": "jacobi"})
        a, b, c = (_rand_tangent(rng, space) for _ in range(3))
        lhs = lts_bracket(space, u, v, lts_bracket(space, a, b, c))
        rhs = (lts_bracket(space, lts_bracket(space, u, v, a), b, c)
               + lts_bracket(space, a, lts_bracket(space, u, v, b), c)
               + lts_bracket(space, a, b, lts_bracket(space, u, v, c)))
        if lhs != rhs:
            return (False, {"axiom": "derivation"})
        return True

    return run_check(f"lts-axioms[{space_name}]", trials, seed, trial)


def check_lts_numeric(space_name, ring, n, trials, seed):
    space = _space(space_name, ring, n)

    def trial(rng, i):
        u, v, w = (_rand_tangent(rng, space, -1, 1) for _ in range(3))
        try:
            got = numeric_lts(space, u, v, w)
        except calculus.DomainViolation:
            return None
        return got == lts_bracket(space, u, v, w)

    return run_check(f"lts-numeric[{space_name}]", trials, seed, trial)


def check_unitary_closure(ring, trials, seed, n=2):
    space = unitary_space(ring, n)

    def trial(rng, i):
        x = randgen.rand_orthogonal2(rng, ring)
        y = randgen.rand_orthogonal2(rng, ring)
        m = sym_mul(space, x, y)
        return space.contains(m)

    return run_check("unitary-closure", trials, seed, trial)


def check_unitary_cayley_agreement(ring, trials, seed, n=2):
    """The group multiplication on the unitary group agrees with the
    projective one (swap polarity) transported through the Cayley chart."""
    space = unitary_space(ring, n)
    proj = proj_space_swap(ring, n)
    c = GroupElement.cayley(ring, n)

    def trial(rng, i):
        for _ in range(100):
            x = randgen.rand_orthogonal2(rng, ring)
            y = randgen.rand_orthogonal2(rng, ring)
            cx = act_frac(c, gamma_chart(x))
            cy = act_frac(c, gamma_chart(y))
            if not (proj.contains(cx) and proj.contains(cy)):
                continue
            try:
                got = proj.mul(cx, cy)
            except NotInSpace:
                continue
            m = sym_mul(space, x, y)
            return got == act_frac(c, gamma_chart(m))
        return None

    return run_check("unitary-cayley-agreement", trials, seed, trial)


def check_exp_tanh_scalar(trials, seed, order=24, tol=1e-12):
    """Scalar float64 case against math.tanh."""
    space = proj_space_swap(FLOAT64, 1, flavor="hermitian")

    def trial(rng, i):
        t = rng.uniform(-0.5, 0.5)
        v = Matrix(FLOAT64, [[t]])
        e = exp_tanh(space, v, order)
        got = chart_coords(e)[0, 0]
        return abs(got - math.tanh(t)) <= tol

    return run_check("exp-tanh-scalar", trials, seed, trial)


def check_exp_tanh_doubling(trials, seed, n=2, order=24, tol=1e-10):
    """m(Exp(v), o) = Exp(2v) on Sym_2(R) for small v."""
    space = proj_space_swap(FLOAT64, n, flavor="hermitian")

    def rand_small_sym(rng):
        a, b, c = (rng.uniform(-0.25, 0.25) for _ in range(3))
        return Matrix(FLOAT64, [[a, b], [b, c]])

    def trial(rng, i):
        v = rand_small_sym(rng) if n == 2 else Matrix(FLOAT64, [[rng.uniform(-0.5, 0.5)]])
        ev = exp_tanh(space, v, order)
        e2v = exp_tanh(space, v.scale(2.0), order)
        try:
            m = sym_mul(space, ev, space.o)
        except NotInSpace:
            return None
        diff = chart_coords(m) - chart_coords(e2v)
        return diff.max_abs() <= tol

    return run_check("exp-tanh-doubling", trials, seed, trial)


def check_exp_tanh_zero(order=24):
    space = proj_space_swap(FLOAT64, 2, flavor="hermitian")

    def trial(rng, i):
        return exp_tanh(space, Matrix.zeros(FLOAT64, 2), order) == space.o

    return run_check("exp-tanh-zero", 1, 0, trial)


def check_midpoint_law(trials, seed, order=24, tol=1e-9):
    """transvection(gamma(1/2), gamma(0)) maps gamma(0) to gamma(1) for
    the geodesic gamma(t) = Exp(t v)."""
    space = proj_space_swap(FLOAT64, 1, flavor="hermitian")

    def trial(rng, i):
        t = rng.uniform(-0.4, 0.4)
        v = Matrix(FLOAT64, [[t]])
        g0 = space.o
        mid = exp_tanh(space, v.scale(0.5), order)
        end = exp_tanh(space, v, order)
        tv = transvection(space, mid, g0)
        got = tv(g0)
        return (chart_coords(got) - chart_coords(end)).max_abs() <= tol

    return run_check("midpoint-law", trials, seed, trial)


# -- calculus checks ---------------------------------------------------------

def check_deriv_act(ring, n, trials, seed):
    """d(act(g, .))(x) v = d_g(x)^-1 v."""

    def trial(rng, i):
        for _ in range(50):
            g = randgen.rand_group_word(rng, ring, n, length=rng.randint(1, 2))
            x = randgen.rand_matrix(rng, ring, n)
            if not in_chart(g, x):
                continue
            v = randgen.rand_matrix(rng, ring, n)
            law = calculus.act_law(g)
            return (calculus.dual_derivative(law.handle, x, v)
                    == law.expected(x, v))
        return None

    return run_check("deriv-act", trials, seed, trial)


def law_check(name, law, trials, seed, tol=1e-9):
    """Agreement of the dual derivative with a calculus.DerivativeLaw's
    closed form at the law's sample from each trial's stream: exact over
    exact rings; over float rings within `tol` in every coordinate, with
    the largest deviation recorded in max_deviation. A trial whose sample
    finds no point, or whose evaluation leaves the lifted domain
    (DomainViolation), is skipped."""
    devs = []

    def trial(rng, i):
        pair = law.sample(rng)
        if pair is None:
            return None
        try:
            got = calculus.dual_derivative(law.handle, *pair)
            want = law.expected(*pair)
        except DomainViolation:
            return None
        if got.ring.is_exact():
            return got == want
        devs.append((got - want).max_abs())
        return devs[-1] <= tol

    res = run_check(name, trials, seed, trial)
    if devs:
        res.max_deviation = max(devs)
    return res


def check_deriv_jordan_inverse(ring, n, trials, seed, flavor="hermitian"):
    """dj(x) v = -Q(x)^-1 v."""
    ctx = jordan_ctx(ring, n, flavor)
    return law_check(f"deriv-jordan-inverse[{flavor}]",
                     calculus.jordan_inverse_law(ctx), trials, seed)


def check_deriv_alg_inverse(ring, n, trials, seed):
    """di(x) v = -x^-1 v x^-1."""
    return law_check("deriv-alg-inverse", calculus.alg_inverse_law(ring, n),
                     trials, seed)


def check_deriv_quasi_at_zero(ring, n, trials, seed):
    """The x-derivative of the quasi-inverse at x = 0 is the identity."""
    ctx = jordan_ctx(ring, n)

    def trial(rng, i):
        y = randgen.rand_matrix(rng, ring, n)
        f = calculus.quasi_inverse_in_first(ctx, y)
        v = randgen.rand_matrix(rng, ring, n)
        zero = Matrix.zeros(ring, n)
        return calculus.dual_derivative(f, zero, v) == v

    return run_check("deriv-quasi-at-zero", trials, seed, trial)


def check_differential_linearity(ring, n, trials, seed):
    ctx = jordan_ctx(ring, n)

    def handles(rng):
        y = randgen.rand_matrix(rng, ring, n)
        return [calculus.squaring(), calculus.alg_inversion(),
                calculus.quasi_inverse_in_first(ctx, y)]

    def trial(rng, i):
        f = rng.choice(handles(rng))
        x = randgen.rand_invertible(rng, ring, n)
        if x is None:
            return None
        v = randgen.rand_matrix(rng, ring, n)
        w = randgen.rand_matrix(rng, ring, n)
        a = randgen.rand_scalar(rng, ring)
        b = randgen.rand_scalar(rng, ring)
        try:
            lhs = calculus.dual_derivative(f, x, v.scale(a) + w.scale(b))
            rhs = (calculus.dual_derivative(f, x, v).scale(a)
                   + calculus.dual_derivative(f, x, w).scale(b))
        except calculus.DomainViolation:
            return None
        return lhs == rhs

    return run_check("differential-linearity", trials, seed, trial)


def check_chain_rule(ring, n, trials, seed):
    """T(g o f) = Tg o Tf on composable built-ins."""

    def trial(rng, i):
        a = randgen.rand_matrix(rng, ring, n)
        f = calculus.squaring()
        g = calculus.linear_map(a)
        h = calculus.compose(g, f)
        x = randgen.rand_matrix(rng, ring, n)
        v = randgen.rand_matrix(rng, ring, n)
        fx, dfv = calculus.tangent_map(f, x, v)
        gfx, dgdf = calculus.tangent_map(g, fx, dfv)
        hx, dhv = calculus.tangent_map(h, x, v)
        if (hx, dhv) != (gfx, dgdf):
            return False
        k = calculus.compose(calculus.alg_inversion(), f)
        if not x.is_invertible() or not (x @ x).is_invertible():
            return True
        ifx, didf = calculus.tangent_map(calculus.alg_inversion(), fx, dfv)
        kx, dkv = calculus.tangent_map(k, x, v)
        return (kx, dkv) == (ifx, didf)

    return run_check("chain-rule", trials, seed, trial)


def check_schwarz(ring, n, trials, seed):
    """Symmetry of second derivatives through nested duals."""

    def trial(rng, i):
        f = calculus.alg_inversion()
        x = randgen.rand_invertible(rng, ring, n)
        if x is None:
            return None
        v = randgen.rand_matrix(rng, ring, n)
        w = randgen.rand_matrix(rng, ring, n)

        def second(a, b):
            g = calculus.MapHandle(
                "d_b",
                lambda rr, p: calculus.dual_derivative(f, p, b.embed(rr)))
            return calculus.dual_derivative(g, x, a)

        return second(v, w) == second(w, v)

    return run_check("schwarz", trials, seed, trial)


def check_quotient_rule(ring, n, trials, seed):
    """For F(x) = B(x,a)^-1 v: dF(x)h = -B^-1 (d_h B) B^-1 v."""
    ctx = jordan_ctx(ring, n)
    dring = DualRing(ring)

    def trial(rng, i):
        a = randgen.rand_matrix(rng, ring, n)
        v = randgen.rand_matrix(rng, ring, n)
        x = randgen.rand_matrix(rng, ring, n)
        h = randgen.rand_matrix(rng, ring, n)
        b = bergman_operator(ctx, x, a)
        if not b.is_invertible():
            return None
        f = calculus.bergman_inverse_apply(ctx, a, v)
        try:
            got = calculus.dual_derivative(f, x, h)
        except calculus.DomainViolation:
            return None
        ctx_e = ctx.at_ring(dring)
        b_eps = bergman_operator(ctx_e, dual_combine(x, h), a.embed(dring))
        _, db = dual_split(b_eps.mat)
        binv_v = b.solve_flat(ctx.space.coords(v))
        mid = LinearOperator(db).apply_flat(binv_v)
        want = -ctx.space.from_coords(b.solve_flat(mid))
        return got == want

    return run_check("quotient-rule", trials, seed, trial)


def check_c1_forms(ring, n, trials, seed):
    """Difference quotients match the closed f^[1] forms, whose value at
    t = 0 is the dual derivative: the quotient is the restriction of a
    single map."""

    def trial(rng, i):
        x = randgen.rand_invertible(rng, ring, n)
        if x is None:
            return None
        h = randgen.rand_matrix(rng, ring, n)
        ts = [ring.from_int(1), ring.half(),
              ring.invert(ring.from_int(4))]
        sq = calculus.squaring_law(ring, n)
        dsq = sq.expected(x, h)
        for t in ts:
            want = dsq + (h @ h).scale(t)
            if calculus.diff_quotient(sq.handle, x, h, t) != want:
                return False
        if calculus.dual_derivative(sq.handle, x, h) != dsq:
            return False
        inv = calculus.alg_inverse_law(ring, n)
        xi = x.inverse()
        for t in ts:
            xt = x + h.scale(t)
            if not xt.is_invertible():
                continue
            want = -(xi @ h @ xt.inverse())
            if calculus.diff_quotient(inv.handle, x, h, t) != want:
                return False
        if calculus.dual_derivative(inv.handle, x, h) != inv.expected(x, h):
            return False
        v = randgen.rand_matrix(rng, ring, n)
        tr = calculus.group_action(GroupElement.exp_ad(v, 1))
        for t in ts:
            if calculus.diff_quotient(tr, x, h, t) != h:
                return False
        return calculus.dual_derivative(tr, x, h) == h

    return run_check("c1-forms", trials, seed, trial)


def check_bracket_fields(ring, trials, seed):
    """Chart bracket of linear fields: [Av, Bv](x) = B(Ax) - A(Bx)."""
    n = 2

    def trial(rng, i):
        a = randgen.rand_matrix(rng, ring, n)
        b = randgen.rand_matrix(rng, ring, n)
        fa = calculus.linear_map(a, "A")
        fb = calculus.linear_map(b, "B")
        x = randgen.rand_matrix(rng, ring, n, 1)
        got = calculus.lie_bracket_fields(fa, fb, x)
        return got == b @ (a @ x) - a @ (b @ x)

    return run_check("bracket-fields", trials, seed, trial)


# -- suite registry ----------------------------------------------------------

@dataclass
class SuiteConfig:
    suite: str
    ring: object = RATIONAL
    n: int = 2
    trials: int = 50
    seed: int = 1
    tol: float = 1e-9
    order: int = 24


@dataclass
class SuiteReport:
    suite: str
    checks: list = field(default_factory=list)
    wall_time: float = 0.0
    config: dict = field(default_factory=dict)

    @property
    def passed(self):
        return sum(c.passed for c in self.checks)

    @property
    def failed(self):
        return sum(c.failed for c in self.checks)

    @property
    def skipped(self):
        return sum(c.skipped for c in self.checks)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def first_counterexample(self):
        for c in self.checks:
            if c.first_counterexample is not None:
                return {"check": c.name, "inputs": c.first_counterexample}
        return None

    def to_json(self):
        out = {"suite": self.suite, "passed": self.passed,
               "failed": self.failed, "skipped": self.skipped,
               "config": self.config,
               "checks": [c.to_json() for c in self.checks],
               "wall_time": self.wall_time}
        ce = self.first_counterexample()
        if ce is not None:
            out["first_counterexample"] = ce
        return out


class Check(NamedTuple):
    """One check of a suite: `fn(*args)` given, by name, the SuiteConfig
    fields in `reads`, the flavor when set and, unless the check is
    one-shot (`per` None), the seed and the trials: the suite's t, or
    max(1, t // per) when per > 1, at most `cap`."""
    fn: Callable
    args: tuple = ()
    flavor: str | None = None
    per: int | None = 1
    cap: float = math.inf
    reads: tuple = ("ring", "n")

    def run(self, cfg):
        kw = {f: getattr(cfg, f) for f in self.reads}
        if self.flavor is not None:
            kw["flavor"] = self.flavor
        if self.per is not None:
            t = cfg.trials if self.per == 1 else max(1, cfg.trials // self.per)
            kw.update(trials=min(t, self.cap), seed=cfg.seed)
        return self.fn(*self.args, **kw)


EXACT = ("rational", "prime_field")

# Each suite: the ring kinds it runs over, then its checks in report order.
SUITES = {
    "fundamental": (EXACT, (
        Check(check_jordan_identity, flavor="full"),
        Check(check_jordan_identity, flavor="hermitian"),
        Check(check_fundamental_formula, flavor="full"),
        Check(check_fundamental_formula, flavor="hermitian"),
        Check(check_rep_oracle, flavor="full"),
        Check(check_l_inverse, flavor="hermitian"),
        Check(check_l_inverse, flavor="full"))),
    "jordan-pair": (EXACT, (
        Check(check_pair_identities, flavor="full"),
        Check(check_pair_identities, flavor="hermitian"),
        Check(check_triple_vs_gl2))),
    "bergman": (EXACT, (
        Check(check_bergman_coherence, flavor="full"),
        Check(check_bergman_coherence, flavor="hermitian"),
        Check(check_quasi_full_oracle))),
    "cocycle": (EXACT, (Check(check_cocycle),)),
    "thm46": (EXACT, (
        Check(check_quasi_vs_act),
        Check(check_act_chart_agreement),
        Check(check_translation_action),
        Check(check_exp_ad_conjugation),
        Check(check_ad_multiplicative, cap=100))),
    "m-axioms": (EXACT, (
        Check(check_m_axioms, ("jordan_units",)),
        Check(check_m4_dual, ("jordan_units",)),
        Check(check_fiber_law, ("jordan_units",), per=2),
        Check(check_m_axioms, ("projective",)),
        Check(check_m4_dual, ("projective",)),
        Check(check_fiber_law, ("projective",), per=2),
        Check(check_m_axioms, ("group",)),
        Check(check_m4_dual, ("group",)),
        Check(check_fiber_law, ("group",), per=2),
        Check(check_tilde_field, per=2),
        Check(check_units_literal, flavor="full"),
        Check(check_units_literal, flavor="hermitian"))),
    "lts": (EXACT, (
        Check(check_lts_axioms, ("jordan_units",), per=2),
        Check(check_lts_numeric, ("jordan_units",), per=4),
        Check(check_lts_axioms, ("projective",), per=2),
        Check(check_lts_numeric, ("projective",), per=4),
        Check(check_lts_axioms, ("group",), per=2),
        Check(check_lts_numeric, ("group",), per=4))),
    "derivative-laws": (EXACT, (
        Check(check_deriv_act),
        Check(check_deriv_jordan_inverse),
        Check(check_deriv_alg_inverse),
        Check(check_deriv_quasi_at_zero),
        Check(check_differential_linearity),
        Check(check_chain_rule),
        Check(check_schwarz),
        Check(check_quotient_rule, per=2),
        Check(check_c1_forms, per=2),
        Check(check_bracket_fields, reads=("ring",)))),
    "cayley": (("rational",), (
        Check(check_cayley_identities, per=None),
        Check(check_cayley_transport, reads=("ring",)))),
    "phi": (EXACT, (
        Check(check_phi_antiautomorphism),
        Check(check_phi_order_two),
        Check(check_phi_complement_independence, per=2),
        Check(check_phi_chart),
        Check(check_phi_equivariance, per=2))),
    # check_exp_tanh_scalar and _doubling keep their own, tighter tol
    "exp-tanh": (("float64",), (
        Check(check_exp_tanh_zero, per=None, reads=("order",)),
        Check(check_exp_tanh_scalar, reads=("order",)),
        Check(check_exp_tanh_doubling, reads=("order",)),
        Check(check_midpoint_law, per=2, reads=("order", "tol")))),
    "unitary": (("rational",), (
        Check(check_unitary_closure, reads=("ring",)),
        Check(check_unitary_cayley_agreement, reads=("ring",)))),
    "mu": (EXACT, (
        Check(check_mu_examples),
        Check(check_mu_coherence),
        Check(check_thm34_agreement),
        Check(check_gamma_units_f5, per=None, reads=()),
        Check(check_frac_group_action))),
}


def suite_options(name):
    """The SuiteConfig fields suite `name` reads beyond ring, trials and
    seed: those its checks receive."""
    return {f for c in SUITES[name][1] for f in c.reads} - {"ring"}


def run_suite(cfg):
    rings, checks = SUITES[cfg.suite]
    if cfg.ring.kind not in rings:
        raise ValueError(
            f"suite {cfg.suite!r} does not support ring kind {cfg.ring.kind!r}")
    conf = {"ring": ring_to_json(cfg.ring), "n": cfg.n, "trials": cfg.trials,
            "seed": cfg.seed, "tol": cfg.tol, "order": cfg.order,
            # every check uses the ad sign convention (see jordan.py)
            "convention": "ad"}
    t0 = time.perf_counter()
    results = [c.run(cfg) for c in checks]
    return SuiteReport(cfg.suite, results, time.perf_counter() - t0, conf)
