"""Seeded verification suites.

Each check is declared by its trial. `trial_check` turns `def
check_x(rng, i, env)`, whose shared state `env` a named setup builds once
per call, or `def check_x(rng, i, ring, n, **options)` when there is none,
into the public `check_x(*args, trials, seed, **options)`, which returns
a CheckResult; args are `(ring, n)` for most checks and `(space_name,
ring, n)` for the symmetric-space ones. Each trial draws from a
substream keyed by (seed, trial); a trial whose draws miss its
precondition returns `RESAMPLE`, and `run_check`, the one trial loop,
runs it again on the same stream, up to RESAMPLE_CAP runs, then skips
it. `SUITES`, one table, holds each suite's ring kinds and checks;
`run_suite`, the CLI and the tests read it. The acceptance tests call the
same checks with their own trial counts and tolerances.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from . import calculus, jordan, randgen
from .algebra import (Involution, LinearOperator, Matrix, dual_combine,
                      dual_split, op_solve)
from .errors import (DomainViolation, NotInChart, NotInSpace, NotInvertible,
                     NotQuasiInvertible)
from .graded import (GroupElement, act, act_literal, ad_bracket, ad_operator,
                     check, denominators, hat, in_chart, pr1)
from .jordan import (JordanContext, bergman_closed, bergman_operator,
                     jordan_inverse, jordan_product, mult_operator,
                     quasi_inverse, quasi_inverse_literal, rep_operators,
                     triple_product)
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


# A trial's answer when its draws miss a precondition: run it again on the
# same stream, at most RESAMPLE_CAP runs per trial.
RESAMPLE = object()
RESAMPLE_CAP = 100


def run_check(name, trials, seed, trial_fn):
    """trial_fn(rng, i) -> True | False | None (skip) | (False, info) |
    RESAMPLE (run again, the RESAMPLE_CAP-th RESAMPLE skips).

    Each trial draws from the substream keyed by (seed, trial), so a
    reported counterexample is reproducible from those two numbers.
    """
    res = CheckResult(name, trials)
    for i in range(trials):
        rng = randgen.trial_rng(seed, i)
        for _ in range(RESAMPLE_CAP):
            out = trial_fn(rng, i)
            if out is not RESAMPLE:
                break
        else:
            out = None
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


def trial_check(name, setup=None, **defaults):
    """Declare a check by its trial: `trial(rng, i, env)` with `env =
    setup(*args, **options)` built once per call, or `trial(rng, i, *args,
    **options)`. The public check takes args (the parameters of the setup,
    else of the trial after rng and i, without a default), trials and seed,
    then by name the options (those with one; `defaults` overrides it). Its
    report is `name` formatted with them: "jordan-identity[{flavor}]"."""
    def declare(trial):
        params = list(inspect.signature(setup or trial).parameters.values())
        params = params if setup else params[2:]
        names = tuple(p.name for p in params if p.default is p.empty)
        names += ("trials", "seed")
        options = {p.name: p.default for p in params
                   if p.default is not p.empty}
        options.update(defaults)

        @functools.wraps(trial)
        def public(*args, **kw):
            if len(args) > len(names):
                raise TypeError(f"{trial.__name__}() takes positional {names}")
            kw = {**options, **kw, **dict(zip(names, args))}
            trials, seed = kw.pop("trials"), kw.pop("seed")
            if setup is None:
                trial_fn = functools.partial(trial, **kw)
            else:
                env = setup(**kw)
                trial_fn = lambda rng, i: trial(rng, i, env)  # noqa: E731
            return run_check(name.format(**kw), trials, seed, trial_fn)

        kind = inspect.Parameter
        public.__signature__ = inspect.Signature(
            [kind(p, kind.POSITIONAL_OR_KEYWORD) for p in names]
            + [kind(p, kind.KEYWORD_ONLY, default=v)
               for p, v in options.items()])
        return public
    return declare


# -- context builders --------------------------------------------------------

def jordan_ctx(ring, n, flavor="full"):
    """The Jordan context of `flavor`; the restricted flavors use the
    transpose involution."""
    return JordanContext(n, ring, flavor,
                         None if flavor == "full" else Involution())


def full_ctx(ring, n):
    """M_n(K), the Jordan context of the checks that take no flavor."""
    return jordan_ctx(ring, n)


def units_space(ring, n, flavor="hermitian"):
    return JordanUnitsSpace(jordan_ctx(ring, n, flavor))


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


def _outcome(refusals, f, *args):
    """f(*args), or None when f refuses with one of `refusals`."""
    try:
        return f(*args)
    except refusals:
        return None


# -- jordan-algebra checks ---------------------------------------------------

@trial_check("jordan-identity[{flavor}]", jordan_ctx)
def check_jordan_identity(rng, i, ctx):
    x, y = (randgen.rand_in_context(rng, ctx) for _ in range(2))
    xx = jordan_product(ctx, x, x)
    lhs = jordan_product(ctx, x, jordan_product(ctx, xx, y))
    rhs = jordan_product(ctx, xx, jordan_product(ctx, x, y))
    return lhs == rhs


@trial_check("fundamental-formula[{flavor}]", jordan_ctx)
def check_fundamental_formula(rng, i, ctx):
    x, y = (randgen.rand_in_context(rng, ctx) for _ in range(2))
    _, qx = rep_operators(ctx, x)
    _, qy = rep_operators(ctx, y)
    qxy = ctx.space.from_coords(qx.apply_flat(ctx.space.coords(y)))
    _, lhs = rep_operators(ctx, qxy)
    rhs = qx.compose(qy).compose(qx)
    return lhs == rhs


@trial_check("l-inverse[{flavor}]", jordan_ctx, flavor="hermitian")
def check_l_inverse(rng, i, ctx):
    x = randgen.rand_filtered(
        rng, lambda r: randgen.rand_in_context(r, ctx),
        Matrix.is_invertible)
    if x is None:
        return None
    xi = jordan_inverse(ctx, x)
    if jordan_product(ctx, x, xi) != ctx.unit():
        return False
    lx = mult_operator(ctx, x)
    lxi = mult_operator(ctx, xi)
    return lx.compose(lxi) == lxi.compose(lx)


@trial_check("rep-oracle[{flavor}]", jordan_ctx)
def check_rep_oracle(rng, i, ctx):
    """Q(x) from 2L^2 - L(x^2) agrees with the associative oracle xwx,
    and Q(x,x) = 2 Q(x)."""
    x, w = (randgen.rand_in_context(rng, ctx) for _ in range(2))
    _, qx, qxx = rep_operators(ctx, x, x)
    lhs = ctx.space.from_coords(qx.apply_flat(ctx.space.coords(w)))
    if lhs != x @ w @ x:
        return False
    return qxx == qx.scale(ctx.ring.from_int(2))


@trial_check("pair-identities[{flavor}]", jordan_ctx)
def check_pair_identities(rng, i, ctx):
    """Outer symmetry and the five-term identity of the triple product."""
    def t(a, b, c):
        return triple_product(ctx, a, b, c)

    x, y, u, v, w = (randgen.rand_in_context(rng, ctx) for _ in range(5))
    if t(x, y, u) != t(u, y, x):
        return False
    lhs = t(x, y, t(u, v, w))
    rhs = t(t(x, y, u), v, w) - t(u, t(y, x, v), w) + t(u, v, t(x, y, w))
    return lhs == rhs


@trial_check("triple-vs-gl2", full_ctx)
def check_triple_vs_gl2(rng, i, ctx):
    """T(x,y,z) equals the double bracket [[x^, y^], z^] in gl_2(A)."""
    x, y, z = (randgen.rand_matrix(rng, ctx.ring, ctx.n) for _ in range(3))
    db = ad_bracket(ad_bracket(hat(x), check(y)), hat(z))
    return pr1(db, ctx.n) == triple_product(ctx, x, y, z)


@trial_check("bergman-coherence[{flavor}]", jordan_ctx)
def check_bergman_coherence(rng, i, ctx):
    x, y = (randgen.rand_in_context(rng, ctx) for _ in range(2))
    return bergman_operator(ctx, x, y) == bergman_closed(ctx, x, y)


@trial_check("quasi-full-oracle", full_ctx)
def check_quasi_full_oracle(rng, i, ctx):
    """The literal quasi-inverse B(x,y)^-1 (x + Q(x)y) equals x(1+yx)^-1
    in the full flavor."""
    pair = randgen.rand_quasi_invertible(rng, ctx)
    if pair is None:
        return None
    x, y = pair
    return (quasi_inverse_literal(ctx, x, y)
            == jordan.full_quasi_inverse_oracle(ctx, x, y))


@trial_check("quasi-closed[{flavor}]", jordan_ctx)
def check_quasi_closed(rng, i, ctx):
    """quasi_inverse, the closed form x(1+yx)^-1, equals the literal
    B(x,y)^-1 (x + Q(x)y), and both refuse the same pairs. An odd trial
    with an invertible x takes y = w - x^-1, so that 1 + yx = wx is
    singular exactly when w is: w = 0 (y = -x^-1) on trials 1, 5, 9, ...
    and a draw from [-1, 1] on trials 3, 7, 11, ..."""
    x, y = (randgen.rand_in_context(rng, ctx) for _ in range(2))
    if i % 2 and x.is_invertible():
        w = (ctx.zero() if i % 4 == 1
             else randgen.rand_in_context(rng, ctx, -1, 1))
        y = w - x.inverse()
    return (_outcome(NotQuasiInvertible, quasi_inverse, ctx, x, y)
            == _outcome(NotQuasiInvertible, quasi_inverse_literal, ctx, x, y))


@trial_check("quasi-vs-act", full_ctx)
def check_quasi_vs_act(rng, i, ctx):
    """quasi_inverse(x, y) = act(exp_ad(y, -1), x), including agreement
    of the failure predicates."""
    x, y = (randgen.rand_matrix(rng, ctx.ring, ctx.n) for _ in range(2))
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


# -- graded / group checks ---------------------------------------------------

@trial_check("exp-ad-conjugation")
def check_exp_ad_conjugation(rng, i, ring, n):
    """Conjugation by exp_ad(v, deg) equals 1 + ad + ad^2/2 on gl_2."""
    v = randgen.rand_matrix(rng, ring, n)
    deg = rng.choice((1, -1))
    g = GroupElement.exp_ad(v, deg)
    vh = hat(v) if deg == 1 else check(v)
    x = randgen.rand_matrix(rng, ring, 2 * n)
    return g.ad(x) == (x + ad_bracket(vh, x)
                       + ad_bracket(vh, ad_bracket(vh, x)).scale(ring.half()))


@trial_check("ad-multiplicative")
def check_ad_multiplicative(rng, i, ring, n):
    g, h = (randgen.rand_group_word(rng, ring, n, length=2) for _ in range(2))
    return ad_operator(g @ h) == ad_operator(g).compose(ad_operator(h))


@trial_check("cocycle")
def check_cocycle(rng, i, ring, n):
    """d_{fh}(x) = d_h(x) d_f(h.x) whenever h.x stays in the chart."""
    f = randgen.rand_group_word(rng, ring, n, length=rng.randint(1, 2))
    h = randgen.rand_group_word(rng, ring, n, length=rng.randint(1, 2))
    x = randgen.rand_matrix(rng, ring, n)
    try:
        hx = act(h, x)
    except NotInChart:
        return RESAMPLE
    d_fh = denominators(f @ h, x)[0]
    d_h = denominators(h, x)[0]
    d_f_hx = denominators(f, hx)[0]
    return d_fh == d_h.compose(d_f_hx)


@trial_check("act-chart-agreement")
def check_act_chart_agreement(rng, i, ring, n):
    """act, its fractional form, and act_literal, its denominator solve,
    both agree with the fractional point action, refusals included: each
    refuses exactly when g.Gamma_z leaves the chart."""
    g = randgen.rand_group_word(rng, ring, n, length=rng.randint(1, 3))
    z = randgen.rand_matrix(rng, ring, n)
    gz = act_frac(g, gamma_chart(z))
    if in_chart(g, z) != point_in_chart(gz):
        return (False, {"reason": "chart predicate mismatch", "trial": i})
    want = _outcome(NotInChart, chart_coords, gz)
    return all(_outcome(NotInChart, f, g, z) == want
               for f in (act, act_literal))


@trial_check("translation-action")
def check_translation_action(rng, i, ring, n):
    v, x = (randgen.rand_matrix(rng, ring, n) for _ in range(2))
    if act(GroupElement.exp_ad(v, 1), x) != x + v:
        return False
    d, c, nval = denominators(GroupElement.identity(ring, n), x)
    ident = LinearOperator.identity(ring, n * n)
    return d == ident and c == ident and nval == x


# -- projective-line checks --------------------------------------------------

@trial_check("frac-group-action")
def check_frac_group_action(rng, i, ring, n):
    g, h = (randgen.rand_group_word(rng, ring, n, length=2) for _ in range(2))
    e = randgen.rand_point(rng, ring, n)
    return act_frac(g @ h, e) == act_frac(g, act_frac(h, e))


def check_cayley_identities(ring, n):
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
    return run_check("cayley-identities", 1, 0, lambda rng, i: ok or (
        False, {"identity": "cayley block"}))


def cayley2(ring):
    """The Cayley element C of the projective line over M_2(K)."""
    return GroupElement.cayley(ring, 2)


@trial_check("cayley-transport", cayley2)
def check_cayley_transport(rng, i, c):
    """C maps unitary points to anti-hermitian points and C^-1 maps them
    back (the two lines are isomorphic)."""
    iota = Involution()
    ring = c.ring
    e_un = gamma_chart(randgen.rand_orthogonal2(rng, ring))
    if not classify_point(iota, e_un)["unitary"]:
        return (False, {"reason": "sample not unitary"})
    e_ah = act_frac(c, e_un)
    if not classify_point(iota, e_ah)["antihermitian"]:
        return False
    t = randgen.rand_scalar(rng, ring)
    skew = Matrix(ring, [[ring.zero(), t], [-t, ring.zero()]])
    back = act_frac(c.inverse(), gamma_chart(skew))
    return classify_point(iota, back)["unitary"]


@trial_check("phi-antiautomorphism")
def check_phi_antiautomorphism(rng, i, ring, n):
    """Phi_j are K-linear anti-automorphisms of order 2 on M_2(A)."""
    iota = Involution()
    j = rng.choice((1, 2, 3, 4))
    x, y = (randgen.rand_matrix(rng, ring, 2 * n) for _ in range(2))
    pxy = phi_matrix(j, iota, x @ y, n)
    if pxy != phi_matrix(j, iota, y, n) @ phi_matrix(j, iota, x, n):
        return False
    return phi_matrix(j, iota, phi_matrix(j, iota, x, n), n) == x


def _rand_transversal(rng, ring, n, e):
    """A random point transversal to the point e, or None."""
    return randgen.rand_filtered(
        rng, lambda r: randgen.rand_point(r, ring, n),
        lambda f: transversal(e, f))


@trial_check("phi-complement-independence")
def check_phi_complement_independence(rng, i, ring, n, complements=5):
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


@trial_check("phi-order-two")
def check_phi_order_two(rng, i, ring, n):
    j = rng.choice((1, 2, 3, 4))
    e = randgen.rand_point(rng, ring, n)
    iota = Involution()
    return phi_involution(j, iota, phi_involution(j, iota, e)) == e


@trial_check("phi-chart")
def check_phi_chart(rng, i, ring, n):
    """Chart formulas: the point map of Phi_1 restricts to z -> z*, and
    the hermitian / anti-hermitian / unitary point classes meet the chart
    in z* = z, z* = -z, z* = z^-1."""
    iota = Involution()
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


@trial_check("phi-equivariance")
def check_phi_equivariance(rng, i, ring, n):
    """The point map intertwines: phi~(g.E) = Phi(g)^-1 . phi~(E)."""
    iota = Involution()
    j = rng.choice((1, 2, 3, 4))
    g = randgen.rand_group_word(rng, ring, n, length=2)
    e = randgen.rand_point(rng, ring, n)
    lhs = phi_involution(j, iota, act_frac(g, e))
    rhs = act_frac(phi_group(j, iota, g), phi_involution(j, iota, e))
    return lhs == rhs


def _rand_dilation_points(rng, ring, n):
    """Random points x, a, y with x and y transversal to a, or None."""
    x = randgen.rand_point(rng, ring, n)
    a = _rand_transversal(rng, ring, n, x)
    if a is None:
        return None
    y = _rand_transversal(rng, ring, n, a)
    return None if y is None else (x, a, y)


@trial_check("mu-examples")
def check_mu_examples(rng, i, ring, n):
    z = randgen.rand_matrix(rng, ring, n)
    r = randgen.rand_unit(rng, ring)
    if r is None:
        return None
    o_plus, gamma0 = base_plus(ring, n), base_minus(ring, n)
    if mu_dilation(r, gamma0, o_plus, gamma_chart(z)) != gamma_chart(z.scale(r)):
        return False
    xay = _rand_dilation_points(rng, ring, n)
    if xay is None:
        return None
    x, a, y = xay
    if mu_dilation(ring.one(), x, a, y) != y:
        return False
    return mu_dilation(-ring.one(), x, a, x) == x


@trial_check("mu-coherence")
def check_mu_coherence(rng, i, ring, n):
    xay = _rand_dilation_points(rng, ring, n)
    if xay is None:
        return None
    x, a, y = xay
    r, s = (randgen.rand_unit(rng, ring) for _ in range(2))
    if r is None or s is None:
        return None
    lhs = mu_dilation(r, x, a, mu_dilation(s, x, a, y))
    return lhs == mu_dilation(r * s, x, a, y)


@trial_check("thm34-agreement", proj_space_i11)
def check_thm34_agreement(rng, i, space):
    """With the I_{1,1} polarity, the projective multiplication in the
    chart is Q(x) y^-1 = x y^-1 x."""
    x, y = (randgen.rand_invertible(rng, space.ring, space.jctx.n)
            for _ in range(2))
    if x is None or y is None:
        return None
    try:
        out = space.mul_chart(x, y)
    except (NotInSpace, NotInChart):
        return RESAMPLE
    return out == x @ y.inverse() @ x


def check_gamma_units_f5():
    """Exhaustive over F_5, n = 1: the non-isotropic set of I_{1,1} meets
    the line exactly in the invertible chart points."""
    ring = PrimeFieldRing(5)
    pol = Polarity("linear", S=GroupElement.i11(ring, 1))
    points = [gamma_chart(Matrix(ring, [[ring.from_int(k)]]))
              for k in range(5)] + [base_plus(ring, 1)]
    want = [k != 0 for k in range(5)] + [False]
    got = [pol.nonisotropic(e) for e in points]
    chart = [point_in_chart(e) for e in points]
    ok = got == want and chart == [True] * 5 + [False]
    return run_check("gamma-units-f5", 1, 0, lambda rng, i: ok or (
        False, {"got": got, "want": want}))


# -- symmetric-space checks --------------------------------------------------

def _unit_draw(rng, space):
    x = randgen.rand_filtered(
        rng, lambda r: randgen.rand_in_context(r, space.jctx), space.contains)
    return None if x is None else (x, x)


def _projective_draw(rng, space):
    def chart_and_point(r):
        z = randgen.rand_matrix(r, space.ring, space.jctx.n)
        return z, gamma_chart(z)

    return randgen.rand_filtered(rng, chart_and_point,
                                 lambda zp: space.contains(zp[1]))


def _group_draw(rng, space):
    x = randgen.rand_invertible(rng, space.ring, space.n)
    return None if x is None else (x, x)


def _context_tangent(rng, space, lo=-randgen.BOX, hi=randgen.BOX):
    return randgen.rand_in_context(rng, space.jctx, lo, hi)


def _matrix_tangent(rng, space, lo=-randgen.BOX, hi=randgen.BOX):
    return randgen.rand_matrix(rng, space.ring, space.n, lo=lo, hi=hi)


class SpaceKind(NamedTuple):
    """A symmetric space of the suites: its builder (ring, n) -> space, a
    draw (rng, space) of a random point as (chart value, point), None when
    the filter finds none (the two differ on the projective space, whose
    point Gamma_z has chart value z), and a draw (rng, space, lo, hi) of a
    tangent vector at the base point."""
    build: Callable
    draw: Callable
    tangent: Callable


SPACES = {
    "jordan_units": SpaceKind(units_space, _unit_draw, _context_tangent),
    "projective": SpaceKind(proj_space_swap, _projective_draw,
                            _context_tangent),
    "group": SpaceKind(group_space, _group_draw, _matrix_tangent),
}


def space_of(space_name, ring, n):
    """The setup of a symmetric-space check: the row of SPACES called
    `space_name` and its space."""
    kind = SPACES[space_name]
    return kind, kind.build(ring, n)


def dual_space_of(space_name, ring, n):
    """`space_of`, and the space over K[eps]."""
    kind, space = space_of(space_name, ring, n)
    return kind, space, space.at_ring(DualRing(ring))


@trial_check("m-axioms[{space_name}]", space_of)
def check_m_axioms(rng, i, env):
    kind, space = env
    pts = [kind.draw(rng, space) for _ in range(3)]
    if any(p is None for p in pts):
        return None
    (_, x), (_, y), (_, z) = pts
    try:
        if sym_mul(space, x, x) != x:
            return (False, {"axiom": "M1"})
        mxy = sym_mul(space, x, y)
    except NotInSpace:
        # domain hole of the chart realization of sigma
        return RESAMPLE
    if not space.contains(mxy):
        return (False, {"axiom": "closure"})
    try:
        if sym_mul(space, x, mxy) != y:
            return (False, {"axiom": "M2"})
        lhs = sym_mul(space, x, sym_mul(space, y, z))
        mxz = sym_mul(space, x, z)
        rhs = sym_mul(space, mxy, mxz)
    except NotInSpace:
        return RESAMPLE
    if lhs != rhs:
        return (False, {"axiom": "M3"})
    return True


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


@trial_check("units-literal[{flavor}]", units_space)
def check_units_literal(rng, i, space):
    """The unit space's closed forms against `literal_units`: contains(x)
    is the rank decision of Q(x), jordan_inverse(x) is Q(x)^-1 x and
    mul(x, y) is Q(x) Q(y)^-1 y, or both sides refuse. Coordinates come
    from {-1, 0, 1}, so singular draws are common."""
    ctx = space.jctx
    refusals = (NotInvertible, NotInSpace)
    x = randgen.rand_in_context(rng, ctx, lo=-1, hi=1)
    y = randgen.rand_in_context(rng, ctx, lo=-1, hi=1)
    x_inv, xi, z = literal_units(ctx, x, y)
    if space.contains(x) != x_inv:
        return (False, {"form": "contains"})
    if _outcome(refusals, jordan_inverse, ctx, x) != xi:
        return (False, {"form": "inverse"})
    return (_outcome(refusals, space.mul, x, y) == z
            or (False, {"form": "mul"}))


@trial_check("m4-dual[{space_name}]", dual_space_of)
def check_m4_dual(rng, i, env):
    """eps-part of sigma_x(x + eps v) is -v, at chart level."""
    kind, space, space_e = env
    drawn = kind.draw(rng, space)
    if drawn is None:
        return None
    x = drawn[0]
    v = kind.tangent(rng, space)
    try:
        out = space_e.mul_chart(x.embed(space_e.ring), dual_combine(x, v))
    except (NotInSpace, NotInChart):
        return None
    re, eps = dual_split(out)
    return re == x and eps == -v


@trial_check("fiber-law[{space_name}]", dual_space_of)
def check_fiber_law(rng, i, env):
    """Tm(v, w) = 2v - w on the tangent fiber of the base point."""
    kind, space, space_e = env
    o = space.o_chart
    v, w = (kind.tangent(rng, space) for _ in range(2))
    out = space_e.mul_chart(dual_combine(o, v), dual_combine(o, w))
    re, eps = dual_split(out)
    return re == o and eps == v.scale(space.ring.from_int(2)) - w


def all_spaces(ring, n):
    """The unit, group and projective spaces, each with its row of
    SPACES."""
    return [space_of(name, ring, n)
            for name in ("jordan_units", "group", "projective")]


@trial_check("tilde-field", all_spaces)
def check_tilde_field(rng, i, spaces):
    """tilde v is the linear field v o p on the unit space, and equals v
    at the base point for all contexts."""
    units, u = spaces[0]
    v = randgen.rand_in_context(rng, u.jctx)
    drawn = units.draw(rng, u)
    if drawn is None:
        return None
    p = drawn[1]
    if tilde_field(u, v, p) != jordan_product(u.jctx, v, p):
        return False
    for kind, sp in spaces:
        vv = kind.tangent(rng, sp)
        if tilde_field(sp, vv, sp.o_chart) != vv:
            return False
    return True


def numeric_lts(space, u, v, w):
    """[[u~, v~], w~](o) computed from Eq.-style chart brackets with
    nested dual layers."""
    def handle(vec, tag):
        return calculus.MapHandle(tag, lambda p: tilde_field(space, vec, p))

    ut, vt, wt = handle(u, "u~"), handle(v, "v~"), handle(w, "w~")
    outer = calculus.field_bracket(calculus.field_bracket(ut, vt), wt)
    o = space.o_chart
    return outer(o)


@trial_check("lts-axioms[{space_name}]", space_of)
def check_lts_axioms(rng, i, env):
    kind, space = env

    def br(a, b, c):
        return lts_bracket(space, a, b, c)

    u, v, w = (kind.tangent(rng, space) for _ in range(3))
    if not br(u, u, w).is_zero():
        return (False, {"axiom": "alternating"})
    if br(u, v, w) != -br(v, u, w):
        return (False, {"axiom": "antisymmetry"})
    if not (br(u, v, w) + br(v, w, u) + br(w, u, v)).is_zero():
        return (False, {"axiom": "jacobi"})
    a, b, c = (kind.tangent(rng, space) for _ in range(3))
    lhs = br(u, v, br(a, b, c))
    rhs = (br(br(u, v, a), b, c) + br(a, br(u, v, b), c)
           + br(a, b, br(u, v, c)))
    return lhs == rhs or (False, {"axiom": "derivation"})


@trial_check("lts-numeric[{space_name}]", space_of)
def check_lts_numeric(rng, i, env):
    kind, space = env
    u, v, w = (kind.tangent(rng, space, -1, 1) for _ in range(3))
    try:
        got = numeric_lts(space, u, v, w)
    except calculus.DomainViolation:
        return None
    return got == lts_bracket(space, u, v, w)


def unitary2(ring):
    """The unitary group of M_2(K) under the transpose."""
    return unitary_space(ring)


@trial_check("unitary-closure", unitary2)
def check_unitary_closure(rng, i, space):
    x, y = (randgen.rand_orthogonal2(rng, space.ring) for _ in range(2))
    return space.contains(sym_mul(space, x, y))


def unitary_and_cayley(ring):
    """The unitary group of M_2(K), the swap-polarity projective space
    over M_2(K) and the Cayley element that carries one to the other."""
    return unitary2(ring), proj_space_swap(ring, 2), cayley2(ring)


@trial_check("unitary-cayley-agreement", unitary_and_cayley)
def check_unitary_cayley_agreement(rng, i, env):
    """The group multiplication on the unitary group agrees with the
    projective one (swap polarity) transported through the Cayley chart."""
    space, proj, c = env
    x, y = (randgen.rand_orthogonal2(rng, space.ring) for _ in range(2))
    cx, cy = (act_frac(c, gamma_chart(z)) for z in (x, y))
    if not (proj.contains(cx) and proj.contains(cy)):
        return RESAMPLE
    try:
        got = proj.mul(cx, cy)
    except NotInSpace:
        return RESAMPLE
    return got == act_frac(c, gamma_chart(sym_mul(space, x, y)))


def hermitian_line(n):
    """The setup of an exp-tanh check on Sym_n(R): the projective space
    of the swap polarity, the truncation order and the tolerance."""
    def setup(order=24, tol=1e-9):
        return proj_space_swap(FLOAT64, n, flavor="hermitian"), order, tol
    return setup


@trial_check("exp-tanh-scalar", hermitian_line(1), tol=1e-12)
def check_exp_tanh_scalar(rng, i, env):
    """Scalar float64 case against math.tanh."""
    space, order, tol = env
    t = rng.uniform(-0.5, 0.5)
    e = exp_tanh(space, Matrix(FLOAT64, [[t]]), order)
    return abs(chart_coords(e)[0, 0] - math.tanh(t)) <= tol


@trial_check("exp-tanh-doubling", hermitian_line(2), tol=1e-10)
def check_exp_tanh_doubling(rng, i, env):
    """m(Exp(v), o) = Exp(2v) on Sym_2(R) for small v."""
    space, order, tol = env
    a, b, c = (rng.uniform(-0.25, 0.25) for _ in range(3))
    v = Matrix(FLOAT64, [[a, b], [b, c]])
    ev = exp_tanh(space, v, order)
    e2v = exp_tanh(space, v.scale(2.0), order)
    try:
        m = sym_mul(space, ev, space.o)
    except NotInSpace:
        return None
    return (chart_coords(m) - chart_coords(e2v)).max_abs() <= tol


def check_exp_tanh_zero(order=24):
    space = proj_space_swap(FLOAT64, 2, flavor="hermitian")
    ok = exp_tanh(space, Matrix.zeros(FLOAT64, 2), order) == space.o
    return run_check("exp-tanh-zero", 1, 0, lambda rng, i: ok)


@trial_check("midpoint-law", hermitian_line(1))
def check_midpoint_law(rng, i, env):
    """transvection(gamma(1/2), gamma(0)) maps gamma(0) to gamma(1) for
    the geodesic gamma(t) = Exp(t v)."""
    space, order, tol = env
    v = Matrix(FLOAT64, [[rng.uniform(-0.4, 0.4)]])
    g0 = space.o
    mid = exp_tanh(space, v.scale(0.5), order)
    end = exp_tanh(space, v, order)
    got = transvection(space, mid, g0)(g0)
    return (chart_coords(got) - chart_coords(end)).max_abs() <= tol


# -- calculus checks ---------------------------------------------------------

@trial_check("deriv-act")
def check_deriv_act(rng, i, ring, n):
    """d(act(g, .))(x) v = d_g(x)^-1 v."""
    g = randgen.rand_group_word(rng, ring, n, length=rng.randint(1, 2))
    x = randgen.rand_matrix(rng, ring, n)
    if not in_chart(g, x):
        return RESAMPLE
    v = randgen.rand_matrix(rng, ring, n)
    law = calculus.act_law(g)
    return calculus.dual_derivative(law.handle, x, v) == law.expected(x, v)


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


@trial_check("deriv-quasi-at-zero", full_ctx)
def check_deriv_quasi_at_zero(rng, i, ctx):
    """The x-derivative of the quasi-inverse at x = 0 is the identity."""
    y, v = (randgen.rand_matrix(rng, ctx.ring, ctx.n) for _ in range(2))
    f = calculus.quasi_inverse_in_first(ctx, y)
    zero = Matrix.zeros(ctx.ring, ctx.n)
    return calculus.dual_derivative(f, zero, v) == v


@trial_check("differential-linearity", full_ctx)
def check_differential_linearity(rng, i, ctx):
    ring, n = ctx.ring, ctx.n
    y = randgen.rand_matrix(rng, ring, n)
    f = rng.choice([calculus.squaring(), calculus.alg_inversion(),
                    calculus.quasi_inverse_in_first(ctx, y)])
    x = randgen.rand_invertible(rng, ring, n)
    if x is None:
        return None
    v, w = (randgen.rand_matrix(rng, ring, n) for _ in range(2))
    a, b = (randgen.rand_scalar(rng, ring) for _ in range(2))
    try:
        lhs = calculus.dual_derivative(f, x, v.scale(a) + w.scale(b))
        rhs = (calculus.dual_derivative(f, x, v).scale(a)
               + calculus.dual_derivative(f, x, w).scale(b))
    except calculus.DomainViolation:
        return None
    return lhs == rhs


@trial_check("chain-rule")
def check_chain_rule(rng, i, ring, n):
    """T(g o f) = Tg o Tf on composable built-ins."""
    a = randgen.rand_matrix(rng, ring, n)
    f = calculus.squaring()
    g = calculus.linear_map(a)
    h = calculus.compose(g, f)
    x, v = (randgen.rand_matrix(rng, ring, n) for _ in range(2))
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


@trial_check("schwarz")
def check_schwarz(rng, i, ring, n):
    """Symmetry of second derivatives through nested duals."""
    f = calculus.alg_inversion()
    x = randgen.rand_invertible(rng, ring, n)
    if x is None:
        return None
    v, w = (randgen.rand_matrix(rng, ring, n) for _ in range(2))

    def second(a, b):
        g = calculus.MapHandle(
            "d_b", lambda p: calculus.dual_derivative(f, p, b.embed(p.ring)))
        return calculus.dual_derivative(g, x, a)

    return second(v, w) == second(w, v)


def ctx_and_dual(ring, n):
    """The full Jordan context and the ring K[eps]."""
    return full_ctx(ring, n), DualRing(ring)


@trial_check("quotient-rule", ctx_and_dual)
def check_quotient_rule(rng, i, env):
    """For F(x) = B(x,a)^-1 v: dF(x)h = -B^-1 (d_h B) B^-1 v."""
    ctx, dring = env
    a, v, x, h = (randgen.rand_matrix(rng, ctx.ring, ctx.n) for _ in range(4))
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


@trial_check("c1-forms")
def check_c1_forms(rng, i, ring, n):
    """Difference quotients match the closed f^[1] forms, whose value at
    t = 0 is the dual derivative: the quotient is the restriction of a
    single map."""
    x = randgen.rand_invertible(rng, ring, n)
    if x is None:
        return None
    h = randgen.rand_matrix(rng, ring, n)
    ts = [ring.from_int(1), ring.half(), ring.invert(ring.from_int(4))]
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


@trial_check("bracket-fields")
def check_bracket_fields(rng, i, ring):
    """Chart bracket of linear fields on 2 x 2 matrices: [Av, Bv](x) =
    B(Ax) - A(Bx)."""
    a, b = (randgen.rand_matrix(rng, ring, 2) for _ in range(2))
    fa = calculus.linear_map(a, "A")
    fb = calculus.linear_map(b, "B")
    x = randgen.rand_matrix(rng, ring, 2, 1)
    got = calculus.lie_bracket_fields(fa, fb, x)
    return got == b @ (a @ x) - a @ (b @ x)


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
        Check(check_quasi_full_oracle),
        Check(check_quasi_closed, flavor="full"),
        Check(check_quasi_closed, flavor="hermitian"),
        Check(check_quasi_closed, flavor="antihermitian"))),
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
