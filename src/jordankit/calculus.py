"""Executable difference-quotient calculus: difference quotients,
dual-number differentials, the chart vector-field bracket, and the
closed-form derivative laws (map, closed form, sampler) that the CLI
`derivative` request and the `derivative-laws` suite both certify
against dual evaluation through `suites.law_check`.

Map handles are ring-generic by construction: their evaluators take an
input and read the evaluation ring from it (`x.ring`), and any captured
constants are structurally embedded into that ring, so lifting inputs
commutes with evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import randgen
from .algebra import Matrix, dual_combine, dual_split, op_solve
from .errors import DomainViolation, JordankitError, NotAUnit
from .graded import act, denominators, in_chart
from .jordan import (_require_product_closed, bergman_operator,
                     jordan_inverse, quasi_inverse, rep_operators)


@dataclass(frozen=True)
class MapHandle:
    name: str
    evaluator: Callable

    def __call__(self, x):
        return self.evaluator(x)


# -- built-in handles -------------------------------------------------------

def alg_inversion():
    return MapHandle("alg_inversion", lambda x: x.inverse())


def squaring():
    return MapHandle("squaring", lambda x: x @ x)


def linear_map(a, name="linear"):
    return MapHandle(name, lambda x: a.embed(x.ring) @ x)


def jordan_inversion(jctx):
    return MapHandle("jordan_inversion", lambda x: jordan_inverse(
        jctx.at_ring(x.ring), x))


def quasi_inverse_in_first(jctx, y):
    return MapHandle("quasi_inverse_x", lambda x: quasi_inverse(
        jctx.at_ring(x.ring), x, y.embed(x.ring)))


def group_action(g):
    return MapHandle("group_action", lambda x: act(g.embed(x.ring), x))


def compose(f, g):
    """f after g."""
    return MapHandle(f"{f.name}.{g.name}", lambda x: f(g(x)))


def bergman_inverse_apply(jctx, a, v):
    """x -> B(x, a)^-1 v, the operator-family quotient map."""
    def ev(x):
        ring = x.ring
        ctx = jctx.at_ring(ring)
        b = bergman_operator(ctx, x, a.embed(ring))
        return ctx.space.from_coords(
            b.solve_flat(ctx.space.coords(v.embed(ring))))

    return MapHandle("bergman_inverse_apply", ev)


# -- differentiation --------------------------------------------------------

def diff_quotient(f, x, h, t):
    """(f(x + t h) - f(x)) / t for a unit t."""
    ring = x.ring
    if not ring.is_unit(t):
        raise NotAUnit("difference quotient needs a unit step")
    try:
        num = f(x + h.scale(t)) - f(x)
    except JordankitError as e:
        raise DomainViolation(str(e)) from e
    return num.scale(ring.invert(t))


def tangent_map(f, x, v):
    """(f(x), df(x)v) in one dual evaluation."""
    lifted = dual_combine(x, v)
    try:
        out = f(lifted)
    except JordankitError as e:
        raise DomainViolation(str(e)) from e
    return dual_split(out)


def dual_derivative(f, x, v):
    """eps-part of f(x + eps v) over the dual extension of x's ring."""
    return tangent_map(f, x, v)[1]


def lie_bracket_fields(xfield, yfield, x):
    """[X, Y](x) = dY(x)X(x) - dX(x)Y(x) for chart vector fields.

    Three evaluations: Y(x), then X at x + eps Y(x), whose re-part is X(x)
    (handles are ring-generic and taking re-parts is a ring homomorphism),
    then Y at x + eps X(x). A field undefined at x raises its own error,
    not DomainViolation: when the dual evaluation of X fails, X(x) is
    evaluated on its own to tell the two apart."""
    yv = yfield(x)
    try:
        xv, dxy = tangent_map(xfield, x, yv)
    except DomainViolation:
        xfield(x)
        raise
    return dual_derivative(yfield, x, xv) - dxy


def field_bracket(xfield, yfield):
    """The bracket as a field, so brackets can be nested."""
    return MapHandle(f"[{xfield.name},{yfield.name}]",
                     lambda p: lie_bracket_fields(xfield, yfield, p))


# -- derivative laws ---------------------------------------------------------

@dataclass(frozen=True)
class DerivativeLaw:
    """A map handle, the closed form expected(x, v) of its derivative at x
    in direction v, and sample(rng), which draws (x, v) with x in the
    map's domain, or returns None when the draw finds no such x."""
    handle: MapHandle
    expected: Callable
    sample: Callable


def jordan_inverse_law(ctx):
    """dj(x) v = -Q(x)^-1 v on the Jordan-invertible elements of ctx, the
    x of V invertible in A (see `jordan.jordan_inverse`). Only the unital
    flavors have a Jordan inverse: the antihermitian one is refused here,
    where no draw is made."""
    _require_product_closed(ctx)

    def expected(x, v):
        _, qx = rep_operators(ctx, x)
        return -ctx.space.from_coords(qx.solve_flat(ctx.space.coords(v)))

    def sample(rng):
        x = randgen.rand_filtered(
            rng, lambda r: randgen.rand_in_context(r, ctx),
            Matrix.is_invertible)
        if x is None:
            return None
        return x, randgen.rand_in_context(rng, ctx)

    return DerivativeLaw(jordan_inversion(ctx), expected, sample)


def alg_inverse_law(ring, n):
    """di(x) v = -x^-1 v x^-1 on the invertible n x n matrices."""

    def expected(x, v):
        xi = x.inverse()
        return -(xi @ v @ xi)

    def sample(rng):
        x = randgen.rand_invertible(rng, ring, n)
        if x is None:
            return None
        return x, randgen.rand_matrix(rng, ring, n)

    return DerivativeLaw(alg_inversion(), expected, sample)


def squaring_law(ring, n):
    """d(x^2) v = xv + vx."""
    return DerivativeLaw(squaring(), lambda x, v: x @ v + v @ x,
                         lambda rng: (randgen.rand_matrix(rng, ring, n),
                                      randgen.rand_matrix(rng, ring, n)))


def act_law(g):
    """d(g.x) v = d_g(x)^-1 v on the chart of g: the dual derivative of
    the fractional form (a x + b)(c x + d)^-1 of `graded.act` against the
    literal n^2 x n^2 denominator d_g(x) of `graded.denominators`."""

    def sample(rng):
        x = randgen.rand_filtered(
            rng, lambda r: randgen.rand_matrix(r, g.ring, g.n),
            lambda m: in_chart(g, m))
        if x is None:
            return None
        return x, randgen.rand_matrix(rng, g.ring, g.n)

    return DerivativeLaw(group_action(g),
                         lambda x, v: op_solve(denominators(g, x)[0], v),
                         sample)


# The laws a derivative request names, each built from the request's
# Jordan context and, for "act", its group element g.
DERIVATIVE_LAWS = {
    "jordan_inverse": lambda ctx, g: jordan_inverse_law(ctx),
    "alg_inverse": lambda ctx, g: alg_inverse_law(ctx.ring, ctx.n),
    "squaring": lambda ctx, g: squaring_law(ctx.ring, ctx.n),
    "act": lambda ctx, g: act_law(g),
}
