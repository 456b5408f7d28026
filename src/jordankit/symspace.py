"""Symmetric-space structures in three contexts: invertible elements of a
unital Jordan algebra (m(x, y) = Q(x) y^-1 = x y^-1 x), non-isotropic
projective points (m = mu_{-1}(x, p(x), y)), and matrix groups
(m = x y^-1 x); with the point symmetries, quadratic representation, Lie
triple systems, canonical vector fields, transvections and the truncated
tanh exponential.
"""

from __future__ import annotations

from .algebra import Matrix, dual_combine, dual_split, herm_split, lift_once
from .errors import (NotInSpace, NotInvertible, NotTransversal,
                     SeriesNotInvertible, SingularOperator)
from .jordan import (is_jordan_invertible, jordan_inverse, mult_operator,
                     quad_triple_operator, triple_product)
from .projline import (ProjectivePoint, chart_coords, gamma_chart,
                       mu_dilation)


class JordanUnitsSpace:
    """Invertible elements of a unital Jordan algebra (full or hermitian
    flavor), with m(x, y) = Q(x) y^-1 = x y^-1 x."""

    def __init__(self, jctx, o=None):
        if jctx.flavor == "antihermitian":
            raise ValueError("unit space needs a unital flavor")
        self.jctx = jctx
        self.o = jctx.unit() if o is None else o
        if not self.contains(self.o):
            raise NotInSpace("base point is not invertible")
        self._lifts = {}

    @property
    def ring(self):
        return self.jctx.ring

    def contains(self, x):
        return is_jordan_invertible(self.jctx, x)

    def mul(self, x, y):
        """Q(x) y^-1 = x y^-1 x: V lies in A = M_n(K) and contains its
        unit, so Q(x) is invertible exactly when x is invertible in A, and
        y^-1 is the inverse in A (see `jordan.jordan_inverse`). x and y^-1
        in V give x y^-1 x in V, so the result is projected onto V, which
        over float rings makes it a point of V bit for bit."""
        jctx = self.jctx
        jctx.require(x)
        if not x.is_invertible():
            raise NotInSpace("left argument is not invertible")
        try:
            yi = jordan_inverse(jctx, y)
        except NotInvertible as e:
            raise NotInSpace("right argument is not invertible") from e
        return jctx.space.project(x @ yi @ x)

    mul_chart = mul

    @property
    def o_chart(self):
        return self.o

    def tangent_contains(self, v):
        return self.jctx.contains(v)

    def lts(self, u, v, w):
        """[L(u), L(v)] w."""
        lu = mult_operator(self.jctx, u)
        lv = mult_operator(self.jctx, v)
        op = lu.compose(lv) - lv.compose(lu)
        return self.jctx.space.from_coords(
            op.apply_flat(self.jctx.space.coords(w)))

    def at_ring(self, ring):
        """The space over a dual extension, validated once per ring."""
        return lift_once(self, ring, lambda r: JordanUnitsSpace(
            self.jctx.at_ring(r), self.o.embed(r)))


class GroupSpace:
    """A matrix group as a symmetric space, m(x, y) = x y^-1 x; either all
    of GL_n or the unitary group of an involution."""

    def __init__(self, n, ring, kind="full_linear", involution=None, o=None):
        if kind not in ("full_linear", "unitary"):
            raise ValueError(f"unknown group kind {kind!r}")
        if kind == "unitary" and involution is None:
            raise ValueError("unitary group needs an involution")
        self.n = n
        self._ring = ring
        self.kind = kind
        self.involution = involution
        self.o = Matrix.identity(ring, n) if o is None else o
        self._lifts = {}

    @property
    def ring(self):
        return self._ring

    def contains(self, x):
        if x.shape != (self.n, self.n) or x.ring != self.ring:
            return False
        if not x.is_invertible():
            return False
        if self.kind == "unitary":
            return self.involution.apply(x) @ x == Matrix.identity(self.ring, self.n)
        return True

    def mul(self, x, y):
        if not (self.contains(x) and self.contains(y)):
            raise NotInSpace("arguments must lie in the group")
        return x @ y.inverse() @ x

    mul_chart = mul

    @property
    def o_chart(self):
        return self.o

    def tangent_contains(self, v):
        if self.kind == "full_linear":
            return v.shape == (self.n, self.n) and v.ring == self.ring
        h, a = herm_split(self.involution, v)
        return h.is_zero()

    def lts(self, u, v, w):
        """(1/4) [[u, v], w] with matrix commutators."""
        quarter = self.ring.invert(self.ring.from_int(4))
        uv = u @ v - v @ u
        return (uv @ w - w @ uv).scale(quarter)

    def at_ring(self, ring):
        """The space over a dual extension, built once per ring."""
        return lift_once(self, ring, lambda r: GroupSpace(
            self.n, r, self.kind,
            self.involution.embed(r) if self.involution else None,
            self.o.embed(r)))


class ProjectiveSpace:
    """Non-isotropic points of a polarity, m(x, y) = mu_{-1}(x, p(x), y);
    carries a Jordan context for its tangent modules at chart points."""

    def __init__(self, polarity, jctx, o=None):
        self.polarity = polarity
        self.jctx = jctx
        self.o = gamma_chart(jctx.zero()) if o is None else o
        if not self.contains(self.o):
            raise NotInSpace("base point is isotropic")
        self._lifts = {}

    @property
    def ring(self):
        return self.jctx.ring

    def contains(self, E):
        return isinstance(E, ProjectivePoint) and self.polarity.nonisotropic(E)

    def mul(self, x, y):
        px = self.polarity.apply(x)
        from .projline import transversal
        if not transversal(x, px):
            raise NotInSpace("left argument is isotropic")
        if not self.contains(y):
            raise NotInSpace("right argument is isotropic")
        minus_one = -self.ring.one()
        try:
            return mu_dilation(minus_one, x, px, y)
        except NotTransversal as e:
            # the chart realization of sigma_x needs y transversal to p(x)
            raise NotInSpace(str(e)) from e

    def mul_chart(self, x, y):
        out = self.mul(gamma_chart(x), gamma_chart(y))
        return chart_coords(out)

    @property
    def o_chart(self):
        return chart_coords(self.o)

    def tangent_contains(self, v):
        return self.jctx.contains(v)

    def lts(self, u, v, w):
        """T(u,v,w) - T(v,u,w) at the base chart point."""
        return (triple_product(self.jctx, u, v, w)
                - triple_product(self.jctx, v, u, w))

    def at_ring(self, ring):
        """The space over a dual extension, validated once per ring."""
        return lift_once(self, ring, lambda r: ProjectiveSpace(
            self.polarity.embed(r), self.jctx.at_ring(r), self.o.embed(r)))


def sym_mul(ctx, x, y):
    """m(x, y) = sigma_x(y)."""
    return ctx.mul(x, y)


def transvection(ctx, x, y):
    """sigma_x o sigma_y; an automorphism of (M, m)."""
    if not (ctx.contains(x) and ctx.contains(y)):
        raise NotInSpace("transvection needs two points of the space")
    return lambda z: ctx.mul(x, ctx.mul(y, z))


def quadratic_rep_point(ctx, x):
    """Q(x) = sigma_x sigma_o as a reusable transformation."""
    if not ctx.contains(x):
        raise NotInSpace("argument must lie in the space")
    return lambda y: ctx.mul(x, ctx.mul(ctx.o, y))


def tilde_field(ctx, v, p):
    """The canonical vector field with value v at the base point,
    evaluated at the chart point p: half the eps-part of
    m(o + eps v, m(o, p)) over the dual extension.

    `p` may live over any iterated dual extension of the context ring, so
    the field itself can be differentiated by further lifting.
    """
    ring = p.ring
    ctx_r = ctx.at_ring(ring)
    vr = v.embed(ring)
    if not ctx_r.tangent_contains(vr):
        raise NotInSpace("v is not tangent at the base point")
    inner = ctx_r.mul_chart(ctx_r.o_chart, p)
    x_eps = dual_combine(ctx_r.o_chart, vr)
    dring = x_eps.ring
    out = ctx.at_ring(dring).mul_chart(x_eps, inner.embed(dring))
    _, eps = dual_split(out)
    return eps.scale(ring.half())


def exp_tanh(ctx, v, order=24):
    """Exponential of the projective symmetric space at its base point:
    the gamma-chart point of cosh_N(v)^-1 sinh_N(v), with
    cosh_N(v) = sum_{k<=N} Q(v)^k / (2k)! and
    sinh_N(v) = sum_{k<=N} Q(v)^k v / (2k+1)!."""
    if not isinstance(ctx, ProjectiveSpace):
        raise NotInSpace("exp_tanh lives on the projective context")
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    jctx = ctx.jctx
    ring = jctx.ring
    if ring.kind not in ("rational", "float64"):
        raise ValueError("exp_tanh needs rational or float64 scalars")
    qv = quad_triple_operator(jctx, v)
    d = jctx.dim
    from .algebra import LinearOperator
    cosh = LinearOperator.identity(ring, d)
    power = LinearOperator.identity(ring, d)
    vcoords = sinh = jctx.space.coords(v)
    fact = 1
    for k in range(1, order + 1):
        power = power.compose(qv)
        fact *= (2 * k - 1) * (2 * k)
        cosh = cosh + power.scale(ring.inv_int(fact))
        inv = ring.inv_int(fact * (2 * k + 1))
        sinh = sinh + power.apply_flat(vcoords).scale(inv)
    try:
        c = cosh.solve_flat(sinh)
    except SingularOperator as e:
        raise SeriesNotInvertible("truncated cosh operator is singular") from e
    return gamma_chart(jctx.space.from_coords(c))


def lts_bracket(ctx, u, v, w):
    """Closed-form Lie triple bracket of the tangent module at the base
    point; antisymmetric in (u, v)."""
    for t in (u, v, w):
        if not ctx.tangent_contains(t):
            raise NotInSpace("arguments must be tangent at the base point")
    return ctx.lts(u, v, w)
