"""Symmetric-space structures in three contexts: invertible elements of a
unital Jordan algebra (m(x, y) = Q(x) y^-1 = x y^-1 x), non-isotropic
projective points (m = mu_{-1}(x, p(x), y)), and matrix groups
(m = x y^-1 x); with the point symmetries, quadratic representation, Lie
triple systems, canonical vector fields, transvections and the truncated
tanh exponential.

The Lie triple system at o is one bracket, T(u, theta v, w) - T(v, theta u,
w) (Loos, Symmetric Spaces I, 1969), with theta(v) = (1/4) o^-1 v o^-1 on
the unit and group spaces and the tangent map of the polarity at o on the
projective space.

A space checks its base point once, when it is built. Its lift to a dual
extension (`at_ring`) carries the validated base point, embedded, and is
not checked again: embedding is an injective ring homomorphism, and over
a dual ring every decision (rank, coordinates, transversality) is made on
re-parts, where the lifted point is the validated one. The projective
space computes the chart coordinate of its base point, `o_chart`, once.
"""

from __future__ import annotations

from .algebra import (LinearOperator, Matrix, dual_combine, dual_split,
                      lift_once)
from .errors import (NotInSpace, NotInvertible, NotTransversal,
                     SeriesNotInvertible, SingularOperator, _echo)
from .graded import GroupElement
from .jordan import is_jordan_invertible, jordan_inverse, quad_triple_operator
from .projline import (ProjectivePoint, act_frac, chart_coords, gamma_chart,
                       mu_dilation, transversal)
from .rings import DualRing


def _o_inverse_pair(space):
    """((1/4) o^-1, o^-1), computed once per space and kept in `_theta`."""
    if space._theta is None:
        oi = space.o.inverse()
        space._theta = (oi.scale(space.ring.inv_int(4)), oi)
    return space._theta


def _quarter_sandwich(space, v):
    """theta(v) = (1/4) o^-1 v o^-1: x -> o^-1 x is an automorphism of
    m(x, y) = x y^-1 x on GL_n(K) taking o to 1, where theta is v/4."""
    left, right = _o_inverse_pair(space)
    return left @ v @ right


class _Space:
    """What the three spaces share: their fields and empty caches, set by
    `_set` before a constructor checks the base point, and the lift to a
    dual extension, which sets the embedded fields of the validated space
    without that check."""

    _caches = ("_theta",)

    def _set(self, **fields):
        vars(self).update(fields, _lifts={}, **dict.fromkeys(self._caches))

    def _lift(self, ring, fields):
        """The space over `ring`, an iterated dual extension of its ring,
        built once per ring (see `lift_once`) from `fields(r)`, this
        space's fields embedded into r."""
        def build(r):
            lifted = object.__new__(type(self))
            lifted._set(**fields(r))
            return lifted
        return lift_once(self, ring, build)


class JordanUnitsSpace(_Space):
    """Invertible elements of a unital Jordan algebra (full or hermitian
    flavor), with m(x, y) = Q(x) y^-1 = x y^-1 x."""

    def __init__(self, jctx, o=None):
        if jctx.flavor == "antihermitian":
            raise ValueError("unit space needs a unital flavor")
        self._set(jctx=jctx, o=jctx.unit() if o is None else o)
        if not self.contains(self.o):
            raise NotInSpace("base point is not invertible")

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

    theta = _quarter_sandwich

    def at_ring(self, ring):
        """The space over a dual extension, built once per ring."""
        return self._lift(ring, lambda r: dict(
            jctx=self.jctx.at_ring(r), o=self.o.embed(r)))


class GroupSpace(_Space):
    """A matrix group as a symmetric space, m(x, y) = x y^-1 x; either all
    of GL_n or the unitary group of an involution."""

    def __init__(self, n, ring, kind="full_linear", involution=None, o=None):
        if kind not in ("full_linear", "unitary"):
            raise ValueError(f"unknown group kind {_echo(kind)}")
        if kind == "unitary" and involution is None:
            raise ValueError("unitary group needs an involution")
        self._set(n=n, _ring=ring, kind=kind, involution=involution,
                  o=Matrix.identity(ring, n) if o is None else o)
        if not self.contains(self.o):
            raise NotInSpace("base point is not in the group")

    @property
    def ring(self):
        return self._ring

    def _fits(self, x):
        """Shape and ring, and x*x = 1 in the unitary group; whether x is
        invertible is left to the caller."""
        if x.shape != (self.n, self.n) or x.ring != self.ring:
            return False
        return (self.kind != "unitary" or self.involution.apply(x) @ x
                == Matrix.identity(self.ring, self.n))

    def contains(self, x):
        return self._fits(x) and x.is_invertible()

    def mul(self, x, y):
        """x y^-1 x; the inverse of y decides whether y is invertible."""
        if self.contains(x) and self._fits(y):
            try:
                return x @ y.inverse() @ x
            except NotInvertible:
                pass
        raise NotInSpace("arguments must lie in the group")

    mul_chart = mul

    @property
    def o_chart(self):
        return self.o

    def tangent_contains(self, v):
        """Shape and ring, and in the unitary group w* = -w for
        w = o^-1 v, the tangent space at o (at o = 1, v* = -v)."""
        if v.shape != (self.n, self.n) or v.ring != self.ring:
            return False
        if self.kind != "unitary":
            return True
        w = _o_inverse_pair(self)[1] @ v
        return self.involution.apply(w) == -w

    theta = _quarter_sandwich

    def at_ring(self, ring):
        """The space over a dual extension, built once per ring."""
        return self._lift(ring, lambda r: dict(
            n=self.n, _ring=r, kind=self.kind,
            involution=self.involution.embed(r) if self.involution else None,
            o=self.o.embed(r)))


class ProjectiveSpace(_Space):
    """Non-isotropic points of a polarity, m(x, y) = mu_{-1}(x, p(x), y);
    carries a Jordan context for its tangent modules at chart points."""

    _caches = ("_theta", "_o_chart")

    def __init__(self, polarity, jctx, o=None):
        self._set(polarity=polarity, jctx=jctx,
                  o=gamma_chart(jctx.zero()) if o is None else o)
        if not self.contains(self.o):
            raise NotInSpace("base point is isotropic")

    @property
    def ring(self):
        return self.jctx.ring

    def contains(self, E):
        return isinstance(E, ProjectivePoint) and self.polarity.nonisotropic(E)

    def mul(self, x, y):
        """mu_{-1}(x, p(x), y). The solve of the dilation decides whether
        x and y are transversal to p(x): it eliminates [x | p(x)] with
        the pivot rule of the rank that `transversal` takes, on every
        ring. A product still needs y non-isotropic. Only a refusal runs
        the rank test of x, to name its cause, in this order: the left
        argument isotropic, the right one isotropic (or not a point), y
        meeting p(x)."""
        px = self.polarity.apply(x)
        refused = None
        if (isinstance(y, ProjectivePoint) and y.ring == x.ring
                and y.n == x.n):
            try:
                out = mu_dilation(-self.ring.one(), x, px, y)
            except NotTransversal as e:
                refused = e
            else:
                if not self.contains(y):
                    raise NotInSpace("right argument is isotropic")
                return out
        if not transversal(x, px):
            raise NotInSpace("left argument is isotropic")
        if not self.contains(y):
            raise NotInSpace("right argument is isotropic")
        # contains(y) raises on a point of another line, so the dilation
        # refused y: the chart realization of sigma_x needs y transversal
        # to p(x)
        raise NotInSpace(str(refused)) from refused

    def mul_chart(self, x, y):
        out = self.mul(gamma_chart(x), gamma_chart(y))
        return chart_coords(out)

    @property
    def o_chart(self):
        """The chart coordinate of o, computed once; an o off the chart
        raises NotInChart on every read."""
        if self._o_chart is None:
            self._o_chart = chart_coords(self.o)
        return self._o_chart

    def tangent_contains(self, v):
        return self.jctx.contains(v)

    def theta(self, v):
        """The tangent map of the polarity p at o = Gamma_z0: the eps-part
        of the infinity-chart coordinate w (E = [(1; w)]) of
        exp_ad(-z0, +1).p(Gamma_{z0 + eps v}), one dual evaluation of p for
        linear and semilinear polarities alike. exp_ad(-z0, +1) moves o to
        Gamma_0 with derivative 1. exp_ad(-q, -1), which would then move
        p(o) = [(1; q)] to infinity, only translates the infinity chart and
        leaves eps-parts as they are, so it is left out."""
        if self._theta is None:
            z0 = self.o_chart
            # swap turns the infinity coordinate into the chart coordinate
            g = (GroupElement.swap(self.ring, z0.nrows)
                 @ GroupElement.exp_ad(-z0, 1))
            dring = DualRing(self.ring)
            self._theta = (z0, g.embed(dring), self.polarity.embed(dring))
        z0, g, pol = self._theta
        image = act_frac(g, pol.apply(gamma_chart(dual_combine(z0, v))))
        return dual_split(chart_coords(image))[1]

    def at_ring(self, ring):
        """The space over a dual extension, built once per ring."""
        return self._lift(ring, lambda r: dict(
            polarity=self.polarity.embed(r), jctx=self.jctx.at_ring(r),
            o=self.o.embed(r)))


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
    if not ctx.at_ring(v.ring).tangent_contains(v):
        raise NotInSpace("v is not tangent at the base point")
    ring = p.ring
    ctx_r = ctx.at_ring(ring)
    vr = v.embed(ring)
    inner = ctx_r.mul_chart(ctx_r.o_chart, p)
    x_eps = dual_combine(ctx_r.o_chart, vr)
    dring = x_eps.ring
    out = ctx.at_ring(dring).mul_chart(x_eps, inner.embed(dring))
    _, eps = dual_split(out)
    return eps.scale(ring.half())


def _is_swap_at_gamma0(ctx):
    """Whether ctx is the projective space of the swap polarity,
    unmodified, at Gamma_0: the one space whose exponential is the
    series of `exp_tanh`. The swap is the identity with its halves
    swapped, and o = [(P; Q)], of rank n, is Gamma_0 exactly when P = 0;
    neither is read by a rank."""
    pol, n = ctx.polarity, ctx.jctx.n
    swap = Matrix.identity(ctx.ring, 2 * n).submatrix(
        [*range(n, 2 * n), *range(n)], range(2 * n))
    return (pol.mode == "linear" and pol.H is None and pol.S.mat == swap
            and ctx.o.rep.submatrix(range(n), range(n)).is_zero())


def exp_tanh(ctx, v, order=24):
    """Exponential of the projective symmetric space at its base point:
    the gamma-chart point of cosh_N(v)^-1 sinh_N(v), with
    cosh_N(v) = sum_{k<=N} Q(v)^k / (2k)! and
    sinh_N(v) = sum_{k<=N} Q(v)^k v / (2k+1)!.

    The series reads neither the base point nor the polarity: it is the
    exponential of the swap polarity at Gamma_0 only, and every other
    space is refused."""
    if not isinstance(ctx, ProjectiveSpace):
        raise NotInSpace("exp_tanh lives on the projective context")
    if not _is_swap_at_gamma0(ctx):
        raise NotInSpace("exp_tanh computes only the swap polarity at "
                         "Gamma_0")
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    jctx = ctx.jctx
    ring = jctx.ring
    if ring.kind not in ("rational", "float64"):
        raise NotInSpace("exp_tanh computes only over Q and float64")
    qv = quad_triple_operator(jctx, v)
    d = jctx.dim
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
    """The Lie triple bracket T(u, theta v, w) - T(v, theta u, w) of the
    tangent module at the base point; the unit space projects it onto V,
    as its `mul` does."""
    for t in (u, v, w):
        if not ctx.tangent_contains(t):
            raise NotInSpace("arguments must be tangent at the base point")
    tu, tv = ctx.theta(u), ctx.theta(v)
    out = u @ tv @ w + w @ tv @ u - (v @ tu @ w + w @ tu @ v)
    if isinstance(ctx, JordanUnitsSpace):
        return ctx.jctx.space.project(out)
    return out
