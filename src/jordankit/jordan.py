"""Jordan-algebraic core on A = M_n(K) and its (anti-)hermitian parts:
products, the multiplication and quadratic representations, inverses,
triple products, Bergman operators and quasi-inverses.

Convention: the triple product is T(x,y,z) = xyz + zyx (the double
bracket [[x^,y^],z^] in gl_2), the Bergman operator is
id + ad(x^)ad(y^) + (1/4)ad(x^)^2 ad(y^)^2, which closes to
z -> (1+xy)z(1+yx), and the quasi-inverse is B(x,y)^-1 (x + Q(x)y)
= x(1+yx)^-1. `quasi_inverse` computes the closed form with one n x n
solve in A; the literal forms `bergman_operator` and
`quasi_inverse_literal` stay as its oracles, with `bergman_closed`. The
opposite ("loos") sign convention negates the second slot; it is a
field of compute requests (see cli.compute).
"""

from __future__ import annotations

from . import _kernels as K
from .algebra import (CoordinateBasis, LinearOperator, Matrix, herm_split,
                      left_mult, lift_once, matrix_unit_basis, right_mult,
                      sandwich)
from .errors import (NotInSubspace, NotInvertible, NotQuasiInvertible,
                     SingularOperator, _echo)
from .graded import ad_blocks

FLAVORS = ("full", "hermitian", "antihermitian")


class JordanContext:
    """Ambient subspace V of A = M_n(K): all of A, Herm(A, iota) or
    Aherm(A, iota), with a fixed coordinate basis."""

    __slots__ = ("n", "ring", "flavor", "involution", "space", "_lifts")

    def __init__(self, n, ring, flavor="full", involution=None, _space=None):
        if flavor not in FLAVORS:
            raise ValueError(f"unknown flavor {_echo(flavor)}")
        if flavor != "full" and involution is None:
            raise ValueError(f"flavor {flavor!r} needs an involution")
        self.n = n
        self.ring = ring
        self.flavor = flavor
        self.involution = involution
        self.space = _space if _space is not None else self._build_space()
        self._lifts = {}

    def _build_space(self):
        units = matrix_unit_basis(self.ring, self.n)
        if self.flavor == "full":
            return CoordinateBasis(self.ring, self.n, units)
        idx = 0 if self.flavor == "hermitian" else 1
        candidates = [herm_split(self.involution, u)[idx] for u in units]
        # The pivot columns of the matrix whose columns are the candidates
        # are the candidates independent of all earlier ones.
        cols = candidates[0].vec().hstack(*[c.vec() for c in candidates[1:]])
        piv = K.pivot_columns(cols._form, self.ring)
        return CoordinateBasis(self.ring, self.n, [candidates[j] for j in piv])

    @property
    def dim(self):
        return self.space.dim

    def contains(self, x):
        if x.shape != (self.n, self.n) or x.ring != self.ring:
            return False
        return self.flavor == "full" or self.space.contains(x)

    def require(self, *xs):
        for x in xs:
            if not self.contains(x):
                raise NotInSubspace(f"element not in {self.flavor} subspace")

    def unit(self):
        return Matrix.identity(self.ring, self.n)

    def zero(self):
        return Matrix.zeros(self.ring, self.n)

    def at_ring(self, ring):
        """The same context with all data embedded into a dual extension;
        built once per ring and reused."""
        return lift_once(self, ring, lambda r: JordanContext(
            self.n, r, self.flavor,
            self.involution.embed(r) if self.involution else None,
            _space=self.space.embed(r)))

    def __repr__(self):
        return f"JordanContext(n={self.n}, {self.ring!r}, {self.flavor})"


def _require_product_closed(ctx, *xs):
    if ctx.flavor == "antihermitian":
        raise NotInSubspace("antihermitian part is not product-closed")
    ctx.require(*xs)


def _mult_operator(ctx, x):
    """L(x) = (L_x + R_x)/2 for an x already known to lie in V; x is
    halved before its entries are placed, so only n^2 scalars are
    multiplied."""
    hx = x.scale(ctx.ring.half())
    return ctx.space.materialize(left_mult(hx) + right_mult(hx))


def _rep_pair(ctx, x):
    """(L(x), Q(x)) for an x already known to lie in V; x o x = x^2."""
    lx = _mult_operator(ctx, x)
    two = ctx.ring.from_int(2)
    return lx, lx.compose(lx).scale(two) - _mult_operator(ctx, x @ x)


def jordan_product(ctx, x, y):
    """x o y = (xy + yx)/2; only the product-closed flavors."""
    _require_product_closed(ctx, x, y)
    return (x @ y + y @ x).scale(ctx.ring.half())


def mult_operator(ctx, x):
    """L(x): w -> x o w on V."""
    _require_product_closed(ctx, x)
    return _mult_operator(ctx, x)


def rep_operators(ctx, x, y=None):
    """(L(x), Q(x)) and, when y is given, the polarized Q(x,y), as
    operators on the context's coordinate space; Q = 2 L(x)^2 - L(x o x)."""
    if y is None:
        _require_product_closed(ctx, x)
        return _rep_pair(ctx, x)
    _require_product_closed(ctx, x, y)
    lx, qx = _rep_pair(ctx, x)
    qxy = _rep_pair(ctx, x + y)[1] - qx - _rep_pair(ctx, y)[1]
    return lx, qx, qxy


def quad_triple_operator(ctx, x):
    """The quadratic operator of the triple system, w -> x w x; defined
    for every flavor (it is (1/2)T(x, ., x))."""
    ctx.require(x)
    return ctx.space.materialize(sandwich(x, x))


def jordan_inverse(ctx, x):
    """x^-1 = Q(x)^-1 x; requires a unital (full or hermitian) flavor.

    V is a subspace of A = M_n(K) containing its unit, so Q(x)w = xwx,
    Q(x) is invertible on V exactly when x is invertible in A, and the
    Jordan inverse is the inverse in A (McCrimmon, A Taste of Jordan
    Algebras, 2004). x in V gives x^-1 in V, so it is projected onto V
    (`CoordinateBasis.project`), which over float rings makes it a point
    of V bit for bit. `suites.check_units_literal` compares it with the
    literal Q(x)^-1 x."""
    _require_product_closed(ctx, x)
    try:
        xi = x.inverse()
    except NotInvertible as e:
        raise NotInvertible("quadratic representation is singular") from e
    return ctx.space.project(xi)


def is_jordan_invertible(ctx, x):
    """Whether x lies in V and Q(x) is invertible, that is, whether x is
    invertible in A (see `jordan_inverse`)."""
    if not ctx.contains(x):
        return False
    _require_product_closed(ctx)
    return x.is_invertible()


def triple_product(ctx, x, y, z):
    """T(x,y,z) = xyz + zyx."""
    ctx.require(x, y, z)
    return x @ y @ z + z @ y @ x


def bergman_operator(ctx, x, y):
    """id + ad(x^)ad(y^) + (1/4) ad(x^)^2 ad(y^)^2, evaluated literally in
    gl_2(A) and restricted to the degree-1 piece, as an operator on V.

    The terms are products of the degree blocks of ad(x^) and ad(y^)
    (`ad_blocks`): g_1 -> g_0 -> g_1, and g_1 -> g_0 -> g_-1 -> g_0 -> g_1.
    """
    ctx.require(x, y)
    ax = ad_blocks(x, 1)
    ay = ad_blocks(y, -1)
    quarter = ctx.ring.inv_int(4)
    b = (Matrix.identity(ctx.ring, ctx.n * ctx.n) + ax[0] @ ay[1]
         + ((ax[0] @ ax[-1]) @ (ay[0] @ ay[1])).scale(quarter))
    return ctx.space.materialize(LinearOperator(b))


def bergman_closed(ctx, x, y):
    """Closed associative form z -> (1+xy)z(1+yx); the oracle twin of
    bergman_operator."""
    ctx.require(x, y)
    one = ctx.unit()
    return ctx.space.materialize(sandwich(one + x @ y, one + y @ x))


def is_quasi_invertible(ctx, x, y):
    """Whether x and y lie in V and 1 + yx is invertible in A, that is,
    whether B(x,y) and B(y,x) are invertible on V (see `quasi_inverse`)."""
    if not (ctx.contains(x) and ctx.contains(y)):
        return False
    return (ctx.unit() + y @ x).is_invertible()


def quasi_inverse(ctx, x, y):
    """The quasi-inverse x(1+yx)^-1 = (1+xy)^-1 x, by one n x n solve in A.

    (x, y) is quasi-invertible exactly when 1 + yx, or equally 1 + xy, is
    invertible in A, and then B(x,y)^-1 (x + Q(x)y) = x(1+yx)^-1 (Loos,
    Jordan Pairs, LNM 460, 1975); it also equals the chart action of
    (1 0; y 1). For x, y in V the result lies in V, so it is projected
    onto V as `jordan_inverse` does. `suites.check_quasi_closed` compares
    it with `quasi_inverse_literal`, failures included."""
    ctx.require(x, y)
    try:
        q = (ctx.unit() + x @ y).solve(x)
    except SingularOperator as e:
        raise NotQuasiInvertible("Bergman operator is singular") from e
    return ctx.space.project(q)


def quasi_inverse_literal(ctx, x, y):
    """B(x,y)^-1 (x + Q(x)y), solved with the literal Bergman operator on
    V; the oracle of `quasi_inverse`."""
    b = bergman_operator(ctx, x, y)
    try:
        c = b.solve_flat(ctx.space.coords(x + x @ y @ x))
    except SingularOperator as e:
        raise NotQuasiInvertible("Bergman operator is singular") from e
    return ctx.space.from_coords(c)


def full_quasi_inverse_oracle(ctx, x, y):
    """x(1+yx)^-1 computed directly in A; full flavor oracle."""
    return x @ (ctx.unit() + y @ x).inverse()
