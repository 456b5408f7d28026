"""The 3-graded Lie algebra gl_2(A) and the elementary group acting on it.

Elements of gl_2(A) are 2n x 2n matrices over K, graded by block
position: upper-right = degree +1, diagonal = degree 0, lower-left =
degree -1. Group elements are invertible 2n x 2n matrices acting by
conjugation; an optional word of elementary generators witnesses
membership in the subgroup they generate.
"""

from __future__ import annotations

from .algebra import Matrix, left_mult, op_solve, right_mult, sandwich
from .errors import (NotInChart, NotInvertible, RingMismatch, ShapeMismatch,
                     SingularOperator)


def hat(x):
    """Embed x in degree +1: (0 x; 0 0)."""
    z = Matrix.zeros(x.ring, x.nrows)
    return z.hstack(x).vstack(z.hstack(z))


def check(y):
    """Embed y in degree -1: (0 0; y 0)."""
    z = Matrix.zeros(y.ring, y.nrows)
    return z.hstack(z).vstack(y.hstack(z))


def diag_embed(a, d):
    z = Matrix.zeros(a.ring, a.nrows)
    return a.hstack(z).vstack(z.hstack(d))


def blocks(X, n):
    """(a, b, c, d) blocks of a 2n x 2n matrix."""
    rows, rows2 = range(n), range(n, 2 * n)
    return (X.submatrix(rows, rows), X.submatrix(rows, rows2),
            X.submatrix(rows2, rows), X.submatrix(rows2, rows2))


def pr1(X, n):
    return X.submatrix(range(n), range(n, 2 * n))


def euler(ring, n):
    """E = (1/2) diag(1, -1); ad(E) acts as the degree."""
    h = ring.half()
    one = Matrix.identity(ring, n)
    return diag_embed(one.scale(h), one.scale(-h))


def ad_bracket(X, Y):
    """[X, Y] = XY - YX in gl_2(A)."""
    return X @ Y - Y @ X


def ad_blocks(v, degree):
    """The nonzero blocks of ad(v^) for v^ = hat(v) (degree +1) or
    check(v) (degree -1), keyed by source degree, as matrices on the
    row-major coordinates of each degree piece: of its n x n block in
    degrees +1 and -1, and of the diagonal blocks (a, d), a first, in
    degree 0:

        ad(hat(v)):   g_0 -> g_1    (a, d) -> v d - a v   [-R_v | L_v]
                      g_-1 -> g_0   w -> (v w, -w v)      [L_v ; -R_v]
        ad(check(v)): g_1 -> g_0    w -> (-w v, v w)      [-R_v ; L_v]
                      g_0 -> g_-1   (a, d) -> v a - d v   [L_v | -R_v]
    """
    lv, rv = left_mult(v).mat, right_mult(v).mat
    if degree == 1:
        return {0: (-rv).hstack(lv), -1: lv.vstack(-rv)}
    if degree == -1:
        return {1: (-rv).vstack(lv), 0: lv.hstack(-rv)}
    raise ValueError("degree must be +1 or -1")


def _invertible(g):
    """g, invertible by construction, with the rank 2n recorded on its
    matrix over exact rings (and dual towers over them), so that nothing
    ranks it again; over float64 rank is a threshold decision and is
    computed when asked."""
    if g.ring.is_exact():
        g.mat._rank = 2 * g.n
    return g


class GroupElement:
    """Invertible 2 x 2 block matrix over A = M_n(K), acting on gl_2(A)
    by conjugation and on the projective line by fractional maps. The
    named constructors build invertible elements, and so are products
    of such elements and every inverse: over exact rings their matrices
    carry the rank 2n (see `_invertible`)."""

    __slots__ = ("n", "ring", "mat", "word", "_inv_mat")

    def __init__(self, n, ring, mat, word=None):
        if mat.shape != (2 * n, 2 * n):
            raise ShapeMismatch("group element must be 2n x 2n")
        self.n = n
        self.ring = ring
        self.mat = mat
        self.word = tuple(word) if word is not None else None
        self._inv_mat = None

    # -- constructors --

    @classmethod
    def identity(cls, ring, n):
        return _invertible(cls(n, ring, Matrix.identity(ring, 2 * n),
                               word=()))

    @classmethod
    def from_blocks(cls, a, b, c, d, word=None):
        return cls(a.nrows, a.ring, a.hstack(b).vstack(c.hstack(d)), word=word)

    @classmethod
    def exp_ad(cls, v, degree):
        """(1 v; 0 1) for degree +1, (1 0; v 1) for degree -1."""
        if degree not in (1, -1):
            raise ValueError("degree must be +1 or -1")
        n, ring = v.nrows, v.ring
        one = Matrix.identity(ring, n)
        z = Matrix.zeros(ring, n)
        if degree == 1:
            g = cls.from_blocks(one, v, z, one, word=((1, v),))
        else:
            g = cls.from_blocks(one, z, v, one, word=((-1, v),))
        return _invertible(g)

    @classmethod
    def cayley(cls, ring, n):
        """(1 1; 1 -1), its own inverse up to the unit 2."""
        one = Matrix.identity(ring, n)
        return _invertible(cls.from_blocks(one, one, one, -one))

    @classmethod
    def swap(cls, ring, n):
        one = Matrix.identity(ring, n)
        z = Matrix.zeros(ring, n)
        return _invertible(cls.from_blocks(z, one, one, z))

    @classmethod
    def jmat(cls, ring, n):
        """(0 1; -1 0), with its elementary factorization as word."""
        one = Matrix.identity(ring, n)
        word = ((1, one), (-1, -one), (1, one))
        z = Matrix.zeros(ring, n)
        return _invertible(cls(n, ring, z.hstack(one).vstack((-one).hstack(z)),
                               word=word))

    @classmethod
    def i11(cls, ring, n):
        one = Matrix.identity(ring, n)
        z = Matrix.zeros(ring, n)
        return _invertible(cls.from_blocks(one, z, z, -one))

    @classmethod
    def from_word(cls, ring, n, word):
        g = cls.identity(ring, n)
        for deg, v in word:
            g = g @ cls.exp_ad(v, deg)
        return g

    # -- group structure --

    def __matmul__(self, other):
        if self.ring != other.ring or self.n != other.n:
            raise RingMismatch("group elements over different algebras")
        word = None
        if self.word is not None and other.word is not None:
            word = self.word + other.word
        g = GroupElement(self.n, self.ring, self.mat @ other.mat, word=word)
        if self.mat._rank == other.mat._rank == 2 * self.n:
            _invertible(g)
        return g

    def inverse_mat(self):
        if self._inv_mat is None:
            try:
                self._inv_mat = self.mat.inverse()
            except NotInvertible as e:
                raise NotInvertible("group element is not invertible") from e
        return self._inv_mat

    def inverse(self):
        word = None
        if self.word is not None:
            word = tuple((deg, -v) for deg, v in reversed(self.word))
        g = GroupElement(self.n, self.ring, self.inverse_mat(), word=word)
        g._inv_mat = self.mat
        return _invertible(g)

    def blocks(self):
        return blocks(self.mat, self.n)

    def ad(self, X):
        """Ad(g)X = g X g^-1 on gl_2(A)."""
        return self.mat @ X @ self.inverse_mat()

    def embed(self, ring):
        if ring == self.ring:
            return self
        word = None
        if self.word is not None:
            word = tuple((deg, v.embed(ring)) for deg, v in self.word)
        return GroupElement(self.n, ring, self.mat.embed(ring), word=word)

    def __eq__(self, other):
        return (isinstance(other, GroupElement) and self.n == other.n
                and self.ring == other.ring and self.mat == other.mat)

    def __repr__(self):
        return f"GroupElement(n={self.n}, {self.mat!r})"


def ad_operator(g):
    """Ad(g) on the row-major coordinates of gl_2(A) = M_2n(K):
    vec(g X g^-1) = (g (x) g^-T) vec(X), the sandwich by g and g^-1."""
    return sandwich(g.mat, g.inverse_mat())


def denominators(g, x):
    """(d, c, n) for the chart action of g at x.

    d is the degree-(1,1) block of Ad((g u)^-1), c the degree-(-1,-1)
    block of Ad(g u), and n the degree-1 part of Ad((g u)^-1) applied to
    the Euler element, where u = exp_ad(x, +1). With h = g u and its
    inverse in blocks, h^-1 (0 w; 0 0) h has upper-right block
    (h^-1)_11 w h_22 and h (0 0; w 0) h^-1 has lower-left block
    h_22 w (h^-1)_11, so d and c are sandwich operators.
    """
    ring, n = g.ring, g.n
    h = g @ GroupElement.exp_ad(x, 1)
    hm = h.mat
    hi = h.inverse_mat()
    hi11 = hi.submatrix(range(n), range(n))
    h22 = hm.submatrix(range(n, 2 * n), range(n, 2 * n))
    nval = pr1(hi @ euler(ring, n) @ hm, n)
    return sandwich(hi11, h22), sandwich(h22, hi11), nval


def _chart_image(g, x):
    """(a x + b, c x + d) for g = (a b; c d): the two blocks of g (x; 1),
    the rep of g.Gamma_x, by one 2n x 2n by 2n x n product."""
    n = g.n
    image = g.mat @ x.vstack(Matrix.identity(g.ring, n))
    return (image.submatrix(range(n), range(n)),
            image.submatrix(range(n, 2 * n), range(n)))


def act(g, x):
    """Chart action g.x = (a x + b)(c x + d)^-1 for g = (a b; c d), by one
    n x n solve in A, of (c x + d)^T y = (a x + b)^T; defined iff c x + d
    is invertible.

    With h = g exp_ad(x, +1), c x + d is h_22, and the literal denominator
    d of `denominators` is the sandwich of (h^-1)_11 and h_22. For an
    invertible h, (h^-1)_11 is invertible exactly when h_22 is (Jacobi's
    complementary minor), so the two forms refuse the same x; on the chart
    d^-1(n) = (a x + b)(c x + d)^-1 (Bertram and Neeb, Projective
    completions of Jordan pairs, Part I). `act_literal` keeps d^-1(n) as
    the oracle, and `suites.check_act_chart_agreement` compares both with
    the point action."""
    num, den = _chart_image(g, x)
    try:
        return den.transpose().solve(num.transpose()).transpose()
    except SingularOperator as e:
        raise NotInChart("image left the affine chart") from e


def act_literal(g, x):
    """Chart action g.x = d^-1(n), solved with the n^2 x n^2 denominator
    d of `denominators`; defined iff d and c are invertible, that is iff d
    is (both are Kronecker products of (h^-1)_11 and h_22). The oracle of
    `act`."""
    dop, _, nval = denominators(g, x)
    try:
        return op_solve(dop, nval)
    except SingularOperator as e:
        raise NotInChart("image left the affine chart") from e


def in_chart(g, x):
    """Whether g.x lies in the chart: whether c x + d is invertible (see
    `act`)."""
    return _chart_image(g, x)[1].is_invertible()
