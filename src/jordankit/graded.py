"""The 3-graded Lie algebra gl_2(A) and the elementary group acting on it.

Elements of gl_2(A) are 2n x 2n matrices over K, graded by block
position: upper-right = degree +1, diagonal = degree 0, lower-left =
degree -1. Group elements are invertible 2n x 2n matrices acting by
conjugation; an optional word of elementary generators witnesses
membership in the subgroup they generate.
"""

from __future__ import annotations

from .algebra import Matrix, left_mult, op_solve, right_mult, sandwich
from .errors import NotInChart, NotInvertible, RingMismatch, ShapeMismatch


def hat(x):
    """Embed x in degree +1: (0 x; 0 0)."""
    n = x.nrows
    z = Matrix.zeros(x.ring, n)
    return z.hstack(x).vstack(z.hstack(z))


def check(y):
    """Embed y in degree -1: (0 0; y 0)."""
    n = y.nrows
    z = Matrix.zeros(y.ring, n)
    return z.hstack(z).vstack(y.hstack(z))


def diag_embed(a, d):
    z = Matrix.zeros(a.ring, a.nrows)
    return a.hstack(z).vstack(z.hstack(d))


def blocks(X, n):
    """(a, b, c, d) blocks of a 2n x 2n matrix."""
    rows = range(n)
    rows2 = range(n, 2 * n)
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


class GroupElement:
    """Invertible 2 x 2 block matrix over A = M_n(K), acting on gl_2(A)
    by conjugation and on the projective line by fractional maps."""

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
        return cls(n, ring, Matrix.identity(ring, 2 * n), word=())

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
            return cls.from_blocks(one, v, z, one, word=((1, v),))
        return cls.from_blocks(one, z, v, one, word=((-1, v),))

    @classmethod
    def cayley(cls, ring, n):
        one = Matrix.identity(ring, n)
        return cls.from_blocks(one, one, one, -one)

    @classmethod
    def swap(cls, ring, n):
        one = Matrix.identity(ring, n)
        z = Matrix.zeros(ring, n)
        return cls.from_blocks(z, one, one, z)

    @classmethod
    def jmat(cls, ring, n):
        """(0 1; -1 0), with its elementary factorization as word."""
        one = Matrix.identity(ring, n)
        word = ((1, one), (-1, -one), (1, one))
        z = Matrix.zeros(ring, n)
        return cls(n, ring, z.hstack(one).vstack((-one).hstack(z)), word=word)

    @classmethod
    def i11(cls, ring, n):
        one = Matrix.identity(ring, n)
        z = Matrix.zeros(ring, n)
        return cls.from_blocks(one, z, z, -one)

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
        return GroupElement(self.n, self.ring, self.mat @ other.mat, word=word)

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
        return g

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


def act(g, x):
    """Chart action g.x = d^-1(n); defined iff both d and c are invertible."""
    dop, cop, nval = denominators(g, x)
    if not (dop.is_invertible() and cop.is_invertible()):
        raise NotInChart("image left the affine chart")
    return op_solve(dop, nval)


def in_chart(g, x):
    dop, cop, _ = denominators(g, x)
    return dop.is_invertible() and cop.is_invertible()
