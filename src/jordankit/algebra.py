"""The associative matrix algebra A = M_n(K): elements, inversion,
involutions, hermitian/anti-hermitian splitting, and materialized linear
operators on A.
"""

from __future__ import annotations

from . import _kernels as K
from .errors import (NotInvertible, NotInSubspace, RingMismatch,
                     ShapeMismatch, SingularOperator)
from .rings import Dual, DualRing, embedding


class Matrix:
    """Rectangular matrix of ring scalars; treated as immutable."""

    __slots__ = ("ring", "rows", "nrows", "ncols")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for r in self.rows:
            if len(r) != self.ncols:
                raise ShapeMismatch("ragged rows")

    @classmethod
    def _new(cls, ring, rows):
        """Internal fast path: adopts `rows` (list of row lists) as is."""
        m = cls.__new__(cls)
        m.ring = ring
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = len(rows[0]) if rows else 0
        return m

    # -- constructors --

    @classmethod
    def zeros(cls, ring, n, m=None):
        m = n if m is None else m
        z = ring.zero()
        return cls._new(ring, [[z] * m for _ in range(n)])

    @classmethod
    def identity(cls, ring, n):
        return cls._new(ring, K.meye(n, ring))

    @classmethod
    def from_ints(cls, ring, rows):
        return cls._new(ring, [[ring.from_int(x) for x in r] for r in rows])

    @classmethod
    def scalar(cls, ring, n, s):
        m = [[ring.zero()] * n for _ in range(n)]
        for i in range(n):
            m[i][i] = s
        return cls._new(ring, m)

    @classmethod
    def unit(cls, ring, n, i, j):
        m = [[ring.zero()] * n for _ in range(n)]
        m[i][j] = ring.one()
        return cls._new(ring, m)

    # -- arithmetic --

    def _same(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        self._same(other)
        return Matrix._new(self.ring, K.madd(self.rows, other.rows))

    def __sub__(self, other):
        self._same(other)
        return Matrix._new(self.ring, K.msub(self.rows, other.rows))

    def __neg__(self):
        return Matrix._new(self.ring, K.mneg(self.rows))

    def __matmul__(self, other):
        self._same(other)
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"{self.shape} @ {other.shape}")
        return Matrix._new(self.ring, K.matmul(self.rows, other.rows, self.ring))

    def scale(self, s):
        return Matrix._new(self.ring, K.mscale(self.rows, s))

    def transpose(self):
        return Matrix._new(self.ring, K.mtranspose(self.rows))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.ring == other.ring and self.rows == other.rows)

    __hash__ = None

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in r) for r in self.rows)
        return f"[{body}]"

    def is_zero(self):
        z = self.ring.zero()
        return all(x == z for r in self.rows for x in r)

    def map(self, f):
        return Matrix._new(self.ring, [[f(x) for x in r] for r in self.rows])

    # -- linear algebra --

    def solve(self, rhs):
        """X with self @ X = rhs; raises SingularOperator."""
        self._same(rhs)
        if self.nrows != self.ncols or rhs.nrows != self.nrows:
            raise ShapeMismatch("solve needs a square system")
        x = K.gauss_solve(self.rows, rhs.rows, self.ring)
        if x is None:
            raise SingularOperator("no unit pivot")
        return Matrix._new(self.ring, x)

    def inverse(self):
        if self.nrows != self.ncols:
            raise ShapeMismatch("inverse of a non-square matrix")
        x = K.gauss_solve(self.rows, K.meye(self.nrows, self.ring), self.ring)
        if x is None:
            raise NotInvertible("no unit pivot")
        return Matrix._new(self.ring, x)

    def is_invertible(self):
        return self.rank() == self.nrows == self.ncols

    def rank(self):
        """Rank; over dual rings this is the re-part rank."""
        base = self.base_part()
        return K.gauss_rank(base.rows, base.ring)

    def hstack(self, other):
        self._same(other)
        return Matrix._new(self.ring, [a + b
                                       for a, b in zip(self.rows, other.rows)])

    def vstack(self, other):
        self._same(other)
        return Matrix._new(self.ring, [list(r) for r in self.rows]
                           + [list(r) for r in other.rows])

    def submatrix(self, rows, cols):
        return Matrix._new(self.ring,
                           [[self.rows[i][j] for j in cols] for i in rows])

    def flatten(self):
        """Row-major entry list."""
        return [x for r in self.rows for x in r]

    def column(self, j):
        return [r[j] for r in self.rows]

    def base_part(self):
        """The projection to the ring at the bottom of a dual tower: the
        mask-0 coordinate of every entry; the matrix itself over any other
        ring. Taking re-parts is a ring homomorphism."""
        ring = self.ring
        if ring.kind != "dual":
            return self
        return Matrix._new(ring.root,
                           [[x._root(0) for x in r] for r in self.rows])

    def embed(self, dst_ring):
        """Structurally embed into an iterated dual extension."""
        f = embedding(self.ring, dst_ring)
        return Matrix._new(dst_ring, [list(map(f, r)) for r in self.rows])

    def max_abs(self):
        """Largest |coordinate| of an entry over the root field (float
        rings only): over a dual ring, of every jet coordinate."""
        return max((abs(f) for r in self.rows for x in r
                    for f in _components(x)), default=0.0)


def _components(s):
    """The root-field coordinates of a dual scalar; a root scalar itself."""
    if isinstance(s, Dual):
        return [s._root(m) for m in range(len(s.v))]
    return [s]


def unflatten(ring, n, m, flat):
    return Matrix._new(ring, [list(flat[i * m:(i + 1) * m]) for i in range(n)])


def dual_combine(base_mat, eps_mat):
    """base + eps*tangent, entrywise, over DualRing(base.ring)."""
    base_mat._same(eps_mat)
    ring = DualRing(base_mat.ring)
    return Matrix._new(ring, [[Dual(a, b) for a, b in zip(ra, rb)]
                              for ra, rb in zip(base_mat.rows, eps_mat.rows)])


def dual_split(mat):
    """Inverse of dual_combine."""
    ring = mat.ring
    if not isinstance(ring, DualRing):
        from .errors import NotDual
        raise NotDual(f"{ring!r} is not a dual ring")
    re = Matrix._new(ring.base, [[x.re for x in r] for r in mat.rows])
    ep = Matrix._new(ring.base, [[x.eps for x in r] for r in mat.rows])
    return re, ep


class Involution:
    """x -> x*: plain transpose, or the adjoint with respect to an
    invertible (skew-)symmetric form B, x* = B^-1 x^T B."""

    __slots__ = ("kind", "form", "symmetry", "_form_inv")

    def __init__(self, kind="transpose", form=None, symmetry="symmetric"):
        if kind not in ("transpose", "form_adjoint"):
            raise ValueError(f"unknown involution kind {kind!r}")
        self.kind = kind
        self.form = form
        self.symmetry = symmetry
        self._form_inv = None
        if kind == "form_adjoint":
            if form is None:
                raise ValueError("form_adjoint needs a form matrix")
            want = form.transpose() if symmetry == "symmetric" else -form.transpose()
            if want != form:
                raise ValueError(f"form is not {symmetry}")
            self._form_inv = form.inverse()

    def apply(self, x):
        if self.kind == "transpose":
            return x.transpose()
        return self._form_inv @ x.transpose() @ self.form

    def embed(self, ring):
        if self.kind == "transpose":
            return self
        return Involution("form_adjoint", self.form.embed(ring), self.symmetry)

    def __eq__(self, other):
        return (isinstance(other, Involution) and self.kind == other.kind
                and self.form == other.form and self.symmetry == other.symmetry)

    def __repr__(self):
        if self.kind == "transpose":
            return "Involution(transpose)"
        return f"Involution(form_adjoint, {self.symmetry})"


def herm_split(iota, x):
    """(h, a) with h* = h, a* = -a, h + a = x."""
    half = x.ring.half()
    xs = iota.apply(x)
    return (x + xs).scale(half), (x - xs).scale(half)


class LinearOperator:
    """A linear map between coordinate spaces, stored densely.

    Columns are images of basis vectors; composition is matrix product.
    """

    __slots__ = ("mat",)

    def __init__(self, mat):
        self.mat = mat

    @classmethod
    def identity(cls, ring, dim):
        return cls(Matrix.identity(ring, dim))

    @classmethod
    def from_columns(cls, ring, cols):
        """The operator whose j-th column is `cols[j]`, the image of the
        j-th basis vector."""
        return cls(Matrix._new(ring, K.mtranspose(cols)))

    @property
    def dim_out(self):
        return self.mat.nrows

    @property
    def dim_in(self):
        return self.mat.ncols

    @property
    def ring(self):
        return self.mat.ring

    def apply_flat(self, flat):
        return K.matvec(self.mat.rows, list(flat), self.ring)

    def compose(self, other):
        """self after other."""
        return LinearOperator(self.mat @ other.mat)

    def __add__(self, other):
        return LinearOperator(self.mat + other.mat)

    def __sub__(self, other):
        return LinearOperator(self.mat - other.mat)

    def scale(self, s):
        return LinearOperator(self.mat.scale(s))

    def is_invertible(self):
        return self.mat.is_invertible()

    def inverse(self):
        try:
            return LinearOperator(self.mat.inverse())
        except NotInvertible as e:
            raise SingularOperator(str(e)) from e

    def solve_flat(self, flat):
        col = Matrix(self.ring, [[x] for x in flat])
        return self.mat.solve(col).column(0)

    def __eq__(self, other):
        return isinstance(other, LinearOperator) and self.mat == other.mat

    def __repr__(self):
        return f"LinearOperator({self.dim_out}x{self.dim_in})"


def matrix_unit_basis(ring, n):
    """E_ij of M_n(K), row-major."""
    return [Matrix.unit(ring, n, i, j) for i in range(n) for j in range(n)]


def op_from_action(f, basis, ring):
    """Materialize a linear map by applying it to a basis of its domain.

    `f` maps Matrix -> Matrix; the result's columns are the flattened
    images, so apply_flat works on row-major coordinates.
    """
    return LinearOperator.from_columns(ring, [f(b).flatten() for b in basis])


# Operators w -> a w b on A = M_n(K), on row-major coordinates, where
# vec(a w b) = (a (x) b^T) vec(w): entry [(i,j),(k,l)] is a[i][k] b[l][j].

def left_mult(a):
    """L_a = a (x) I: w -> a w, entry [(i,j),(k,l)] = a[i][k] delta_jl."""
    n, z = a.nrows, a.ring.zero()
    rows = []
    for ai in a.rows:
        for j in range(n):
            row = [z] * (n * n)
            row[j::n] = ai
            rows.append(row)
    return LinearOperator(Matrix._new(a.ring, rows))


def right_mult(b):
    """R_b = I (x) b^T: w -> w b, entry [(i,j),(k,l)] = delta_ik b[l][j]."""
    n, z = b.nrows, b.ring.zero()
    bt = K.mtranspose(b.rows)
    rows = []
    for i in range(n):
        for btj in bt:
            row = [z] * (n * n)
            row[i * n:(i + 1) * n] = btj
            rows.append(row)
    return LinearOperator(Matrix._new(b.ring, rows))


def sandwich(a, b):
    """a (x) b^T: w -> a w b, entry [(i,j),(k,l)] = a[i][k] b[l][j]."""
    a._same(b)
    bt = K.mtranspose(b.rows)
    return LinearOperator(Matrix._new(a.ring, [
        [aik * blj for aik in ai for blj in btj]
        for ai in a.rows for btj in bt]))


def op_apply(op, x):
    """Apply an operator materialized on the full matrix-unit basis."""
    flat = op.apply_flat(x.flatten())
    return unflatten(x.ring, x.nrows, x.ncols, flat)


def op_solve(op, y):
    """z with op(z) = y, both reshaped as square algebra elements."""
    flat = op.solve_flat(y.flatten())
    return unflatten(y.ring, y.nrows, y.ncols, flat)


class CoordinateBasis:
    """A K-subspace of M_n(K) with membership test and coordinates.

    Built from an explicit basis; coordinates are read off through a
    precomputed left inverse on pivot rows, then membership is the check
    that the reconstruction reproduces the element. On pivot rows the
    reconstruction cols[piv] L^-1 flat[piv] is flat[piv] by construction,
    so only the remaining (free) rows are compared.
    """

    __slots__ = ("ring", "n", "basis", "_cols", "_pivot_rows", "_left_inv",
                 "_free_rows", "_standard")

    def __init__(self, ring, n, basis):
        self.ring = ring
        self.n = n
        self.basis = list(basis)
        d = len(self.basis)
        cols = Matrix._new(ring, [[self.basis[j].flatten()[i] for j in range(d)]
                                  for i in range(n * n)])
        self._cols = cols
        piv = K.pivot_columns(cols.transpose().rows, ring)
        if len(piv) != d:
            raise ValueError("basis is not independent")
        self._pivot_rows = piv
        sub = cols.submatrix(piv, range(d))
        self._left_inv = sub.inverse()
        self._free_rows = [i for i in range(n * n) if i not in piv]
        self._standard = (not self._free_rows
                          and cols == Matrix.identity(ring, d))

    @property
    def dim(self):
        return len(self.basis)

    def _read(self, x):
        """The row-major entries of x and the coordinates read off its
        pivot rows."""
        if x.ring != self.ring or x.shape != (self.n, self.n):
            raise RingMismatch("element does not match the subspace ambient")
        flat = x.flatten()
        if self._standard:
            return flat, flat
        return flat, K.matvec(self._left_inv.rows,
                              [flat[i] for i in self._pivot_rows], self.ring)

    def coords(self, x):
        flat, c = self._read(x)
        if self._free_rows:
            rows = self._cols.rows
            free = self._free_rows
            recon = K.matvec([rows[i] for i in free], c, self.ring)
            if not self._agree(recon, [flat[i] for i in free]):
                raise NotInSubspace("element is outside the subspace")
        return c

    def _agree(self, got, want):
        """Whether two scalar lists are equal: exactly over exact rings,
        within 1e-9 in every base component over float rings."""
        if self.ring.is_exact():
            return got == want
        return all(abs(f) <= 1e-9 for a, b in zip(got, want)
                   for f in _components(a - b))

    def contains(self, x):
        try:
            self.coords(x)
            return True
        except NotInSubspace:
            return False

    def project(self, x):
        """The point of the subspace with the coordinates read off the
        pivot rows of x, as in `coords()`, without the check of the free
        rows: x itself for x in the subspace over an exact ring, and
        never a refusal. Over a float ring it turns an x that lies in the
        subspace up to rounding into a point of it."""
        return self.from_coords(self._read(x)[1])

    def from_coords(self, c):
        if self._standard:
            return unflatten(self.ring, self.n, self.n, c)
        flat = K.matvec(self._cols.rows, list(c), self.ring)
        return unflatten(self.ring, self.n, self.n, flat)

    def materialize(self, op):
        """Restriction to the subspace of `op`, an operator on all of
        M_n(K) in row-major coordinates (see `sandwich`).

        The images of the basis are read off in coordinates as in
        `coords()`, for all basis elements at once; raises NotInSubspace
        if `op` does not map the subspace into itself.
        """
        if self._standard:
            return op
        ring = self.ring
        images = K.matmul(op.mat.rows, self._cols.rows, ring)
        c = K.matmul(self._left_inv.rows,
                     [images[i] for i in self._pivot_rows], ring)
        if self._free_rows:
            rows = self._cols.rows
            free = self._free_rows
            recon = K.matmul([rows[i] for i in free], c, ring)
            if not self._agree([x for r in recon for x in r],
                               [x for i in free for x in images[i]]):
                raise NotInSubspace("operator does not preserve the subspace")
        return LinearOperator(Matrix._new(ring, c))

    def embed(self, ring):
        """The same subspace over an iterated dual extension of its ring.

        Embedding is a ring homomorphism and dual pivots are decided on
        re-parts, so elimination over `ring` would pick the same pivot
        rows and return the embedded left inverse; both are carried over
        instead of being recomputed.
        """
        out = CoordinateBasis.__new__(CoordinateBasis)
        out.ring = ring
        out.n = self.n
        out.basis = [b.embed(ring) for b in self.basis]
        out._cols = self._cols.embed(ring)
        out._pivot_rows = self._pivot_rows
        out._left_inv = self._left_inv.embed(ring)
        out._free_rows = self._free_rows
        out._standard = self._standard
        return out
