"""The associative matrix algebra A = M_n(K): elements, inversion,
involutions, hermitian/anti-hermitian splitting, and materialized linear
operators on A.

A Matrix holds its entries in its ring's form (see rings.py), for its
whole life. Over Q, F_p and float64 that is the packed form
(rings.Packed): integer rows over one denominator, residue rows or float
rows. Over a dual ring it is one such matrix per nilpotent mask, over
one denominator (rings.Jets). Sums, products, scaling, transpose,
reshape, stacking, embedding, the eps-split, rank, solve and inverse,
and the operator builders all take and return it, and a coordinate
vector is a column Matrix.
The rows of scalars, `rows`, are a view built once, when a caller first
reads entries (`rows`, indexing, `flatten`, `column`, serialization and
the float tolerance checks). A Matrix is immutable, so neither form goes
stale, and its rank is kept once computed.
"""

from __future__ import annotations

from . import _kernels as K
from .errors import (NotDual, NotInvertible, NotInSubspace, RingMismatch,
                     ShapeMismatch, SingularOperator)
from .rings import Dual, DualRing


class Matrix:
    """Rectangular matrix of ring scalars; immutable."""

    __slots__ = ("ring", "nrows", "ncols", "_form", "_rows", "_rank")

    def __init__(self, ring, rows):
        rows = [list(r) for r in rows]
        ncols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != ncols:
                raise ShapeMismatch("ragged rows")
        self._adopt(ring, ring.pack(rows))

    def _adopt(self, ring, form):
        self.ring = ring
        self._form = form
        self.nrows = len(form)
        self.ncols = len(form[0]) if form else 0
        self._rows = self._rank = None

    @classmethod
    def _of(cls, ring, form):
        """Internal fast path: the matrix whose form in `ring` is `form`,
        adopted as is."""
        m = cls.__new__(cls)
        m._adopt(ring, form)
        return m

    @property
    def rows(self):
        """The rows of scalars, built on first read; do not modify."""
        rows = self._rows
        if rows is None:
            rows = self._rows = self.ring.unpack(self._form)
        return rows

    # -- constructors --

    @classmethod
    def zeros(cls, ring, n, m=None):
        m = n if m is None else m
        return cls._of(ring, ring.ints([[0] * m for _ in range(n)]))

    @classmethod
    def identity(cls, ring, n):
        return cls._of(ring, ring.ints([[int(i == j) for j in range(n)]
                                        for i in range(n)]))

    @classmethod
    def from_ints(cls, ring, rows):
        return cls._of(ring, ring.ints(rows))

    @classmethod
    def unit(cls, ring, n, i, j):
        m = [[0] * n for _ in range(n)]
        m[i][j] = 1
        return cls._of(ring, ring.ints(m))

    # -- arithmetic --

    def _same(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other):
        self._same(other)
        return Matrix._of(self.ring, self.ring.madd(self._form, other._form))

    def __sub__(self, other):
        self._same(other)
        return Matrix._of(self.ring, self.ring.msub(self._form, other._form))

    def __neg__(self):
        return Matrix._of(self.ring, self.ring.mneg(self._form))

    def __matmul__(self, other):
        self._same(other)
        if self.ncols != other.nrows:
            raise ShapeMismatch(f"{self.shape} @ {other.shape}")
        return Matrix._of(self.ring,
                          K.matmul(self._form, other._form, self.ring))

    def scale(self, s):
        return Matrix._of(self.ring, self.ring.mscale(self._form, s))

    def _move(self, f):
        """The matrix whose form is f(rows, zero) on each block of rows
        (see Ring.mmove)."""
        return Matrix._of(self.ring, self.ring.mmove(self._form, f))

    def transpose(self):
        return self._move(lambda rows, z: [list(c) for c in zip(*rows)])

    def reshape(self, n, m):
        """The n x m matrix of the same entries in row-major order."""
        def regroup(rows, z):
            flat = [x for r in rows for x in r]
            return [flat[i * m:(i + 1) * m] for i in range(n)]
        return self._move(regroup)

    def vec(self):
        """The column of the row-major entries."""
        return self.reshape(self.nrows * self.ncols, 1)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ring == other.ring and self._form == other._form

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
        return self == Matrix.zeros(self.ring, self.nrows, self.ncols)

    # -- linear algebra --

    def solve(self, rhs):
        """X with self @ X = rhs; raises SingularOperator."""
        self._same(rhs)
        if self.nrows != self.ncols or rhs.nrows != self.nrows:
            raise ShapeMismatch("solve needs a square system")
        x = K.gauss_solve(self._form, rhs._form, self.ring)
        if x is None:
            raise SingularOperator("no unit pivot")
        return Matrix._of(self.ring, x)

    def inverse(self):
        if self.nrows != self.ncols:
            raise ShapeMismatch("inverse of a non-square matrix")
        x = K.gauss_solve(self._form,
                          Matrix.identity(self.ring, self.nrows)._form,
                          self.ring)
        if x is None:
            raise NotInvertible("no unit pivot")
        return Matrix._of(self.ring, x)

    def is_invertible(self):
        return self.rank() == self.nrows == self.ncols

    def rank(self):
        """Rank; over dual rings this is the re-part rank. Computed once:
        a Matrix is immutable."""
        if self._rank is None:
            base = self.base_part()
            self._rank = K.gauss_rank(base._form, base.ring)
        return self._rank

    def _join(self, others, across):
        for o in others:
            self._same(o)
        return Matrix._of(self.ring, self.ring.mjoin(
            [self._form] + [o._form for o in others], across))

    def hstack(self, *others):
        """self and `others` side by side."""
        return self._join(others, True)

    def vstack(self, *others):
        """self with `others` below it."""
        return self._join(others, False)

    def submatrix(self, rows, cols):
        return Matrix._of(self.ring, self.ring.mselect(self._form, rows, cols))

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
        return Matrix._of(ring.root, ring.mask0(self._form))

    def embed(self, dst_ring):
        """Structurally embed into an iterated dual extension: zero
        padding of the jet masks."""
        if dst_ring == self.ring:
            return self
        if dst_ring.kind != "dual":
            raise RingMismatch(f"{dst_ring!r} is not an extension of "
                               f"{self.ring!r}")
        return Matrix._of(dst_ring, dst_ring.membed(self._form, self.ring))

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


def _column(ring, v):
    """A vector (a column matrix or a sequence of scalars) as a column
    matrix."""
    if isinstance(v, Matrix):
        return v
    return Matrix._of(ring, ring.pack([[x] for x in v]))


def _matvec(a, v):
    """a v for a matrix a and a column matrix v, by the matvec kernel."""
    return Matrix._of(a.ring, K.matvec(a._form, v._form, a.ring))


def dual_combine(base_mat, eps_mat):
    """base + eps*tangent, entrywise, over DualRing(base.ring)."""
    base_mat._same(eps_mat)
    if base_mat.shape != eps_mat.shape:
        raise ShapeMismatch(f"{base_mat.shape} + eps {eps_mat.shape}")
    ring = DualRing(base_mat.ring)
    return Matrix._of(ring, ring.combine(base_mat._form, eps_mat._form))


def dual_split(mat):
    """Inverse of dual_combine."""
    ring = mat.ring
    if not isinstance(ring, DualRing):
        raise NotDual(f"{ring!r} is not a dual ring")
    re, eps = ring.split(mat._form)
    return Matrix._of(ring.base, re), Matrix._of(ring.base, eps)


def lift_once(obj, ring, build):
    """`obj` over `ring`, an iterated dual extension of its ring: `obj`
    itself on its own ring, else `build(ring)`, built once per ring and
    kept in the dict `obj._lifts`. The `at_ring` of each context and
    space goes through here."""
    if ring == obj.ring:
        return obj
    lifted = obj._lifts.get(ring)
    if lifted is None:
        lifted = obj._lifts[ring] = build(ring)
    return lifted


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
        if self.kind == "transpose" or ring == self.form.ring:
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

    @property
    def ring(self):
        return self.mat.ring

    def apply_flat(self, flat):
        """The column op(v) for v a column matrix or a sequence of
        scalars."""
        return _matvec(self.mat, _column(self.ring, flat))

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
        """The column z with op(z) = v, for v as in `apply_flat`."""
        return self.mat.solve(_column(self.ring, flat))

    def __eq__(self, other):
        return isinstance(other, LinearOperator) and self.mat == other.mat

    def __repr__(self):
        return f"LinearOperator({self.mat.nrows}x{self.mat.ncols})"


def matrix_unit_basis(ring, n):
    """E_ij of M_n(K), row-major."""
    return [Matrix.unit(ring, n, i, j) for i in range(n) for j in range(n)]


# Operators w -> a w b on A = M_n(K), on row-major coordinates, where
# vec(a w b) = (a (x) b^T) vec(w): entry [(i,j),(k,l)] is a[i][k] b[l][j].

def left_mult(a):
    """L_a = a (x) I: w -> a w, entry [(i,j),(k,l)] = a[i][k] delta_jl."""
    n = a.nrows

    def layout(form, z):
        rows = []
        for ai in form:
            for j in range(n):
                row = [z] * (n * n)
                row[j::n] = ai
                rows.append(row)
        return rows
    return LinearOperator(a._move(layout))


def right_mult(b):
    """R_b = I (x) b^T: w -> w b, entry [(i,j),(k,l)] = delta_ik b[l][j]."""
    n = b.nrows

    def layout(form, z):
        bt = list(zip(*form))
        rows = []
        for i in range(n):
            for btj in bt:
                row = [z] * (n * n)
                row[i * n:(i + 1) * n] = btj
                rows.append(row)
        return rows
    return LinearOperator(b._move(layout))


def sandwich(a, b):
    """a (x) b^T: w -> a w b, entry [(i,j),(k,l)] = a[i][k] b[l][j]."""
    a._same(b)
    bt = b.transpose()
    return LinearOperator(Matrix._of(a.ring, a.ring.mkron(a._form, bt._form)))


def op_solve(op, y):
    """z with op(z) = y, both reshaped as square algebra elements."""
    return op.mat.solve(y.vec()).reshape(y.nrows, y.ncols)


class CoordinateBasis:
    """A K-subspace of M_n(K) with membership test and coordinates.

    Built from an explicit basis; coordinates are read off through a
    precomputed left inverse on pivot rows, then membership is the check
    that the reconstruction reproduces the element. On pivot rows the
    reconstruction cols[piv] L^-1 flat[piv] is flat[piv] by construction,
    so only the remaining (free) rows are compared. A coordinate vector
    is a column Matrix, in the ring's form; `from_coords` also takes a
    sequence of scalars.
    """

    __slots__ = ("ring", "n", "basis", "_cols", "_pivot_rows", "_left_inv",
                 "_free_rows", "_free_cols", "_standard")

    def __init__(self, ring, n, basis):
        self.ring = ring
        self.n = n
        self.basis = list(basis)
        d = len(self.basis)
        cols = Matrix.zeros(ring, n * n, 0).hstack(
            *[b.vec() for b in self.basis])
        self._cols = cols
        piv = K.pivot_columns(cols.transpose()._form, ring)
        if len(piv) != d:
            raise ValueError("basis is not independent")
        self._pivot_rows = piv
        self._left_inv = cols.submatrix(piv, range(d)).inverse()
        self._free_rows = [i for i in range(n * n) if i not in piv]
        self._free_cols = cols.submatrix(self._free_rows, range(d))
        self._standard = (not self._free_rows
                          and cols == Matrix.identity(ring, d))

    @property
    def dim(self):
        return len(self.basis)

    def _read(self, x):
        """The column of row-major entries of x and the column of
        coordinates read off its pivot rows."""
        if x.ring != self.ring or x.shape != (self.n, self.n):
            raise RingMismatch("element does not match the subspace ambient")
        flat = x.vec()
        if self._standard:
            return flat, flat
        return flat, _matvec(self._left_inv,
                             flat.submatrix(self._pivot_rows, [0]))

    def coords(self, x):
        flat, c = self._read(x)
        if self._free_rows and not self._agree(
                _matvec(self._free_cols, c),
                flat.submatrix(self._free_rows, [0])):
            raise NotInSubspace("element is outside the subspace")
        return c

    def _agree(self, got, want):
        """Whether two matrices are equal: exactly over exact rings,
        within 1e-9 in every base component over float rings."""
        if self.ring.is_exact():
            return got == want
        return all(abs(f) <= 1e-9 for x in (got - want).flatten()
                   for f in _components(x))

    def contains(self, x):
        try:
            self.coords(x)
            return True
        except NotInSubspace:
            return False

    def project(self, x):
        """The point of the subspace with the coordinates read off the
        pivot rows of x, as in `coords()`, without the check of the free
        rows; never a refusal. Over a float ring it turns an x that lies
        in the subspace up to rounding into a point of it. Over an exact
        ring that point is x itself for x in the subspace, and its callers
        give it only such x, so it returns x as it is."""
        if self.ring.is_exact():
            return x
        return self.from_coords(self._read(x)[1])

    def from_coords(self, c):
        col = _column(self.ring, c)
        if not self._standard:
            col = _matvec(self._cols, col)
        return col.reshape(self.n, self.n)

    def materialize(self, op):
        """Restriction to the subspace of `op`, an operator on all of
        M_n(K) in row-major coordinates (see `sandwich`).

        The images of the basis are read off in coordinates as in
        `coords()`, for all basis elements at once; raises NotInSubspace
        if `op` does not map the subspace into itself.
        """
        if self._standard:
            return op
        images = op.mat @ self._cols
        every = range(images.ncols)
        c = self._left_inv @ images.submatrix(self._pivot_rows, every)
        if self._free_rows and not self._agree(
                self._free_cols @ c, images.submatrix(self._free_rows, every)):
            raise NotInSubspace("operator does not preserve the subspace")
        return LinearOperator(c)

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
        out._free_cols = out._cols.submatrix(self._free_rows,
                                             range(len(self.basis)))
        out._standard = self._standard
        return out
