"""Scalar ring tower: rationals, odd prime fields, float64, and iterated
dual-number extensions K[e1..ek] with each e_i^2 = 0.

Scalars are plain Python values (fractions.Fraction, float, Fp, Dual)
with operator syntax; everything that needs ring context (unit tests,
inversion, zero/one, JSON) goes through a Ring object. All values are
immutable. A scalar of K[e1..ek] is one flat jet: its 2^k coordinates by
nilpotent mask, in the packed form of the root field K (see Dual);
`Dual(re, eps)`, `.re` and `.eps` are its nested view.

Each concrete ring also holds matrices in its own form and does their
arithmetic: sums, scaling, products, solves and pivot searches (`pack`
and `unpack` convert from and to rows of scalars). The root fields keep
a matrix packed (see Packed): integer rows over one denominator on Q,
residue rows on F_p, float rows on float64. A dual ring keeps one such
matrix per nilpotent mask, over one denominator (see Jets): a product is
the subset convolution of the mask blocks, a solve one root solve of the
mask-0 block against every other block, back-substituted by mask, and
embedding and the eps-split pad or split the masks. Every operation
takes and returns these forms, so no scalar is built until a caller
reads entries. Each root field has one packed solve (`_solve_packed`),
which its plain matrices and its dual towers share: on Q a fraction-free
Gauss-Jordan elimination on integer rows (`_bareiss`), on F_p a
Gauss-Jordan elimination on residues (`_solve_mod`), on float64 a
Gauss-Jordan elimination with partial pivoting (`Float64Ring._eliminate`,
which also finds its pivots); the pivots of Q and F_p come from a
forward elimination on integer rows (`_pivots`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import chain
from math import gcd, isfinite, lcm
from operator import add, mul, sub

from .errors import NotAUnit, RingMismatch

# The one rational type, named so the benchmark's `# env` line can report
# it.
_rational = Fraction


class Fp:
    """Residue in an odd prime field F_p."""

    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def _check(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise RingMismatch(f"mixed moduli {self.p} and {other.p}")
            return other.v
        if isinstance(other, int):
            return other
        return None

    def __add__(self, other):
        w = self._check(other)
        if w is None:
            return NotImplemented
        return Fp(self.v + w, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._check(other)
        if w is None:
            return NotImplemented
        return Fp(self.v - w, self.p)

    def __rsub__(self, other):
        w = self._check(other)
        if w is None:
            return NotImplemented
        return Fp(w - self.v, self.p)

    def __mul__(self, other):
        w = self._check(other)
        if w is None:
            return NotImplemented
        return Fp(self.v * w, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v}#%{self.p}"


@cache
def _subsets(size):
    """For each mask m < size, the masks s that are subsets of m, in
    increasing order."""
    return [[s for s in range(m + 1) if s & m == s] for m in range(size)]


class Dual:
    """A scalar of K[e1..ek], each e_i^2 = 0, held as its 2^k jet
    coordinates (Griewank & Walther, Evaluating Derivatives, 2008).

    Coordinate m of `v` is the coefficient of the product of the e_i whose
    bits are set in m. The top bit is the outermost nilpotent, so a scalar
    over DualRing(B) is re + eps e, with re the lower half of the
    coordinates and eps the upper half. The coordinates are kept in the
    packed form of the root field, told by `p`:
    - Q (`p` 0): integers over one positive denominator `d`, with
      gcd(d, *v) = 1, so `==` and `hash` are exact;
    - F_p (`p` the modulus): residues in [0, p), `d` 1;
    - float64 (`p` None): floats, `d` 1.
    A product is a subset convolution of the coordinates.

    `Dual(re, eps)` builds a scalar from its parts, which are both root
    scalars or both scalars of one depth; `.re`, `.eps`, the repr and the
    JSON form are this nested view.
    """

    __slots__ = ("v", "d", "p")

    def __new__(cls, re, eps):
        a, b = _as_jet(re), _as_jet(eps)
        a._other(b)
        if a.d == b.d:
            return _jet(a.v + b.v, a.d, a.p)
        # Both parts are reduced, so over the lcm of their denominators
        # the whole is too.
        d = lcm(a.d, b.d)
        return _jet(tuple([c * (d // x.d) for x in (a, b) for c in x.v]),
                    d, a.p)

    def _other(self, o):
        """o's coordinates; o must be a jet over the same ring."""
        if o.p != self.p or len(o.v) != len(self.v):
            raise RingMismatch("dual scalars over different rings")
        return o.v

    def _root(self, m):
        """Coordinate m as a scalar of the root field."""
        p = self.p
        if p == 0:
            return _rational(self.v[m], self.d)
        return self.v[m] if p is None else Fp(self.v[m], p)

    def _pad(self, k):
        """The same scalar with k more coordinates, all zero: its
        embedding into a larger dual tower."""
        zero = 0.0 if self.p is None else 0
        return _jet(self.v + (zero,) * k, self.d, self.p)

    def _half(self, i):
        h = len(self.v) // 2
        if h == 1:
            return self._root(i)
        return _reduced(self.v[i * h:(i + 1) * h], self.d, self.p)

    @property
    def re(self):
        return self._half(0)

    @property
    def eps(self):
        return self._half(1)

    def _add(self, o, op):
        """self + o or self - o, as op is add or sub."""
        v, d, p = self.v, self.d, self.p
        if type(o) is Dual:
            w, e = self._other(o), o.d
            if d == e:
                return _reduced(tuple(map(op, v, w)), d, p)
            return _reduced(tuple([op(x * e, y * d) for x, y in zip(v, w)]),
                            d * e, p)
        if isinstance(o, int):
            return _reduced((op(v[0], o * d),) + v[1:], d, p)
        return NotImplemented

    def __add__(self, o):
        return self._add(o, add)

    __radd__ = __add__

    def __sub__(self, o):
        return self._add(o, sub)

    def __rsub__(self, o):
        if isinstance(o, int):
            return -self + o
        return NotImplemented

    def __mul__(self, o):
        v, p = self.v, self.p
        if type(o) is Dual:
            # The subset convolution c_m = sum of v_s w_(m^s) over the
            # subsets s of m, added in increasing s from the first term.
            w = self._other(o)
            return _reduced(tuple([reduce(add, [v[s] * w[m ^ s] for s in sub])
                                   for m, sub in enumerate(_subsets(len(v)))]),
                            self.d * o.d, p)
        if isinstance(o, int):
            return _reduced(tuple([x * o for x in v]), self.d, p)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return _reduced(tuple([-x for x in self.v]), self.d, self.p)

    def __eq__(self, o):
        if isinstance(o, Dual):
            return self.v == o.v and self.d == o.d and self.p == o.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.d, self.p))

    def __repr__(self):
        return f"({self.re!r}+{self.eps!r}e)"


def _jet(v, d, p):
    """The jet with coordinates v over d, already in packed form."""
    s = object.__new__(Dual)
    s.v = v
    s.d = d
    s.p = p
    return s


def _reduced(v, d, p):
    """The jet with the tuple of coordinates v over d > 0, brought to
    packed form: over Q divided by gcd(d, *v), over F_p taken mod p."""
    if p == 0:
        g = gcd(d, *v)
        if g != 1:
            return _jet(tuple([x // g for x in v]), d // g, 0)
    elif p is not None:
        if d != 1:
            inv = pow(d, -1, p)
            v = [x * inv for x in v]
        return _jet(tuple([x % p for x in v]), 1, p)
    return _jet(v, d, p)


def _as_jet(s):
    """A dual scalar as is; a root scalar as a jet of one coordinate."""
    if type(s) is Dual:
        return s
    if isinstance(s, Fp):
        return _jet((s.v,), 1, s.p)
    if isinstance(s, float):
        return _jet((s,), 1, None)
    return _jet((s.numerator,), s.denominator, 0)


def _idot(x, y):
    return sum(map(mul, x, y))


def _fdot(x, y):
    # Left to right from 0.0, as the generic loops of the parity tests
    # add (sum() may compensate float rounding).
    return reduce(add, map(mul, x, y), 0.0)


class Packed(list):
    """A matrix over a root field in the field's packed form: its rows
    as lists of numbers over one denominator `d`.
    - Q: integers, d > 0 and gcd(d, every entry) = 1 (FLINT's fmpq_mat
      keeps a rational matrix the same way), so equal matrices have
      equal packed forms;
    - F_p: residues in [0, p), d 1;
    - float64: floats, d 1.
    It is the list of its rows, so kernels read the shape as len(a) and
    len(a[0]). A vector is a packed column.
    """

    __slots__ = ("d",)

    @classmethod
    def of(cls, rows, d=1):
        """The packed matrix of `rows`, already in packed form over d."""
        out = cls(rows)
        out.d = d
        return out

    def __eq__(self, o):
        return type(o) is Packed and self.d == o.d and list.__eq__(self, o)

    def __ne__(self, o):
        return not self == o

    __hash__ = None


class Jets:
    """A matrix over K[e1..ek] in per-mask packed form (the truncated
    Taylor arrays of Griewank & Walther, Evaluating Derivatives, 2008):
    for each nilpotent mask m (see Dual), the n x c block of coordinate m
    of every entry. The blocks are stacked by increasing mask into
    `stack`, one matrix of 2^k n rows in the root field's form:
    - Q: a Packed over one denominator d for every mask, with gcd(d,
      every coordinate) = 1, so equal matrices have equal forms;
    - F_p: a Packed of residues;
    - float64: a Packed of floats.
    Rows m n .. m n + n - 1 are the block of mask m. len(a) is n and a[0]
    the first row, so kernels read the shape as they do on a Packed; a
    Jets is not iterable. `blocks` and `nz` cache the list of its blocks
    and the masks of the non-zero ones (see DualRing._blocks and
    _support).
    """

    __slots__ = ("stack", "n", "blocks", "nz")

    def __init__(self, stack, n):
        self.stack = stack
        self.n = n
        self.blocks = self.nz = None

    def __len__(self):
        return self.n

    def __getitem__(self, i):
        return self.stack[i]

    __iter__ = None

    def __eq__(self, o):
        return type(o) is Jets and self.n == o.n and self.stack == o.stack

    __hash__ = None


def _stack(form):
    """The stack of a Jets; a root field's form itself."""
    return form.stack if type(form) is Jets else form


@dataclass(frozen=True)
class Ring:
    kind = "abstract"

    @property
    def depth(self):
        return 0

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, k):
        raise NotImplementedError

    def is_unit(self, s):
        raise NotImplementedError

    def invert(self, s):
        raise NotImplementedError

    def half(self):
        return self.invert(self.from_int(2))

    def inv_int(self, k):
        return self.invert(self.from_int(k))

    def is_exact(self):
        return True


def _kron(a, b):
    """The Kronecker product of matrices held as rows: entry
    [(i,j),(k,l)] is a[i][k] b[j][l]."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def _add_rows(a, b):
    return [list(map(add, x, y)) for x, y in zip(a, b)]


def _pivots(rows, p):
    """Pivot columns of integer rows: in each column the pivot is the
    first non-zero entry at or below the next pivot row.

    The elimination runs forward only and never forms a fraction. Over Z
    (`p` 0) it is fraction-free (Bareiss, Math. Comp. 1968): each
    update p_k a - f b is divided exactly by the previous pivot, so every
    entry stays a minor of the input. Modulo a prime p the update is
    reduced mod p instead. Each pass keeps only the columns to the right
    of the current one.
    """
    cols = []
    prev = 1
    rows = [r for r in rows if any(r)]
    width = len(rows[0]) if rows else 0
    for col in range(width):
        for i, r in enumerate(rows):
            if r[0]:
                break
        else:
            rows = [r[1:] for r in rows]
            continue
        cols.append(col)
        if len(rows) == 1:
            break
        # Swap the pivot row up, as Gauss-Jordan elimination does.
        prow = rows[i]
        rows[i] = rows[0]
        pv = prow[0]
        prow = prow[1:]
        rest = rows[1:]
        if p:
            rows = [[(pv * a - f * b) % p for a, b in zip(r[1:], prow)]
                    if (f := r[0]) else r[1:] for r in rest]
        elif pv == prev:
            # With pv = prev, a row with f = 0 is unchanged.
            rows = [[(pv * a - f * b) // prev for a, b in zip(r[1:], prow)]
                    if (f := r[0]) else r[1:] for r in rest]
        else:
            rows = [[(pv * a - r[0] * b) // prev
                     for a, b in zip(r[1:], prow)] for r in rest]
        prev = pv
    return cols


def _bareiss(rows, n):
    """(N, d) with A X = B for X = N / d, d > 0, or None when A is
    singular; `rows` are the integer rows of [A | B], A n x n, and may be
    reordered.

    Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 1968):
    each update p a - f b is divided exactly by the previous pivot, so
    every entry stays a minor of [A | B], and the left block ends as
    d times the identity.
    """
    prev = 1
    for k in range(n):
        for i in range(k, n):
            if rows[i][k]:
                break
        else:
            return None
        rows[k], rows[i] = rows[i], rows[k]
        prow = rows[k]
        pv = prow[k]
        rows = [r if i == k else [(pv * x - r[k] * y) // prev
                                  for x, y in zip(r, prow)]
                for i, r in enumerate(rows)]
        prev = pv
    if prev < 0:
        return [[-x for x in r[n:]] for r in rows], -prev
    return [r[n:] for r in rows], prev


def _solve_mod(rows, n, p):
    """(X, 1) with A X = B mod p, or None when A is singular mod p; `rows`
    are the rows of [A | B], A n x n, as residues in [0, p), and may be
    reordered.

    Gauss-Jordan elimination on the residues: the pivot row is scaled to
    a leading 1 and every update reduced mod p, so entries stay residues.
    """
    for k in range(n):
        for i in range(k, n):
            if rows[i][k]:
                break
        else:
            return None
        rows[k], rows[i] = rows[i], rows[k]
        inv = pow(rows[k][k], -1, p)
        prow = [x * inv % p for x in rows[k]]
        rows = [prow if i == k else
                [(x - f * y) % p for x, y in zip(r, prow)] if (f := r[k])
                else r for i, r in enumerate(rows)]
    return [r[n:] for r in rows], 1


class _PackedField(Ring):
    """A root field whose matrices stay packed (see Packed): Q (`_p` 0),
    F_p and float64. Matrix works through the methods below, which take
    and return that form; `pack` and `unpack` convert from and to rows
    of scalars."""

    # The zero entry of the packed form: layouts pad with it, and zero
    # blocks hold it.
    _zero_entry = 0

    def ints(self, rows):
        """The matrix of integer rows, in the ring's form."""
        return self._reduce([list(r) for r in rows], 1)

    def _lincomb(self, a, b, op):
        """a + b or a - b, as op is add or sub."""
        d, e = a.d, b.d
        if d == e:
            return self._reduce([list(map(op, x, y)) for x, y in zip(a, b)],
                                d)
        m = lcm(d, e)
        f, g = m // d, m // e
        return self._reduce([[op(s * f, t * g) for s, t in zip(x, y)]
                             for x, y in zip(a, b)], m)

    def madd(self, a, b):
        return self._lincomb(a, b, add)

    def msub(self, a, b):
        return self._lincomb(a, b, sub)

    def mneg(self, a):
        return self._reduce([[-x for x in r] for r in a], a.d)

    def mscale(self, a, s):
        t = self.pack([[s]])
        k = t[0][0]
        return self._reduce([[k * x for x in r] for r in a], a.d * t.d)

    def mkron(self, a, b):
        """The Kronecker product: entry [(i,j),(k,l)] is a[i][k] b[j][l]."""
        return self._reduce(_kron(a, b), a.d * b.d)

    def mjoin(self, forms, across):
        """The matrices side by side (`across`) or stacked."""
        # Over the lcm of their denominators the joined rows are in packed
        # form when every part is.
        d = lcm(*[f.d for f in forms])
        if d != 1:
            forms = [f if f.d == d else [[x * (d // f.d) for x in r]
                                         for r in f] for f in forms]
        if across:
            return Packed.of([list(chain.from_iterable(rs))
                              for rs in zip(*forms)], d)
        return Packed.of([r for f in forms for r in f], d)

    def mselect(self, a, rows, cols):
        """The submatrix on `rows` and `cols`."""
        return self._reduce([[a[i][j] for j in cols] for i in rows], a.d)

    def mmove(self, a, f):
        """The matrix f(rows, zero), for a function f of the rows of a
        matrix and the zero entry that moves or repeats entries among
        zeros (transpose, reshape, operator layouts)."""
        return Packed.of(f(a, self._zero_entry), a.d)

    def matmul(self, a, b):
        """A B for A (n x k) and B (k x m)."""
        cols = list(zip(*b))
        return self._reduce([[sum(map(mul, r, c)) for c in cols] for r in a],
                            a.d * b.d)

    def solve(self, a, b):
        """X with A X = B for square A, or None when A is not invertible."""
        # (A/d) X = B/e is (A) X = B d/e, and [A | B] is integral.
        out = self._solve_packed([x + y for x, y in zip(a, b)], len(a))
        if out is None:
            return None
        x, den = out
        if a.d != 1:
            x = [[v * a.d for v in r] for r in x]
        return self._reduce(x, den * b.d)

    def pivot_columns(self, a):
        """Columns in which row elimination of A finds a pivot: the first
        non-zero entry at or below the next pivot row."""
        # Scaling by the denominator keeps the pivots.
        return _pivots(a, self._p)


@dataclass(frozen=True)
class RationalRing(_PackedField):
    kind = "rational"
    _p = 0

    def zero(self):
        return _rational(0)

    def one(self):
        return _rational(1)

    def from_int(self, k):
        return _rational(k)

    def is_unit(self, s):
        return s != 0

    def invert(self, s):
        if s == 0:
            raise NotAUnit("0 has no inverse")
        return 1 / s

    def pack(self, rows):
        # Over the lcm of the denominators of reduced fractions the
        # numerators are in packed form.
        d = lcm(*[x.denominator for r in rows for x in r])
        if d == 1:
            return Packed.of([[x.numerator for x in r] for r in rows])
        return Packed.of([[x.numerator * (d // x.denominator) for x in r]
                          for r in rows], d)

    def unpack(self, a):
        d = a.d
        if d == 1:
            return [[_rational(x) for x in r] for r in a]
        return [[_rational(x, d) for x in r] for r in a]

    def _reduce(self, rows, d):
        """The packed matrix of integer rows over d > 0: divided by
        gcd(d, every entry)."""
        if d != 1:
            g = gcd(d, *chain.from_iterable(rows))
            if g != 1:
                return Packed.of([[x // g for x in r] for r in rows], d // g)
        return Packed.of(rows, d)

    # The root solve of a dual tower over Q, on its integer-scaled rows.
    _solve_packed = staticmethod(_bareiss)

    def __repr__(self):
        return "Q"


@dataclass(frozen=True)
class Float64Ring(_PackedField):
    kind = "float64"
    # A scalar is a unit, and a pivot candidate, when its magnitude is
    # above this.
    unit_tol = 1e-12
    _zero_entry = 0.0

    def zero(self):
        return 0.0

    def one(self):
        return 1.0

    def from_int(self, k):
        return float(k)

    def is_unit(self, s):
        return abs(s) > self.unit_tol

    def invert(self, s):
        if not self.is_unit(s):
            raise NotAUnit(f"|{s}| below unit tolerance")
        return 1.0 / s

    def is_exact(self):
        return False

    def pack(self, rows):
        return Packed.of([list(map(float, r)) for r in rows])

    # Integer rows convert as float rows do.
    ints = pack

    unpack = staticmethod(list)

    def _reduce(self, rows, d):
        """Float rows are in packed form as they are (d is always 1)."""
        return Packed.of(rows)

    def mscale(self, a, s):
        return Packed.of([[s * x for x in r] for r in a])

    def matmul(self, a, b):
        # Each entry adds left to right from 0.0, as _fdot does. Index
        # loops over the columns of B as tuples run faster here than one
        # _fdot call per entry, and than indexing B, a list subclass.
        cols, k = list(zip(*b)), len(b)
        out = []
        for r in a:
            row = []
            for c in cols:
                acc = 0.0
                for t in range(k):
                    acc += r[t] * c[t]
                row.append(acc)
            out.append(row)
        return Packed.of(out)

    def _eliminate(self, rows, width):
        """Gauss-Jordan elimination of the float `rows` in place, with
        partial pivoting (Higham, Accuracy and Stability of Numerical
        Algorithms, 2002); returns the pivot columns.

        Pivots are searched in the first `width` columns; each row
        operation runs from the pivot's column to the last one. In each
        column the pivot is the unit of largest magnitude at or below the
        next pivot row, the first of equal ones. Its row is scaled by
        1.0 / pivot and subtracted, times its entry, from every other row
        whose entry in the column is not 0.0. Elimination stops once
        every row has a pivot. Index loops run faster here than list
        comprehensions on the small matrices of this package.
        """
        n = len(rows)
        m = len(rows[0]) if rows else 0
        cols = []
        for col in range(width):
            rank = len(cols)
            if rank == n:
                break
            piv, best = -1, self.unit_tol
            for r in range(rank, n):
                mag = abs(rows[r][col])
                if mag > best:
                    piv, best = r, mag
            if piv < 0:
                continue
            rows[rank], rows[piv] = rows[piv], rows[rank]
            prow = rows[rank]
            inv = 1.0 / prow[col]
            for j in range(col, m):
                prow[j] = inv * prow[j]
            for r in range(n):
                f = rows[r][col]
                if r == rank or f == 0.0:
                    continue
                row = rows[r]
                for j in range(col, m):
                    row[j] = row[j] - f * prow[j]
            cols.append(col)
        return cols

    def _solve_packed(self, rows, n):
        if len(self._eliminate(rows, n)) < n:
            return None
        return [r[n:] for r in rows], 1

    def pivot_columns(self, a):
        """Columns in which row elimination of A finds a pivot: the unit
        of largest magnitude at or below the next pivot row."""
        return self._eliminate([list(r) for r in a], len(a[0]) if a else 0)

    def __repr__(self):
        return "R64"


# Miller-Rabin to the first 13 prime bases decides primality exactly
# below _MR_LIMIT (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_odd_prime(p):
    """Whether the int p, below _MR_LIMIT, is an odd prime."""
    if p < 3 or p % 2 == 0:
        return False
    if p in _MR_BASES:
        return True
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeFieldRing(_PackedField):
    p: int
    kind = "prime_field"

    def __post_init__(self):
        p = self.p
        if isinstance(p, bool) or not isinstance(p, int):
            raise ValueError(f"modulus must be an integer, not {p!r}")
        if p >= _MR_LIMIT:
            raise ValueError(f"modulus {p} is not below {_MR_LIMIT}")
        if not _is_odd_prime(p):
            raise ValueError(f"modulus {p} is not an odd prime")

    def zero(self):
        return Fp(0, self.p)

    def one(self):
        return Fp(1, self.p)

    def from_int(self, k):
        return Fp(k, self.p)

    def is_unit(self, s):
        return s.v % self.p != 0

    def invert(self, s):
        if s.v % self.p == 0:
            raise NotAUnit(f"0 mod {self.p} has no inverse")
        return Fp(pow(s.v, -1, self.p), self.p)

    @property
    def _p(self):
        return self.p

    def pack(self, rows):
        return Packed.of([[x.v for x in r] for r in rows])

    def unpack(self, a):
        p = self.p
        return [[Fp(x, p) for x in r] for r in a]

    def _reduce(self, rows, d):
        """The packed matrix of integer rows (d is always 1 over F_p):
        their residues."""
        p = self.p
        return Packed.of([[x % p for x in r] for r in rows])

    def _solve_packed(self, rows, n):
        return _solve_mod(rows, n, self.p)

    def __repr__(self):
        return f"F{self.p}"


@dataclass(frozen=True)
class DualRing(Ring):
    """K[e1..ek]: the dual extension of `base`, whose scalars are jets
    (see Dual) over the root field K at the bottom of the tower."""

    base: Ring
    kind = "dual"

    def __post_init__(self):
        base = self.base
        inner = base.kind == "dual"
        root = base.root if inner else base
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "size", 2 * base.size if inner else 2)
        # The jets' root tag (see Dual) and the dot product of their
        # packed coordinates.
        object.__setattr__(self, "_p", _as_jet(root.zero()).p)
        object.__setattr__(self, "_dot",
                           _fdot if root.kind == "float64" else _idot)

    @property
    def depth(self):
        return 1 + self.base.depth

    def _from_root(self, s):
        return _as_jet(s)._pad(self.size - 1)

    def zero(self):
        return self._from_root(self.root.zero())

    def one(self):
        return self._from_root(self.root.one())

    def from_int(self, k):
        return self._from_root(self.root.from_int(k))

    def is_unit(self, s):
        return self.root.is_unit(s._root(0))

    def invert(self, s):
        if not self.is_unit(s):
            raise NotAUnit(f"{s!r} has no unit re-part")
        if self._p is not None and not any(s.v[1:]):
            # An exact root scalar: its inverse, embedded.
            return self._from_root(self.root.invert(s._root(0)))
        x = self.solve(self.pack([[s]]), self.ints([[1]]))
        return self.unpack(x)[0][0]

    def is_exact(self):
        return self.root.is_exact()

    def lift(self, s):
        """Embed a base-ring scalar."""
        return _as_jet(s)._pad(self.size // 2)

    def from_coords(self, ks):
        """The scalar whose jet coordinates, in mask order, are the
        integers ks."""
        return _jet(tuple(self.root.ints([ks])[0]), 1, self._p)

    # -- matrices in per-mask packed form (see Jets), with the methods
    # of _PackedField

    def _blocks(self, a):
        """The mask blocks of a, as rows in the root's form; found once."""
        if a.blocks is None:
            n, s = a.n, a.stack
            a.blocks = [s[m * n:(m + 1) * n] for m in range(self.size)]
        return a.blocks

    def _support(self, a):
        """The masks of the blocks of a that are not zero, in increasing
        order, found once; every mask over float64, where a zero block
        still takes part in a sum (0.0 times inf is nan)."""
        if a.nz is None:
            a.nz = range(self.size) if self._p is None else [
                m for m, x in enumerate(self._blocks(a)) if any(map(any, x))]
        return a.nz

    def _jets(self, stack, d, n):
        """The matrix of n rows whose stack is the rows `stack` over d,
        brought to packed form."""
        return Jets(self.root._reduce(stack, d), n)

    def pack(self, rows):
        # Over the lcm of the denominators of reduced jets the coordinates
        # are in packed form, as in RationalRing.pack.
        d = lcm(*[x.d for r in rows for x in r])
        vs = [[x.v if x.d == d else tuple([c * (d // x.d) for c in x.v])
               for x in r] for r in rows]
        stack = [[v[m] for v in r] for m in range(self.size) for r in vs]
        return Jets(Packed.of(stack, d), len(rows))

    def unpack(self, a):
        d, p = a.stack.d, self._p
        make = _jet if d == 1 else _reduced
        return [[make(v, d, p) for v in zip(*rows)]
                for rows in zip(*self._blocks(a))]

    def ints(self, rows):
        zeros = [[0] * len(r) for r in rows] * (self.size - 1)
        return Jets(self.root.ints(list(rows) + zeros), len(rows))

    def mask0(self, a):
        """The mask-0 block of a: the matrix of its entries' re-parts over
        the root, in the root's form."""
        return self.root._reduce(a.stack[:a.n], a.stack.d)

    def combine(self, re, eps):
        """re + eps e, for matrices re and eps in the base ring's form:
        their masks side by side, the new nilpotent being the top bit."""
        return Jets(self.root.mjoin([_stack(re), _stack(eps)], False),
                    len(re))

    def split(self, a):
        """(re, eps) of a, in the base ring's form: its lower and upper
        masks."""
        s, d = a.stack, a.stack.d
        h = len(s) // 2
        parts = [self.root._reduce(s[:h], d), self.root._reduce(s[h:], d)]
        if self.base.kind == "dual":
            return [Jets(x, a.n) for x in parts]
        return parts

    def membed(self, a, src):
        """a, a matrix in the form of `src`, the root or a dual ring below
        this one in its tower, in this ring's form: its jets padded with
        zero masks, the new nilpotents being the high bits."""
        n = len(a)
        c, k = len(a[0]) if n else 0, _extension(src, self) * n
        return Jets(self.root.mmove(
            _stack(a), lambda rows, z: rows + [[z] * c] * k), n)

    def madd(self, a, b):
        return Jets(self.root.madd(a.stack, b.stack), a.n)

    def msub(self, a, b):
        return Jets(self.root.msub(a.stack, b.stack), a.n)

    def mneg(self, a):
        return Jets(self.root.mneg(a.stack), a.n)

    def mscale(self, a, s):
        # s A is the Kronecker product of the 1 x 1 matrix s with A.
        return self.mkron(self.pack([[s]]), a)

    def mkron(self, a, b):
        # Mask m is the sum of A_s (x) B_(m^s) over the subsets s of m
        # whose blocks are both non-zero, added in increasing s as a jet
        # product adds.
        ba, bb = self._blocks(a), self._blocks(b)
        sa, sb = self._support(a), self._support(b)
        n = a.n * b.n
        width = len(a[0]) * len(b[0]) if n else 0
        zero = [[self.root._zero_entry] * width] * n
        stack = []
        for m, sub in enumerate(_subsets(self.size)):
            terms = [_kron(ba[s], bb[m ^ s])
                     for s in sub if s in sa and m ^ s in sb]
            stack += reduce(_add_rows, terms) if terms else zero
        return self._jets(stack, a.stack.d * b.stack.d, n)

    def mjoin(self, forms, across):
        stack = self.root.mjoin([f.stack for f in forms], across)
        if across:
            return Jets(stack, forms[0].n)
        # The stacks one below the other, reordered mask by mask.
        starts = [0]
        for f in forms:
            starts.append(starts[-1] + self.size * f.n)
        order = [i for m in range(self.size) for f, at in zip(forms, starts)
                 for i in range(at + m * f.n, at + (m + 1) * f.n)]
        return Jets(self.root.mmove(stack, lambda rows, z: [
            rows[i] for i in order]), sum(f.n for f in forms))

    def mselect(self, a, rows, cols):
        n = a.n
        return Jets(self.root.mselect(
            a.stack, [m * n + i for m in range(self.size) for i in rows],
            cols), len(rows))

    def mmove(self, a, f):
        n, size = a.n, self.size
        stack = self.root.mmove(a.stack, lambda rows, z: [
            r for m in range(size) for r in f(rows[m * n:(m + 1) * n], z)])
        return Jets(stack, len(stack) // size)

    def matmul(self, a, b):
        # C_m is the sum of A_s B_(m^s) over the subsets s of m, of which
        # only those with both blocks non-zero are formed. Row i of A and
        # column j of B are laid out per mask m as the concatenation, over
        # those s, of row i of A_s or column j of B_(m^s), so every output
        # coordinate is one dot product: over float64 it adds s outer,
        # increasing, then the inner index, left to right from 0.0.
        ba, bb = self._blocks(a), self._blocks(b)
        sa, sb = self._support(a), self._support(b)
        cb = {s: list(zip(*bb[s])) for s in sb}
        zero = [[self.root._zero_entry] * (len(b[0]) if b.n else 0)] * a.n
        dot = self._dot
        stack = []
        for m, sub in enumerate(_subsets(self.size)):
            ss = [s for s in sub if s in sa and m ^ s in sb]
            if len(ss) == 1:
                rows, cols = ba[ss[0]], cb[m ^ ss[0]]
            elif ss:
                rows = [[x for r in rs for x in r]
                        for rs in zip(*[ba[s] for s in ss])]
                cols = [[x for c in cs for x in c]
                        for cs in zip(*[cb[m ^ s] for s in ss])]
            else:
                stack += zero
                continue
            stack += [[dot(r, c) for c in cols] for r in rows]
        return self._jets(stack, a.stack.d * b.stack.d, a.n)

    def solve(self, a, b):
        # A X = B splits by mask: A_0 X_m = B_m - sum of A_s X_(m^s) over
        # the non-empty s in m. One root solve of the integer rows
        # [A_0 | B_m .. | A_s ..], over the non-zero blocks B_m and A_s
        # with s > 0, gives Y_m = N_m / D and Z_s = M_s / D. By increasing
        # mask, X_m = P_m / D^(|m|+1) with P_m = D^|m| N_m - sum of
        # D^(|s|-1) M_s P_(m^s), over the terms whose blocks are not zero
        # (D = 1 off Q). Over Q, (A/d) X = B/e is A X = B d/e. A is
        # invertible over the dual ring exactly when A_0 is over the root.
        n = a.n
        ba, bb = self._blocks(a), self._blocks(b)
        sa = [s for s in self._support(a) if s]
        sb = self._support(b)
        out = self.root._solve_packed(
            [r + [x for k in sb for x in bb[k][i]]
             + [x for s in sa for x in ba[s][i]]
             for i, r in enumerate(ba[0])], n)
        if out is None:
            return None
        sol, den = out
        w = len(b[0]) if n else 0
        off = len(sb) * w
        ys = {k: [r[j * w:(j + 1) * w] for r in sol] for j, k in enumerate(sb)}
        zs = {s: [r[off + j * n:off + (j + 1) * n] for r in sol]
              for j, s in enumerate(sa)}
        bits = [bin(k).count("1") for k in range(self.size)]
        zero = [[self.root._zero_entry] * w] * n
        dot = self._dot
        xs = {}
        for m, sub in enumerate(_subsets(self.size)):
            terms = [s for s in sub[1:] if s in zs and m ^ s in xs]
            if m not in ys and not terms:
                continue
            y, f = ys.get(m, zero), den ** bits[m]
            if f != 1:
                y = [[v * f for v in r] for r in y]
            if terms:
                z = [[x * den ** (bits[s] - 1) for s in terms
                      for x in zs[s][i]] for i in range(n)]
                cols = list(zip(*[r for s in terms for r in xs[m ^ s]]))
                y = [[v - dot(zr, c) for v, c in zip(yr, cols)]
                     for yr, zr in zip(y, z)]
            xs[m] = y
        # Mask k is P_k over D^e, e the largest |k| + 1, times d.
        e = max([bits[k] for k in xs], default=0) + 1
        stack = []
        for k in range(self.size):
            if k not in xs:
                stack += zero
                continue
            f = den ** (e - 1 - bits[k]) * a.stack.d
            stack += xs[k] if f == 1 else [[y * f for y in r] for r in xs[k]]
        return self._jets(stack, den ** e * b.stack.d, n)

    def pivot_columns(self, a):
        # An entry is a unit exactly when its mask-0 coordinate is, and
        # the mask-0 part of an elimination over K[e1..ek] is the
        # elimination of the mask-0 parts over K, so the pivots are those
        # of A_0.
        return self.root.pivot_columns(self.mask0(a))

    def __repr__(self):
        return f"{self.base!r}[e]"


RATIONAL = RationalRing()
FLOAT64 = Float64Ring()


def _extension(src, dst):
    """The number of jet coordinates that `dst`, `src` or an iterated dual
    over it, adds to a scalar of `src`."""
    ring = dst
    while ring != src:
        if ring.kind != "dual":
            raise RingMismatch(f"{dst!r} is not an extension of {src!r}")
        ring = ring.base
    if dst == src:
        return 0
    return dst.size - (src.size if src.kind == "dual" else 1)


def ring_to_json(ring):
    if ring.kind == "rational":
        return {"kind": "rational"}
    if ring.kind == "float64":
        return {"kind": "float64"}
    if ring.kind == "prime_field":
        return {"kind": "prime_field", "p": ring.p}
    if ring.kind == "dual":
        return {"kind": "dual", "base": ring_to_json(ring.base)}
    raise ValueError(ring.kind)


# The most nilpotents a ring read from JSON may nest: a scalar of
# K[e1..ek] has 2^k jet coordinates, and a product costs 3^k of them.
MAX_DUAL_DEPTH = 8


def ring_from_json(obj):
    """A shorthand string or a {"kind": ...} object; a dual tower nests
    at most MAX_DUAL_DEPTH {"kind": "dual", "base": ...} levels."""
    depth = 0
    while isinstance(obj, dict) and obj.get("kind") == "dual":
        if depth == MAX_DUAL_DEPTH:
            raise ValueError(f"a dual tower has at most {MAX_DUAL_DEPTH} "
                             "nilpotents")
        depth += 1
        obj = obj["base"]
    ring = _field_from_json(obj)
    for _ in range(depth):
        ring = DualRing(ring)
    return ring


def _field_from_json(obj):
    if isinstance(obj, str):
        if obj == "rational":
            return RATIONAL
        if obj == "float64":
            return FLOAT64
        if obj.startswith("fp:"):
            return PrimeFieldRing(int(obj[3:]))
        raise ValueError(f"unknown ring shorthand {obj!r}")
    kind = obj["kind"]
    if kind == "rational":
        return RATIONAL
    if kind == "float64":
        return FLOAT64
    if kind == "prime_field":
        return PrimeFieldRing(obj["p"])
    raise ValueError(f"unknown ring kind {kind!r}")


def scalar_to_json(ring, s):
    if ring.kind == "rational":
        return str(s) if s.denominator != 1 else str(s.numerator)
    if ring.kind == "float64":
        return s
    if ring.kind == "prime_field":
        return {"fp": s.v, "p": s.p}
    if ring.kind == "dual":
        return {"re": scalar_to_json(ring.base, s.re),
                "eps": scalar_to_json(ring.base, s.eps)}
    raise ValueError(ring.kind)


def scalar_from_json(ring, obj):
    if isinstance(obj, bool):
        raise ValueError(f"a boolean is not a scalar: {obj!r}")
    if ring.kind == "rational":
        if isinstance(obj, (str, int)):
            try:
                return _rational(obj)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {obj!r}") from None
        raise ValueError(f"bad rational payload {obj!r}")
    if ring.kind == "float64":
        try:
            x = float(obj)
        except OverflowError:
            x = float("inf")
        if not isfinite(x):
            raise ValueError(f"non-finite float64 {obj!r}")
        return x
    if ring.kind == "prime_field":
        if isinstance(obj, int):
            return Fp(obj, ring.p)
        fp = obj.get("fp") if isinstance(obj, dict) else None
        if not isinstance(fp, int) or isinstance(fp, bool):
            raise ValueError(f"bad prime-field payload {obj!r}")
        if obj.get("p", ring.p) != ring.p:
            raise RingMismatch(f"payload mod {obj['p']} in F_{ring.p}")
        return Fp(fp, ring.p)
    if ring.kind == "dual":
        if isinstance(obj, dict) and "re" in obj:
            return Dual(scalar_from_json(ring.base, obj["re"]),
                        scalar_from_json(ring.base, obj["eps"]))
        # plain payload: embedded base scalar
        return ring.lift(scalar_from_json(ring.base, obj))
    raise ValueError(ring.kind)
