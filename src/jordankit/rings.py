"""Scalar ring tower: rationals, odd prime fields, float64, and iterated
dual-number extensions K[e1..ek] with each e_i^2 = 0.

Scalars are plain Python values (fractions.Fraction, float, Fp, Dual) so
the generic matrix kernels can use operator syntax; everything that needs
ring context (unit tests, inversion, zero/one, JSON) goes through a Ring
object. All values are immutable. A scalar of K[e1..ek] is one flat jet:
its 2^k coordinates by nilpotent mask, in the packed form of the root
field K (see Dual); `Dual(re, eps)`, `.re` and `.eps` are its nested view.

A ring also holds matrices in its own form and does their arithmetic:
sums, scaling, products, solves and pivot searches (`pack` and `unpack`
convert from and to rows of scalars). Q and F_p keep a matrix packed
(see Packed): integer rows over one denominator, or residue rows, which
every operation takes and returns, so no scalar is built until a caller
reads entries. Float64 and the dual rings keep rows of scalars; a dual
ring multiplies and solves on the packed jet coordinates, with one root
solve or pivot search of the mask-0 part. Each root field has one packed
solve (`_solve_packed`), which its plain matrices and its dual towers
share: on Q a fraction-free Gauss-Jordan elimination on integer rows
(`_bareiss`), on F_p a Gauss-Jordan elimination on residues
(`_solve_mod`); pivots come from a forward elimination on integer rows
(`_pivots`). Only float64 runs the generic elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, reduce
from itertools import chain
from math import gcd, isfinite, lcm
from operator import add, mul, sub

from ._kernels import generic
from .errors import NotAUnit, NotDual, RingMismatch

try:
    from gmpy2 import mpq as _rational
except ImportError:  # gmpy2 is the optional `fast` extra
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


@cache
def _convolution(size):
    """The subset convolution c_m = sum of a_s b_(m^s) over the subsets s
    of m, for coordinate tuples a and b of `size` entries: the jet product
    before reduction to the root's packed form.

    It is compiled to one straight-line expression per mask, which runs
    several times faster than a loop over the (s, m^s) pairs; the terms
    are added in increasing s.
    """
    terms = [" + ".join(f"a[{s}] * b[{m ^ s}]" for s in sub)
             for m, sub in enumerate(_subsets(size))]
    namespace = {}
    exec(f"def conv(a, b):\n    return ({', '.join(terms)},)\n",
         namespace)
    return namespace["conv"]


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
        (va, vb), d = _pack([a, b])
        return _jet(va + vb, d, a.p)

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
            w = self._other(o)
            return _reduced(_convolution(len(v))(v, w), self.d * o.d, p)
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


def _pack(xs):
    """(coordinates, d): the jets xs over one denominator d (1 off Q)."""
    d = lcm(*[x.d for x in xs])
    return [x.v if x.d == d else tuple([c * (d // x.d) for c in x.v])
            for x in xs], d


def _idot(x, y):
    return sum(map(mul, x, y))


def _fdot(x, y):
    # Left to right from 0.0, as the generic loops add (sum() may
    # compensate float rounding).
    return reduce(add, map(mul, x, y), 0.0)


class Packed(list):
    """A matrix over Q or F_p in the field's packed form: its rows as
    lists of integers over one denominator `d`.
    - Q: d > 0 and gcd(d, every entry) = 1 (FLINT's fmpq_mat keeps a
      rational matrix the same way), so equal matrices have equal packed
      forms;
    - F_p: residues in [0, p), d 1.
    It is the list of its rows, so kernels that read len(a) and len(a[0])
    take it as they take rows of scalars. A vector is a packed column.
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

    def pivot_magnitude(self, s):
        """Sort key for pivot selection; None means first unit wins."""
        return None

    def half(self):
        return self.invert(self.from_int(2))

    def inv_int(self, k):
        return self.invert(self.from_int(k))

    def is_exact(self):
        return True

    # -- matrices in the ring's own form: here rows of scalars; Q and F_p
    # keep them packed (see _PackedField). Matrix works through these.

    def pack(self, rows):
        """The matrix with rows of scalars `rows` in the ring's form."""
        return rows

    def unpack(self, a):
        """The rows of scalars of a matrix in the ring's form."""
        return a

    def ints(self, rows):
        """The matrix of integer rows, in the ring's form."""
        # One scalar per distinct integer: identities and zeros over a dual
        # ring would otherwise build a jet per entry.
        scalar = {k: self.from_int(k) for k in set(chain.from_iterable(rows))}
        return [[scalar[k] for k in r] for r in rows]

    def mask0(self, rows):
        """The mask-0 coordinates of rows of jets over this root ring, as
        a matrix in its form."""
        return [[x._root(0) for x in r] for r in rows]

    madd = staticmethod(generic.madd)
    msub = staticmethod(generic.msub)
    mneg = staticmethod(generic.mneg)
    mscale = staticmethod(generic.mscale)

    def mkron(self, a, b):
        """The Kronecker product: entry [(i,j),(k,l)] is a[i][k] b[j][l]."""
        return [[x * y for x in ra for y in rb] for ra in a for rb in b]

    def mjoin(self, forms, across):
        """The matrices side by side (`across`) or stacked."""
        if across:
            return [list(chain.from_iterable(rs)) for rs in zip(*forms)]
        return [r for f in forms for r in f]

    def mselect(self, a, rows, cols):
        """The submatrix on `rows` and `cols`."""
        return [[a[i][j] for j in cols] for i in rows]

    def matmul(self, a, b):
        """A B for row lists A (n x k) and B (k x m)."""
        return generic.matmul(a, b, self)

    def matvec(self, a, v):
        """A v for the list of scalars v, as the product of A with the
        column v."""
        if not v:
            return [self.zero() for _ in a]
        return [r[0] for r in self.matmul(a, [[x] for x in v])]

    def solve(self, a, b):
        """X with A X = B for square A, or None when elimination finds no
        unit pivot for some column (A not invertible)."""
        return generic.gauss_solve(a, b, self)

    def pivot_columns(self, a):
        """Columns in which row elimination of A finds a unit pivot; the
        pivot is the first unit at or below the next pivot row (on
        float64, the unit of largest magnitude)."""
        return generic.eliminate([list(r) for r in a], self)[0]


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
        # Swap the pivot row up, as the generic elimination does.
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
    """A root field whose matrices stay packed (see Packed): Q (`_p` 0)
    and F_p. Sums, scaling, products, solves and pivot searches take and
    return packed rows. Rows of scalars given to matmul, matvec, solve or
    pivot_columns are packed first, and the result is unpacked."""

    def ints(self, rows):
        return self._reduce([list(r) for r in rows], 1)

    def mask0(self, rows):
        d = lcm(*[x.d for r in rows for x in r])
        return self._reduce([[x.v[0] * (d // x.d) for x in r] for r in rows],
                            d)

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
        return self._reduce([[x * k for x in r] for r in a], a.d * t.d)

    def mkron(self, a, b):
        return self._reduce(Ring.mkron(self, a, b), a.d * b.d)

    def mjoin(self, forms, across):
        # Over the lcm of their denominators the joined rows are in packed
        # form when every part is.
        d = lcm(*[f.d for f in forms])
        if d != 1:
            forms = [f if f.d == d else [[x * (d // f.d) for x in r]
                                         for r in f] for f in forms]
        return Packed.of(Ring.mjoin(self, forms, across), d)

    def mselect(self, a, rows, cols):
        return self._reduce(Ring.mselect(self, a, rows, cols), a.d)

    def matmul(self, a, b):
        if type(a) is not Packed:
            return self.unpack(self.matmul(self.pack(a), self.pack(b)))
        cols = list(zip(*b))
        return self._reduce([[sum(map(mul, r, c)) for c in cols] for r in a],
                            a.d * b.d)

    def matvec(self, a, v):
        """A v; for a packed A, v is a packed column and so is A v."""
        if type(a) is not Packed:
            return Ring.matvec(self, a, v)
        if not v:
            return Packed.of([[0] for _ in a])
        return self.matmul(a, v)

    def solve(self, a, b):
        if type(a) is not Packed:
            x = self.solve(self.pack(a), self.pack(b))
            return None if x is None else self.unpack(x)
        # (A/d) X = B/e is (A) X = B d/e, and [A | B] is integral.
        out = self._solve_packed([x + y for x, y in zip(a, b)], len(a))
        if out is None:
            return None
        x, den = out
        if a.d != 1:
            x = [[v * a.d for v in r] for r in x]
        return self._reduce(x, den * b.d)

    def pivot_columns(self, a):
        # Scaling by the denominator keeps the pivots.
        if type(a) is not Packed:
            a = self.pack(a)
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

    def from_fraction(self, q):
        return _rational(q.numerator) / _rational(q.denominator)

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
class Float64Ring(Ring):
    unit_tol: float = 1e-12
    kind = "float64"

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

    def pivot_magnitude(self, s):
        return abs(s)

    def is_exact(self):
        return False

    def _solve_packed(self, rows, n):
        x = self.solve([r[:n] for r in rows], [r[n:] for r in rows])
        return None if x is None else (x, 1)

    def __repr__(self):
        return "R64"


def _is_odd_prime(p):
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeFieldRing(_PackedField):
    p: int
    kind = "prime_field"

    def __post_init__(self):
        if not _is_odd_prime(self.p):
            raise ValueError(f"modulus {self.p} is not an odd prime")

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
        x = self.solve([[s]], [[self.one()]])
        if x is None:
            raise NotAUnit(f"{s!r} has no unit re-part")
        return x[0][0]

    def pivot_magnitude(self, s):
        return self.root.pivot_magnitude(s._root(0))

    def is_exact(self):
        return self.root.is_exact()

    def lift(self, s):
        """Embed a base-ring scalar."""
        return _as_jet(s)._pad(self.size // 2)

    def matmul(self, a, b):
        # C_m is the sum of A_s B_(m^s) over the subsets s of m. Each row
        # of A and each column of B is scaled once to the root's packed
        # form and laid out per mask m as the concatenation of its
        # coordinates s (rows) or m^s (columns) over those s, so every
        # output coordinate is one dot product.
        if not b or not b[0]:
            return [[] for _ in a]
        subsets = _subsets(self.size)
        rows = []
        for r in a:
            v, d = _pack(r)
            by_mask = list(zip(*v))
            rows.append(([sum([by_mask[s] for s in sub], ())
                          for sub in subsets], d))
        cols = []
        for c in zip(*b):
            v, e = _pack(c)
            by_mask = list(zip(*v))
            cols.append(([sum([by_mask[m ^ s] for s in sub], ())
                          for m, sub in enumerate(subsets)], e))
        dot, p = self._dot, self._p
        return [[_reduced(tuple(map(dot, rv, cv)), d * e, p)
                 for cv, e in cols] for rv, d in rows]

    def solve(self, a, b):
        # A X = B splits by mask: A_0 X_m = B_m - sum of A_s X_(m^s) over
        # the non-empty s in m. Each row of [A | B] is scaled to the root's
        # packed form, and one root solve against
        # [B_0 | .. | B_last | A_1 | .. | A_last] gives Y_m = N_m / D and
        # Z_s = M_s / D. By increasing mask, X_m = P_m / D^(|m|+1) with
        # P_m = D^|m| N_m - sum of D^(|s|-1) M_s P_(m^s), all in packed
        # form (D = 1 off Q). A is invertible over the dual ring exactly
        # when A_0 is over the root.
        size, depth = self.size, self.depth
        n = len(a)
        m = len(b[0]) if b else 0
        rows = [_pack(ra + rb)[0] for ra, rb in zip(a, b)]
        out = self.root._solve_packed(
            [[c[0] for c in r[:n]] + [c[k] for k in range(size) for c in r[n:]]
             + [c[s] for s in range(1, size) for c in r[:n]] for r in rows], n)
        if out is None:
            return None
        sol, den = out
        pw = [den ** j for j in range(depth + 2)]
        bits = [bin(k).count("1") for k in range(size)]
        dot = self._dot
        xs = [[r[:m] for r in sol]]
        off = size * m
        for mask, sub in enumerate(_subsets(size)[1:], 1):
            sub = sub[1:]
            z = [[x * pw[bits[s] - 1] for s in sub
                  for x in r[off + (s - 1) * n:off + s * n]] for r in sol]
            cols = list(zip(*[row for s in sub for row in xs[mask ^ s]]))
            scale = pw[bits[mask]]
            xs.append([[y * scale - dot(zr, c)
                        for y, c in zip(r[mask * m:(mask + 1) * m], cols)]
                       for r, zr in zip(sol, z)])
        # Coordinate k of an entry is its P_k over D^(depth+1).
        scales = [pw[depth - c] for c in bits]
        return [[_reduced(tuple([x[i][j] * c for x, c in zip(xs, scales)]),
                          pw[depth + 1], self._p) for j in range(m)]
                for i in range(n)]

    def pivot_columns(self, a):
        # An entry is a unit exactly when its mask-0 coordinate is, and
        # the mask-0 part of an elimination over K[e1..ek] is the
        # elimination of the mask-0 parts over K, so the pivots are those
        # of A_0.
        return self.root.pivot_columns(self.root.mask0(a))

    def __repr__(self):
        return f"{self.base!r}[e]"


RATIONAL = RationalRing()
FLOAT64 = Float64Ring()


def dual_parts(ring, s):
    if ring.kind != "dual":
        raise NotDual(f"{ring!r} is not a dual ring")
    return s.re, s.eps


def embedding(src, dst):
    """The map that embeds scalars of `src` into `dst`, an iterated dual
    over `src`: zero-padding of their jet coordinates."""
    ring = dst
    while ring != src:
        if ring.kind != "dual":
            raise RingMismatch(f"{dst!r} is not an extension of {src!r}")
        ring = ring.base
    if dst == src:
        return lambda s: s
    k = dst.size - (src.size if src.kind == "dual" else 1)
    return lambda s: _as_jet(s)._pad(k)


def embed_scalar(s, src, dst):
    """Embed a scalar from `src` into `dst`, an iterated dual over `src`."""
    return embedding(src, dst)(s)


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


def ring_from_json(obj):
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
    if kind == "dual":
        return DualRing(ring_from_json(obj["base"]))
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
        if not (isinstance(obj, dict) and isinstance(obj.get("fp"), int)):
            raise ValueError(f"bad prime-field payload {obj!r}")
        if obj.get("p", ring.p) != ring.p:
            raise RingMismatch(f"payload mod {obj['p']} in F_{ring.p}")
        return Fp(obj["fp"], ring.p)
    if ring.kind == "dual":
        if isinstance(obj, dict) and "re" in obj:
            return Dual(scalar_from_json(ring.base, obj["re"]),
                        scalar_from_json(ring.base, obj["eps"]))
        # plain payload: embedded base scalar
        return ring.lift(scalar_from_json(ring.base, obj))
    raise ValueError(ring.kind)
