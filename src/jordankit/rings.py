"""Scalar ring tower: rationals, odd prime fields, float64, and nested
dual-number extensions R[eps] with eps^2 = 0.

Scalars are plain Python values (fractions.Fraction, float, Fp, Dual) so
the generic matrix kernels can use operator syntax; everything that needs
ring context (unit tests, inversion, zero/one, JSON) goes through a Ring
object. All values are immutable.

A ring also multiplies matrices (lists of row lists of its scalars),
solves square systems and finds pivot columns, in its own packed form
where it has one: Q on integers over a common denominator, F_p on raw
residues, and a dual ring on the base matrices of its parts. Pivot search
on Q and F_p is a forward elimination on integer rows (`_pivots`); a dual
ring searches the re-parts over its base, since only re-parts decide
pivots there. Solve over Q and F_p still runs the generic elimination.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, lcm
from operator import mul

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


class Dual:
    """a + b*eps over some base ring, eps^2 = 0.

    Parts may themselves be Dual values (nested extensions with
    independent nilpotents).
    """

    __slots__ = ("re", "eps")

    def __init__(self, re, eps):
        self.re = re
        self.eps = eps

    def __add__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re + other.re, self.eps + other.eps)
        if isinstance(other, int):
            return Dual(self.re + other, self.eps)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re - other.re, self.eps - other.eps)
        if isinstance(other, int):
            return Dual(self.re - other, self.eps)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, int):
            return Dual(other - self.re, -self.eps)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, Dual):
            return Dual(self.re * other.re, self.re * other.eps + self.eps * other.re)
        if isinstance(other, int):
            return Dual(self.re * other, self.eps * other)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return Dual(-self.re, -self.eps)

    def __eq__(self, other):
        if isinstance(other, Dual):
            return self.re == other.re and self.eps == other.eps
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.eps))

    def __repr__(self):
        return f"({self.re!r}+{self.eps!r}e)"


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

    def matmul(self, a, b):
        """A B for row lists A (n x k) and B (k x m)."""
        return generic.matmul(a, b, self)

    def solve(self, a, b):
        """X with A X = B for square A, or None when elimination finds no
        unit pivot for some column (A not invertible)."""
        return generic.gauss_solve(a, b, self)

    def pivot_columns(self, a):
        """Columns in which row elimination of A finds a unit pivot; the
        pivot is the first unit at or below the next pivot row (on
        float64, the unit of largest magnitude)."""
        return generic.eliminate([list(r) for r in a], self)[0]


def _pivots(rows, p=None):
    """Pivot columns of integer rows: in each column the pivot is the
    first non-zero entry at or below the next pivot row.

    The elimination runs forward only and never forms a fraction. Over Z
    (`p` None) it is fraction-free (Bareiss, Math. Comp. 1968): each
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
        if p is not None:
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


def _integral(vec):
    """(integers, d) with vec[i] = integers[i] / d, where d is the lcm of
    the denominators in vec."""
    d = lcm(*[x.denominator for x in vec])
    if d == 1:
        return [x.numerator for x in vec], 1
    return [x.numerator * (d // x.denominator) for x in vec], d


@dataclass(frozen=True)
class RationalRing(Ring):
    kind = "rational"

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

    def matmul(self, a, b):
        # Each row of A and each column of B is scaled to integers: one
        # integer dot product and one rational construction per entry.
        rows = [_integral(r) for r in a]
        cols = [_integral(c) for c in zip(*b)]
        return [[_rational(sum(map(mul, r, c)), d * e) for c, e in cols]
                for r, d in rows]

    def pivot_columns(self, a):
        # A row scaled by a non-zero integer keeps its pivots.
        return _pivots([_integral(r)[0] for r in a])

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
class PrimeFieldRing(Ring):
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

    def matmul(self, a, b):
        # Raw residues, reduced once per entry.
        p = self.p
        cols = [[x.v for x in c] for c in zip(*b)]
        return [[Fp(sum(map(mul, r, c)), p) for c in cols]
                for r in [[x.v for x in r] for r in a]]

    def pivot_columns(self, a):
        return _pivots([[x.v for x in r] for r in a], self.p)

    def __repr__(self):
        return f"F{self.p}"


@dataclass(frozen=True)
class DualRing(Ring):
    base: Ring
    kind = "dual"

    @property
    def depth(self):
        return 1 + self.base.depth

    def zero(self):
        return Dual(self.base.zero(), self.base.zero())

    def one(self):
        return Dual(self.base.one(), self.base.zero())

    def from_int(self, k):
        return Dual(self.base.from_int(k), self.base.zero())

    def is_unit(self, s):
        return self.base.is_unit(s.re)

    def invert(self, s):
        # (a + b eps)^-1 = a^-1 - a^-1 b a^-1 eps; scalars commute.
        ia = self.base.invert(s.re)
        return Dual(ia, -(ia * s.eps * ia))

    def pivot_magnitude(self, s):
        return self.base.pivot_magnitude(s.re)

    def is_exact(self):
        return self.base.is_exact()

    def lift(self, s):
        """Embed a base-ring scalar."""
        return Dual(s, self.base.zero())

    def matmul(self, a, b):
        # Jet form: for A = A_re + e A_eps, C_re = A_re B_re and
        # C_eps = A_re B_eps + A_eps B_re = [A_re | A_eps] [B_eps ; B_re],
        # two products over the base, which recurses down the tower.
        are, aeps = _parts(a)
        bre, beps = _parts(b)
        cre = self.base.matmul(are, bre)
        ceps = self.base.matmul([r + e for r, e in zip(are, aeps)],
                                beps + bre)
        return [[Dual(x, y) for x, y in zip(r, e)] for r, e in zip(cre, ceps)]

    def solve(self, a, b):
        # A X = B splits into A_re X_re = B_re and
        # A_re X_eps = B_eps - A_eps X_re. One base solve against
        # [B_re | B_eps | A_eps] gives X_re, Y = A_re^-1 B_eps and
        # Z = A_re^-1 A_eps, and X_eps = Y - Z X_re. A is invertible over
        # the dual ring exactly when A_re is invertible over the base.
        are, aeps = _parts(a)
        bre, beps = _parts(b)
        m = len(b[0]) if b else 0
        sol = self.base.solve(are, [r + e + z for r, e, z
                                    in zip(bre, beps, aeps)])
        if sol is None:
            return None
        xre = [r[:m] for r in sol]
        zx = self.base.matmul([r[2 * m:] for r in sol], xre)
        return [[Dual(x, y - w) for x, y, w in zip(xr, r[m:2 * m], wr)]
                for xr, r, wr in zip(xre, sol, zx)]

    def pivot_columns(self, a):
        # An entry is a unit exactly when its re-part is, and the re-parts
        # of an elimination over K[e] are the elimination of the re-parts
        # over K, so the pivots are those of A_re.
        return self.base.pivot_columns([[x.re for x in r] for r in a])

    def __repr__(self):
        return f"{self.base!r}[e]"


def _parts(a):
    """(re rows, eps rows) of a matrix over a dual ring."""
    return ([[x.re for x in r] for r in a], [[x.eps for x in r] for r in a])


RATIONAL = RationalRing()
FLOAT64 = Float64Ring()


def dual_parts(ring, s):
    if ring.kind != "dual":
        raise NotDual(f"{ring!r} is not a dual ring")
    return s.re, s.eps


def embed_scalar(s, src, dst):
    """Embed a scalar from `src` into `dst`, an iterated dual over `src`."""
    if dst == src:
        return s
    if dst.kind != "dual":
        raise RingMismatch(f"{dst!r} is not an extension of {src!r}")
    return Dual(embed_scalar(s, src, dst.base), dst.base.zero())


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
