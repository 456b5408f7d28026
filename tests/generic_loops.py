"""The generic matrix loops over any scalar ring: the oracle that the
packed and per-mask kernels of jordankit.rings are checked against.

Matrices are lists of row lists of scalars; the `ring` argument supplies
zero, one, the unit test and inversion. Over a dual (local) ring the unit
test looks at re-parts only, which is exactly what makes elimination
work there. In each column the pivot is the first unit at or below the
next pivot row on exact rings, and on float64 and its dual towers the
unit of largest magnitude (of the mask-0 coordinate, on a tower), the
first of equal ones. Solve and pivot search are thin wrappers of one
elimination, `eliminate`.

`on_rows` runs a `jordankit._kernels` function, which takes and returns
the ring's form, on rows of scalars; `bits` turns results into data
that compare equal only when every float has the same bits.
"""

from jordankit import _kernels as K
from jordankit.rings import Dual


def matmul(a, b, ring):
    n = len(a)
    k = len(b)
    m = len(b[0]) if k else 0
    zero = ring.zero()
    out = []
    for i in range(n):
        ai = a[i]
        row = []
        for j in range(m):
            acc = zero
            for t in range(k):
                acc = acc + ai[t] * b[t][j]
            row.append(acc)
        out.append(row)
    return out


def matvec(a, v, ring):
    return [r[0] for r in matmul(a, [[x] for x in v], ring)]


def _magnitude(s):
    """|s| of a float, or of the mask-0 coordinate of a jet over float64."""
    return abs(s._root(0) if isinstance(s, Dual) else s)


def eliminate(rows, ring, width=None):
    """Gauss-Jordan elimination of `rows` in place; returns the pivot
    columns and the reduced rows.

    Pivots are searched only in the first `width` columns (all of them by
    default), but every row operation runs over all columns. Elimination
    stops once every row has a pivot.
    """
    n = len(rows)
    m = len(rows[0]) if rows else 0
    zero = ring.zero()
    first_unit = ring.is_exact()
    cols = []
    for col in range(m if width is None else width):
        rank = len(cols)
        if rank == n:
            break
        piv = -1
        best = None
        for r in range(rank, n):
            s = rows[r][col]
            if ring.is_unit(s):
                if first_unit:
                    piv = r
                    break
                mag = _magnitude(s)
                if best is None or mag > best:
                    best = mag
                    piv = r
        if piv < 0:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = ring.invert(rows[rank][col])
        prow = rows[rank]
        for j in range(col, m):
            prow[j] = inv * prow[j]
        for r in range(n):
            if r == rank:
                continue
            f = rows[r][col]
            if f == zero:
                continue
            rrow = rows[r]
            for j in range(col, m):
                rrow[j] = rrow[j] - f * prow[j]
        cols.append(col)
    return cols, rows


def pivots(a, ring):
    return eliminate([list(r) for r in a], ring)[0]


def gauss_solve(a, b, ring):
    """Solve A X = B for square A; returns X rows or None if no unit
    pivot can be found for some column (A not invertible over `ring`)."""
    n = len(a)
    piv, rows = eliminate([list(ra) + list(rb) for ra, rb in zip(a, b)],
                          ring, n)
    return [r[n:] for r in rows] if len(piv) == n else None


def madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def msub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mneg(a):
    return [[-x for x in r] for r in a]


def mscale(a, s):
    return [[s * x for x in r] for r in a]


def meye(n, ring):
    zero = ring.zero()
    one = ring.one()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def on_rows(kernel, *args):
    """kernel(*args) for a `jordankit._kernels` function given rows of
    scalars, its last argument being the ring: every matrix argument is
    packed into the ring's form (matvec's vector as a column), and a
    matrix result is unpacked into rows (into the list of its entries for
    matvec)."""
    *mats, ring = args
    if kernel is K.matvec:
        mats[1] = [[x] for x in mats[1]]
    out = kernel(*[ring.pack(m) for m in mats], ring)
    if out is None or kernel in (K.gauss_rank, K.pivot_columns):
        return out
    rows = ring.unpack(out)
    return [r[0] for r in rows] if kernel is K.matvec else rows


def bits(x):
    """x with every float replaced by its hex form, which tells -0.0 from
    0.0, and every jet by its packed coordinates, through lists and
    tuples; other values as they are."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, Dual):
        return bits(list(x.v)), x.d, x.p
    if isinstance(x, list):
        return [bits(y) for y in x]
    if isinstance(x, tuple):
        return tuple(bits(y) for y in x)
    return x
