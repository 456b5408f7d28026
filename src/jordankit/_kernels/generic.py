"""Generic matrix kernels over any scalar ring.

Matrices are lists of row lists of scalar objects; the `ring` argument
supplies zero/one, the unit test used for pivot admissibility, inversion,
and (for float64) a pivot magnitude. Over dual (local) rings the unit test
looks at re-parts only, which is exactly what makes elimination work
there. Float64, which has no packed form, runs its products, solves,
pivot searches, sums and scaling on these loops; the parity tests use
them, run on rows of scalars, as the reference for the packed and
per-mask kernels in rings.py: products, solves, sums, scaling and pivot
search over Q, F_p and dual rings. Solve and pivot search are thin
wrappers of one elimination, `eliminate`.
"""


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


def eliminate(rows, ring, width=None):
    """Gauss-Jordan elimination of `rows` in place; returns the pivot
    columns and the reduced rows.

    Pivots are searched only in the first `width` columns (all of them by
    default), but every row operation runs over all columns. In each
    column the pivot is the first unit at or below the next pivot row, or
    on float64 the unit of largest magnitude. Elimination stops once every
    row has a pivot.
    """
    n = len(rows)
    m = len(rows[0]) if rows else 0
    zero = ring.zero()
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
                mag = ring.pivot_magnitude(s)
                if mag is None:
                    piv = r
                    break
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

