"""Kernel parity: the packed products, solves and pivot searches that
the rings provide must agree with the generic loops of generic_loops.py,
which run on the scalar operators, over every ring (Q, F_3, F_5, F_7 and
F_(2^31-1) and their jets at depths 1 to 3, and float64 bit for bit;
jets over float64 up to rounding), on square, rectangular, row, column
and empty shapes. The kernels take the ring's form; these tests give
them rows of scalars through `on_rows`. The one generic elimination must
give consistent ranks, pivots and solutions, and the bases picked by one
pivot search must equal the ones picked by adding one candidate at a
time."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import generic_loops as generic
from generic_loops import bits, on_rows
from jordankit import _kernels as K
from jordankit.algebra import (Involution, LinearOperator, Matrix, herm_split,
                               matrix_unit_basis)
from jordankit.errors import NotInvertible
from jordankit.jordan import JordanContext
from jordankit.projline import standard_complement
from jordankit.randgen import rand_point, trial_rng
from jordankit.rings import (FLOAT64, RATIONAL, Dual, DualRing,
                             PrimeFieldRing, _rational)

F5 = PrimeFieldRing(5)


def tower(root, depth):
    for _ in range(depth):
        root = DualRing(root)
    return root


PRIME_FIELDS = [PrimeFieldRing(3), PrimeFieldRing(7),
                PrimeFieldRing(2**31 - 1)]
JET_RINGS = [tower(root, depth) for root in [RATIONAL] + PRIME_FIELDS
             for depth in (1, 2, 3)]
EXACT_RINGS = [RATIONAL, F5] + PRIME_FIELDS + JET_RINGS
# The rings whose kernels repeat the generic loops' arithmetic bit for bit.
PARITY_RINGS = EXACT_RINGS + [FLOAT64]
FLOAT_JET_RINGS = [tower(FLOAT64, depth) for depth in (1, 2, 3)]
R64E = DualRing(FLOAT64)
QE = DualRing(RATIONAL)
DENOMS = (1, 1, 2, 3, 7, 10, 12, 10**20)
# (rows of A, inner dimension, columns of B)
SHAPES = [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), (1, 4, 1), (1, 3, 4),
          (4, 3, 1), (4, 1, 3), (2, 5, 3), (3, 2, 5), (0, 3, 2), (2, 0, 3),
          (3, 2, 0)]


def rand_scalar(rng, ring):
    """A random scalar; over a dual ring, the re-part is zero one time in
    six."""
    if isinstance(ring, DualRing):
        re = (ring.base.zero() if rng.random() < 1 / 6
              else rand_scalar(rng, ring.base))
        return Dual(re, rand_scalar(rng, ring.base))
    if ring == RATIONAL:
        return _rational(Fraction(rng.randint(-9, 9), rng.choice(DENOMS)))
    if ring == FLOAT64:
        return rng.uniform(-4.0, 4.0)
    if rng.random() < 0.2:
        return ring.from_int(rng.randrange(ring.p))
    return ring.from_int(rng.randint(-9, 9))


def rand_rows(rng, ring, n, m):
    return [[rand_scalar(rng, ring) for _ in range(m)] for _ in range(n)]


def _cases(ring, seed=777):
    rng = random.Random(seed)
    for n, k, m in SHAPES:
        yield rand_rows(rng, ring, n, k), rand_rows(rng, ring, k, m)


def _systems(ring, seed=778):
    """Square systems A X = B with B of 0 to 3 columns: five with A drawn
    until the generic elimination finds it invertible, then one random A,
    the empty system, over a dual ring one whose re-part is singular, an
    invertible A at n = 6, and three fixed integer systems."""
    rng = random.Random(seed)
    for n in (1, 2, 3, 4, 4):
        for _ in range(100):
            a = rand_rows(rng, ring, n, n)
            if len(generic.pivots(a, ring)) == n:
                break
        yield a, rand_rows(rng, ring, n, rng.randint(1, 3))
    yield rand_rows(rng, ring, 3, 3), rand_rows(rng, ring, 3, 0)
    yield [], []
    if isinstance(ring, DualRing):
        a = rand_rows(rng, ring, 3, 3)
        # Row 2 = row 0 + row 1 in the re-part only.
        a[2] = [x + y + Dual(ring.base.zero(), rand_scalar(rng, ring.base))
                for x, y in zip(a[0], a[1])]
        yield a, rand_rows(rng, ring, 3, 2)
    for _ in range(100):
        a = rand_rows(rng, ring, 6, 6)
        if len(generic.pivots(a, ring)) == 6:
            break
    yield a, rand_rows(rng, ring, 6, 2)
    for a, b in [
            # Singular, with no pivot in A's first column: B's columns
            # must not lend one.
            ([[0, 1], [0, 2]], [[1], [3]]),
            # A row swap.
            ([[0, 1], [1, 0]], [[1, 2], [3, 4]]),
            # A row swap to a negative last pivot over Z, det A = 2.
            ([[0, 2], [-1, 3]], [[1], [1]])]:
        yield ([[ring.from_int(k) for k in r] for r in a],
               [[ring.from_int(k) for k in r] for r in b])


def _close(x, y, rel=1e-12):
    if isinstance(x, Dual):
        return _close(x.re, y.re, rel) and _close(x.eps, y.eps, rel)
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def _rows_close(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(_close(x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


@pytest.mark.parametrize("ring", PARITY_RINGS, ids=repr)
def test_matmul_parity(ring):
    for a, b in _cases(ring):
        got = on_rows(K.matmul, a, b, ring)
        assert got == generic.matmul(a, b, ring)
        assert bits(got) == bits(generic.matmul(a, b, ring))


@pytest.mark.parametrize("ring", PARITY_RINGS, ids=repr)
def test_matvec_parity(ring):
    for a, b in _cases(ring):
        if not b or not b[0]:
            continue
        v = [row[0] for row in b]
        got = on_rows(K.matvec, a, v, ring)
        assert got == generic.matvec(a, v, ring)
        assert bits(got) == bits(generic.matvec(a, v, ring))


@pytest.mark.parametrize("ring", PARITY_RINGS, ids=repr)
def test_solve_parity(ring):
    """Over float64, A X equals B up to rounding only."""
    same = list.__eq__ if ring.is_exact() else _rows_close
    solved = singular = 0
    for a, b in _systems(ring):
        x = on_rows(K.gauss_solve, a, b, ring)
        assert x == generic.gauss_solve(a, b, ring)
        assert bits(x) == bits(generic.gauss_solve(a, b, ring))
        if x is not None:
            solved += 1
            assert same(on_rows(K.matmul, a, x, ring), b)
        else:
            singular += 1
    assert solved >= 6
    assert singular >= isinstance(ring, DualRing)


def test_float_dual_parity():
    """Jets over float64 sum in another order on the packed path."""
    for ring in FLOAT_JET_RINGS:
        for a, b in _cases(ring):
            assert _rows_close(on_rows(K.matmul, a, b, ring),
                               generic.matmul(a, b, ring))
            if b and b[0]:
                v = [row[0] for row in b]
                assert _rows_close([on_rows(K.matvec, a, v, ring)],
                                   [generic.matvec(a, v, ring)])
        for a, b in _systems(ring):
            # At n = 6 and depth 3 the two solves differ by more than the
            # rounding bound above: the jets amplify it like cond(A_0)^4.
            if len(a) > 4 and ring.depth == 3:
                continue
            x = on_rows(K.gauss_solve, a, b, ring)
            want = generic.gauss_solve(a, b, ring)
            assert (x is None) == (want is None)
            if x is not None:
                assert _rows_close(x, want)


def _float_jet_product(a, b, size):
    """The product of rows of float jets with `size` coordinates, one
    coordinate at a time: coordinate m of entry (i, j) adds a[i][t]_s
    b[t][j]_(m^s) over the subsets s of m (outer, increasing), then over
    the inner index t, left to right from 0.0."""
    out = []
    for r in a:
        row = []
        for c in zip(*b):
            coords = []
            for m in range(size):
                acc = 0.0
                for s in range(m + 1):
                    if s & m == s:
                        for x, y in zip(r, c):
                            acc += x.v[s] * y.v[m ^ s]
                coords.append(acc)
            row.append(coords)
        out.append(row)
    return out


def test_float_dual_depth_one_matches_generic_bitwise():
    """At depth 1 the packed float64 product and solve add in the order
    of the generic loops over the parts, so they agree bit for bit. At
    depths 1 to 3 every coordinate of a product adds in the order of the
    per-coordinate reference, bit for bit."""
    def bits(rows):
        return [[(x.re.hex(), x.eps.hex()) for x in r] for r in rows]

    for a, b in _cases(R64E):
        re = [[x.re for x in r] for r in a]
        eps = [[x.eps for x in r] for r in a]
        bre = [[x.re for x in r] for r in b]
        beps = [[x.eps for x in r] for r in b]
        want = [[Dual(x, y) for x, y in zip(rr, er)] for rr, er in zip(
            generic.matmul(re, bre, FLOAT64),
            generic.matmul([r + e for r, e in zip(re, eps)], beps + bre,
                           FLOAT64))]
        assert bits(on_rows(K.matmul, a, b, R64E)) == bits(want)

    for ring in FLOAT_JET_RINGS:
        for a, b in _cases(ring):
            got = on_rows(K.matmul, a, b, ring)
            want = _float_jet_product(a, b, ring.size)
            assert ([[[c.hex() for c in x.v] for x in r] for r in got]
                    == [[[c.hex() for c in x] for x in r] for r in want])


def test_float_summation_order_and_partial_pivoting():
    """Float products add left to right from 0.0, as the generic loops
    do: [1e16, 1.0, -1e16] times a column of ones is 0.0, where a
    compensated sum (math.fsum, or sum() from Python 3.12) gives 1.0.
    Float solves pivot on the entry of largest magnitude and refuse a
    column whose only candidate is at most 1e-12 in magnitude."""
    row = [1e16, 1.0, -1e16]
    assert math.fsum(row) == 1.0
    a = Matrix(FLOAT64, [row])
    ones = Matrix(FLOAT64, [[1.0]] * 3)
    assert (a @ ones).rows == [[0.0]]
    assert LinearOperator(a).apply_flat([1.0] * 3).flatten() == [0.0]
    # Over R64[e], the row in the re-part and in the eps-part, times a
    # column of ones: both parts of the product add left to right.
    z = R64E.zero()
    for entries in ([Dual(x, 0.0) for x in row], [Dual(0.0, x) for x in row]):
        got = Matrix(R64E, [entries]) @ Matrix(R64E, [[R64E.one()]] * 3)
        assert bits(got.rows) == bits([[z]])
    # 1e-10 in the top row is a unit, but the row below is larger.
    t = 1e-10
    x = Matrix(FLOAT64, [[t, 1.0], [1.0, 1.0]]).solve(
        Matrix(FLOAT64, [[1.0], [2.0]]))
    x2 = 1.0 / (1.0 - t * 1.0) * (1.0 - t * 2.0)
    assert bits(x.rows) == bits([[2.0 - 1.0 * x2], [x2]])
    assert abs(Fraction(x[0, 0]) - 1 / (1 - Fraction(t))) < 1e-15
    # After the first column, the only candidate left is about 1e-13.
    a = [[2.0, 4.0], [1.0, 2.0 + 1e-13]]
    assert 0.0 < a[1][1] - 2.0 < 1e-12
    assert on_rows(K.gauss_solve, a, [[1.0], [1.0]], FLOAT64) is None
    assert generic.gauss_solve(a, [[1.0], [1.0]], FLOAT64) is None


def test_rational_large_denominators():
    q = _rational
    a = [[q(Fraction(-7, 10**20)), q(Fraction(3, 7))],
         [q(Fraction(1, 3)), q(Fraction(10**20 + 1, 10**20))]]
    b = [[q(Fraction(10**20, 9)), q(2)], [q(Fraction(-1, 12)), q(0)]]
    got = on_rows(K.matmul, a, b, RATIONAL)
    assert got == generic.matmul(a, b, RATIONAL)
    assert got[0][0] == Fraction(-7, 9) + Fraction(3, 7) * Fraction(-1, 12)
    assert got[0][1] == Fraction(-7, 5 * 10**19)


def test_empty_shapes():
    z = RATIONAL.zero()
    assert on_rows(K.matmul, [], [], RATIONAL) == []
    assert on_rows(K.matmul, [[], []], [], RATIONAL) == [[], []]
    assert on_rows(K.matvec, [[], []], [], RATIONAL) == [z, z]
    ring = DualRing(RATIONAL)
    assert on_rows(K.gauss_solve, [], [], ring) == []


def test_backend_reported():
    assert K.BACKEND == "packed"


def test_solve_detects_singular():
    ring = RATIONAL
    a = [[ring.one(), ring.one()], [ring.one(), ring.one()]]
    b = [[ring.one()], [ring.zero()]]
    assert on_rows(K.gauss_solve, a, b, ring) is None
    assert generic.gauss_solve(a, b, ring) is None


def test_dual_solve_singular_re_part():
    """A_re singular with A_eps invertible: no unit pivot, so None."""
    ring = DualRing(RATIONAL)
    q = RATIONAL.from_int
    re = [[1, 2], [2, 4]]
    eps = [[1, 0], [0, 1]]
    a = [[Dual(q(x), q(y)) for x, y in zip(rr, re_)]
         for rr, re_ in zip(re, eps)]
    b = [[ring.one()], [ring.zero()]]
    assert on_rows(K.gauss_solve, a, b, ring) is None
    assert generic.gauss_solve(a, b, ring) is None
    nested = DualRing(ring)
    an = [[Dual(x, ring.zero()) for x in r] for r in a]
    bn = [[Dual(x, ring.zero()) for x in r] for r in b]
    assert on_rows(K.gauss_solve, an, bn, nested) is None


def test_dual_pivoting_uses_re_part():
    # eps is not an admissible pivot even though it is nonzero
    ring = DualRing(RATIONAL)
    eps = Dual(RATIONAL.zero(), RATIONAL.one())
    assert on_rows(K.gauss_solve, [[eps]], [[ring.one()]], ring) is None
    one_plus = Dual(RATIONAL.one(), RATIONAL.one())
    x = on_rows(K.gauss_solve, [[one_plus]], [[ring.one()]], ring)
    assert x[0][0] * one_plus == ring.one()


# (rows, columns, rank bound) of the pivot-search cases: square, wide,
# tall, row and column shapes, k x 0, full rank and rank-deficient.
PIVOT_SHAPES = [(1, 1, 1), (3, 0, 0), (2, 2, 0), (3, 3, 3), (3, 3, 2),
                (4, 4, 4), (4, 4, 1), (2, 6, 2), (3, 7, 2), (6, 2, 2),
                (7, 3, 1), (1, 5, 1), (5, 1, 1), (5, 5, 3), (4, 8, 3)]
PIVOT_RINGS = PARITY_RINGS + FLOAT_JET_RINGS


def _pure_eps(rng, ring):
    """A non-zero scalar with zero re-part: never a pivot."""
    return Dual(ring.base.zero(), rand_scalar(rng, ring.base) + ring.base.one())


def _pivot_cases(ring, seed=780):
    """Products of random n x r and r x m factors (rank at most r), then a
    zero row, a zero column and, over a dual ring, a row of entries with
    zero re-part put in at random places."""
    rng = random.Random(seed)
    for n, m, r in PIVOT_SHAPES:
        for _ in range(4):
            if r:
                a = generic.matmul(rand_rows(rng, ring, n, r),
                                   rand_rows(rng, ring, r, m), ring)
            else:
                a = [[ring.zero()] * m for _ in range(n)]
            yield a
            if not m:
                continue
            a = [list(row) for row in a]
            a.insert(rng.randint(0, n), [ring.zero()] * m)
            col = rng.randrange(m)
            for row in a:
                row[col] = ring.zero()
            if isinstance(ring, DualRing):
                a.insert(rng.randint(0, len(a)),
                         [_pure_eps(rng, ring) for _ in range(m)])
            yield a


@pytest.mark.parametrize("ring", PIVOT_RINGS, ids=repr)
def test_pivot_search_parity(ring):
    """Pivot columns and rank equal those of the generic elimination over
    the same ring, compared exactly; the cases include rank deficiency."""
    deficient = 0
    for a in _pivot_cases(ring):
        want = generic.pivots(a, ring)
        assert on_rows(K.pivot_columns, a, ring) == want
        assert on_rows(K.gauss_rank, a, ring) == len(want)
        deficient += len(want) < min(len(a), len(a[0]))
    assert on_rows(K.pivot_columns, [], ring) == []
    assert on_rows(K.gauss_rank, [], ring) == 0
    assert deficient >= 10


def test_rational_pivots_with_large_denominators():
    """Entries with denominators up to 10^20 and numerators of either sign
    and up to 10^30: a cancellation that only exact arithmetic sees."""
    rng = random.Random(781)
    big = Fraction(10**30 + 1, 10**20)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 5)
        a = [[_rational(Fraction(rng.randint(-10**30, 10**30),
                                 rng.choice(DENOMS)))
              if rng.random() < 0.7 else RATIONAL.zero()
              for _ in range(m)] for _ in range(n)]
        # A row that differs from a multiple of row 0 by a tiny amount
        # in one column, and an exact multiple of row 0.
        a.append([big * x for x in a[0]])
        a.append([big * x + (_rational(Fraction(1, 10**20)) if j == m - 1
                             else 0) for j, x in enumerate(a[0])])
        want = generic.pivots(a, RATIONAL)
        assert on_rows(K.pivot_columns, a, RATIONAL) == want
        assert on_rows(K.gauss_rank, a, RATIONAL) == len(want)


@pytest.mark.parametrize("p", [3, 5, 7, 2**31 - 1])
def test_prime_field_pivots_from_unreduced_integers(p):
    """Entries built from integers outside [0, p), negative ones and
    multiples of p among them, pivot as their residues do."""
    ring = PrimeFieldRing(p)
    rng = random.Random(782)
    for _ in range(60):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        a = [[ring.from_int(rng.choice([0, p, -p, 2 * p + 1, -1])
                            + p * rng.randint(-3, 3) * rng.randint(0, 2**40))
              for _ in range(m)] for _ in range(n)]
        want = generic.pivots(a, ring)
        assert on_rows(K.pivot_columns, a, ring) == want
        assert on_rows(K.gauss_rank, a, ring) == len(want)


_SMALL_RINGS = [RATIONAL, PrimeFieldRing(3), PrimeFieldRing(7), FLOAT64]


_ENTRY = st.tuples(st.integers(-3, 3), st.sampled_from([1, 2, 3, 10**20]))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(ring=st.sampled_from(_SMALL_RINGS),
       entries=st.integers(0, 5).flatmap(lambda m: st.lists(
           st.lists(_ENTRY, min_size=m, max_size=m), max_size=5)),
       data=st.data())
def test_pivot_search_matches_generic_property(ring, entries, data):
    """Pivots and rank, and on square input the solves against I (the
    inverse) and against a random B of 1 to 3 columns (None when
    singular), equal those of the generic elimination."""
    def scalars(entries):
        if ring == RATIONAL:
            return [[_rational(Fraction(k, d)) for k, d in row]
                    for row in entries]
        if ring == FLOAT64:
            return [[k / d for k, d in row] for row in entries]
        return [[ring.from_int(k * d) for k, d in row] for row in entries]

    a = scalars(entries)
    want = generic.pivots(a, ring)
    assert on_rows(K.pivot_columns, a, ring) == want
    assert on_rows(K.gauss_rank, a, ring) == len(want)
    if a and len(a) == len(a[0]):
        m = data.draw(st.integers(1, 3))
        b = scalars(data.draw(st.lists(
            st.lists(_ENTRY, min_size=m, max_size=m),
            min_size=len(a), max_size=len(a))))
        for rhs in (generic.meye(len(a), ring), b):
            x = on_rows(K.gauss_solve, a, rhs, ring)
            assert x == generic.gauss_solve(a, rhs, ring)
            assert bits(x) == bits(generic.gauss_solve(a, rhs, ring))


def test_singular_mod_p_only():
    """det [[1, 2], [3, 1]] = -5: invertible over Q, singular over F_5 and
    over F_5[e], where the integer determinant is non-zero."""
    ints = [[1, 2], [3, 1]]
    assert Matrix.from_ints(RATIONAL, ints).inverse() == Matrix(
        RATIONAL, [[Fraction(-1, 5), Fraction(2, 5)],
                   [Fraction(3, 5), Fraction(-1, 5)]])
    with pytest.raises(NotInvertible):
        Matrix.from_ints(F5, ints).inverse()
    ring = DualRing(F5)
    a = [[Dual(F5.from_int(k), F5.one()) for k in row] for row in ints]
    assert on_rows(K.gauss_solve, a, generic.meye(2, ring), ring) is None


# name -> (integer rows, pivot columns); every determinant involved is
# prime to 5, so the pivots are the same over Q, F_5 and float64.
ELIM_CASES = {
    "empty": ([], []),
    "zero": ([[0, 0], [0, 0]], []),
    "rectangular-dependent": ([[1, 2, 3], [2, 4, 6]], [0]),
    "rectangular": ([[1, 2, 3], [2, 4, 7]], [0, 2]),
    "dependent-rows": ([[1, 2, 3], [2, 4, 6], [1, 1, 1]], [0, 1]),
    "singular": ([[1, 2], [2, 4]], [0]),
    "zero-first-column": ([[0, 1, 2], [0, 3, 7]], [1, 2]),
    "tall": ([[0, 1], [0, 2], [1, 0]], [0, 1]),
    "invertible": ([[2, 1, 0], [1, 1, 1], [0, 1, 3]], [0, 1, 2]),
}


def _lift_rows(ints, ring, rng):
    """Integer rows over `ring`; over Q[e] the eps-parts are random, so
    only the re-parts decide pivots."""
    if ring == QE:
        return [[Dual(RATIONAL.from_int(k), rand_scalar(rng, RATIONAL))
                 for k in row] for row in ints]
    return [[ring.from_int(k) for k in row] for row in ints]


def test_rank_of_rectangular():
    rng = random.Random(779)
    for ring in (RATIONAL, F5, FLOAT64, QE):
        for ints, pivots in ELIM_CASES.values():
            _check_elimination(ring, ints, pivots, rng)


def _check_elimination(ring, ints, pivots, rng):
    """Pivots, rank, reduced form and (for square input) the solve of one
    case agree with each other and with the expected pivot columns."""
    rows = _lift_rows(ints, ring, rng)
    assert on_rows(K.pivot_columns, rows, ring) == pivots
    re_ring = RATIONAL if ring == QE else ring
    re_rows = [[x.re for x in r] for r in rows] if ring == QE else rows
    assert on_rows(K.gauss_rank, re_rows, re_ring) == len(pivots)
    if ints:
        assert Matrix(ring, rows).rank() == len(pivots)
    piv, reduced = generic.eliminate([list(r) for r in rows], ring)
    assert piv == pivots
    same = _rows_close if ring == FLOAT64 else list.__eq__
    # Reduced form: unit columns at the pivots, no unit below the rank.
    assert same([[r[col] for r in reduced] for col in piv],
                [[ring.one() if k == i else ring.zero()
                  for k in range(len(rows))] for i in range(len(piv))])
    assert not any(ring.is_unit(x) for r in reduced[len(piv):] for x in r)
    width = len(ints[0]) if ints else 0
    if len(rows) != width:
        return
    b = _lift_rows([[k + 1, 2 - k] for k in range(width)], ring, rng)
    x = on_rows(K.gauss_solve, rows, b, ring)
    assert generic.gauss_solve(rows, b, ring) == x
    if len(pivots) < width:
        assert x is None
    else:
        assert same(generic.matmul(rows, x, ring), b)


def _greedy_selection(vectors, ring):
    """Reference: indices of the vectors kept when each is added in turn
    and kept only if it raises the rank of those kept so far."""
    kept = []
    for k, v in enumerate(vectors):
        trial = [vectors[j] for j in kept] + [v]
        if len(on_rows(K.pivot_columns, trial, ring)) == len(trial):
            kept.append(k)
    return kept


def _restricted_contexts(ring):
    """Hermitian and antihermitian parts for the transpose at n = 1..4,
    for the symplectic adjoint at n = 2, 4, and at n = 3 for the adjoint
    of a symmetric form of determinant 1 whose candidates have other
    pivot columns than pivot rows."""
    for n in (1, 2, 3, 4):
        yield n, Involution()
    form = [[2, -1, 0], [-1, -1, 1], [0, 1, -1]]
    yield 3, Involution("form_adjoint", Matrix.from_ints(ring, form))
    for n in (2, 4):
        h = n // 2
        form = [[0] * h + [int(i == j) for j in range(h)] for i in range(h)]
        form += [[-int(i == j) for j in range(h)] + [0] * h for i in range(h)]
        yield n, Involution("form_adjoint", Matrix.from_ints(ring, form),
                            "skew")


@pytest.mark.parametrize("ring", [RATIONAL, F5, PrimeFieldRing(7), FLOAT64,
                                  QE], ids=repr)
def test_restricted_basis_matches_greedy_selection(ring):
    for n, iota in _restricted_contexts(ring):
        for idx, flavor in enumerate(("hermitian", "antihermitian")):
            cands = [herm_split(iota, u)[idx]
                     for u in matrix_unit_basis(ring, n)]
            want = [cands[k] for k in _greedy_selection(
                [c.flatten() for c in cands], ring)]
            assert JordanContext(n, ring, flavor, iota).space.basis == want


@pytest.mark.parametrize("ring", [RATIONAL, F5, FLOAT64], ids=repr)
def test_standard_complement_matches_greedy_selection(ring):
    rng = trial_rng(31, 0)
    for n in (1, 2, 3):
        eye = Matrix.identity(ring, 2 * n)
        for _ in range(15):
            e = rand_point(rng, ring, n)
            vectors = ([e.rep.column(j) for j in range(n)]
                       + [eye.column(k) for k in range(2 * n)])
            kept = _greedy_selection([list(v) for v in vectors], ring)
            assert kept[:n] == list(range(n))
            want = eye.submatrix(range(2 * n), [k - n for k in kept[n:]])
            assert standard_complement(e).rep == want
