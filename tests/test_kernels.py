"""Kernel parity: the packed products and the dual solve that the rings
provide must agree with the generic loops, over every ring that has a
packed form, on square, rectangular, row and column shapes."""

import random
from fractions import Fraction

import pytest

from jordankit import _kernels as K
from jordankit._kernels import generic
from jordankit.rings import (FLOAT64, RATIONAL, Dual, DualRing,
                             PrimeFieldRing, _rational)

F5 = PrimeFieldRing(5)
EXACT_RINGS = [RATIONAL, F5, DualRing(PrimeFieldRing(7)), DualRing(RATIONAL),
               DualRing(DualRing(RATIONAL)),
               DualRing(DualRing(DualRing(RATIONAL)))]
R64E = DualRing(FLOAT64)
DENOMS = (1, 1, 2, 3, 7, 10, 12, 10**20)
# (rows of A, inner dimension, columns of B)
SHAPES = [(1, 1, 1), (2, 2, 2), (3, 3, 3), (4, 4, 4), (1, 4, 1), (1, 3, 4),
          (4, 3, 1), (4, 1, 3), (2, 5, 3), (3, 2, 5)]


def rand_scalar(rng, ring):
    if isinstance(ring, DualRing):
        return Dual(rand_scalar(rng, ring.base), rand_scalar(rng, ring.base))
    if ring == RATIONAL:
        return _rational(Fraction(rng.randint(-9, 9), rng.choice(DENOMS)))
    if ring == FLOAT64:
        return rng.uniform(-4.0, 4.0)
    return ring.from_int(rng.randint(-9, 9))


def rand_rows(rng, ring, n, m):
    return [[rand_scalar(rng, ring) for _ in range(m)] for _ in range(n)]


def generic_matvec(a, v, ring):
    return [r[0] for r in generic.matmul(a, [[x] for x in v], ring)]


def _cases(ring, seed=777):
    rng = random.Random(seed)
    for n, k, m in SHAPES:
        yield rand_rows(rng, ring, n, k), rand_rows(rng, ring, k, m)


def _systems(ring, seed=778):
    """Square systems A X = B with B of 1 to 3 columns."""
    rng = random.Random(seed)
    for n in (1, 2, 3, 4, 4):
        yield rand_rows(rng, ring, n, n), rand_rows(rng, ring, n,
                                                    rng.randint(1, 3))


def _close(x, y, rel=1e-12):
    if isinstance(x, Dual):
        return _close(x.re, y.re, rel) and _close(x.eps, y.eps, rel)
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y))


def _rows_close(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(_close(x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


@pytest.mark.parametrize("ring", EXACT_RINGS, ids=repr)
def test_matmul_parity(ring):
    for a, b in _cases(ring):
        assert K.matmul(a, b, ring) == generic.matmul(a, b, ring)


@pytest.mark.parametrize("ring", EXACT_RINGS, ids=repr)
def test_matvec_parity(ring):
    for a, b in _cases(ring):
        v = [row[0] for row in b]
        assert K.matvec(a, v, ring) == generic_matvec(a, v, ring)


@pytest.mark.parametrize("ring", EXACT_RINGS, ids=repr)
def test_solve_parity(ring):
    solved = 0
    for a, b in _systems(ring):
        x = K.gauss_solve(a, b, ring)
        assert x == generic.gauss_solve(a, b, ring)
        if x is not None:
            solved += 1
            assert K.matmul(a, x, ring) == b
    assert solved >= 3


def test_float_dual_parity():
    """R64[e] sums in another order on the packed path."""
    for a, b in _cases(R64E):
        assert _rows_close(K.matmul(a, b, R64E), generic.matmul(a, b, R64E))
        v = [row[0] for row in b]
        assert _rows_close([K.matvec(a, v, R64E)],
                           [generic_matvec(a, v, R64E)])
    for a, b in _systems(R64E):
        assert _rows_close(K.gauss_solve(a, b, R64E),
                           generic.gauss_solve(a, b, R64E))


def test_rational_large_denominators():
    q = _rational
    a = [[q(Fraction(-7, 10**20)), q(Fraction(3, 7))],
         [q(Fraction(1, 3)), q(Fraction(10**20 + 1, 10**20))]]
    b = [[q(Fraction(10**20, 9)), q(2)], [q(Fraction(-1, 12)), q(0)]]
    got = K.matmul(a, b, RATIONAL)
    assert got == generic.matmul(a, b, RATIONAL)
    assert got[0][0] == Fraction(-7, 9) + Fraction(3, 7) * Fraction(-1, 12)
    assert got[0][1] == Fraction(-7, 5 * 10**19)


def test_empty_shapes():
    z = RATIONAL.zero()
    assert K.matmul([], [], RATIONAL) == []
    assert K.matmul([[], []], [], RATIONAL) == [[], []]
    assert K.matvec([[], []], [], RATIONAL) == [z, z]
    ring = DualRing(RATIONAL)
    assert K.gauss_solve([], [], ring) == []


def test_backend_reported():
    assert K.BACKEND == "packed"


def test_solve_detects_singular():
    ring = RATIONAL
    a = [[ring.one(), ring.one()], [ring.one(), ring.one()]]
    b = [[ring.one()], [ring.zero()]]
    assert K.gauss_solve(a, b, ring) is None
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
    assert K.gauss_solve(a, b, ring) is None
    assert generic.gauss_solve(a, b, ring) is None
    nested = DualRing(ring)
    an = [[Dual(x, ring.zero()) for x in r] for r in a]
    bn = [[Dual(x, ring.zero()) for x in r] for r in b]
    assert K.gauss_solve(an, bn, nested) is None


def test_dual_pivoting_uses_re_part():
    # eps is not an admissible pivot even though it is nonzero
    ring = DualRing(RATIONAL)
    eps = Dual(RATIONAL.zero(), RATIONAL.one())
    assert K.gauss_solve([[eps]], [[ring.one()]], ring) is None
    one_plus = Dual(RATIONAL.one(), RATIONAL.one())
    x = K.gauss_solve([[one_plus]], [[ring.one()]], ring)
    assert x[0][0] * one_plus == ring.one()


def test_rank_of_rectangular():
    ring = RATIONAL
    rows = [[ring.from_int(k) for k in row]
            for row in [[1, 2, 3], [2, 4, 6]]]
    assert K.gauss_rank(rows, ring) == 1
    assert K.pivot_columns(rows, ring) == [0]
