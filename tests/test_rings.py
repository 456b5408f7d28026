"""Scalar tower: units, inversion, duals and their nesting."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jordankit.algebra import Matrix, dual_split
from jordankit.errors import NotAUnit, NotDual, RingMismatch
from jordankit.rings import (FLOAT64, RATIONAL, Dual, DualRing, Fp,
                             PrimeFieldRing, ring_from_json, ring_to_json,
                             scalar_from_json, scalar_to_json)

F5 = PrimeFieldRing(5)
QE = DualRing(RATIONAL)


def frac(f):
    """The rational scalar of the Fraction f."""
    return (RATIONAL.from_int(f.numerator)
            * RATIONAL.invert(RATIONAL.from_int(f.denominator)))


def test_unit_predicates():
    assert RATIONAL.is_unit(RATIONAL.from_int(2))
    assert not RATIONAL.is_unit(RATIONAL.zero())
    # eps itself is nilpotent, never a unit
    eps = Dual(RATIONAL.zero(), RATIONAL.one())
    assert not QE.is_unit(eps)
    assert F5.is_unit(F5.from_int(3))
    assert not FLOAT64.is_unit(1e-15)
    assert FLOAT64.is_unit(1e-3)


def test_invert_examples():
    assert RATIONAL.invert(RATIONAL.from_int(2)) == frac(Fraction(1, 2))
    # brute-force oracle over the residues of F_5
    inv3 = [k for k in range(5) if (3 * k) % 5 == 1]
    assert inv3 == [2]
    assert F5.invert(F5.from_int(3)) == Fp(2, 5)
    s = Dual(RATIONAL.one(), RATIONAL.from_int(2))  # 1 + 2 eps
    t = QE.invert(s)
    assert t == Dual(RATIONAL.one(), RATIONAL.from_int(-2))
    assert s * t == QE.one()
    with pytest.raises(NotAUnit):
        RATIONAL.invert(RATIONAL.zero())


def test_dual_lift_round_trip():
    ring, s = DualRing(RATIONAL), Dual(RATIONAL.from_int(3), RATIONAL.one())
    assert ring == QE
    assert (s.re, s.eps) == (RATIONAL.from_int(3), RATIONAL.one())
    re, eps = dual_split(Matrix(ring, [[s]]))
    assert (re[0, 0], eps[0, 0]) == (RATIONAL.from_int(3), RATIONAL.one())
    with pytest.raises(NotDual):
        dual_split(Matrix(RATIONAL, [[RATIONAL.from_int(5)]]))


def test_eps_squares_to_zero():
    one_plus_eps = Dual(RATIONAL.one(), RATIONAL.one())
    sq = one_plus_eps * one_plus_eps
    assert sq == Dual(RATIONAL.one(), RATIONAL.from_int(2))
    eps = Dual(RATIONAL.zero(), RATIONAL.one())
    assert eps * eps == QE.zero()


def test_fp_modulus_mismatch():
    with pytest.raises(RingMismatch):
        Fp(1, 5) + Fp(1, 7)


def test_prime_validation():
    with pytest.raises(ValueError):
        PrimeFieldRing(9)
    with pytest.raises(ValueError):
        PrimeFieldRing(2)
    # Carmichael; the least strong pseudoprime to the first 12 prime
    # bases; non-integers; a modulus past the exact range of the test.
    for p in (561, 318665857834031151167461, 5.0, "5", True, 2 ** 82):
        with pytest.raises(ValueError):
            PrimeFieldRing(p)
    for p in (2 ** 61 - 1, 2 ** 81 - 51):
        assert PrimeFieldRing(p).p == p


scalar_q = st.fractions(min_value="-50", max_value="50", max_denominator=9)


@settings(max_examples=200, deadline=None)
@given(scalar_q, scalar_q, scalar_q)
def test_ring_axioms_rational(a, b, c):
    a, b, c = frac(a), frac(b), frac(c)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
def test_ring_axioms_fp(a, b, c):
    a, b, c = Fp(a, 5), Fp(b, 5), Fp(c, 5)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=200, deadline=None)
@given(scalar_q)
def test_double_inversion(a):
    s = frac(a)
    if s == 0:
        return
    assert RATIONAL.invert(RATIONAL.invert(s)) == s


def test_double_inversion_fp_exhaustive():
    for k in range(1, 5):
        s = Fp(k, 5)
        assert F5.invert(F5.invert(s)) == s
        assert s * F5.invert(s) == F5.one()


@settings(max_examples=200, deadline=None)
@given(scalar_q, scalar_q, scalar_q, scalar_q)
def test_dual_inversion(a, b, c, d):
    ring = DualRing(QE)
    s = Dual(Dual(frac(a), frac(b)), Dual(frac(c), frac(d)))
    if not ring.is_unit(s):
        with pytest.raises(NotAUnit):
            ring.invert(s)
        return
    assert s * ring.invert(s) == ring.one()


def _quad_mul(p, q):
    """Oracle for (a + b eps + c delta + d eps delta) products with
    eps^2 = delta^2 = 0, as coefficient 4-tuples."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (a1 * a2,
            a1 * b2 + b1 * a2,
            a1 * c2 + c1 * a2,
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2)


def _to_nested(p):
    a, b, c, d = p
    # outer eps layer, inner delta layer
    return Dual(Dual(a, c), Dual(b, d))


def _from_nested(s):
    return (s.re.re, s.eps.re, s.re.eps, s.eps.eps)


@settings(max_examples=100, deadline=None)
@given(st.tuples(*([st.integers(-5, 5)] * 4)),
       st.tuples(*([st.integers(-5, 5)] * 4)))
def test_nested_duals_match_symbolic_expansion(p, q):
    p = tuple(RATIONAL.from_int(k) for k in p)
    q = tuple(RATIONAL.from_int(k) for k in q)
    got = _from_nested(_to_nested(p) * _to_nested(q))
    assert got == _quad_mul(p, q)


def test_mixed_term_survives():
    # (eps)(delta) = eps delta but eps^2 = delta^2 = 0
    eps = _to_nested((RATIONAL.zero(), RATIONAL.one(), RATIONAL.zero(),
                      RATIONAL.zero()))
    delta = _to_nested((RATIONAL.zero(), RATIONAL.zero(), RATIONAL.one(),
                        RATIONAL.zero()))
    prod = _from_nested(eps * delta)
    assert prod == (RATIONAL.zero(), RATIONAL.zero(), RATIONAL.zero(),
                    RATIONAL.one())
    assert _from_nested(eps * eps) == tuple([RATIONAL.zero()] * 4)


def test_embed_scalar():
    s = Matrix(RATIONAL, [[RATIONAL.from_int(7)]])
    ring2 = DualRing(DualRing(RATIONAL))
    e = s.embed(ring2)
    assert e[0, 0] == ring2.from_int(7)
    with pytest.raises(RingMismatch):
        s.embed(F5)


def test_json_round_trips():
    cases = [
        (RATIONAL, frac(Fraction(-3, 7))),
        (F5, Fp(4, 5)),
        (FLOAT64, 1.25),
        (QE, Dual(RATIONAL.one(), RATIONAL.from_int(-2))),
    ]
    for ring, s in cases:
        r2 = ring_from_json(ring_to_json(ring))
        assert r2 == ring
        assert scalar_from_json(ring, scalar_to_json(ring, s)) == s
    assert scalar_to_json(RATIONAL, RATIONAL.from_int(5)) == "5"
    assert scalar_to_json(F5, Fp(3, 5)) == {"fp": 3, "p": 5}
    assert ring_from_json("fp:7") == PrimeFieldRing(7)


# -- jets: the flat coordinates against the nested re/eps view --------------

def _tower(root, depth):
    for _ in range(depth):
        root = DualRing(root)
    return root


JET_ROOTS = [RATIONAL, PrimeFieldRing(3), PrimeFieldRing(7),
             PrimeFieldRing(2**31 - 1), FLOAT64]
JET_RINGS = [_tower(root, depth) for root in JET_ROOTS for depth in (1, 2, 3)]
DENOMS = (1, 2, 3, 7, 12, 10**20)


def _rand_jet(rng, ring):
    """A random scalar, built from its parts; the re-part is zero one time
    in five. Float64 coordinates are small integers, so every sum and
    product is exact and part-wise formulas hold bit for bit."""
    if isinstance(ring, DualRing):
        re = (ring.base.zero() if rng.random() < 0.2
              else _rand_jet(rng, ring.base))
        return Dual(re, _rand_jet(rng, ring.base))
    if ring == RATIONAL:
        return frac(Fraction(rng.randint(-10**6, 10**6),
                           rng.choice(DENOMS)))
    if ring == FLOAT64:
        return float(rng.randint(-9, 9))
    return ring.from_int(rng.choice([rng.randint(-9, 9),
                                     rng.randrange(ring.p)]))


def _parts(s):
    """The root scalars of a nested dual scalar, re-parts first."""
    return _parts(s.re) + _parts(s.eps) if isinstance(s, Dual) else [s]


def _nested_invert(ring, s):
    """(a + b e)^-1 = a^-1 - a^-1 b a^-1 e, down the tower."""
    if not isinstance(ring, DualRing):
        return ring.invert(s)
    ia = _nested_invert(ring.base, s.re)
    return Dual(ia, -(ia * s.eps * ia))


@pytest.mark.parametrize("ring", JET_RINGS, ids=repr)
def test_jet_arithmetic_matches_part_formulas(ring):
    """With x = a + b e and y = c + d e: xy = ac + (ad + bc) e, x +- y and
    -x part-wise, and integer operands act on the parts; a scalar rebuilt
    from its parts is equal to it with the same hash, and the inverse is
    the nested formula."""
    rng = random.Random(4242)
    units = 0
    for _ in range(60):
        x, y = _rand_jet(rng, ring), _rand_jet(rng, ring)
        a, b, c, d = x.re, x.eps, y.re, y.eps
        assert x * y == Dual(a * c, a * d + b * c)
        assert x + y == Dual(a + c, b + d)
        assert x - y == Dual(a - c, b - d)
        assert -x == Dual(-a, -b)
        assert x * 3 == 3 * x == Dual(a * 3, b * 3)
        assert x + 2 == 2 + x == Dual(a + 2, b)
        assert x - 2 == Dual(a - 2, b) and 2 - x == Dual(2 - a, -b)
        rebuilt = Dual(a, b)
        assert rebuilt == x and hash(rebuilt) == hash(x)
        assert scalar_from_json(ring, scalar_to_json(ring, x)) == x
        if ring.is_unit(x):
            units += 1
            inv = ring.invert(x)
            want = _nested_invert(ring, x)
            if ring.is_exact():
                assert inv == want
                assert x * inv == ring.one()
            else:
                scale = max(1.0, *map(abs, _parts(want)))
                assert all(abs(u - v) <= 1e-12 * scale
                           for u, v in zip(_parts(inv), _parts(want)))
        else:
            with pytest.raises(NotAUnit):
                ring.invert(x)
    assert units >= 10


def _rand_float_jet(rng, ring):
    """A jet over R64[e..] with coordinates that are not integers, so
    products round."""
    if isinstance(ring, DualRing):
        return Dual(_rand_float_jet(rng, ring.base),
                    _rand_float_jet(rng, ring.base))
    return rng.uniform(-3.0, 3.0)


@pytest.mark.parametrize("ring", [_tower(RATIONAL, 3), _tower(F5, 2),
                                  _tower(FLOAT64, 2)], ids=repr)
def test_jet_product_matches_one_by_one_matmul(ring):
    """The scalar product of two jets is the entry of their 1 x 1 product
    by DualRing.matmul: both are the subset convolution of the
    coordinates, added in increasing subset order."""
    rng = random.Random(4343)
    draw = _rand_float_jet if ring.root == FLOAT64 else _rand_jet
    for _ in range(60):
        x, y = draw(rng, ring), draw(rng, ring)
        want = (Matrix(ring, [[x]]) @ Matrix(ring, [[y]]))[0, 0]
        assert x * y == want and hash(x * y) == hash(want)


def test_rational_jets_are_reduced():
    """Over Q a jet keeps one reduced denominator, so values reached by
    different routes are equal and hash alike."""
    half = Dual(frac(Fraction(1, 2)), frac(Fraction(1, 2)))
    two = QE.from_int(2)
    assert half * two == Dual(RATIONAL.one(), RATIONAL.one())
    assert hash(half * two) == hash(Dual(RATIONAL.one(), RATIONAL.one()))
    big = frac(Fraction(10**20 + 1, 10**20))
    s = Dual(big, -big)
    assert s + (-s) == QE.zero() and hash(s - s) == hash(QE.zero())
    assert (s * QE.invert(s)) == QE.one()
    assert s.re == big and s.eps == -big


def test_jet_ring_mismatches():
    f5e, f7e = DualRing(F5), DualRing(PrimeFieldRing(7))
    with pytest.raises(RingMismatch):
        f5e.one() + f7e.one()
    with pytest.raises(RingMismatch):
        f5e.one() * f7e.one()
    with pytest.raises(RingMismatch):
        QE.one() * DualRing(QE).one()
    with pytest.raises(RingMismatch):
        Dual(QE.one(), RATIONAL.one())


_jet_q = st.tuples(st.integers(-10**6, 10**6),
                   st.sampled_from(DENOMS)).map(
    lambda t: frac(Fraction(*t)))


def _jet_strategy(ring, leaf):
    if not isinstance(ring, DualRing):
        return leaf
    part = _jet_strategy(ring.base, leaf)
    return st.tuples(part, part).map(lambda t: Dual(*t))


_axiom_cases = st.one_of(
    [st.tuples(st.just(ring), *[_jet_strategy(ring, leaf)] * 3)
     for depth in (1, 2, 3)
     for ring, leaf in ((_tower(RATIONAL, depth), _jet_q),
                        (_tower(PrimeFieldRing(7), depth),
                         st.integers(0, 6).map(lambda k: Fp(k, 7))))])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_axiom_cases)
def test_jet_ring_axioms(case):
    ring, a, b, c = case
    zero, one = ring.zero(), ring.one()
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a and a * b == b * a
    assert a + zero == a and a * one == a and a * zero == zero
    assert a - a == zero and a + (-a) == zero
