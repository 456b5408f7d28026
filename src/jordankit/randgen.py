"""Deterministic random inputs for suites and tests.

Every trial draws from its own substream keyed by (seed, trial index), so
serial and parallel runs of a suite see identical inputs. Entries are
sampled from a small integer box and interpreted in the target ring;
precondition filters retry up to a cap and report a skip on exhaustion.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import Matrix
from .graded import GroupElement
from .jordan import is_quasi_invertible
from .projline import act_frac, gamma_chart
from .rings import DualRing

RETRY_CAP = 1000
BOX = 3


def trial_rng(seed, trial):
    return random.Random(f"{seed}:{trial}".encode())


def rand_scalar(rng, ring, lo=-BOX, hi=BOX):
    if isinstance(ring, DualRing):
        # The 2^k jet coordinates, drawn in mask order: re-part first,
        # then eps-part, at every level of the tower.
        return ring.from_coords([rng.randint(lo, hi)
                                 for _ in range(ring.size)])
    return ring.from_int(rng.randint(lo, hi))


def _first_accepted(draw, accept):
    """The first of up to RETRY_CAP draws `draw()` that `accept` takes, or
    None. Every filter below draws through here."""
    for _ in range(RETRY_CAP):
        x = draw()
        if accept(x):
            return x
    return None


def rand_unit(rng, ring, lo=-BOX, hi=BOX):
    return _first_accepted(lambda: rand_scalar(rng, ring, lo, hi),
                           ring.is_unit)


def rand_matrix(rng, ring, n, m=None, lo=-BOX, hi=BOX):
    m = n if m is None else m
    return Matrix(ring, [[rand_scalar(rng, ring, lo, hi) for _ in range(m)]
                         for _ in range(n)])


def rand_invertible(rng, ring, n, lo=-BOX, hi=BOX):
    return _first_accepted(lambda: rand_matrix(rng, ring, n, lo=lo, hi=hi),
                           lambda x: x.is_invertible())


def rand_in_context(rng, jctx, lo=-BOX, hi=BOX):
    coords = [rand_scalar(rng, jctx.ring, lo, hi) for _ in range(jctx.dim)]
    return jctx.space.from_coords(coords)


def rand_filtered(rng, gen, pred):
    return _first_accepted(lambda: gen(rng), pred)


def rand_quasi_invertible(rng, jctx):
    return _first_accepted(
        lambda: (rand_in_context(rng, jctx), rand_in_context(rng, jctx)),
        lambda xy: is_quasi_invertible(jctx, *xy))


def rand_group_word(rng, ring, n, length=2, lo=-BOX, hi=BOX):
    """Product of `length` elementary generators with random alternating
    degrees; always carries its word."""
    g = GroupElement.identity(ring, n)
    for _ in range(length):
        deg = rng.choice((1, -1))
        g = g @ GroupElement.exp_ad(rand_matrix(rng, ring, n, lo=lo, hi=hi), deg)
    return g


def rand_point(rng, ring, n):
    """Random projective point: a random elementary word moving a random
    chart point, so points off the standard chart occur."""
    z = rand_matrix(rng, ring, n)
    g = rand_group_word(rng, ring, n, length=rng.randint(0, 2))
    return act_frac(g, gamma_chart(z))


def rand_pythagorean_rotation(rng, ring):
    """Exact 2x2 rotation from the t = tan(angle/2) parametrization."""
    t = Fraction(rng.randint(-BOX, BOX), rng.randint(1, BOX))
    c = (1 - t * t) / (1 + t * t)
    s = 2 * t / (1 + t * t)
    conv = ring.from_int
    num = lambda q: conv(q.numerator) * ring.invert(conv(q.denominator))
    return Matrix(ring, [[num(c), num(-s)], [num(s), num(c)]])


def rand_orthogonal2(rng, ring):
    """Random element of O(2) with exact rational entries."""
    r = rand_pythagorean_rotation(rng, ring)
    if rng.random() < 0.5:
        flip = Matrix.from_ints(ring, [[1, 0], [0, -1]])
        r = r @ flip
    return r
