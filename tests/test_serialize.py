"""Wire-format round trips for every domain type."""

import random
import sys
from fractions import Fraction
from math import inf, isfinite, nan

import pytest

from jordankit.algebra import Involution, Matrix
from jordankit.errors import RingMismatch, _echo
from jordankit.graded import GroupElement
from jordankit.projline import Polarity
from jordankit.randgen import (rand_group_word, rand_matrix, rand_point,
                               trial_rng)
from jordankit.rings import (FLOAT64, RATIONAL, Dual, DualRing, Fp,
                             PrimeFieldRing, ring_to_json, scalar_from_json,
                             scalar_to_json)
from jordankit.serialize import (element_from_json, group_from_json,
                                 group_to_json, involution_from_json,
                                 matrix_from_json, matrix_to_json,
                                 point_from_json, point_to_json,
                                 polarity_from_json,
                                 symspace_context_from_json)

Q = RATIONAL


def test_element_round_trip():
    rng = trial_rng(1, 0)
    for ring in (Q, PrimeFieldRing(5)):
        x = rand_matrix(rng, ring, 2)
        obj = {"n": 2, "ring": ring_to_json(ring),
               "entries": matrix_to_json(x)}
        assert element_from_json(obj) == x
    # scalar shorthand for n = 1
    x = rand_matrix(rng, Q, 1)
    obj = {"n": 1, "ring": ring_to_json(Q),
           "entries": matrix_to_json(x)[0][0]}
    assert not isinstance(obj["entries"], list)
    assert element_from_json(obj) == x


def test_group_round_trip_and_standard_names():
    rng = trial_rng(2, 0)
    g = rand_group_word(rng, Q, 2, length=2)
    obj = group_to_json(g)
    g2 = group_from_json(Q, 2, obj)
    assert g2.mat == g.mat and g2.word == g.word
    assert group_from_json(Q, 2, "J").mat == GroupElement.jmat(Q, 2).mat
    assert group_from_json(Q, 1, {"standard": "C"}).mat \
        == GroupElement.cayley(Q, 1).mat
    with pytest.raises(ValueError):
        group_from_json(Q, 1, "Z")


def test_point_round_trip():
    rng = trial_rng(3, 0)
    e = rand_point(rng, Q, 2)
    assert point_from_json(point_to_json(e)) == e


def test_involution_round_trip():
    iota = Involution("form_adjoint", Matrix.from_ints(Q, [[0, 1], [-1, 0]]),
                      "skew")
    obj = {"kind": "form_adjoint", "B": [["0", "1"], ["-1", "0"]],
           "symmetry": "skew"}
    assert involution_from_json(Q, obj) == iota
    assert involution_from_json(Q, {"kind": "transpose"}) == Involution()
    assert involution_from_json(Q, None) == Involution()


def test_polarity_round_trip():
    rng = trial_rng(4, 0)
    e = rand_point(rng, Q, 2)
    ident = GroupElement.identity(Q, 2)
    specs = [
        (Polarity("linear", S=GroupElement.i11(Q, 2)),
         {"mode": "linear", "S": "I11"}),
        (Polarity("semilinear", ident, j=3),
         {"mode": "semilinear", "j": 3, "involution": {"kind": "transpose"},
          "S": group_to_json(ident)}),
        (Polarity("linear", S=ident, H=Matrix.from_ints(Q, [[2, 1], [1, 1]])),
         {"mode": "linear", "S": group_to_json(ident),
          "H": [["2", "1"], ["1", "1"]]}),
    ]
    for spec, obj in specs:
        back = polarity_from_json(Q, 2, obj)
        assert back.apply(e) == spec.apply(e)


def test_context_from_json():
    ctx = symspace_context_from_json(
        {"variant": "jordan_units", "ring": "rational", "n": 2,
         "flavor": "hermitian"})
    assert ctx.jctx.flavor == "hermitian"
    ctx = symspace_context_from_json(
        {"variant": "group", "ring": "rational", "n": 2, "kind": "unitary",
         "involution": {"kind": "transpose"}})
    assert ctx.kind == "unitary"
    ctx = symspace_context_from_json(
        {"variant": "projective", "ring": "rational", "n": 1,
         "polarity": {"mode": "linear", "S": "F"}})
    from jordankit.projline import gamma_chart
    assert ctx.contains(gamma_chart(Matrix.zeros(Q, 1)))


# -- the matrix decoder against a per-entry scalar reader ---------------------

def _scalar_oracle(ring, obj):
    """One JSON scalar read on its own into a Fraction, Fp, float or Dual,
    with the refusals of the wire format: the reader every matrix entry
    went through before matrices were decoded straight into their form."""
    if isinstance(obj, bool):
        raise ValueError(f"a boolean is not a scalar: {obj!r}")
    if ring.kind == "rational":
        if isinstance(obj, (str, int)):
            try:
                return Fraction(obj)
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {_echo(obj)}") from None
        raise ValueError(f"bad rational payload {_echo(obj)}")
    if ring.kind == "float64":
        try:
            x = float(obj) if isinstance(obj, (int, float)) else nan
        except OverflowError:
            x = inf
        if not isfinite(x):
            raise ValueError("a float64 scalar is a finite JSON number, "
                             f"not {_echo(obj)}")
        return x
    if ring.kind == "prime_field":
        if isinstance(obj, int):
            return Fp(obj, ring.p)
        fp = obj.get("fp") if isinstance(obj, dict) else None
        if not isinstance(fp, int) or isinstance(fp, bool):
            raise ValueError(f"bad prime-field payload {_echo(obj)}")
        if obj.get("p", ring.p) != ring.p:
            raise RingMismatch(f"payload mod {_echo(obj['p'])} in F_{ring.p}")
        return Fp(fp, ring.p)
    if isinstance(obj, dict) and "re" in obj:
        return Dual(_scalar_oracle(ring.base, obj["re"]),
                    _scalar_oracle(ring.base, obj["eps"]))
    return Dual(_scalar_oracle(ring.base, obj), ring.base.zero())


def _scalar_json_oracle(ring, s):
    """The JSON form of one scalar, written from the scalar."""
    if ring.kind == "rational":
        return str(s)
    if ring.kind == "float64":
        return s
    if ring.kind == "prime_field":
        return {"fp": s.v, "p": s.p}
    return {"re": _scalar_json_oracle(ring.base, s.re),
            "eps": _scalar_json_oracle(ring.base, s.eps)}


def _matrix_oracle(ring, rows):
    return Matrix(ring, [[_scalar_oracle(ring, x) for x in r] for r in rows])


def _refusal(read, *args):
    """(type name, message) of what read(*args) raises."""
    with pytest.raises(Exception) as info:
        read(*args)
    return type(info.value).__name__, str(info.value)


QE = DualRing(RATIONAL)
QEE = DualRing(QE)
# The spellings each ring reads: JSON ints, integer strings, fractions not
# in lowest terms, decimals, padded and signed strings, bare F_p ints.
Q_ENTRIES = [7, -3, 0, 10**30, "12", "-5", "0", "-0", "007", "4/6", "-10/4",
             "2/2", "0.5", "1.0", "-2.50", " 3 ", "+4", "1_000", "3e2",
             "\u0663"]
ENTRIES = {
    RATIONAL: Q_ENTRIES,
    PrimeFieldRing(7): [3, -1, 10, 0, 6, 7 * 10**30 + 2, {"fp": 9, "p": 7},
                        {"fp": -2}, {"fp": 5, "p": 7.0}],
    FLOAT64: [1, -2, 0, 0.5, -0.0, 1e300, 2.5e-300, 10**30],
    QE: Q_ENTRIES + [{"re": "1/2", "eps": "-3"}, {"re": 4, "eps": "2/6"},
                     {"re": "0", "eps": "0"}],
    QEE: Q_ENTRIES + [{"re": {"re": "1/2", "eps": 3}, "eps": "5/10"},
                      {"re": "2", "eps": {"re": "0.5", "eps": "-1"}},
                      {"re": {"re": 0, "eps": 0}, "eps": {"re": 0,
                                                          "eps": "1/3"}}],
}
SHAPES = [(1, 1), (1, 3), (2, 2), (3, 2), (3, 3)]


def _matrices(ring):
    """Matrices of every shape above whose entries are drawn from the
    ring's spellings, each spelling at least once."""
    rng = random.Random(30)
    entries = ENTRIES[ring]
    out = [[[x]] for x in entries]
    for n, m in SHAPES * 4:
        out.append([[rng.choice(entries) for _ in range(m)]
                    for _ in range(n)])
    return out


@pytest.mark.parametrize("ring", list(ENTRIES), ids=repr)
def test_matrix_decoder_matches_the_per_entry_reader(ring):
    """matrix_from_json reads every spelling into the form the matrix of
    the per-entry scalars has, and `scalar_from_json` is its 1 x 1 case.
    `matrix_to_json` writes the JSON scalars each entry writes on its own,
    and decoding what it writes gives the matrix back."""
    for rows in _matrices(ring):
        m = matrix_from_json(ring, rows)
        want = _matrix_oracle(ring, rows)
        assert m == want and m.shape == want.shape, rows
        assert [[scalar_from_json(ring, x) for x in r] for r in rows] \
            == want.rows
        out = matrix_to_json(m)
        assert out == [[_scalar_json_oracle(ring, s) for s in r]
                       for r in want.rows], rows
        assert [[scalar_to_json(ring, s) for s in r] for r in m.rows] == out
        assert matrix_from_json(ring, out) == m


F7 = PrimeFieldRing(7)
REFUSALS = [
    (RATIONAL, True, "ValueError", "a boolean is not a scalar: True"),
    (RATIONAL, None, "ValueError", "bad rational payload None"),
    (RATIONAL, "1/0", "ValueError", "zero denominator in '1/0'"),
    (RATIONAL, "x", "ValueError", "Invalid literal for Fraction: 'x'"),
    (RATIONAL, 1.5, "ValueError", "bad rational payload 1.5"),
    (F7, {"fp": 3, "p": 11}, "RingMismatch", "payload mod 11 in F_7"),
    (F7, "3", "ValueError", "bad prime-field payload '3'"),
    (F7, {"fp": True}, "ValueError", "bad prime-field payload {'fp': True}"),
    (FLOAT64, nan, "ValueError",
     "a float64 scalar is a finite JSON number, not nan"),
    (FLOAT64, "1.5", "ValueError",
     "a float64 scalar is a finite JSON number, not '1.5'"),
    (QE, {"re": 1}, "KeyError", "'eps'"),
    (QE, {"re": "x"}, "ValueError", "Invalid literal for Fraction: 'x'"),
    (QEE, {"re": {"re": 1, "eps": False}, "eps": 0}, "ValueError",
     "a boolean is not a scalar: False"),
]
if getattr(sys, "get_int_max_str_digits", lambda: 0)() == 4300:
    for big in ("9" * 5000, "-" + "9" * 5000):
        REFUSALS.append((RATIONAL, big, "ValueError",
                         "Exceeds the limit (4300 digits) for integer string "
                         "conversion: value has 5000 digits; use "
                         "sys.set_int_max_str_digits() to increase the "
                         "limit"))


@pytest.mark.parametrize("ring, obj, kind, message", REFUSALS,
                         ids=lambda v: _echo(v)[:20])
def test_decoder_refusals_keep_their_type_and_message(ring, obj, kind,
                                                      message):
    """Each bad entry is refused with the type and message it had when
    every entry was read on its own, as a scalar and inside a matrix."""
    assert _refusal(_scalar_oracle, ring, obj) == (kind, message)
    assert _refusal(scalar_from_json, ring, obj) == (kind, message)
    good = ENTRIES[ring][0]
    assert _refusal(matrix_from_json, ring, [[good, obj], [obj, good]]) \
        == (kind, message)


def test_decoder_refuses_the_first_bad_entry_in_row_major_order():
    """With several bad entries, the one refused is the first in
    row-major order, and within a dual entry its re-part before its
    eps-part."""
    bads = [(ring, obj) for ring, obj, _, _ in REFUSALS]
    rng = random.Random(31)
    for _ in range(200):
        ring, first = rng.choice(bads)
        second = rng.choice([obj for r, obj in bads if r == ring])
        good = ENTRIES[ring][0]
        n, m = rng.choice(SHAPES[2:])
        cells = rng.sample(range(n * m), 2)
        flat = [good] * (n * m)
        flat[min(cells)], flat[max(cells)] = first, second
        rows = [flat[i * m:(i + 1) * m] for i in range(n)]
        assert _refusal(matrix_from_json, ring, rows) \
            == _refusal(_matrix_oracle, ring, rows)
    for rows in ([[{"re": "x"}, {"re": 1}]], [[{"re": 1}, "x"]],
                 [[{"re": "1/0", "eps": True}]]):
        assert _refusal(matrix_from_json, QE, rows) \
            == _refusal(_matrix_oracle, QE, rows)
