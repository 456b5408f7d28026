"""Wire-format round trips for every domain type."""

import pytest

from jordankit.algebra import Involution, Matrix
from jordankit.graded import GroupElement
from jordankit.projline import Polarity
from jordankit.randgen import (rand_group_word, rand_matrix, rand_point,
                               trial_rng)
from jordankit.rings import RATIONAL, PrimeFieldRing, ring_to_json
from jordankit.serialize import (element_from_json, group_from_json,
                                 group_to_json, involution_from_json,
                                 matrix_to_json, point_from_json,
                                 point_to_json, polarity_from_json,
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
