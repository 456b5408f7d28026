"""JSON encodings of the domain types (the CLI wire formats)."""

from __future__ import annotations

from .algebra import Involution, Matrix
from .graded import GroupElement
from .jordan import JordanContext
from .projline import Polarity, ProjectivePoint
from .rings import (ring_from_json, ring_to_json, scalar_from_json,
                    scalar_to_json)
from .symspace import GroupSpace, JordanUnitsSpace, ProjectiveSpace

STANDARD_GROUP = {
    "C": GroupElement.cayley,
    "F": GroupElement.swap,
    "J": GroupElement.jmat,
    "I11": GroupElement.i11,
}


def matrix_to_json(m):
    return [[scalar_to_json(m.ring, x) for x in row] for row in m.rows]


def matrix_from_json(ring, obj, n=None):
    """The matrix of a list of rows, or of a scalar for a 1 x 1 matrix.
    Ragged rows, and a shape other than n x n when n is given, are
    malformed input (ValueError)."""
    rows = obj if isinstance(obj, list) else [[obj]]
    if not all(isinstance(r, list) for r in rows):
        raise ValueError(f"matrix rows must be lists, not {obj!r}")
    shape = (len(rows), len(rows[0]) if rows else 0)
    if any(len(r) != shape[1] for r in rows):
        raise ValueError("ragged matrix rows")
    if n is not None and shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix, "
                         f"got {shape[0]} x {shape[1]}")
    return Matrix(ring, [[scalar_from_json(ring, x) for x in r]
                         for r in rows])


def element_from_json(obj, ring=None, n=None):
    ring = ring_from_json(obj["ring"]) if ring is None else ring
    return matrix_from_json(ring, obj["entries"], n)


def _require_object(obj, what):
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {obj!r}")


def int_from_json(obj, key, default, least=None):
    """obj[key], or `default` when absent: an int, not a bool, and at least
    `least` when given. Anything else is malformed input (ValueError)."""
    val = obj.get(key, default)
    if (isinstance(val, bool) or not isinstance(val, int)
            or (least is not None and val < least)):
        bound = "" if least is None else f" >= {least}"
        raise ValueError(f"{key} must be an integer{bound}, not {val!r}")
    return val


def n_from_json(obj):
    """A request's matrix size n: a positive int, 1 when absent."""
    return int_from_json(obj, "n", 1, least=1)


def involution_from_json(ring, obj, n=None):
    if obj is None:
        return Involution()
    _require_object(obj, "involution")
    if obj.get("kind", "transpose") == "transpose":
        return Involution()
    return Involution("form_adjoint",
                      matrix_from_json(ring, obj["B"], n),
                      obj.get("symmetry", "symmetric"))


def group_to_json(g):
    out = {"blocks": [[matrix_to_json(b) for b in row]
                      for row in (g.blocks()[:2], g.blocks()[2:])]}
    if g.word is not None:
        out["word"] = [{"deg": deg, "v": matrix_to_json(v)} for deg, v in g.word]
    return out


def group_from_json(ring, n, obj):
    if isinstance(obj, str):
        try:
            return STANDARD_GROUP[obj](ring, n)
        except KeyError:
            raise ValueError(f"unknown standard matrix {obj!r}") from None
    if "standard" in obj:
        return STANDARD_GROUP[obj["standard"]](ring, n)
    word = _word_from_json(ring, n, obj["word"]) if "word" in obj else None
    if "blocks" in obj:
        (a, b), (c, d) = [[matrix_from_json(ring, m, n) for m in row]
                          for row in obj["blocks"]]
        return GroupElement.from_blocks(a, b, c, d, word=word)
    if word is not None:
        return GroupElement.from_word(ring, n, word)
    raise ValueError("group element needs blocks, a word, or a standard name")


def _word_from_json(ring, n, obj):
    """A group word: a list of {"deg": an int, "v": an n x n matrix}."""
    word = []
    for w in obj:
        _require_object(w, "word entry")
        word.append((int_from_json(w, "deg", None),
                     matrix_from_json(ring, w["v"], n)))
    return tuple(word)


def point_to_json(E):
    return {"n": E.n, "ring": ring_to_json(E.ring),
            "rep": matrix_to_json(E.rep)}


def point_from_json(obj, ring=None, n=None):
    """The point of a 2n x n rep, n being the point's own "n", the n
    given, or else the rep's column count. An own n that differs from the
    one given, or a rep of another shape, is malformed input
    (ValueError); a rank-deficient rep is the domain error
    ShapeMismatch."""
    ring = ring_from_json(obj["ring"]) if ring is None else ring
    rep = matrix_from_json(ring, obj["rep"])
    if "n" in obj:
        own = int_from_json(obj, "n", None, least=1)
        if n is not None and own != n:
            raise ValueError(f"point of the n = {own} line where the "
                             f"request's n is {n}")
        n = own
    n = rep.ncols if n is None else n
    if n < 1:
        raise ValueError("point rep has no columns")
    if rep.shape != (2 * n, n):
        raise ValueError(f"point rep must be {2 * n} x {n}, "
                         f"got {rep.nrows} x {rep.ncols}")
    return ProjectivePoint(rep, n)


def polarity_from_json(ring, n, obj):
    mode = obj["mode"]
    s = (group_from_json(ring, n, obj["S"]) if "S" in obj
         else GroupElement.identity(ring, n))
    h = matrix_from_json(ring, obj["H"], n) if "H" in obj else None
    if mode == "linear":
        return Polarity("linear", S=s, H=h)
    iota = involution_from_json(ring, obj.get("involution"), n)
    return Polarity("semilinear", S=s, j=int_from_json(obj, "j", None),
                    involution=iota, H=h)


def jordan_context_from_json(obj):
    _require_object(obj, "context")
    ring = ring_from_json(obj.get("ring", "rational"))
    n = n_from_json(obj)
    flavor = obj.get("flavor", "full")
    iota = None
    if flavor != "full":
        iota = involution_from_json(ring, obj.get("involution"), n)
    return JordanContext(n, ring, flavor, iota)


def symspace_context_from_json(obj):
    variant = obj["variant"]
    if variant == "jordan_units":
        jctx = jordan_context_from_json(obj)
        o = (element_from_json(obj["o"], jctx.ring, jctx.n) if "o" in obj
             else None)
        return JordanUnitsSpace(jctx, o)
    if variant == "group":
        ring = ring_from_json(obj.get("ring", "rational"))
        n = n_from_json(obj)
        kind = obj.get("kind", "full_linear")
        iota = involution_from_json(ring, obj.get("involution"), n) \
            if kind == "unitary" else None
        return GroupSpace(n, ring, kind, iota)
    if variant == "projective":
        jctx = jordan_context_from_json(obj)
        pol = polarity_from_json(jctx.ring, jctx.n, obj["polarity"])
        o = point_from_json(obj["o"], jctx.ring, jctx.n) if "o" in obj else None
        return ProjectiveSpace(pol, jctx, o)
    raise ValueError(f"unknown context variant {variant!r}")
