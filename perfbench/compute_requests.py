"""Seeded `jordankit compute` requests and an independent oracle for each.

Every request is drawn from the `randgen` generators with a substream
keyed by (workload seed, request index), encoded as JSON text, and paired
with an oracle that is evaluated outside the timed region. An oracle
returns either ("error", <named domain error>) or ("ok", predicate), where
the predicate takes the decoded response dict.

The cycle below fixes the request mix (op, ring, size, variant); only the
random contents change with the seed, so every seed does the same kind of
work. Entries marked `bad=True` are built outside the op's domain on
purpose and must come back as the named domain error.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple

from jordankit import randgen
from jordankit.algebra import Involution, Matrix, dual_combine
from jordankit.errors import NotInvertible
from jordankit.graded import GroupElement
from jordankit.jordan import (JordanContext, bergman_closed,
                              full_quasi_inverse_oracle)
from jordankit.projline import (ProjectivePoint, act_frac, base_minus,
                                base_plus, chart_coords, gamma_chart,
                                in_chart)
from jordankit.rings import (FLOAT64, RATIONAL, DualRing, PrimeFieldRing,
                             ring_to_json, scalar_to_json)
from jordankit.serialize import (group_to_json, matrix_from_json,
                                 matrix_to_json, point_from_json,
                                 point_to_json)

RINGS = {"q": RATIONAL, "fp": PrimeFieldRing(7), "f64": FLOAT64,
         "dual1": DualRing(RATIONAL)}
FLOAT_RTOL = 1e-9


def _ok(pred):
    return ("ok", pred)


def _err(name):
    return ("error", name)


def _invertible(m):
    try:
        return m.inverse()
    except NotInvertible:
        return None


def _close(got, want):
    """Exact equality over exact rings; relative 1e-9 over float64."""
    if want.ring.is_exact():
        return got == want
    if got.shape != want.shape:
        return False
    scale = max(1.0, want.max_abs())
    return (got - want).max_abs() <= FLOAT_RTOL * scale


def _matrix_result(ring, want):
    return _ok(lambda r: _close(matrix_from_json(ring, r["result"]), want))


def _point_result(want):
    return _ok(lambda r: point_from_json(r["result"]) == want)


def _singular(rng, ring, n):
    """A random matrix with its last row cleared."""
    m = randgen.rand_matrix(rng, ring, n)
    rows = [list(r) for r in m.rows]
    rows[-1] = [ring.zero()] * n
    return Matrix(ring, rows)


def _herm(rng, ring, n):
    return randgen.rand_in_context(
        rng, JordanContext(n, ring, "hermitian", Involution()))


# -- request makers: (rng, ring, n, **variant) -> (request, oracle) ---------

def quasi_inverse(rng, ring, n, convention="ad", bad=False):
    if bad:
        x = randgen.rand_invertible(rng, ring, n)
        y = -x.inverse()                       # 1 + yx = 0
        if convention == "loos":
            y = -y
    else:
        x = randgen.rand_matrix(rng, ring, n)
        y = randgen.rand_matrix(rng, ring, n)
    req = {"op": "quasi_inverse", "ring": ring_to_json(ring), "n": n,
           "convention": convention, "x": matrix_to_json(x),
           "y": matrix_to_json(y)}

    def oracle():
        if bad:
            return _err("NotQuasiInvertible")
        yy = y if convention == "ad" else -y
        try:
            want = full_quasi_inverse_oracle(JordanContext(n, ring), x, yy)
        except NotInvertible:
            return _err("NotQuasiInvertible")
        return _matrix_result(ring, want)

    return req, oracle


def bergman(rng, ring, n, convention="ad", flavor="full"):
    if flavor == "full":
        x = randgen.rand_matrix(rng, ring, n)
        y = randgen.rand_matrix(rng, ring, n)
    else:
        x, y = _herm(rng, ring, n), _herm(rng, ring, n)
    req = {"op": "bergman", "ring": ring_to_json(ring), "n": n,
           "flavor": flavor, "convention": convention,
           "x": matrix_to_json(x), "y": matrix_to_json(y)}

    def oracle():
        ctx = JordanContext(n, ring, flavor,
                            None if flavor == "full" else Involution())
        yy = y if convention == "ad" else -y
        return _matrix_result(ring, bergman_closed(ctx, x, yy).mat)

    return req, oracle


def act(rng, ring, n, bad=False):
    if bad:
        g = GroupElement.jmat(ring, n)         # J.x = -x^-1
        x = _singular(rng, ring, n)
        gjson = "J"
    else:
        g = randgen.rand_group_word(rng, ring, n, length=rng.randint(1, 2))
        x = randgen.rand_matrix(rng, ring, n)
        gjson = group_to_json(g)
    req = {"op": "act", "ring": ring_to_json(ring), "n": n, "g": gjson,
           "x": matrix_to_json(x)}

    def oracle():
        gx = act_frac(g, gamma_chart(x))
        if bad or not in_chart(gx):
            return _err("NotInChart")
        return _matrix_result(ring, chart_coords(gx))

    return req, oracle


def act_frac_req(rng, ring, n):
    e = randgen.rand_point(rng, ring, n)
    g = randgen.rand_group_word(rng, ring, n, length=rng.randint(1, 3))
    req = {"op": "act_frac", "g": group_to_json(g), "E": point_to_json(e)}
    return req, lambda: _point_result(ProjectivePoint(g.mat @ e.rep, n))


def sym_mul(rng, ring, n, context, bad=False):
    """x y^-1 x on all three contexts: the group GL_n, the invertible
    hermitian elements (Q(x) y^-1), and the projective space of the
    I_{1,1} polarity in its chart (Thm 3.4)."""
    rs = ring_to_json(ring)
    if context == "jordan_units":
        x, y = _herm(rng, ring, n), _herm(rng, ring, n)
        ctx = {"variant": "jordan_units", "ring": rs, "n": n,
               "flavor": "hermitian"}
    else:
        x = randgen.rand_matrix(rng, ring, n)
        y = _singular(rng, ring, n) if bad else randgen.rand_matrix(rng, ring, n)
        ctx = {"variant": context, "ring": rs, "n": n}
    if context == "projective":
        ctx.update(flavor="full", polarity={"mode": "linear", "S": "I11"},
                   o=point_to_json(gamma_chart(Matrix.identity(ring, n))))
        req = {"op": "sym_mul", "context": ctx,
               "x": point_to_json(gamma_chart(x)),
               "y": point_to_json(gamma_chart(y))}
    else:
        req = {"op": "sym_mul", "context": ctx, "x": matrix_to_json(x),
               "y": matrix_to_json(y)}

    def oracle():
        yi = _invertible(y)
        ok = _invertible(x) is not None and yi is not None
        if context == "projective":
            # sigma_x needs y transversal to p(Gamma_x) = Gamma_-x
            ok = ok and _invertible(x + y) is not None
        if not ok:
            return _err("NotInSpace")
        want = x @ yi @ x
        if context == "projective":
            return _point_result(gamma_chart(want))
        return _matrix_result(ring, want)

    return req, oracle


def lts(rng, ring, n, context):
    """Closed-form brackets: (1/4)[[u,v],w] on the group,
    u o (v o w) - v o (u o w) on the hermitian units, and
    T(u,v,w) - T(v,u,w) on the projective space of the swap polarity."""
    rs = ring_to_json(ring)
    if context == "jordan_units":
        u, v, w = (_herm(rng, ring, n) for _ in range(3))
        ctx = {"variant": "jordan_units", "ring": rs, "n": n,
               "flavor": "hermitian"}
    else:
        u, v, w = (randgen.rand_matrix(rng, ring, n) for _ in range(3))
        ctx = {"variant": context, "ring": rs, "n": n}
        if context == "projective":
            ctx.update(flavor="full", polarity={"mode": "linear", "S": "F"})
    req = {"op": "lts", "context": ctx, "u": matrix_to_json(u),
           "v": matrix_to_json(v), "w": matrix_to_json(w)}

    def oracle():
        if context == "group":
            uv = u @ v - v @ u
            want = (uv @ w - w @ uv).scale(ring.invert(ring.from_int(4)))
        elif context == "jordan_units":
            half = ring.half()

            def jp(a, b):
                return (a @ b + b @ a).scale(half)

            want = jp(u, jp(v, w)) - jp(v, jp(u, w))
        else:
            want = (u @ v @ w + w @ v @ u) - (v @ u @ w + w @ u @ v)
        return _matrix_result(ring, want)

    return req, oracle


def _tanh_sym2(a, b, c):
    """tanh of the symmetric matrix [[a, b], [b, c]] by its spectrum:
    tanh(V) = alpha + beta V on the two eigenvalues m +- r."""
    m = (a + c) / 2
    r = math.hypot((a - c) / 2, b)
    if r < 1e-8:
        beta = 1 - math.tanh(m) ** 2
    else:
        beta = (math.tanh(m + r) - math.tanh(m - r)) / (2 * r)
    alpha = math.tanh(m + r) - beta * (m + r)
    return [[alpha + beta * a, beta * b], [beta * b, alpha + beta * c]]


def exp(rng, ring, n):
    """Truncated tanh exponential over float64 against math.tanh (n = 1)
    or against the spectral tanh of a symmetric 2 x 2 matrix."""
    if n == 1:
        v = [[rng.uniform(-0.5, 0.5)]]
        want = [[math.tanh(v[0][0])]]
    else:
        a, b, c = (rng.uniform(-0.25, 0.25) for _ in range(3))
        v = [[a, b], [b, c]]
        want = _tanh_sym2(a, b, c)
    req = {"op": "exp", "ring": "float64", "n": n, "v": v, "order": 24}

    def oracle():
        def pred(r):
            got = r["chart"]
            return all(abs(g - w) <= 1e-12
                       for gr, wr in zip(got, want) for g, w in zip(gr, wr))
        return _ok(pred)

    return req, oracle


def mu(rng, ring, n, bad=False):
    """mu_r(Gamma_0, o+, Gamma_z) = Gamma_{rz}, transported by a random
    group word g so that no point sits at its standard position."""
    g = randgen.rand_group_word(rng, ring, n, length=rng.randint(1, 2))
    z = randgen.rand_matrix(rng, ring, n)
    r = ring.zero() if bad else randgen.rand_unit(rng, ring)
    x = act_frac(g, base_minus(ring, n))
    a = act_frac(g, base_plus(ring, n))
    y = act_frac(g, gamma_chart(z))
    req = {"op": "mu", "r": scalar_to_json(ring, r), "x": point_to_json(x),
           "a": point_to_json(a), "y": point_to_json(y)}

    def oracle():
        if bad:
            return _err("NotAUnit")
        return _point_result(act_frac(g, gamma_chart(z.scale(r))))

    return req, oracle


def _chart_sample(rng, ring, n, shape):
    a = randgen.rand_matrix(rng, ring, n)
    if shape == "symmetric":
        return a + a.transpose()
    if shape == "skew":
        return a - a.transpose()
    if shape == "orthogonal":
        return randgen.rand_orthogonal2(rng, ring)
    return a


def classify(rng, ring, n, shape="random"):
    """Chart formulas: Gamma_z is hermitian iff z* = z, anti-hermitian iff
    z* = -z, unitary iff z* = z^-1."""
    z = _chart_sample(rng, ring, n, shape)
    req = {"op": "classify", "E": point_to_json(gamma_chart(z))}

    def oracle():
        zs = z.transpose()
        zi = _invertible(z)
        want = {"hermitian": zs == z, "antihermitian": zs == -z,
                "unitary": zi is not None and zs == zi}
        return _ok(lambda r: r["result"] == want)

    return req, oracle


def phi(rng, ring, n, shape="random"):
    """The point map of Phi_1 is Gamma_z -> Gamma_{z*} on the chart."""
    z = _chart_sample(rng, ring, n, shape)
    req = {"op": "phi", "j": 1, "E": point_to_json(gamma_chart(z))}
    return req, lambda: _point_result(gamma_chart(z.transpose()))


def dual_quasi_inverse(rng, ring, n):
    """One request over Q[e]: value and directional derivative at once,
    against x(1+yx)^-1 evaluated directly over the dual ring."""
    base = ring.base
    x = dual_combine(randgen.rand_matrix(rng, base, n),
                     randgen.rand_matrix(rng, base, n))
    y = dual_combine(randgen.rand_matrix(rng, base, n),
                     randgen.rand_matrix(rng, base, n))
    req = {"op": "quasi_inverse", "ring": ring_to_json(ring), "n": n,
           "x": matrix_to_json(x), "y": matrix_to_json(y)}

    def oracle():
        try:
            want = full_quasi_inverse_oracle(JordanContext(n, ring), x, y)
        except NotInvertible:
            return _err("NotQuasiInvertible")
        return _matrix_result(ring, want)

    return req, oracle


# (maker, ring label, n, variant) -- one cycle of the request mix.
CYCLE = (
    (quasi_inverse, "q", 1, {}),
    (quasi_inverse, "q", 2, {}),
    (quasi_inverse, "q", 3, {}),
    (quasi_inverse, "fp", 2, {}),
    (quasi_inverse, "fp", 3, {}),
    (quasi_inverse, "f64", 2, {}),
    (quasi_inverse, "f64", 3, {}),
    (quasi_inverse, "q", 2, {"convention": "loos"}),
    (quasi_inverse, "fp", 1, {"convention": "loos"}),
    (quasi_inverse, "f64", 1, {"convention": "loos"}),
    (quasi_inverse, "q", 2, {"bad": True}),
    (quasi_inverse, "fp", 2, {"convention": "loos", "bad": True}),
    (bergman, "q", 1, {}),
    (bergman, "q", 2, {}),
    (bergman, "fp", 2, {}),
    (bergman, "f64", 2, {}),
    (bergman, "fp", 3, {"convention": "loos"}),
    (bergman, "q", 2, {"convention": "loos", "flavor": "hermitian"}),
    (act, "q", 1, {}),
    (act, "q", 2, {}),
    (act, "fp", 2, {}),
    (act, "f64", 2, {}),
    (act, "q", 2, {"bad": True}),
    (act_frac_req, "q", 2, {}),
    (act_frac_req, "fp", 3, {}),
    (sym_mul, "q", 2, {"context": "group"}),
    (sym_mul, "fp", 2, {"context": "group", "bad": True}),
    (sym_mul, "f64", 3, {"context": "group"}),
    (sym_mul, "q", 2, {"context": "jordan_units"}),
    (sym_mul, "fp", 2, {"context": "jordan_units"}),
    (sym_mul, "q", 2, {"context": "projective"}),
    (sym_mul, "fp", 1, {"context": "projective"}),
    (lts, "q", 2, {"context": "group"}),
    (lts, "q", 2, {"context": "jordan_units"}),
    (lts, "fp", 2, {"context": "projective"}),
    (exp, "f64", 1, {}),
    (exp, "f64", 1, {}),
    (exp, "f64", 2, {}),
    (mu, "q", 2, {}),
    (mu, "fp", 2, {}),
    (mu, "q", 1, {"bad": True}),
    (classify, "q", 2, {"shape": "orthogonal"}),
    (classify, "q", 2, {"shape": "symmetric"}),
    (classify, "fp", 2, {"shape": "skew"}),
    (classify, "q", 3, {}),
    (phi, "q", 2, {}),
    (phi, "fp", 3, {"shape": "symmetric"}),
    (dual_quasi_inverse, "dual1", 2, {}),
)


Request = namedtuple("Request", "text oracle")


def build(seed, start, stop):
    """Requests start .. stop - 1 of the seeded stream, as JSON text."""
    out = []
    for i in range(start, stop):
        maker, ring, n, variant = CYCLE[i % len(CYCLE)]
        rng = randgen.trial_rng(f"compute-requests:{seed}", i)
        req, oracle = maker(rng, RINGS[ring], n, **variant)
        out.append(Request(json.dumps(req, sort_keys=True), oracle))
    return out


def check_response(request, text):
    """True when `text` is strict JSON and matches the request's oracle."""
    kind, want = request.oracle()
    try:
        resp = json.loads(text, parse_constant=_reject_constant)
        if kind == "error":
            return resp.get("error") == want
        return "error" not in resp and bool(want(resp))
    except Exception:  # noqa: BLE001 - an unreadable response is wrong output
        return False


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")

