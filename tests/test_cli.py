"""CLI surface: exit codes, JSON formats, determinism, conventions."""

import contextlib
import io
import json
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from jordankit import cli, suites
from jordankit.algebra import Matrix
from jordankit.jordan import JordanContext, is_quasi_invertible
from jordankit.randgen import rand_matrix, trial_rng
from jordankit.rings import RATIONAL, ring_from_json, scalar_from_json


def run_cli(args, stdin=None):
    proc = subprocess.run([sys.executable, "-m", "jordankit.cli"] + args,
                          input=stdin, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def run_in_process(args, stdin=""):
    """run_cli in this interpreter; an exception that escapes main() fails
    the test the way a traceback on stderr would."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, out.getvalue(), err.getvalue()


def test_list_suites():
    code, out, _ = run_cli(["list-suites"])
    assert code == 0
    names = json.loads(out)["suites"]
    assert "fundamental" in names and "exp-tanh" in names


def test_verify_pass():
    code, out, err = run_cli(["verify", "--suite", "fundamental",
                              "--ring", "rational", "--n", "2",
                              "--trials", "5", "--seed", "1"])
    assert code == 0
    rep = json.loads(out)
    assert rep["failed"] == 0 and rep["passed"] >= 5
    assert "PASS" in err


def test_verify_unknown_suite():
    code, out, _ = run_cli(["verify", "--suite", "nosuchsuite"])
    assert code == 2
    assert json.loads(out)["error"] == "UnknownSuite"


def test_verify_unsupported_ring():
    code, out, _ = run_cli(["verify", "--suite", "exp-tanh",
                            "--ring", "rational"])
    assert code == 2
    assert json.loads(out)["error"] == "UnsupportedRing"


def test_verify_rejects_bad_dimension():
    for n in ("0", "-1"):
        code, out, err = run_cli(["verify", "--suite", "fundamental",
                                  "--n", n, "--trials", "2"])
        assert code == 2
        assert json.loads(out) == {"error": "BadDimension", "n": int(n)}
        assert "Traceback" not in err


def test_verify_rejects_bad_tolerance():
    """A NaN, infinite or negative --tol is a usage error before any
    trial runs, not a suite run that ends in NonFiniteResult."""
    for tol in ("nan", "inf", "-1"):
        code, out, err = run_cli(["verify", "--suite", "fundamental",
                                  "--tol", tol, "--trials", "2"])
        assert code == 2, tol
        assert json.loads(out)["error"] == "BadTolerance"
        assert "Traceback" not in err and "PASS" not in err


def test_verify_fp_ring():
    code, out, _ = run_cli(["verify", "--suite", "jordan-pair",
                            "--ring", "fp:5", "--trials", "5"])
    assert code == 0


def test_verify_deterministic():
    args = ["verify", "--suite", "bergman", "--trials", "5", "--seed", "7"]
    outs = []
    for _ in range(3):
        code, out, _ = run_cli(args)
        assert code == 0
        rep = json.loads(out)
        rep.pop("wall_time")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1] == outs[2]


def test_compute_quasi_inverse_scalar():
    req = {"op": "quasi_inverse", "ring": "rational", "n": 1, "x": 1, "y": 1}
    code, out, _ = run_cli(["compute"], stdin=json.dumps(req))
    assert code == 0
    assert json.loads(out)["result"] == "1/2"


def test_compute_act_not_in_chart():
    req = {"op": "act", "ring": "rational", "n": 1, "g": "J", "x": 0}
    code, out, _ = run_cli(["compute"], stdin=json.dumps(req))
    assert code == 1
    assert json.loads(out)["error"] == "NotInChart"


def test_compute_cayley_identity():
    code, out, _ = run_cli(["compute"], stdin='{"op": "cayley"}')
    assert code == 0
    assert json.loads(out)["holds"] is True


def test_compute_malformed():
    code, out, _ = run_cli(["compute"], stdin="{not json")
    assert code == 2
    code, out, _ = run_cli(["compute"], stdin='{"op": "nosuchop"}')
    assert code == 2


def test_compute_non_object_request():
    code, out, err = run_cli(["compute"], stdin="[1, 2]")
    assert code == 2
    assert json.loads(out)["error"] == "MalformedRequest"
    assert "Traceback" not in err


def test_compute_zero_denominator():
    req = {"op": "quasi_inverse", "ring": "rational", "n": 1,
           "x": "1/0", "y": 1}
    code, out, err = run_cli(["compute"], stdin=json.dumps(req))
    assert code == 2
    assert json.loads(out)["error"] == "MalformedRequest"
    assert "Traceback" not in err


def test_compute_non_finite_result():
    """exp of 1e308 overflows; the NaN must not reach the output."""
    req = {"op": "exp", "ring": "float64", "n": 1, "v": [[1e308]],
           "order": 24}
    code, out, err = run_cli(["compute"], stdin=json.dumps(req))
    assert code == 1
    assert json.loads(out)["error"] == "NonFiniteResult"
    assert "Traceback" not in err


def test_compute_non_finite_input():
    for x in ('"nan"', "NaN", '"-inf"', "Infinity", "1e400", "9" * 400):
        text = ('{"op": "quasi_inverse", "ring": "float64", "n": 1, '
                f'"x": {x}, "y": 1}}')
        code, out, err = run_cli(["compute"], stdin=text)
        assert code == 2, x
        assert json.loads(out)["error"] == "MalformedRequest"
        assert "Traceback" not in err


def test_compute_derivative_needs_samples():
    for samples in (0, -5):
        req = {"op": "derivative", "map": "squaring",
               "context": {"ring": "rational", "n": 2}, "samples": samples}
        code, out, err = run_cli(["compute"], stdin=json.dumps(req))
        assert code == 2
        assert json.loads(out)["error"] == "MalformedRequest"
        assert "Traceback" not in err


def test_compute_derivative_rejects_bad_tolerance():
    for tol in (float("nan"), float("inf"), -1, "1e-9", True):
        req = {"op": "derivative", "map": "squaring",
               "context": {"ring": "float64", "n": 2}, "samples": 2,
               "tol": tol}
        code, out, err = run_cli(["compute"], stdin=json.dumps(req))
        assert code == 2, tol
        assert json.loads(out)["error"] == "MalformedRequest"
        assert "tolerance" in json.loads(out)["detail"]
        assert "Traceback" not in err


# A point of the n = 1 line.
LINE_POINT = {"ring": {"kind": "rational"}, "rep": [["1"], ["2"]]}


@pytest.mark.parametrize("field, req", [
    ("n", {"op": "quasi_inverse", "n": 0, "x": [], "y": []}),
    ("n", {"op": "bergman", "n": 0, "x": [], "y": []}),
    ("n", {"op": "sym_mul", "context": {"variant": "group", "n": 0},
           "x": [], "y": []}),
    ("n", {"op": "lts", "context": {"variant": "jordan_units", "n": 0},
           "u": [], "v": [], "w": []}),
    ("n", {"op": "derivative", "map": "squaring", "context": {"n": 0}}),
    ("n", {"op": "cayley", "n": 0}),
    ("n", {"op": "cayley", "n": -2}),
    ("n", {"op": "exp", "n": 0, "v": []}),
    ("n", {"op": "exp", "n": -1, "v": []}),
    ("n", {"op": "act", "n": True, "g": "C", "x": 1}),
    ("n", {"op": "exp", "n": 2.0, "v": [[0, 0], [0, 0]]}),
    ("samples", {"op": "derivative", "map": "squaring", "samples": True}),
    ("order", {"op": "exp", "n": 1, "v": [[0.1]], "order": True}),
    ("seed", {"op": "derivative", "map": "squaring", "samples": 2,
              "seed": True}),
    ("seed", {"op": "derivative", "map": "squaring", "samples": 2,
              "seed": [1]}),
    ("j", {"op": "phi", "j": True, "E": LINE_POINT}),
    ("j", {"op": "phi", "j": 1.0, "E": LINE_POINT}),
    ("j", {"op": "sym_mul", "x": LINE_POINT, "y": LINE_POINT,
           "context": {"variant": "projective", "ring": "rational",
                       "polarity": {"mode": "semilinear", "j": True}}}),
    ("j", {"op": "sym_mul", "x": LINE_POINT, "y": LINE_POINT,
           "context": {"variant": "projective", "ring": "rational",
                       "polarity": {"mode": "semilinear", "j": "1"}}}),
    ("deg", {"op": "act", "n": 1, "x": [["1"]],
             "g": {"word": [{"deg": True, "v": [["1"]]}]}}),
    ("deg", {"op": "act", "n": 1, "x": [["1"]],
             "g": {"blocks": [[[["1"]], [["2"]]], [[["0"]], [["1"]]]],
                   "word": [{"deg": 1.0, "v": [["2"]]}]}}),
    ("deg", {"op": "act_frac", "E": LINE_POINT,
             "g": {"word": [{"v": [["1"]]}]}}),
    ("n", {"op": "classify", "E": dict(LINE_POINT, n=True)}),
])
def test_compute_refuses_integer_fields_that_are_not_int(field, req):
    """n is a positive integer and samples, order, seed, a polarity's or
    phi's j and a group word's deg are integers, whichever op reads them:
    a boolean is not read as 1, nor a list as the stream of its text."""
    code, out, err = run_in_process(["compute"], stdin=json.dumps(req))
    assert code == 2
    assert json.loads(out)["error"] == "MalformedRequest"
    assert json.loads(out)["detail"].startswith(field + " must be")
    assert "Traceback" not in err


def test_compute_sym_mul_and_lts():
    req = {"op": "sym_mul",
           "context": {"variant": "jordan_units", "ring": "rational",
                       "n": 1, "flavor": "full"},
           "x": [[2]], "y": [[1]]}
    code, out, _ = run_cli(["compute"], stdin=json.dumps(req))
    assert code == 0
    assert json.loads(out)["result"] == [["4"]]

    req = {"op": "lts",
           "context": {"variant": "group", "ring": "rational", "n": 2},
           "u": [[0, 1], [0, 0]], "v": [[0, 0], [1, 0]],
           "w": [[0, 1], [0, 0]]}
    code, out, _ = run_cli(["compute"], stdin=json.dumps(req))
    assert code == 0
    got = json.loads(out)["result"]
    # (1/4)[[u,v],w] = (1/4)(2 E12) = E12/2
    assert got == [["0", "1/2"], ["0", "0"]]


def test_compute_exp():
    req = {"op": "exp", "ring": "float64", "n": 1, "v": [[0.5]], "order": 24}
    code, out, _ = run_cli(["compute"], stdin=json.dumps(req))
    assert code == 0
    import math
    got = json.loads(out)["chart"][0][0]
    assert abs(got - math.tanh(0.5)) < 1e-12


def test_compute_remaining_ops():
    reqs = [
        {"op": "bergman", "ring": "rational", "n": 1, "x": 1, "y": 1},
        {"op": "act_frac", "g": "F",
         "E": {"n": 1, "ring": {"kind": "rational"}, "rep": [["3"], ["1"]]}},
        {"op": "phi", "j": 1,
         "E": {"n": 1, "ring": {"kind": "rational"}, "rep": [["2"], ["1"]]}},
        {"op": "classify",
         "E": {"n": 1, "ring": {"kind": "rational"}, "rep": [["2"], ["1"]]}},
        {"op": "mu", "r": "2",
         "x": {"n": 1, "ring": {"kind": "rational"}, "rep": [["0"], ["1"]]},
         "a": {"n": 1, "ring": {"kind": "rational"}, "rep": [["1"], ["0"]]},
         "y": {"n": 1, "ring": {"kind": "rational"}, "rep": [["3"], ["1"]]}},
    ]
    for req in reqs:
        code, out, _ = run_cli(["compute"], stdin=json.dumps(req))
        assert code == 0, (req, out)
    resp = cli.compute({"op": "bergman", "ring": "rational", "n": 1,
                        "x": 1, "y": 1})
    assert resp["result"] == [["4"]]
    resp = cli.compute({"op": "mu", "r": "2",
                        "x": {"n": 1, "ring": {"kind": "rational"},
                              "rep": [["0"], ["1"]]},
                        "a": {"n": 1, "ring": {"kind": "rational"},
                              "rep": [["1"], ["0"]]},
                        "y": {"n": 1, "ring": {"kind": "rational"},
                              "rep": [["3"], ["1"]]}})
    # mu_2(Gamma_0, o+, Gamma_3) = Gamma_6
    from jordankit.projline import gamma_chart
    from jordankit.serialize import point_from_json
    got = point_from_json(resp["result"])
    assert got == gamma_chart(Matrix.from_ints(RATIONAL, [[6]]))


def _point(rep):
    return {"ring": {"kind": "rational"}, "rep": rep}


def _mu(x, a, y):
    return {"op": "mu", "r": "2", "x": _point(x), "a": _point(a),
            "y": _point(y)}


def test_compute_malformed_point_is_usage_error():
    """A rep that is not 2n x n, or whose n differs from the n the request
    implies, is a malformed request (exit 2)."""
    square = [["1", "0"], ["0", "1"]]
    reqs = [
        {"op": "classify", "E": _point(square)},
        {"op": "classify", "E": _point([["1"], ["0"], ["2"]])},
        {"op": "classify", "E": _point([])},
        {"op": "phi", "j": 1, "E": _point(square)},
        {"op": "phi", "j": 2, "E": _point([["1"]])},
        {"op": "mu", "r": "2", "x": _point(square),
         "a": _point([["1"], ["0"]]), "y": _point([["3"], ["1"]])},
        # n = 1 from x; a is a point of the n = 2 line
        _mu([["0"], ["1"]], [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"]],
            [["3"], ["1"]]),
        _mu([["0"], ["1"]], [["1"], ["0"]], [["3"], ["1"], ["0"]]),
    ]
    for req in reqs:
        code, out, err = run_in_process(["compute"], stdin=json.dumps(req))
        assert code == 2, req
        assert json.loads(out)["error"] == "MalformedRequest", req
        assert "Traceback" not in err


def test_compute_reads_a_points_own_n():
    """A point's own "n" must match its rep and the n the request
    implies; a point that gives it and agrees answers as one that does
    not."""
    plain = {"op": "classify", "E": LINE_POINT}
    code, want, _ = run_in_process(["compute"], stdin=json.dumps(plain))
    assert code == 0
    for own in (1, None):
        req = {"op": "classify", "E": dict(LINE_POINT, n=own)}
        if own is None:
            del req["E"]["n"]
        assert run_in_process(["compute"], stdin=json.dumps(req))[:2] == (
            0, want)
    square = [["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"]]
    for req in ({"op": "classify", "E": dict(LINE_POINT, n=7)},
                {"op": "classify", "E": dict(LINE_POINT, n=2)},
                {"op": "phi", "E": {"n": 1, "ring": "rational",
                                    "rep": square}},
                _mu([["0"], ["1"]], [["1"], ["0"]], [["3"], ["1"]])
                | {"a": dict(LINE_POINT, n=2)}):
        code, out, err = run_in_process(["compute"], stdin=json.dumps(req))
        assert code == 2, req
        assert json.loads(out)["error"] == "MalformedRequest", req
        assert "Traceback" not in err


def test_compute_malformed_matrix_is_usage_error():
    """Ragged rows, or a matrix payload that is not n x n for the n the
    request implies, are a malformed request (exit 2) for every op that
    reads a matrix, not a domain error from inside the computation."""
    eye = [["1", "0"], ["0", "1"]]
    jordan = {"ring": "rational", "n": 2}
    units = {"variant": "jordan_units", "ring": "rational", "n": 2,
             "flavor": "hermitian"}
    group = {"variant": "group", "ring": "rational", "n": 2}
    line = _point([["1", "0"], ["0", "1"], ["0", "0"], ["0", "0"]])
    for bad in ([["1", "0"], ["0"]], [["1", "0"]], [["1"], ["0"]], "3",
                [["1", "0"], "01"]):
        form = {"kind": "form_adjoint", "B": bad}
        reqs = [
            dict(jordan, op="quasi_inverse", x=eye, y=bad),
            dict(jordan, op="bergman", x=bad, y=eye),
            dict(jordan, op="bergman", flavor="hermitian", involution=form,
                 x=eye, y=eye),
            {"op": "act", "ring": "rational", "n": 2, "g": "C", "x": bad},
            {"op": "act", "ring": "rational", "n": 2, "x": eye,
             "g": {"blocks": [[eye, bad], [eye, eye]]}},
            {"op": "act_frac", "E": line,
             "g": {"word": [{"deg": 1, "v": bad}]}},
            {"op": "sym_mul", "context": group, "x": eye, "y": bad},
            {"op": "sym_mul", "context": dict(units, o={
                "n": 2, "ring": "rational", "entries": bad}),
             "x": eye, "y": eye},
            {"op": "lts", "context": units, "u": eye, "v": bad, "w": eye},
            {"op": "exp", "ring": "float64", "n": 2, "v": bad},
            {"op": "classify", "E": line, "involution": form},
            {"op": "derivative", "map": "squaring", "samples": 1,
             "context": dict(jordan, flavor="hermitian", involution=form)},
        ]
        for req in reqs:
            code, out, err = run_in_process(["compute"],
                                            stdin=json.dumps(req))
            assert code == 2, req
            assert json.loads(out)["error"] == "MalformedRequest", req
            assert "Traceback" not in err
    ragged_rep = [["1", "0"], ["0", "1"], ["0"], ["0", "0"]]
    code, out, _ = run_in_process(["compute"], stdin=json.dumps(
        {"op": "classify", "E": _point(ragged_rep)}))
    assert code == 2 and json.loads(out)["error"] == "MalformedRequest"


def test_compute_rank_deficient_point_is_domain_error():
    reqs = [
        {"op": "classify", "E": _point([["0"], ["0"]])},
        {"op": "phi", "j": 1,
         "E": _point([["1", "2"], ["2", "4"], ["0", "0"], ["0", "0"]])},
        _mu([["0"], ["1"]], [["0"], ["0"]], [["3"], ["1"]]),
    ]
    for req in reqs:
        code, out, _ = run_in_process(["compute"], stdin=json.dumps(req))
        assert code == 1, req
        assert json.loads(out)["error"] == "ShapeMismatch", req


def test_compute_derivative_alias():
    """Each op has one name: the former aliases derivative_check and
    cayley_identity are unknown ops."""
    req = {"op": "derivative", "map": "squaring",
           "context": {"ring": "rational", "n": 2}, "samples": 10}
    code, out, _ = run_cli(["compute"], stdin=json.dumps(req))
    assert code == 0
    assert json.loads(out)["report"]["failed"] == 0
    for alias in ("derivative_check", "cayley_identity"):
        code, out, _ = run_in_process(["compute"],
                                      stdin=json.dumps(dict(req, op=alias)))
        assert code == 2, alias
        assert json.loads(out)["error"] == "MalformedRequest", alias


def test_compute_derivative_report():
    req = {"op": "derivative", "map": "jordan_inverse",
           "context": {"ring": "rational", "n": 2, "flavor": "hermitian"},
           "samples": 20, "tol": 1e-9}
    code, out, _ = run_cli(["compute"], stdin=json.dumps(req))
    assert code == 0
    rep = json.loads(out)["report"]
    # exact over Q: no deviation to report
    assert rep["failed"] == 0 and "max_deviation" not in rep
    assert rep["ok"] is True and rep["trials"] == 20


def test_compute_derivative_counts_match_the_suite_check():
    """The derivative request and the derivative-laws suite's check run
    one trial loop: at the same seed and trial count they count the same
    passes, failures and skips."""
    for seed in (1, 5):
        req = {"op": "derivative", "map": "jordan_inverse",
               "context": {"ring": "rational", "n": 2,
                           "flavor": "hermitian"},
               "samples": 6, "seed": seed}
        code, out, _ = run_in_process(["compute"], json.dumps(req))
        assert code == 0
        rep = json.loads(out)["report"]
        res = suites.check_deriv_jordan_inverse(RATIONAL, 2, 6, seed)
        assert ((rep["passed"], rep["failed"], rep["skipped"])
                == (res.passed, res.failed, res.skipped))


def test_compute_derivative_over_float_dual_ring():
    """Over R64[e] the deviation is the largest |coordinate| of the
    difference, so the check ends in a report, not a usage error."""
    req = {"op": "derivative", "map": "squaring", "samples": 2,
           "context": {"ring": {"kind": "dual", "base": {"kind": "float64"}},
                       "n": 2}}
    code, out, _ = run_in_process(["compute"], json.dumps(req))
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["ok"] is True and 0 <= rep["max_deviation"] <= 1e-9


def test_compute_over_dual_ring():
    """Dual scalars pass through the wire format, so one compute call
    returns value and directional derivative together: the eps-part of
    quasi_inverse(1 + eps, 1) is d/dx [x(1+x)^-1] at 1 = 1/4."""
    req = {"op": "quasi_inverse",
           "ring": {"kind": "dual", "base": {"kind": "rational"}},
           "n": 1, "x": {"re": 1, "eps": 1}, "y": {"re": 1, "eps": 0}}
    resp = cli.compute(req)
    assert resp["result"] == {"re": "1/2", "eps": "1/4"}


def test_dual_ring_responses_are_unchanged():
    """Compute responses over Q[e], Q[e][e], F7[e] and R64[e] stay byte
    for byte the recorded ones: sym_mul on all three contexts,
    quasi_inverse, bergman, lts and derivative. Each entry of the data
    file is a request and the line `jordankit compute` printed for it."""
    path = Path(__file__).parent / "data" / "dual_compute_golden.json"
    cases = json.loads(path.read_text(encoding="utf-8"))
    assert len(cases) >= 20
    for case in cases:
        code, out, _ = run_in_process(["compute"],
                                      stdin=json.dumps(case["request"]))
        assert code == 0, case["request"]
        assert out == case["response"] + "\n", case["request"]


def test_plain_ring_responses_are_unchanged():
    """Compute responses over Q, F_7 and float64 stay byte for byte the
    recorded ones: every plain-ring request of one cycle of the benchmark's
    compute-requests mix (perfbench/compute_requests.py CYCLE: every op at
    n = 1..3, domain errors included) at seeds 1 and 2. Each entry of the
    data file is a request, the exit code and the line `jordankit compute`
    printed for it."""
    path = Path(__file__).parent / "data" / "plain_compute_golden.json"
    cases = json.loads(path.read_text(encoding="utf-8"))
    assert len(cases) >= 90
    for case in cases:
        code, out, _ = run_in_process(["compute"],
                                      stdin=json.dumps(case["request"]))
        assert code == case["exit"], case["request"]
        assert out == case["response"] + "\n", case["request"]


def test_convention_round_trip():
    """Under the loos convention, (x, w) computes the ad-convention value
    at (x, -w); 50 scalar trials through the dispatch layer."""
    ctx = JordanContext(1, RATIONAL, "full")
    hits = 0
    i = 0
    while hits < 50:
        rng = trial_rng(2024, i)
        i += 1
        x = rand_matrix(rng, RATIONAL, 1)
        w = rand_matrix(rng, RATIONAL, 1)
        if not is_quasi_invertible(ctx, x, -w):
            continue
        hits += 1
        from jordankit.rings import scalar_to_json
        req = {"op": "quasi_inverse", "ring": "rational", "n": 1,
               "x": scalar_to_json(RATIONAL, x[0, 0]),
               "y": scalar_to_json(RATIONAL, w[0, 0])}
        loos = cli.compute(dict(req, convention="loos"))
        req["y"] = scalar_to_json(RATIONAL, -w[0, 0])
        ad = cli.compute(dict(req, convention="ad"))
        assert loos["result"] == ad["result"]
        assert loos["convention"] == "loos"


def test_verify_refuses_options_no_check_reads():
    """--tol and --order are read only by exp-tanh: given anywhere else,
    each is a usage error before any trial runs. verify has no
    --convention (no suite reads one), so argparse refuses it, also
    with exit 2 before any trial runs."""
    for extra, suite in ((["--tol", "1e-9"], "fundamental"),
                         (["--order", "12"], "lts")):
        code, out, err = run_in_process(["verify", "--suite", suite,
                                         "--trials", "2"] + extra)
        assert code == 2, extra
        assert json.loads(out) == {"error": "UnusedOption", "suite": suite,
                                   "options": [extra[0]]}
        assert "Traceback" not in err and "PASS" not in err
    for extra, suite in ((["--convention", "loos"], "bergman"),
                         (["--convention", "ad"], "fundamental"),
                         (["--convention", "loos"], "exp-tanh")):
        code, out, err = run_cli(["verify", "--suite", suite,
                                  "--trials", "2"] + extra)
        assert code == 2, extra
        assert out == "" and "--convention" in err
        assert "Traceback" not in err and "PASS" not in err


def test_verify_refuses_n_on_suites_with_fixed_n():
    """exp-tanh and unitary fix their own n, so an explicit --n is refused
    before any trial runs; without it their reports still echo n = 2."""
    for suite, ring in (("exp-tanh", "float64"), ("unitary", "rational")):
        for n in ("2", "3"):
            code, out, err = run_in_process(["verify", "--suite", suite,
                                             "--ring", ring, "--trials", "2",
                                             "--n", n])
            assert code == 2
            assert json.loads(out) == {"error": "UnusedOption",
                                       "suite": suite, "options": ["--n"]}
            assert "PASS" not in err
        code, out, _ = run_in_process(["verify", "--suite", suite, "--ring",
                                       ring, "--trials", "2"])
        assert code == 0
        assert json.loads(out)["config"]["n"] == 2


def test_verify_exp_tanh_reads_tol_and_order():
    code, out, _ = run_cli(["verify", "--suite", "exp-tanh", "--ring",
                            "float64", "--trials", "2", "--tol", "1e-8",
                            "--order", "20"])
    assert code == 0
    conf = json.loads(out)["config"]
    assert conf["tol"] == 1e-8 and conf["order"] == 20


def test_verify_rejects_bad_order():
    code, out, err = run_in_process(["verify", "--suite", "exp-tanh",
                                     "--ring", "float64", "--trials", "2",
                                     "--order", "0"])
    assert code == 2
    assert json.loads(out) == {"error": "BadOrder", "order": 0}
    assert "Traceback" not in err


def test_verify_config_without_options_keeps_defaults():
    code, out, _ = run_cli(["verify", "--suite", "fundamental",
                            "--trials", "2", "--seed", "3"])
    assert code == 0
    assert json.dumps(json.loads(out)["config"], sort_keys=True) == (
        '{"convention": "ad", "n": 2, "order": 24, '
        '"ring": {"kind": "rational"}, "seed": 3, "tol": 1e-09, '
        '"trials": 2}')



# -- files and moduli that the CLI refuses as usage errors --------------------

QI_REQUEST = '{"op": "quasi_inverse", "ring": "rational", "n": 1, "x": 1, "y": 1}'


def assert_usage_error(args, error, stdin=QI_REQUEST):
    """Exit 2 with the named error as strict JSON; run in process, so a
    traceback would fail the test."""
    code, out, err = run_in_process(args, stdin)
    assert code == 2, args
    assert json.loads(out, parse_constant=_strict)["error"] == error
    assert "Traceback" not in err


def test_compute_refuses_missing_input_file(tmp_path):
    assert_usage_error(["compute", "--in", str(tmp_path / "none.json")],
                       "UnreadableInput")


def test_compute_refuses_directory_as_input_file(tmp_path):
    assert_usage_error(["compute", "--in", str(tmp_path)], "UnreadableInput")


def test_compute_refuses_non_utf8_input_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"op": "caf\u00e9"}'.encode("latin-1"))
    assert_usage_error(["compute", "--in", str(path)], "UnreadableInput")


def test_compute_refuses_unwritable_output_file(tmp_path):
    assert_usage_error(["compute", "--out", str(tmp_path / "no" / "x.json")],
                       "UnwritableOutput")


def test_verify_refuses_unwritable_output_file(tmp_path):
    assert_usage_error(["verify", "--suite", "mu", "--trials", "2",
                        "--out", str(tmp_path)], "UnwritableOutput")


def test_prime_moduli_are_integers_decided_exactly():
    """A modulus must be an int, not a bool, and an odd prime; 2^61 - 1
    parses at once, where trial division would try about 7.6e8 odd
    divisors up to its square root."""
    t0 = time.perf_counter()
    code, out, _ = run_in_process(["verify", "--suite", "mu", "--trials",
                                   "2", "--ring", "fp:2305843009213693951"])
    assert code == 0 and time.perf_counter() - t0 < 1.0
    assert json.loads(out)["config"]["ring"] == {"kind": "prime_field",
                                                  "p": 2 ** 61 - 1}
    for p in ("561", "5.0", '"5"', "True"):
        assert_usage_error(["verify", "--suite", "mu", "--trials", "2",
                            "--ring", f"fp:{p}"], "UnknownRing")
    for p in (561, 5.0, "5", True):
        req = {"op": "quasi_inverse", "ring": {"kind": "prime_field", "p": p},
               "n": 1, "x": 1, "y": 1}
        assert_usage_error(["compute"], "MalformedRequest", json.dumps(req))


def _dual_tower(depth):
    ring = "rational"
    for _ in range(depth):
        ring = {"kind": "dual", "base": ring}
    return ring


def test_dual_towers_from_requests_are_bounded():
    """A ring read from a request nests at most 8 nilpotents, since a
    scalar of K[e1..ek] has 2^k jet coordinates: a depth-8 tower is
    answered, a depth-9 or depth-70 one is malformed input."""
    req = {"op": "quasi_inverse", "n": 1, "x": 1, "y": 1}
    code, out, _ = run_in_process(
        ["compute"], json.dumps(dict(req, ring=_dual_tower(8))))
    assert code == 0
    ring = ring_from_json(_dual_tower(8))
    assert ring.depth == 8
    assert (scalar_from_json(ring, json.loads(out)["result"])
            == ring.invert(ring.from_int(2)))
    for depth in (9, 70):
        assert_usage_error(["compute"], "MalformedRequest",
                           json.dumps(dict(req, ring=_dual_tower(depth))))


def test_compute_refuses_deeply_nested_json():
    """A request nested deeper than the JSON decoder goes is malformed."""
    deep = '{"op": "quasi_inverse", "x": ' + "[" * 5000 + "]" * 5000 + "}"
    assert_usage_error(["compute"], "MalformedRequest", deep)


def test_booleans_are_not_scalars():
    """true is refused as an entry over Q, float64 and F_p, bare or as
    the residue of an F_p payload, as a request's integers are."""
    for ring, x in (("rational", True), ("float64", True), ("fp:5", True),
                    ("fp:5", {"fp": True, "p": 5}),
                    ({"kind": "dual", "base": "rational"},
                     {"re": 1, "eps": True})):
        req = {"op": "quasi_inverse", "ring": ring, "n": 1, "x": x, "y": 1}
        assert_usage_error(["compute"], "MalformedRequest", json.dumps(req))


def test_compute_has_no_convention_option():
    """The convention is the request's "convention" field; compute has
    no --convention, so argparse refuses it."""
    code, out, err = run_cli(["compute", "--convention", "loos"],
                             stdin=QI_REQUEST)
    assert code == 2
    assert out == "" and "--convention" in err and "Traceback" not in err


# -- the compute contract under fuzzed requests -------------------------------

def _strict(const):
    raise ValueError(f"non-standard JSON constant {const}")


# Sizes, sample counts and truncation orders stay small: the contract is
# about how a request ends, and every example must be cheap.
_junk = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                  st.floats(), st.text(max_size=3), st.just([]),
                  st.just({}))


def _mostly(usual, rare, odds=15):
    """`usual` with probability odds/(odds+1), else `rare`."""
    return st.integers(0, odds).flatmap(lambda k: rare if k == 0 else usual)


def _maybe(valid):
    """Mostly a value of the schema, sometimes a value of another type."""
    return _mostly(valid, _junk)


_scalar = _mostly(st.integers(-3, 3), st.one_of(
    st.floats(-3, 3), st.sampled_from(["1/2", "-3", "1/0", "x", "1e400"]),
    st.fixed_dictionaries({"fp": st.integers(-6, 6),
                           "p": st.sampled_from([5, 7])}),
    st.fixed_dictionaries({"re": st.integers(-3, 3),
                           "eps": st.integers(-3, 3)}),
    _junk), odds=7)
_ring = _maybe(st.one_of(
    st.sampled_from(["rational", "rational", "float64", "fp:5", "fp:7",
                     "fp:4", "fp:x", "real"]),
    st.fixed_dictionaries({"kind": st.sampled_from(
        ["rational", "float64", "prime_field", "nope"]),
        "p": _maybe(st.integers(-2, 12))}),
    st.fixed_dictionaries({"kind": st.just("dual"),
                           "base": st.sampled_from(["rational", "fp:5",
                                                    "float64"])})))


def _rows(nrows, ncols):
    return st.lists(st.lists(_scalar, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows)


def _ragged(nrows, ncols):
    """nrows rows of ncols entries, but the last one entry longer."""
    return st.tuples(_rows(nrows, ncols), _scalar).map(
        lambda t: t[0][:-1] + [t[0][-1] + [t[1]]])


def _schema(n):
    """Request fields of the compute schema for elements of size n."""
    matrix = _maybe(st.one_of(_rows(n, n), _rows(n, n), _rows(n + 1, n),
                              _ragged(n, n), _scalar))
    point = _maybe(st.fixed_dictionaries(
        {"ring": _ring, "rep": st.one_of(_rows(2 * n, n), _rows(2 * n, n),
                                         _rows(n, n), _ragged(2 * n, n))},
        optional={"n": st.integers(-1, 3)}))
    involution = _maybe(st.one_of(
        st.just({"kind": "transpose"}),
        st.fixed_dictionaries({"kind": st.just("form_adjoint"),
                               "B": matrix},
                              optional={"symmetry": st.sampled_from(
                                  ["symmetric", "skew", "odd"])})))
    group = _maybe(st.one_of(
        st.sampled_from(["C", "F", "J", "I11", "K"]),
        st.fixed_dictionaries({"blocks": st.lists(
            st.lists(matrix, min_size=2, max_size=2),
            min_size=2, max_size=2)}),
        st.fixed_dictionaries({"word": st.lists(
            st.fixed_dictionaries({"deg": st.integers(-2, 2), "v": matrix}),
            max_size=2)})))
    jordan = {"ring": _ring,
              "n": _maybe(_mostly(st.just(n), st.sampled_from([0, -1, True]),
                                  odds=3)),
              "flavor": st.sampled_from(["full", "hermitian",
                                         "antihermitian", "odd"]),
              "involution": involution}
    context = _maybe(st.fixed_dictionaries(
        {"variant": st.sampled_from(["jordan_units", "projective", "group",
                                     "nope"])},
        optional=dict(jordan, kind=st.sampled_from(["full_linear", "unitary",
                                                    "odd"]),
                      polarity=_maybe(st.fixed_dictionaries(
                          {"mode": st.sampled_from(["linear", "semilinear",
                                                    "odd"])},
                          optional={"S": group, "j": st.integers(0, 5),
                                    "involution": involution,
                                    "H": matrix})),
                      o=st.one_of(point, matrix))))
    convention = {"convention": st.sampled_from(["ad", "loos", "odd"])}

    def op(name, required, optional=None):
        return st.fixed_dictionaries(dict(required, op=st.just(name)),
                                     optional=optional or {})

    return st.one_of(
        op("quasi_inverse", {"x": matrix, "y": matrix},
           dict(jordan, **convention)),
        op("bergman", {"x": matrix, "y": matrix}, dict(jordan, **convention)),
        op("act", {"g": group, "x": matrix},
           {"ring": _ring, "n": jordan["n"]}),
        op("act_frac", {"E": point, "g": group}),
        op("sym_mul", {"context": context, "x": st.one_of(point, matrix),
                       "y": st.one_of(point, matrix)}),
        op("lts", {"context": context, "u": matrix, "v": matrix,
                   "w": matrix}),
        op("exp", {"v": matrix}, {"ring": _ring, "n": jordan["n"],
                                  "context": context,
                                  "order": _maybe(st.integers(-1, 8))}),
        op("cayley", {}, {"ring": _ring, "n": jordan["n"]}),
        op("phi", {"E": point}, {"involution": involution,
                                 "j": _maybe(st.integers(0, 5))}),
        op("classify", {"E": point}, {"involution": involution}),
        op("mu", {"x": point, "a": point, "y": point, "r": _scalar}),
        op("derivative",
           {"map": _maybe(st.sampled_from(["jordan_inverse", "alg_inverse",
                                            "squaring", "act", "nope"]))},
           {"context": _maybe(st.fixed_dictionaries({}, optional=jordan)),
            "samples": _maybe(st.integers(-1, 3)),
            "tol": _maybe(st.floats()), "seed": _maybe(st.integers(0, 3)),
            "g": group}),
        op("nope", {}))


_request = st.integers(1, 3).flatmap(_schema)


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(req=_maybe(_request))
def test_compute_contract_under_fuzzed_requests(req):
    """Every request ends in a result (exit 0), a named domain error
    (exit 1) or a usage error (exit 2), as one line of strict JSON and
    without a traceback."""
    code, out, err = run_in_process(["compute"], json.dumps(req))
    assert code in (0, 1, 2)
    resp = json.loads(out, parse_constant=_strict)
    assert (code == 0) == ("error" not in resp)
    assert "Traceback" not in err
