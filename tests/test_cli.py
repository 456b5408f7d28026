"""CLI surface: exit codes, JSON formats, determinism, conventions."""

import json
import subprocess
import sys

from jordankit import cli
from jordankit.algebra import Matrix
from jordankit.jordan import JordanContext, is_quasi_invertible
from jordankit.randgen import rand_matrix, trial_rng
from jordankit.rings import RATIONAL


def run_cli(args, stdin=None):
    proc = subprocess.run([sys.executable, "-m", "jordankit.cli"] + args,
                          input=stdin, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


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
    code, out, _ = run_cli(["compute"], stdin='{"op": "cayley_identity"}')
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


def test_compute_derivative_alias():
    req = {"op": "derivative_check", "map": "squaring",
           "context": {"ring": "rational", "n": 2}, "samples": 10}
    code, out, _ = run_cli(["compute"], stdin=json.dumps(req))
    assert code == 0
    assert json.loads(out)["report"]["failed"] == 0


def test_compute_derivative_report():
    req = {"op": "derivative", "map": "jordan_inverse",
           "context": {"ring": "rational", "n": 2, "flavor": "hermitian"},
           "samples": 20, "tol": 1e-9}
    code, out, _ = run_cli(["compute"], stdin=json.dumps(req))
    assert code == 0
    rep = json.loads(out)["report"]
    assert rep["failed"] == 0 and rep["exact"] is True


def test_compute_over_dual_ring():
    """Dual scalars pass through the wire format, so one compute call
    returns value and directional derivative together: the eps-part of
    quasi_inverse(1 + eps, 1) is d/dx [x(1+x)^-1] at 1 = 1/4."""
    req = {"op": "quasi_inverse",
           "ring": {"kind": "dual", "base": {"kind": "rational"}},
           "n": 1, "x": {"re": 1, "eps": 1}, "y": {"re": 1, "eps": 0}}
    resp = cli.compute(req)
    assert resp["result"] == {"re": "1/2", "eps": "1/4"}


def test_convention_round_trip():
    """Under the loos flag, (x, w) computes the ad-convention value at
    (x, -w); 50 scalar trials through the dispatch layer."""
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
        loos = cli.compute(dict(req), convention="loos")
        req["y"] = scalar_to_json(RATIONAL, -w[0, 0])
        ad = cli.compute(dict(req), convention="ad")
        assert loos["result"] == ad["result"]
        assert loos["convention"] == "loos"
