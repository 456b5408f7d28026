"""Command-line surface: seeded verification suites and one-shot
computations with JSON input and output.

Exit codes: 0 full pass / success, 1 suite failure or domain error,
2 usage error (unknown suite, unsupported ring, bad dimension, trial
count, tolerance or order, an option the suite does not read, malformed
request, an `--in` file that cannot be read as UTF-8 text, an `--out`
file that cannot be opened for writing).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import calculus, suites
from .errors import JordankitError, NonFiniteResult, _echo
from .graded import act
from .jordan import bergman_operator, quasi_inverse
from .projline import (act_frac, chart_coords, classify_point,
                       mu_dilation, phi_involution)
from .rings import ring_from_json, scalar_from_json, scalar_to_json
from .serialize import (group_from_json, int_from_json,
                        involution_from_json, jordan_context_from_json,
                        matrix_from_json, matrix_to_json, n_from_json,
                        point_from_json, point_to_json,
                        symspace_context_from_json)
from .symspace import exp_tanh, lts_bracket, sym_mul


def _emit(obj, out):
    """Write `obj` as strict JSON; NaN or infinity raises NonFiniteResult."""
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise NonFiniteResult(str(e)) from None
    out.write(text + "\n")


def _tolerance_error(tol):
    """Why `tol` cannot be a tolerance, or None if it can: it must be a
    finite, non-negative number."""
    if (isinstance(tol, bool) or not isinstance(tol, (int, float))
            or (isinstance(tol, float) and not math.isfinite(tol))
            or tol < 0):
        return ("tolerance must be a finite non-negative number, "
                f"not {_echo(tol)}")
    return None


def cmd_list_suites(args, out):
    names = sorted(suites.SUITES)
    _emit({"suites": names}, out)
    return 0


def cmd_verify(args, out):
    try:
        ring = ring_from_json(args.ring)
    except ValueError as e:
        _emit({"error": "UnknownRing", "detail": str(e)}, out)
        return 2
    if args.suite not in suites.SUITES:
        _emit({"error": "UnknownSuite", "suite": args.suite}, out)
        return 2
    if args.trials < 1:
        _emit({"error": "BadTrialCount", "trials": args.trials}, out)
        return 2
    if args.n is not None and args.n < 1:
        _emit({"error": "BadDimension", "n": args.n}, out)
        return 2
    bad_tol = args.tol is not None and _tolerance_error(args.tol)
    if bad_tol:
        _emit({"error": "BadTolerance", "detail": bad_tol}, out)
        return 2
    if args.order is not None and args.order < 1:
        _emit({"error": "BadOrder", "order": args.order}, out)
        return 2
    # An option the suite does not read would pass without effect.
    given = {o: getattr(args, o) for o in ("n", "tol", "order")
             if getattr(args, o) is not None}
    unused = sorted(set(given) - suites.suite_options(args.suite))
    if unused:
        _emit({"error": "UnusedOption", "suite": args.suite,
               "options": ["--" + o for o in unused]}, out)
        return 2
    cfg = suites.SuiteConfig(suite=args.suite, ring=ring, trials=args.trials,
                             seed=args.seed, **given)
    try:
        report = suites.run_suite(cfg)
    except ValueError as e:
        _emit({"error": "UnsupportedRing", "detail": str(e)}, out)
        return 2
    try:
        _emit(report.to_json(), out)
    except NonFiniteResult as e:
        _emit({"error": "NonFiniteResult", "detail": str(e)}, out)
        return 1
    status = "PASS" if report.ok else "FAIL"
    print(f"[{status}] suite {args.suite}: {report.passed} passed, "
          f"{report.failed} failed, {report.skipped} skipped "
          f"({report.wall_time:.2f}s)", file=sys.stderr)
    return 0 if report.ok else 1


def _jordan_args(req, convention):
    """Context, x and y of a pair request; "loos" sends its w as y = -w."""
    ctx = jordan_context_from_json(req)
    x = matrix_from_json(ctx.ring, req["x"], ctx.n)
    y = matrix_from_json(ctx.ring, req["y"], ctx.n)
    return ctx, x, (y if convention == "ad" else -y)


def _space_n(space):
    """The matrix size of a symmetric space's elements and tangents."""
    return getattr(space, "jctx", space).n


def _element_out(m):
    if m.shape == (1, 1):
        return scalar_to_json(m.ring, m[0, 0])
    return matrix_to_json(m)


def compute(req):
    """Dispatch one compute request; returns the response dict."""
    if not isinstance(req, dict):
        raise ValueError("request must be a JSON object")
    op = req.get("op")
    convention = req.get("convention", "ad")
    if convention not in ("ad", "loos"):
        raise ValueError(f"unknown convention {_echo(convention)}")

    if op == "quasi_inverse":
        ctx, x, y = _jordan_args(req, convention)
        return {"op": op, "convention": convention,
                "result": _element_out(quasi_inverse(ctx, x, y))}

    if op == "bergman":
        ctx, x, y = _jordan_args(req, convention)
        return {"op": op, "convention": convention,
                "result": matrix_to_json(bergman_operator(ctx, x, y).mat)}

    if op == "act":
        ring = ring_from_json(req.get("ring", "rational"))
        n = n_from_json(req)
        g = group_from_json(ring, n, req["g"])
        x = matrix_from_json(ring, req["x"], n)
        return {"op": op, "result": _element_out(act(g, x))}

    if op == "act_frac":
        e = point_from_json(req["E"])
        g = group_from_json(e.ring, e.n, req["g"])
        return {"op": op, "result": point_to_json(act_frac(g, e))}

    if op == "sym_mul":
        space = symspace_context_from_json(req["context"])
        if hasattr(space, "polarity"):
            x = point_from_json(req["x"], space.ring, space.jctx.n)
            y = point_from_json(req["y"], space.ring, space.jctx.n)
            return {"op": op, "result": point_to_json(sym_mul(space, x, y))}
        n = _space_n(space)
        x = matrix_from_json(space.ring, req["x"], n)
        y = matrix_from_json(space.ring, req["y"], n)
        return {"op": op, "result": matrix_to_json(sym_mul(space, x, y))}

    if op == "lts":
        space = symspace_context_from_json(req["context"])
        n = _space_n(space)
        u, v, w = (matrix_from_json(space.ring, req[k], n) for k in "uvw")
        return {"op": op, "result": matrix_to_json(lts_bracket(space, u, v, w))}

    if op == "exp":
        if "context" in req:
            space = symspace_context_from_json(req["context"])
        else:
            ring = ring_from_json(req.get("ring", "float64"))
            n = n_from_json(req)
            space = suites.proj_space_swap(ring, n, flavor="hermitian")
        v = matrix_from_json(space.ring, req["v"], _space_n(space))
        e = exp_tanh(space, v, int_from_json(req, "order", 24))
        return {"op": op, "result": point_to_json(e),
                "chart": matrix_to_json(chart_coords(e))}

    if op == "cayley":
        ring = ring_from_json(req.get("ring", "rational"))
        n = n_from_json(req)
        res = suites.check_cayley_identities(ring, n)
        return {"op": "cayley", "holds": res.ok}

    if op == "phi":
        e = point_from_json(req["E"])
        iota = involution_from_json(e.ring, req.get("involution"), e.n)
        out = phi_involution(int_from_json(req, "j", 1), iota, e)
        return {"op": op, "result": point_to_json(out)}

    if op == "classify":
        e = point_from_json(req["E"])
        iota = involution_from_json(e.ring, req.get("involution"), e.n)
        return {"op": op, "result": classify_point(iota, e)}

    if op == "mu":
        x = point_from_json(req["x"])
        a = point_from_json(req["a"], x.ring, x.n)
        y = point_from_json(req["y"], x.ring, x.n)
        r = scalar_from_json(x.ring, req["r"])
        return {"op": op, "result": point_to_json(mu_dilation(r, x, a, y))}

    if op == "derivative":
        return _compute_derivative(req)

    raise ValueError(f"unknown op {_echo(op)}")


def _compute_derivative(req):
    name = req["map"]
    samples = int_from_json(req, "samples", 100, least=1)
    tol = req.get("tol", 1e-9)
    bad_tol = _tolerance_error(tol)
    if bad_tol:
        raise ValueError(bad_tol)
    ctx = jordan_context_from_json(req.get("context", req))
    laws = calculus.DERIVATIVE_LAWS
    if not isinstance(name, str) or name not in laws:
        raise ValueError(f"unknown derivative map {_echo(name)}")
    g = group_from_json(ctx.ring, ctx.n, req["g"]) if name == "act" else None
    law = laws[name](ctx, g)
    seed = int_from_json(req, "seed", 1)
    res = suites.law_check(law.handle.name, law, samples, seed, tol)
    return {"op": "derivative", "map": name,
            "report": dict(res.to_json(), ok=res.ok)}


def cmd_compute(args, out):
    try:
        if args.infile:
            with open(args.infile, "r", encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = sys.stdin.read()
    except (OSError, UnicodeDecodeError) as e:
        _emit({"error": "UnreadableInput", "detail": str(e)}, out)
        return 2
    try:
        req = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        # RecursionError: the request nests deeper than the decoder goes.
        _emit({"error": "MalformedRequest", "detail": str(e)}, out)
        return 2
    try:
        resp = compute(req)
        _emit(resp, out)
    except JordankitError as e:
        _emit({"error": type(e).__name__, "detail": str(e)}, out)
        return 1
    except (ValueError, KeyError, TypeError) as e:
        _emit({"error": "MalformedRequest", "detail": str(e)}, out)
        return 2
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="jordankit",
        description="Verified computations on Jordan pairs, projective "
                    "lines over matrix algebras, and their symmetric spaces.")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run a seeded property suite")
    v.add_argument("--suite", required=True)
    v.add_argument("--ring", default="rational",
                   help="rational | float64 | fp:P")
    v.add_argument("--n", type=int,
                   help="matrix size (default 2); not read by exp-tanh "
                        "or unitary")
    v.add_argument("--trials", type=int, default=50)
    v.add_argument("--seed", type=int, default=1)
    v.add_argument("--tol", type=float, help="exp-tanh only (default 1e-9)")
    v.add_argument("--order", type=int, help="exp-tanh only (default 24)")
    v.add_argument("--out", dest="outfile")

    c = sub.add_parser("compute", help="one-shot computation from JSON")
    c.add_argument("--in", dest="infile")
    c.add_argument("--out", dest="outfile")

    sub.add_parser("list-suites", help="list the available suites")
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    outfile = getattr(args, "outfile", None)
    out = sys.stdout
    if outfile:
        try:
            out = open(outfile, "w", encoding="utf-8")
        except OSError as e:
            _emit({"error": "UnwritableOutput", "detail": str(e)}, out)
            return 2
    try:
        if args.command == "verify":
            return cmd_verify(args, out)
        if args.command == "compute":
            return cmd_compute(args, out)
        return cmd_list_suites(args, out)
    finally:
        if outfile:
            out.close()


if __name__ == "__main__":
    sys.exit(main())
