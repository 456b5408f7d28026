"""Span tracing around the public functions of each jordankit layer.

`Tracer.install()` replaces every binding of each traced function -- the
defining module's attribute, every `from .x import f` copy in the other
jordankit modules, and class-level aliases such as `mul_chart = mul` --
with a wrapper that records a span. A span's self time is its duration
minus the time covered by the spans it caused. Spans are aggregated in
memory by key: calls, self seconds, and for the kernels the scalar
multiply-add count computed from the argument shapes.

Nothing under `src/` changes; `uninstall()` restores the originals.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

RING_LABELS = ("q", "fp", "f64", "dual1", "dual2", "dual3")
_KIND_LABEL = {"rational": "q", "prime_field": "fp", "float64": "f64"}
SUITE_CTXS = ("jordan_units", "projective", "group")
# randgen filters: draws made per attempt (immediate randgen calls)
FILTERS = {"rand_filtered": 1, "rand_invertible": 1, "rand_unit": 1,
           "rand_quasi_invertible": 2}


class CoverageError(Exception):
    """A traced function is gone, or an expected layer did no work."""


def ring_label(ring):
    """q / fp / f64, or dual<depth> for an iterated dual (depth >= 3
    reports as dual3)."""
    if ring.kind == "dual":
        return f"dual{min(ring.depth, 3)}"
    return _KIND_LABEL[ring.kind]


def _matmul_ops(a, b, ring):
    return len(a) * len(b) * (len(b[0]) if b else 0)


def _matvec_ops(a, v, ring):
    return len(a) * len(v)


def _rank_ops(a, ring):
    if not a:
        return 0
    n, m = len(a), len(a[0])
    return n * m * min(n, m)


class Tracer:
    def __init__(self):
        self.stack = []                 # frames: [child seconds, key]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.scalar_ops = Counter()
        self.singular = 0
        self.trials = 0
        self.skipped = 0
        self.filter_accepts = 0
        self.filter_attempts = 0.0
        self._filter_draws = Counter()
        self._filter_keys = {f"randgen.{f}" for f in FILTERS}
        self._saved = []

    # -- span wrappers --

    def _wrap(self, fn, key_of, after=None, on_enter=None):
        stack, calls, selfs = self.stack, self.calls, self.self_s
        clock = time.perf_counter

        def span(*args, **kw):
            key = key_of(args)
            if on_enter is not None:
                on_enter(key)
            frame = [0.0, key]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kw)
            finally:
                dur = clock() - t0
                stack.pop()
                calls[key] += 1
                selfs[key] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(key, args, out)
            return out

        span.__wrapped__ = fn
        return span

    def _kernel(self, name, ops=None):
        def key_of(args):
            return f"kernels.{name}.{ring_label(args[-1])}"

        def after(key, args, out):
            if ops is not None:
                self.scalar_ops[key] += ops(*args)
            if name == "gauss_solve" and out is None:
                self.singular += 1

        return key_of, after

    def _suite_after(self, key, args, res):
        self.trials += res.trials
        self.skipped += res.skipped

    def _randgen_enter(self, key):
        if len(self.stack) and self.stack[-1][1] in self._filter_keys:
            self._filter_draws[self.stack[-1][1]] += 1

    def _randgen_after(self, key, args, out):
        if key in self._filter_keys and out is not None:
            self.filter_accepts += 1

    # -- installation --

    def targets(self):
        """(owner, attribute, key function, after hook, enter hook)."""
        from jordankit import (_kernels, algebra, calculus, cli, graded,
                               jordan, projline, randgen, rings, serialize,
                               suites, symspace)

        import workloads

        def const(key):
            return lambda args: key

        out = []
        for name, ops in (("matmul", _matmul_ops), ("matvec", _matvec_ops),
                          ("gauss_solve", None), ("gauss_rank", _rank_ops)):
            key_of, after = self._kernel(name, ops)
            out.append((_kernels, name, key_of, after, None))
        out.append((_kernels, "pivot_columns",
                    const("kernels.pivot_columns"), None, None))
        for owner, attr, key in (
                (algebra.CoordinateBasis, "materialize", "algebra.materialize"),
                (algebra.CoordinateBasis, "__init__", "algebra.basis_build"),
                (algebra.CoordinateBasis, "coords", "algebra.coords"),
                (algebra.Matrix, "embed", "algebra.embed"),
                (algebra.Matrix, "rank", "algebra.rank"),
                (algebra.Matrix, "solve", "algebra.solve"),
                (algebra.Matrix, "inverse", "algebra.inverse"),
                (jordan, "quasi_inverse", "jordan.quasi_inverse"),
                (jordan, "bergman_operator", "jordan.bergman_operator"),
                (jordan, "rep_operators", "jordan.rep_operators"),
                (jordan, "jordan_inverse", "jordan.jordan_inverse"),
                (jordan.JordanContext, "at_ring", "jordan.at_ring"),
                (graded, "denominators", "graded.denominators"),
                (graded, "act", "graded.act"),
                (projline, "mu_dilation", "projline.mu_dilation"),
                (projline, "transversal", "projline.transversal"),
                (symspace, "tilde_field", "symspace.tilde_field"),
                (symspace, "exp_tanh", "symspace.exp_tanh"),
                (calculus, "dual_derivative", "calculus.dual_derivative"),
                (cli, "compute", "cli.compute"),
                (workloads, "decode", "serialize.decode"),
                (workloads, "encode", "serialize.encode")):
            out.append((owner, attr, const(key), None, None))
        for ctx, cls in zip(SUITE_CTXS, (symspace.JordanUnitsSpace,
                                         symspace.ProjectiveSpace,
                                         symspace.GroupSpace)):
            out.append((cls, "mul", const(f"symspace.mul.{ctx}"), None, None))
            out.append((cls, "at_ring", const(f"symspace.at_ring.{ctx}"),
                        None, None))
        for name in _public(suites, "check_"):
            out.append((suites, name, const("suites.check"),
                        self._suite_after, None))
        for name in _public(randgen, "rand_"):
            out.append((randgen, name, const(f"randgen.{name}"),
                        self._randgen_after, self._randgen_enter))
        for mod in (serialize, rings):
            for name in _public(mod, ""):
                if name.endswith("_from_json"):
                    out.append((mod, name, const("serialize.decode"),
                                None, None))
                elif name.endswith("_to_json"):
                    out.append((mod, name, const("serialize.encode"),
                                None, None))
        return out

    def install(self):
        mods = [m for name, m in sys.modules.items()
                if name == "jordankit" or name.startswith("jordankit.")]
        for owner, attr, key_of, after, on_enter in self.targets():
            original = getattr(owner, attr, None)
            if original is None:
                raise CoverageError(
                    f"traced function {owner.__name__}.{attr} is gone")
            wrapper = self._wrap(original, key_of, after, on_enter)
            if isinstance(owner, type):
                homes = [owner]
            else:
                homes = mods if owner in mods else mods + [owner]
            for home in homes:
                for name, val in list(vars(home).items()):
                    if val is original:
                        self._saved.append((home, name, original))
                        setattr(home, name, wrapper)

    def uninstall(self):
        for home, name, original in reversed(self._saved):
            setattr(home, name, original)
        self._saved.clear()
        for key, draws in self._filter_draws.items():
            self.filter_attempts += draws / FILTERS[key.split(".", 1)[1]]
        self._filter_draws.clear()


def _public(mod, prefix):
    """Module-level functions defined in `mod` whose names start with
    `prefix`."""
    return sorted(name for name, val in vars(mod).items()
                  if name.startswith(prefix) and not name.startswith("_")
                  and callable(val) and not isinstance(val, type)
                  and getattr(val, "__module__", None) == mod.__name__)


# -- per-layer metrics -------------------------------------------------------

SPAN_FAMILIES = (
    ("algebra.materialize", "algebra.basis_build", "algebra.coords",
     "algebra.embed", "algebra.rank", "algebra.solve", "algebra.inverse",
     "jordan.quasi_inverse", "jordan.bergman_operator",
     "jordan.rep_operators", "jordan.jordan_inverse", "jordan.at_ring",
     "graded.denominators", "graded.act", "projline.mu_dilation",
     "projline.transversal")
    + tuple(f"symspace.mul.{c}" for c in SUITE_CTXS)
    + tuple(f"symspace.at_ring.{c}" for c in SUITE_CTXS)
    + ("symspace.tilde_field", "symspace.exp_tanh",
       "calculus.dual_derivative"))


def per_layer_names():
    """Every per-layer metric, in report order, with unit and direction."""
    out = []

    def add(name, unit, better="lower"):
        out.append((name, unit, better))

    for k in ("matmul", "matvec"):
        for r in RING_LABELS:
            add(f"kernels.{k}.{r}.calls", "count")
            add(f"kernels.{k}.{r}.self_s", "s")
            add(f"kernels.{k}.{r}.scalar_ops", "count")
    for r in RING_LABELS:
        add(f"kernels.gauss_solve.{r}.calls", "count")
        add(f"kernels.gauss_solve.{r}.self_s", "s")
    for r in ("q", "fp", "f64"):
        add(f"kernels.gauss_rank.{r}.calls", "count")
        add(f"kernels.gauss_rank.{r}.self_s", "s")
        add(f"kernels.gauss_rank.{r}.scalar_ops", "count")
    add("kernels.pivot_columns.calls", "count")
    add("kernels.pivot_columns.self_s", "s")
    add("kernels.gauss_solve.singular", "count")
    for r in RING_LABELS:
        add(f"rings.{r}.ns_per_op", "ns")
    for fam in SPAN_FAMILIES:
        add(f"{fam}.calls", "count")
        add(f"{fam}.self_s", "s")
    add("suites.skip_ratio", "ratio")
    add("suites.self_s", "s")
    add("randgen.self_s", "s")
    add("randgen.filter_accept_ratio", "ratio", "higher")
    add("serialize.decode_s", "s")
    add("serialize.encode_s", "s")
    add("cli.compute_self_s", "s")
    add("cli.import_s", "s")
    add("trace.overhead_ratio", "ratio")
    add("fail_ratio", "ratio")
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_values(tr, import_s, overhead_ratio, fail_ratio):
    """name -> value for every metric of `per_layer_names()`."""
    vals = {}
    for key, n in tr.calls.items():
        vals[f"{key}.calls"] = n
        vals[f"{key}.self_s"] = tr.self_s[key]
    for key, n in tr.scalar_ops.items():
        vals[f"{key}.scalar_ops"] = n
    vals["kernels.gauss_solve.singular"] = tr.singular
    for r in RING_LABELS:
        ops = sum(tr.scalar_ops[f"kernels.{k}.{r}"]
                  for k in ("matmul", "matvec", "gauss_rank"))
        busy = sum(tr.self_s.get(f"kernels.{k}.{r}", 0.0)
                   for k in ("matmul", "matvec", "gauss_rank"))
        vals[f"rings.{r}.ns_per_op"] = _ratio(busy * 1e9, ops)
    vals["suites.skip_ratio"] = _ratio(tr.skipped, tr.trials)
    vals["suites.self_s"] = tr.self_s.get("suites.check", 0.0)
    vals["randgen.self_s"] = sum(s for k, s in tr.self_s.items()
                                 if k.startswith("randgen."))
    vals["randgen.filter_accept_ratio"] = _ratio(tr.filter_accepts,
                                                 tr.filter_attempts)
    vals["serialize.decode_s"] = tr.self_s.get("serialize.decode", 0.0)
    vals["serialize.encode_s"] = tr.self_s.get("serialize.encode", 0.0)
    vals["cli.compute_self_s"] = tr.self_s.get("cli.compute", 0.0)
    vals["cli.import_s"] = import_s
    vals["trace.overhead_ratio"] = overhead_ratio
    vals["fail_ratio"] = fail_ratio
    return {name: vals.get(name, 0) for name, _, _ in per_layer_names()}


# Families the interaction table expects to do work on each workload; a
# traced run in which one of them records zero calls fails.
EXPECTED_CALLS = {
    "verify-exact": (
        [f"kernels.{k}.{r}" for k in ("matmul", "matvec", "gauss_solve",
                                      "gauss_rank") for r in ("q", "fp")]
        + ["kernels.pivot_columns", "algebra.materialize", "algebra.coords",
           "jordan.quasi_inverse", "jordan.bergman_operator",
           "jordan.rep_operators", "jordan.jordan_inverse",
           "graded.denominators", "graded.act", "projline.mu_dilation",
           "projline.transversal", "suites.check"]
        + [f"symspace.mul.{c}" for c in SUITE_CTXS]),
    "dual-tower": (
        [f"kernels.{k}.{r}" for k in ("matmul", "matvec", "gauss_solve")
         for r in ("dual1", "dual2", "dual3")]
        + ["algebra.materialize", "algebra.coords", "algebra.embed",
           "jordan.at_ring", "symspace.tilde_field",
           "calculus.dual_derivative", "suites.check"]
        + [f"symspace.at_ring.{c}" for c in SUITE_CTXS]
        + [f"symspace.mul.{c}" for c in SUITE_CTXS]),
    "compute-requests": (
        [f"kernels.{k}.{r}" for k in ("matmul", "matvec", "gauss_solve",
                                      "gauss_rank") for r in ("q", "fp", "f64")]
        + ["kernels.matmul.dual1", "serialize.decode", "serialize.encode",
           "cli.compute", "algebra.basis_build", "algebra.materialize",
           "jordan.quasi_inverse", "jordan.bergman_operator",
           "graded.act", "projline.mu_dilation", "symspace.exp_tanh"]
        + [f"symspace.mul.{c}" for c in SUITE_CTXS]),
}


def missing_families(tr, workload):
    """Expected families with zero recorded calls on `workload`."""
    missing = [k for k in EXPECTED_CALLS[workload] if not tr.calls.get(k)]
    if workload == "verify-exact" and not any(
            k.startswith("randgen.") for k in tr.calls):
        missing.append("randgen")
    return missing
