"""The three workloads: fixed cyclic plans whose inputs come from the seed.

Call i of a workload is entry i mod len(cycle) of its cycle, with inputs
drawn from a substream keyed by (seed, i). A suite call is one
`suites.check_*` call of a fixed number of trials, each trial an
operation; a compute call is one operation: a JSON request decoded,
dispatched through `cli.compute` and encoded as strict JSON.
See README.md for why each workload exists and what it should move.
"""

from __future__ import annotations

import json

from jordankit import cli, suites
from jordankit.errors import JordankitError
from jordankit.rings import RATIONAL, PrimeFieldRing

import compute_requests

F5 = PrimeFieldRing(5)


def _verify_cycle():
    """(check, pre, ring, n, kw, trials) per call. Trials per call are the
    acceptance gate's trials for the same call (tests/test_acceptance.py)
    divided by 100, so the mix and the per-call set-up are amortized as
    in the gate; the calls the gate does not make (F_5 beyond the
    fundamental formula, the hermitian flavor, n = 3) get one trial."""
    q, f5 = RATIONAL, F5
    return (
        ("check_fundamental_formula", (), q, 2, {"flavor": "full"}, 5),
        ("check_fundamental_formula", (), f5, 2, {"flavor": "full"}, 5),
        ("check_bergman_coherence", (), q, 2, {}, 3),
        ("check_quasi_vs_act", (), q, 2, {}, 3),
        ("check_cocycle", (), q, 2, {}, 2),
        ("check_m_axioms", ("jordan_units",), q, 2, {}, 2),
        ("check_m_axioms", ("projective",), q, 2, {}, 2),
        ("check_m_axioms", ("group",), q, 2, {}, 2),
        ("check_phi_equivariance", (), q, 2, {}, 1),
        ("check_fundamental_formula", (), q, 2, {"flavor": "hermitian"}, 1),
        ("check_fundamental_formula", (), f5, 2, {"flavor": "hermitian"}, 1),
        ("check_bergman_coherence", (), f5, 2, {}, 1),
        ("check_quasi_vs_act", (), f5, 2, {}, 1),
        ("check_cocycle", (), f5, 2, {}, 1),
        ("check_m_axioms", ("jordan_units",), f5, 2, {}, 1),
        ("check_m_axioms", ("projective",), f5, 2, {}, 1),
        ("check_m_axioms", ("group",), f5, 2, {}, 1),
        ("check_phi_equivariance", (), f5, 2, {}, 1),
        ("check_bergman_coherence", (), q, 3, {}, 1),
    )


def _dual_cycle():
    q = RATIONAL
    return (
        ("check_lts_numeric", ("jordan_units",), q, 2, {}, 1),
        ("check_m4_dual", ("group",), q, 2, {}, 1),
        ("check_lts_numeric", ("projective",), q, 2, {}, 1),
        ("check_m4_dual", ("projective",), q, 2, {}, 1),
        ("check_lts_numeric", ("group",), q, 2, {}, 1),
        ("check_schwarz", (), q, 2, {}, 1),
        ("check_tilde_field", (), q, 2, {}, 1),
        ("check_m4_dual", ("jordan_units",), q, 2, {}, 1),
        ("check_deriv_act", (), q, 2, {}, 1),
        ("check_deriv_jordan_inverse", (), q, 2, {}, 1),
    )


class SuiteWorkload:
    """Closed loop over `suites.check_*` calls. Every trial is an
    operation: a trial that reports `failed` or `skipped`, and every trial
    of a check that raises, is a failed operation. No trial of these plans
    skipped in thousands of draws on a correct program (most checks
    resample until their precondition holds), so a skip means a
    precondition broke."""

    def __init__(self, name, cycle, trace_cycles):
        self.name = name
        self.cycle = cycle
        self.trace_cycles = trace_cycles

    def build(self, seed):
        self.seed = seed

    def prepare(self, start, stop):
        pass

    def trials(self, i):
        return self.cycle[i % len(self.cycle)][-1]

    def run(self, i):
        check, pre, ring, n, kw, trials = self.cycle[i % len(self.cycle)]
        try:
            return getattr(suites, check)(*pre, ring, n, trials,
                                          self.seed * 100_000 + i, **kw)
        except Exception as e:  # noqa: BLE001 - any raise is a failed op
            return f"raised {type(e).__name__}: {e}"

    def tally(self, start, records):
        """(trials, failed, skipped) per call of calls start, start + 1,
        ... whose results are `records`."""
        out = []
        for i, r in enumerate(records, start):
            if isinstance(r, str):
                out.append((self.trials(i), self.trials(i), 0))
            else:
                out.append((r.trials, r.failed + r.skipped, r.skipped))
        return out

    @staticmethod
    def canonical(record):
        if isinstance(record, str):
            return record
        return json.dumps(record.to_json(), sort_keys=True)


class ComputeWorkload:
    """Closed loop over seeded compute requests, one request per
    operation index. Each request builds its contexts cold; responses are
    checked against the request's oracle between cycles."""

    name = "compute-requests"
    cycle = compute_requests.CYCLE
    trace_cycles = 3
    built_cycles = 12

    def build(self, seed):
        self.seed = seed
        self.requests = {}
        self.prepare(0, self.built_cycles * len(self.cycle))

    def prepare(self, start, stop):
        """Make requests start .. stop - 1 exist and drop the earlier
        ones, so memory does not grow with the operations run. The timed
        loop calls this between cycles, outside the per-call timer."""
        for i in [i for i in self.requests if i < start]:
            del self.requests[i]
        have = max(self.requests, default=start - 1) + 1
        for i, req in enumerate(
                compute_requests.build(self.seed, have, stop), have):
            self.requests[i] = req

    def trials(self, i):
        return 1

    def run(self, i):
        try:
            req = decode(self.requests[i].text)
            try:
                resp = cli.compute(req)
            except JordankitError as e:
                resp = {"error": type(e).__name__, "detail": str(e)}
            except (ValueError, KeyError, TypeError) as e:
                resp = {"error": "MalformedRequest", "detail": str(e)}
            return encode(resp)
        except Exception as e:  # noqa: BLE001 - any raise is a failed op
            return f"raised {type(e).__name__}: {e}"

    def tally(self, start, records):
        """(1, failed, 0) per request start, start + 1, ... whose
        responses are `records`."""
        return [(1, 0 if compute_requests.check_response(
                    self.requests[i], text) else 1, 0)
                for i, text in enumerate(records, start)]

    @staticmethod
    def canonical(record):
        return record


def decode(text):
    """The request side of the wire format (traced as serialize.decode)."""
    return json.loads(text)


def encode(resp):
    """The response side: strict JSON, as `jordankit compute` prints it
    (traced as serialize.encode)."""
    return json.dumps(resp, sort_keys=True, allow_nan=False)


WORKLOADS = {
    "verify-exact": lambda: SuiteWorkload("verify-exact", _verify_cycle(), 6),
    "dual-tower": lambda: SuiteWorkload("dual-tower", _dual_cycle(), 3),
    "compute-requests": ComputeWorkload,
}
