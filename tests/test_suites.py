"""Suite registry: every suite runs green on every ring kind it declares,
and reports are reproducible."""

import json
from pathlib import Path

import pytest

from jordankit import suites
from jordankit.errors import NotQuasiInvertible
from jordankit.jordan import quasi_inverse
from jordankit.rings import FLOAT64, RATIONAL, PrimeFieldRing

RING_OF = {"rational": RATIONAL, "float64": FLOAT64,
           "prime_field": PrimeFieldRing(5)}
GOLDEN = Path(__file__).parent / "data" / "suite_reports_golden.json"
GOLDEN_N13 = Path(__file__).parent / "data" / "suite_reports_n1_n3_golden.json"


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_suite_runs_green(name):
    ring_kinds, _ = suites.SUITES[name]
    for kind in ring_kinds:
        cfg = suites.SuiteConfig(suite=name, ring=RING_OF[kind], n=2,
                                 trials=3, seed=5)
        rep = suites.run_suite(cfg)
        assert rep.ok, (name, kind, rep.first_counterexample())
        assert rep.to_json()["config"]["seed"] == 5


def test_suite_options_are_what_the_checks_receive():
    """exp-tanh reads tol and order, unitary fixes its own n and every
    other suite reads n. The exp-tanh scalar and doubling checks keep
    their own tolerances, tighter than the suite's."""
    want = {"exp-tanh": {"tol", "order"}, "unitary": set()}
    for name in suites.SUITES:
        assert suites.suite_options(name) == want.get(name, {"n"}), name
    reads = {c.fn: c.reads for c in suites.SUITES["exp-tanh"][1]}
    assert "tol" not in reads[suites.check_exp_tanh_scalar]
    assert "tol" not in reads[suites.check_exp_tanh_doubling]


def test_unsupported_ring_rejected():
    cfg = suites.SuiteConfig(suite="exp-tanh", ring=RATIONAL)
    with pytest.raises(ValueError):
        suites.run_suite(cfg)


def test_reports_identical_for_same_config():
    import json
    outs = []
    for _ in range(2):
        cfg = suites.SuiteConfig(suite="phi", ring=RATIONAL, n=2, trials=4,
                                 seed=9)
        rep = suites.run_suite(cfg).to_json()
        rep.pop("wall_time")
        outs.append(json.dumps(rep, sort_keys=True))
    assert outs[0] == outs[1]


def test_size_three_core_identities():
    r1 = suites.check_bergman_coherence(RATIONAL, 3, 10, 31, flavor="full")
    r2 = suites.check_quasi_vs_act(RATIONAL, 3, 10, 32)
    r3 = suites.check_fundamental_formula(RATIONAL, 3, 10, 33,
                                          flavor="hermitian")
    for r in (r1, r2, r3):
        assert r.ok, r.name


@pytest.mark.parametrize("flavor", ["full", "hermitian", "antihermitian"])
def test_quasi_closed_sees_a_wrong_value_and_a_missed_refusal(flavor,
                                                              monkeypatch):
    """check_quasi_closed passes, and fails once its closed side answers
    (1+yx)^-1 x, or answers x where it should refuse. At n = 3 every
    flavor holds x, y with (1+yx)^-1 x != x(1+yx)^-1; at n = 2 every
    flavor holds invertible x, whose draws y = w - x^-1 are refused when
    w is singular (the antihermitian part at n = 3 holds no invertible
    element)."""
    def left_side(ctx, x, y):
        quasi_inverse(ctx, x, y)
        return (ctx.unit() + y @ x).inverse() @ x

    def never_refuses(ctx, x, y):
        try:
            return quasi_inverse(ctx, x, y)
        except NotQuasiInvertible:
            return x

    for ring in (RATIONAL, PrimeFieldRing(5)):
        for wrong, n in ((left_side, 3), (never_refuses, 2)):
            assert suites.check_quasi_closed(ring, n, 8, 1, flavor=flavor).ok
            with monkeypatch.context() as m:
                m.setattr(suites, "quasi_inverse", wrong)
                res = suites.check_quasi_closed(ring, n, 8, 1, flavor=flavor)
            assert res.failed, (ring, wrong.__name__)


def test_check_whose_trials_all_skip_fails():
    assert not suites.run_check("x", 3, 0, lambda r, i: None).ok
    assert suites.run_check("x", 0, 0, lambda r, i: None).ok
    some = suites.run_check("x", 3, 0, lambda r, i: None if i else True)
    assert some.ok and some.skipped == 2
    rep = suites.SuiteReport("s", [some, suites.run_check(
        "y", 2, 0, lambda r, i: None)])
    assert rep.failed == 0 and not rep.ok


def test_resample_draws_again_from_the_same_stream():
    """A trial that answers RESAMPLE k times runs again on the same
    stream, so its next run sees the next draws; one that always answers
    RESAMPLE is skipped at the cap, and its check is not ok."""
    seen = []

    def trial(rng, i):
        seen.append(rng.random())
        return suites.RESAMPLE if len(seen) % 4 else True

    res = suites.run_check("x", 2, 7, trial)
    assert (res.passed, res.skipped, res.failed) == (2, 0, 0)
    stream = suites.randgen.trial_rng(7, 0)
    assert seen[:4] == [stream.random() for _ in range(4)]
    stream = suites.randgen.trial_rng(7, 1)
    assert seen[4:] == [stream.random() for _ in range(4)]

    calls = []
    res = suites.run_check(
        "y", 3, 0, lambda r, i: calls.append(i) or suites.RESAMPLE)
    assert res.skipped == 3 and not res.ok
    assert calls == [i for i in range(3) for _ in range(suites.RESAMPLE_CAP)]


def golden_reports():
    """The report of every suite over each ring kind it supports (F_5 for
    the prime fields), at seeds 1 and 2 and 3 and 8 trials, without
    wall_time, in the order of the golden file."""
    out = []
    for name in sorted(suites.SUITES):
        for kind in suites.SUITES[name][0]:
            for seed in (1, 2):
                for trials in (3, 8):
                    cfg = suites.SuiteConfig(suite=name, ring=RING_OF[kind],
                                             trials=trials, seed=seed)
                    rep = suites.run_suite(cfg).to_json()
                    rep.pop("wall_time")
                    out.append(rep)
    return out


def test_suite_reports_are_unchanged():
    """Every suite report stays byte for byte the recorded one, apart from
    wall_time. The data file is the JSON list of `golden_reports`, one
    report a line, written before the suites became one table."""
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = golden_reports()
    assert len(got) == len(want) == 92
    for g, w in zip(got, want):
        assert (json.dumps(g, sort_keys=True)
                == json.dumps(w, sort_keys=True)), (w["suite"], w["config"])


def test_ad_multiplicative_runs_at_most_100_trials():
    cfg = suites.SuiteConfig(suite="thm46", ring=RATIONAL, trials=101)
    checks = {c.name: c for c in suites.run_suite(cfg).checks}
    assert checks["ad-multiplicative"].trials == 100
    assert checks["quasi-vs-act"].trials == 101


def test_suite_reports_at_n_1_and_3_are_unchanged():
    """The report of every suite that reads n, over each ring kind it
    supports, at n = 1 and n = 3 (seed 1, 3 trials, without wall_time)
    stays the one recorded before the checks were declared by their
    trials."""
    want = json.loads(GOLDEN_N13.read_text(encoding="utf-8"))
    got = []
    for name in sorted(suites.SUITES):
        if "n" not in suites.suite_options(name):
            continue
        for kind in suites.SUITES[name][0]:
            for n in (1, 3):
                cfg = suites.SuiteConfig(suite=name, ring=RING_OF[kind], n=n,
                                         trials=3, seed=1)
                rep = suites.run_suite(cfg)
                assert rep.ok, (name, kind, n)
                rep = rep.to_json()
                rep.pop("wall_time")
                got.append(rep)
    assert len(got) == len(want) == 42
    for g, w in zip(got, want):
        assert (json.dumps(g, sort_keys=True)
                == json.dumps(w, sort_keys=True)), (w["suite"], w["config"])
