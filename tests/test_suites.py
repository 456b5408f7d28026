"""Suite registry: every suite runs green on every ring kind it declares,
and reports are reproducible."""

import pytest

from jordankit import suites
from jordankit.rings import FLOAT64, RATIONAL, PrimeFieldRing

RING_OF = {"rational": RATIONAL, "float64": FLOAT64,
           "prime_field": PrimeFieldRing(5)}


@pytest.mark.parametrize("name", sorted(suites.SUITES))
def test_suite_runs_green(name):
    _, ring_kinds = suites.SUITES[name]
    for kind in ring_kinds:
        cfg = suites.SuiteConfig(suite=name, ring=RING_OF[kind], n=2,
                                 trials=3, seed=5)
        rep = suites.run_suite(cfg)
        assert rep.ok, (name, kind, rep.first_counterexample())
        assert rep.to_json()["config"]["seed"] == 5


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
    r1 = suites.check_bergman_coherence(RATIONAL, 3, 10, 31, "full")
    r2 = suites.check_quasi_vs_act(RATIONAL, 3, 10, 32)
    r3 = suites.check_fundamental_formula(RATIONAL, 3, 10, 33, "hermitian")
    for r in (r1, r2, r3):
        assert r.ok, r.name


def test_check_whose_trials_all_skip_fails():
    assert not suites.run_check("x", 3, 0, lambda r, i: None).ok
    assert suites.run_check("x", 0, 0, lambda r, i: None).ok
    some = suites.run_check("x", 3, 0, lambda r, i: None if i else True)
    assert some.ok and some.skipped == 2
    rep = suites.SuiteReport("s", [some, suites.run_check(
        "y", 2, 0, lambda r, i: None)])
    assert rep.failed == 0 and not rep.ok
