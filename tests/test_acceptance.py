"""Acceptance gate: every criterion at its stated trial count and
tolerance, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` (or just `pytest`;
the -s flag shows the per-criterion lines).
"""

from jordankit import suites
from jordankit.rings import RATIONAL, PrimeFieldRing

Q = RATIONAL
F5 = PrimeFieldRing(5)


def report(num, label, *results):
    ok = all(r.ok for r in results)
    detail = ", ".join(
        f"{r.name}:{r.passed}/{r.trials}" + (f" skip={r.skipped}" if r.skipped else "")
        for r in results)
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {label} [{detail}]")
    for r in results:
        assert r.ok, (num, label, r.name, r.first_counterexample)


def test_criterion_1_fundamental_formula():
    report(1, "fundamental formula, 500 pairs over Q and F5, exact",
           suites.check_fundamental_formula(Q, 2, 500, 101, flavor="full"),
           suites.check_fundamental_formula(F5, 2, 500, 102, flavor="full"))


def test_criterion_2_pair_identities():
    report(2, "outer symmetry and five-term identity, 300 tuples, exact",
           suites.check_pair_identities(Q, 2, 300, 103, flavor="full"))


def test_criterion_3_bergman_coherence():
    report(3, "Bergman ad-form = closed form (300); quasi-inverse = "
              "lower-unipotent chart action incl. failure agreement (300)",
           suites.check_bergman_coherence(Q, 2, 300, 104, flavor="full"),
           suites.check_quasi_vs_act(Q, 2, 300, 105))


def test_criterion_4_cocycle():
    report(4, "denominator cocycle law on 200 two-word products, exact",
           suites.check_cocycle(Q, 2, 200, 106))


def test_criterion_5_derivative_laws():
    report(5, "derivative laws over Q, 200 trials each",
           suites.check_deriv_act(Q, 2, 200, 107),
           suites.check_deriv_jordan_inverse(Q, 2, 200, 108),
           suites.check_deriv_alg_inverse(Q, 2, 200, 109))


def test_criterion_6_symmetric_space_axioms():
    results = []
    for name in ("jordan_units", "projective", "group"):
        results.append(suites.check_m_axioms(name, Q, 2, 200, 110))
        results.append(suites.check_m4_dual(name, Q, 2, 200, 111))
        results.append(suites.check_fiber_law(name, Q, 2, 100, 112))
    report(6, "(M1)-(M3) exact on 200 triples, (M4) and the fiber law by "
              "dual numbers, all three contexts", *results)


def test_criterion_7_lts_coherence():
    results = [suites.check_lts_numeric(name, Q, 2, 100, 113)
               for name in ("jordan_units", "projective", "group")]
    report(7, "numeric double-bracket Lts (nested duals) = closed forms, "
              "100 trials each, exact", *results)


def test_criterion_8_exp_tanh():
    report(8, "exp = truncated cosh^-1 sinh: tanh oracle at 1e-12 (n=1), "
              "doubling law at 1e-10 (Sym_2)",
           suites.check_exp_tanh_scalar(100, 114, order=24, tol=1e-12),
           suites.check_exp_tanh_doubling(50, 115, order=24, tol=1e-10))


def test_criterion_9_projective_identities():
    report(9, "Cayley/J identities exact; chart-action agreement (300); "
              "invertible chart points = non-isotropic set over F5",
           suites.check_cayley_identities(Q, 2),
           suites.check_act_chart_agreement(Q, 2, 300, 116),
           suites.check_gamma_units_f5())


def test_criterion_10_involutions():
    report(10, "Phi_j anti-automorphisms of order 2 (200); complement "
               "independence (100 x 5); chart characterizations (100); "
               "Cayley transport (50)",
           suites.check_phi_antiautomorphism(Q, 2, 200, 117),
           suites.check_phi_order_two(Q, 2, 200, 118),
           suites.check_phi_complement_independence(Q, 2, 100, 119,
                                                    complements=5),
           suites.check_phi_chart(Q, 2, 100, 120),
           suites.check_phi_equivariance(Q, 2, 100, 121),
           suites.check_cayley_transport(Q, 50, 122))


def test_criterion_11_unitary_group_space():
    report(11, "unitary closure of m(x,y) = x y^-1 x (100) and Cayley-chart "
               "agreement with the projective multiplication (50), exact",
           suites.check_unitary_closure(Q, 100, 123),
           suites.check_unitary_cayley_agreement(Q, 50, 124))
