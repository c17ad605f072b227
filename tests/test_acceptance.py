"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here; nothing is deferred to later calibration.
Criterion 5 checks that no comass gap exists at intermediate phases: the
rotation (h, z) -> (h, e^{i phi} z) is a linear isometry pulling
Re(e^{-i theta} gamma0) back to Re(e^{-i(theta+phi)} gamma0), so the whole
phase family has comass one, the S^1-family of comass-one 3-forms that the
paper puts on every twistor space.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from test_pins import VERIFY_N2_SHA256, pinned_digest, verify_bytes

from caliber.calib import SearchParams, comass_2form_exact, comass_search
from caliber.exterior import AltForm, pullback, wedge
from caliber.model import build_hyperkahler_cone, build_twistor_model, default_link_frame
from caliber.planes import normal_form_theta, rotated_w_theta
from caliber.suites import run_suite

SEED = 20260808


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} - {detail}")


# -- criterion 1: exact identity suite ----------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_c1_identity_suite_exact(n):
    t0 = time.monotonic()
    report = run_suite("identities", n, seed=SEED)
    elapsed = time.monotonic() - t0
    failures = [c.check_id for c in report.checks if c.status != "pass"]
    _report("criterion 1", not failures and elapsed < 300.0,
            f"n={n}: {len(report.checks)} identities exact, {elapsed:.1f}s")
    assert failures == []
    assert elapsed < 300.0
    if n == 2:
        assert pinned_digest(verify_bytes(report)) == VERIFY_N2_SHA256["identities", SEED]


# -- criterion 2: cone calculus -----------------------------------------------


def test_c2_cone_calculus_reconstruction():
    report = run_suite("cones", 1, seed=SEED)
    failures = [c.check_id for c in report.checks if c.status != "pass"]
    wanted = {"cone_split_omega1", "cone_split_theta_I4", "cone_split_Phi1", "cone_split_Lambda",
              "cone_split_upsilon1", "potential_omega1", "potential_Phi1", "potential_Lambda",
              "potential_upsilon1"}
    have = {c.check_id for c in report.checks}
    _report("criterion 2", not failures and wanted <= have,
            f"{len(have)} exact reconstructions, failures: {failures}")
    assert wanted <= have
    assert failures == []


# -- criterion 3: comass-one anchors --------------------------------------------


def test_c3_comass_one_anchors():
    params = SearchParams(restarts=200, seed=SEED)
    hk1 = build_hyperkahler_cone(1)
    hk2 = build_hyperkahler_cone(2)
    anchors = {
        "omega1^2/2 (n=1)": (wedge(hk1.form("omega1"), hk1.form("omega1")) * Fraction(1, 2)),
        "Theta_I4 (n=2)": hk2.form("theta_I4"),
        "Theta_I6 (n=2)": hk2.form("theta_I6"),
        "Re Upsilon1 (n=1)": hk1.form("re_upsilon1"),
        "Phi2 (n=1)": hk1.form("Phi2"),
        "phi2 link (n=1)": default_link_frame(1).form("phi2"),
        "theta_I3 (n=1)": default_link_frame(1).form("theta_I3"),
        "theta_I3 (n=2)": default_link_frame(2).form("theta_I3"),
        "Re Gamma1 (n=1)": default_link_frame(1).form("re_gamma1"),
        "Re Gamma1 (n=2)": default_link_frame(2).form("re_gamma1"),
        "Re gamma0 (n=1)": build_twistor_model(1).form("re_gamma0"),
        "Re gamma0 (n=2)": build_twistor_model(2).form("re_gamma0"),
    }
    t0 = time.monotonic()
    bad = {}
    for label, form in anchors.items():
        value = comass_search(form.to_float(), params=params).value
        if not (1 - 1e-6 <= value <= 1 + 1e-6):
            bad[label] = value
    elapsed = time.monotonic() - t0
    _report("criterion 3", not bad and elapsed < 600.0,
            f"{len(anchors)} anchors at 200 restarts in {elapsed:.1f}s, out of band: {bad}")
    assert bad == {}
    assert elapsed < 600.0


# -- criterion 4: normal form ------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_c4_normal_form_recovery_and_equivalence(n):
    tm = build_twistor_model(n)
    grid = [round(0.1 * k, 10) for k in range(8)] + [math.pi / 4]
    rng = np.random.default_rng(SEED + n)
    worst = 0.0
    violations = 0
    for theta in grid:
        for _ in range(100):
            plane = rotated_w_theta(n, theta, rng)
            nf = normal_form_theta(plane, tm)
            worst = max(worst, abs(nf.theta - theta))
            conds = [
                nf.dim_cap_H == 2,
                nf.dim_cap_H + nf.dim_cap_V == 3,
                nf.ke_isotropic,
                abs(nf.theta - math.pi / 4) <= 1e-8,
            ]
            if len(set(conds)) != 1:
                violations += 1  # the four conditions must agree
            if (abs(theta - math.pi / 4) < 1e-12) != all(conds):
                violations += 1
    _report("criterion 4", worst <= 1e-8 and violations == 0,
            f"n={n}: 100 planes x {len(grid)} angles, worst error {worst:.2e}, violations {violations}")
    assert worst <= 1e-8
    assert violations == 0


# -- criterion 5: phase rigidity -----------------------------------------------------


def _phase_value(theta: float, restarts: int) -> float:
    tm = build_twistor_model(1)
    f = tm.form("re_gamma0").to_float() * math.cos(theta) + tm.form("im_gamma0").to_float() * math.sin(theta)
    return comass_search(f, params=SearchParams(restarts=restarts, seed=SEED)).value


def test_c5_phase_rigidity_anchor_phases():
    v0 = _phase_value(0.0, 400)
    vpi = _phase_value(math.pi, 400)
    ok = abs(v0 - 1.0) <= 1e-6 and abs(vpi - 1.0) <= 1e-6
    _report("criterion 5 (anchors)", ok, f"value(0)={v0:.9f}, value(pi)={vpi:.9f}")
    assert abs(v0 - 1.0) <= 1e-6
    assert abs(vpi - 1.0) <= 1e-6


def test_c5_phase_rigidity_gap_at_intermediate_phases():
    """No comass gap at intermediate phases: Re(e^{-i theta} gamma0) has comass one.

    The vertical rotation R_theta, the identity on H^n and a rotation by
    +theta of the C factor, is a linear isometry with
    R_theta^* Re(gamma0) = cos(theta) Re(gamma0) + sin(theta) Im(gamma0), so the
    whole phase family shares the comass one of Re(gamma0): the S^1-family of
    comass-one 3-forms of the paper.  The spec asked for a gap
    max <= 1 - 1e-3 here, which this identity rules out.  The test checks the
    identity with == at n = 1..3, on rotations with rational (cos, sin) given
    as Fraction matrices so that the pullback is exact, and the search value
    at n = 1.
    """
    thetas = (math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2)
    rotations = [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)),
                 (Fraction(0), Fraction(1)), (Fraction(-4, 5), Fraction(3, 5))]
    failed = []
    for n in (1, 2, 3):
        tm = build_twistor_model(n)
        re, im = tm.form("re_gamma0"), tm.form("im_gamma0")
        for c, s in rotations:
            rot = np.eye(tm.dim, dtype=object)
            rot[np.ix_(tm.v_indices, tm.v_indices)] = [[c, -s], [s, c]]
            if pullback(re, rot) != re * c + im * s:
                failed.append((n, c, s))
    values = {theta: _phase_value(theta, 400) for theta in thetas}
    worst_value = max(abs(v - 1.0) for v in values.values())
    ok = not failed and worst_value <= 1e-6
    identity = (f"pullback identity fails at (n, cos, sin) {failed}" if failed
                else "pullback identity exact at n = 1..3")
    _report("criterion 5 (no gap)", ok,
            f"{identity}; measured max values " + ", ".join(f"{t:.3f}: {v:.9f}" for t, v in values.items()))
    assert not failed, failed
    for theta, value in values.items():
        assert abs(value - 1.0) <= 1e-6, f"phase {theta}: measured {value}, expected comass one"


# -- criterion 6: proposition scans ----------------------------------------------------


def test_c6_proposition_scans():
    report = run_suite("propositions", 1, seed=SEED, samples=10000, restarts=10000)
    failures = [c.check_id for c in report.checks if c.status != "pass"]
    wanted = {
        "complex_w2iso_implies_w3iso",
        "double_lagrangian_complex_and_volume",
        "cayley_from_complex_planes",
        "cayley_from_complex_isotropic",
        "associative_from_cr",
        "associative_from_cr_isotropic",
        "maximizers_isotropic_re_upsilon1",
        "maximizers_isotropic_re_gamma0",
        "maximizers_horizontal_re_gamma1",
        "maximizers_horizontal_theta_I3",
        "hv_compatible_iso_ke_iff_nk",
        "double_lagrangian_hv_dimensions",
        "cr_legendrian_special_phases",
        "special_isotropic3_assoc_horizontal",
        "argmax_complex_omega1_power2",
    }
    have = {c.check_id for c in report.checks}
    _report("criterion 6", not failures and wanted <= have,
            f"{len(have)} scans at 10^4 samples, failures: {failures}")
    assert wanted <= have
    assert failures == []


# -- criterion 7: oracle agreement ---------------------------------------------------------


def test_c7_oracle_agreement():
    worst = 0.0
    for N in (6, 8, 12):
        rng = np.random.default_rng(SEED + N)
        for trial in range(50):
            A = rng.standard_normal((N, N))
            S = A - A.T
            f = AltForm(N, 2, {(i, j): S[i, j] for i in range(N) for j in range(i + 1, N)})
            exact = comass_2form_exact(f)
            found = comass_search(f, params=SearchParams(restarts=60, seed=SEED + trial)).value
            worst = max(worst, abs(exact - found))
    _report("criterion 7", worst <= 1e-7, f"150 seeded 2-forms, worst oracle gap {worst:.2e}")
    assert worst <= 1e-7


# -- criterion 8: determinism -----------------------------------------------------------------


def test_c8_suite_determinism():
    settings = {
        "identities": dict(n=1),
        "cones": dict(n=1),
        "calibrations": dict(n=1, restarts=40),
        "propositions": dict(n=1, samples=300, restarts=300),
        "normalform": dict(n=1, samples=10),
    }
    mismatched = []
    for suite, kw in settings.items():
        n = kw.pop("n")
        first = json.dumps(run_suite(suite, n, seed=SEED, **kw).to_json(include_timing=False), sort_keys=True)
        second = json.dumps(run_suite(suite, n, seed=SEED, **kw).to_json(include_timing=False), sort_keys=True)
        if first != second:
            mismatched.append(suite)
    _report("criterion 8", not mismatched, f"5 suites re-run byte-identical; mismatches: {mismatched}")
    assert mismatched == []
