"""Machine-checkable verification suites with stable check ids.

Five suites:
  identities    exact exterior-derivative identities on the cone (rationals)
  cones         radial splitting and primitive reconstruction, exact
  calibrations  comass-one anchors, the 2-form oracle, duality, homogeneity
  propositions  seeded random-plane scans of the structure implications
                (the plane-level ones through `planes.check_equivalences`)
  normalform    normal-form angle recovery and its four-way equivalence

Each check maps to one structure identity or invariant; a check returns pass
or fail plus a numeric witness.  Results are deterministic for a fixed seed,
and the JSON serialization is byte-stable when timing is excluded.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from caliber import planes as pl
from caliber import symforms as sf
from caliber.calib import SearchParams, comass_2form_exact, comass_search, isotropy_of_maximizers
from caliber.exterior import AltForm, hodge, interior
from caliber.model import CYCLIC_PAIRS, build_hyperkahler_cone, build_twistor_model, default_link_frame
from caliber.registry import resolve

__all__ = ["SuiteReport", "CheckResult", "run_suite", "suite_counts", "SUITES", "coverage_table"]



@dataclass(frozen=True)
class CheckResult:
    check_id: str
    status: str  # "pass" | "fail"
    witness: object
    elapsed_ms: float

    def to_json(self, include_timing: bool = True) -> dict:
        out = {"id": self.check_id, "status": self.status, "witness": self.witness}
        if include_timing:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


@dataclass
class SuiteReport:
    suite: str
    n: int
    seed: int
    checks: list

    @property
    def overall(self) -> str:
        return "pass" if all(c.status == "pass" for c in self.checks) else "fail"

    def to_json(self, include_timing: bool = True) -> dict:
        return {
            "suite": self.suite,
            "n": self.n,
            "seed": self.seed,
            "checks": [c.to_json(include_timing) for c in sorted(self.checks, key=lambda c: c.check_id)],
            "overall": self.overall,
        }


def _run_checks(checks: list[tuple[str, object]]) -> list[CheckResult]:
    results = []
    for check_id, fn in checks:
        t0 = time.perf_counter()
        try:
            ok, witness = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, witness = False, {"error": f"{type(exc).__name__}: {exc}"}
        ms = (time.perf_counter() - t0) * 1000.0
        results.append(CheckResult(check_id, "pass" if ok else "fail", witness, ms))
    return results


# ---------------------------------------------------------------------------
# identities suite


def _zero_check(form) -> tuple[bool, dict]:
    count = form.residual_term_count()
    return count == 0, {"residual_term_count": count}


def _equal_check(lhs, rhs) -> tuple[bool, dict]:
    """`_zero_check(lhs - rhs)`, with no difference built when lhs == rhs:
    exact forms compare their reduced coefficients, and only a failing
    check subtracts, for its witness."""
    if lhs == rhs:
        return True, {"residual_term_count": 0}
    return _zero_check(lhs - rhs)


def _identities_checks(n: int, seed: int) -> list[tuple[str, object]]:
    cat = sf.link_extension_catalog(n)
    checks: list[tuple[str, object]] = []
    # each catalog form is differentiated once, in the first check that needs it
    d = lru_cache(maxsize=None)(lambda name: sf.ext_d(cat[name]))

    for p in (1, 2, 3):
        checks.append(
            (f"d_alpha{p}_eq_2Omega{p}", lambda p=p: _equal_check(d(f"alpha{p}"), cat[f"Omega{p}"] * 2))
        )
        checks.append((f"d_Omega{p}_zero", lambda p=p: _zero_check(d(f"Omega{p}"))))

    def kappa_check(p, q, r):
        lhs = d(f"kappa{p}")
        rhs = (cat[f"alpha{q}"].wedge(cat[f"Omega{r}"]) - cat[f"alpha{r}"].wedge(cat[f"Omega{q}"])) * 2
        rhs_k = (cat[f"alpha{q}"].wedge(cat[f"kappa{r}"]) - cat[f"alpha{r}"].wedge(cat[f"kappa{q}"])) * 2
        ok1, w1 = _equal_check(lhs, rhs)
        ok2, w2 = _equal_check(lhs, rhs_k)
        return ok1 and ok2, {"vs_Omega": w1, "vs_kappa": w2}

    for p, (q, r) in CYCLIC_PAIRS.items():
        checks.append((f"d_kappa{p}_cyclic", lambda p=p, q=q, r=r: kappa_check(p, q, r)))

    def psi_check(p):  # psi_p takes link_forms' radial-free sigma_p^n, exact as tau_p ^ dr ^ tau_p = 0;
        # d psi_p takes the full sigma_p^{n+1}, binomially; cone_split_upsilon1 keeps the generic power
        rhs = sf.transverse_power(n, p) * Fraction(2, math.factorial(n))
        return _equal_check(d(f"psi{p}"), rhs)

    for p in (1, 2, 3):
        checks.append((f"d_psi{p}_transverse_volume", lambda p=p: psi_check(p)))

    def gamma_re_check():
        rhs = cat["xi1"] * 2 - cat["alpha2"].wedge(cat["alpha3"]).wedge(cat["kappa1"]) * 4
        return _equal_check(d("gamma1").re, rhs)

    def xi_check():
        return _equal_check(d("xi1"), cat["kappa1"].wedge(cat["gamma1"].im) * -4)

    checks.append(("d_im_gamma1_zero", lambda: _zero_check(d("gamma1").im)))
    checks.append(("d_re_gamma1_structure", gamma_re_check))
    checks.append(("d_xi1_structure", xi_check))

    def witness_check():
        wit = cat["alpha123"]
        for p in (1, 2, 3):
            wit = wit + cat[f"alpha{p}"].wedge(cat[f"kappa{p}"])
        ksum = None
        for p in (1, 2, 3):
            sq = cat[f"kappa{p}"].wedge(cat[f"kappa{p}"])
            ksum = sq if ksum is None else ksum + sq
        return _equal_check(sf.ext_d(wit) * Fraction(1, 2), ksum)

    checks.append(("exact_four_form_witness", witness_check))

    if n == 1:
        checks.append(
            (
                "nk_d_omega_tilde",
                lambda: _equal_check(d("omega1_tilde"), cat["gamma1"].im * 6),
            )
        )

        def nk_re_check():
            ot = cat["omega1_tilde"]
            return _equal_check(d("gamma1").re * 2, ot.wedge(ot) * 2)

        checks.append(("nk_d_re_2gamma", nk_re_check))

    def semibasic_gamma():
        A1 = cat["reeb1"]
        hook, hook_d = sf.interior_field(A1, cat["gamma1"]), sf.interior_field(A1, d("gamma1"))
        ok = hook.is_zero() and hook_d.is_zero()
        return ok, {"hook": hook.residual_term_count(), "hook_d": hook_d.residual_term_count()}

    checks.append(("semibasic_gamma1", semibasic_gamma))

    def semibasic_fails():
        A1 = cat["reeb1"]
        kappa2_fails = not sf.interior_field(A1, d("kappa2")).is_zero()
        alpha1_fails = not sf.interior_field(A1, cat["alpha1"]).is_zero()
        psi1_fails = not sf.interior_field(A1, d("psi1")).is_zero()
        ok = kappa2_fails and alpha1_fails and psi1_fails
        return ok, {"kappa2": kappa2_fails, "alpha1": alpha1_fails, "psi1": psi1_fails}

    checks.append(("semibasic_fails_kappa2_alpha1_psi1", semibasic_fails))

    def dd_zero():
        rng = np.random.default_rng(seed)
        dim = 4
        bad = 0
        for _ in range(100):
            deg = int(rng.integers(0, 3))
            terms = {}
            for _t in range(3):
                mask = 0
                while mask.bit_count() != deg:
                    mask = int(rng.integers(0, 1 << dim))
                mono = sf.Poly.from_coeffs(dim, {tuple(rng.integers(0, 3, size=dim)): int(rng.integers(-3, 4))})
                coef = sf.RCoef(dim, mono, sf.Poly.x(dim, int(rng.integers(0, dim))), int(rng.integers(0, 2)))
                terms[mask] = coef if mask not in terms else terms[mask] + coef
            f = AltForm(dim, deg, terms)
            if not sf.ext_d(sf.ext_d(f)).is_zero():
                bad += 1
        return bad == 0, {"violations": bad}

    checks.append(("dd_zero_random", dd_zero))
    return checks


# ---------------------------------------------------------------------------
# cones suite


def _cones_checks(n: int, seed: int) -> list[tuple[str, object]]:
    cat = sf.link_extension_catalog(n)
    cc = sf.cone_constant_catalog(n)
    dim = 4 * (n + 1)
    rp = sf.times_r_power  # rp(f, m) = f * r^m
    checks: list[tuple[str, object]] = []

    def split_check(form, alpha_expect, beta_expect):
        a, b = sf.cone_split(form)
        ok_a, wa = _equal_check(a, alpha_expect)
        ok_b, wb = _equal_check(b, beta_expect)
        return ok_a and ok_b, {"alpha": wa, "beta": wb}

    O = {p: cat[f"Omega{p}"] for p in (1, 2, 3)}
    al = {p: cat[f"alpha{p}"] for p in (1, 2, 3)}
    # sums of alpha_p ^ Omega_p come from the phi family; each Omega_p ^ Omega_p
    # is wedged once, inside the first check that needs it
    sq = lru_cache(maxsize=None)(lambda p: O[p].wedge(O[p]))
    s_aO = lambda: cat["phi1"] + cat["phi2"] + cat["phi3"]  # sum over p of alpha_p ^ Omega_p

    checks.append(
        ("cone_split_omega1", lambda: split_check(cc["omega1"], rp(al[1], 1), rp(O[1], 2)))
    )

    def split_omega1_sq():
        w1sq = cc["omega1"].wedge(cc["omega1"]) * Fraction(1, 2)
        return split_check(
            w1sq,
            rp((cat["phi2"] + cat["phi3"]) * Fraction(1, 2), 3),
            rp(sq(1) * Fraction(1, 2), 4),
        )

    checks.append(("cone_split_omega1_sq_half", split_omega1_sq))

    def split_theta():
        bexp = rp((sq(2) - sq(3)) * Fraction(1, 2), 4)
        return split_check(cc["theta_I4"], rp(cat["theta_I3"], 3), bexp)

    checks.append(("cone_split_theta_I4", split_theta))

    def split_Phi1():
        bexp = rp((sq(2) + sq(3) - sq(1)) * Fraction(1, 2), 4)
        return split_check(cc["Phi1"], rp(cat["phi1"], 3), bexp)

    checks.append(("cone_split_Phi1", split_Phi1))

    def split_Lambda():
        bexp = rp((sq(1) + sq(2) + sq(3)) * Fraction(1, 6), 4)
        return split_check(cc["Lambda"], rp(s_aO() * Fraction(1, 3), 3), bexp)

    checks.append(("cone_split_Lambda", split_Lambda))

    def split_upsilon1():
        u = cc["upsilon1"]
        psi = cat["psi1"]
        rhs = cat["sigma_t1"].power(n + 1) * Fraction(1, math.factorial(n + 1))
        ar, br = sf.cone_split(u.re)
        ai, bi = sf.cone_split(u.im)
        oks = [
            _equal_check(ar, rp(psi.re, 2 * n + 1))[0],
            _equal_check(ai, rp(psi.im, 2 * n + 1))[0],
            _equal_check(br, rp(rhs.re, 2 * n + 2))[0],
            _equal_check(bi, rp(rhs.im, 2 * n + 2))[0],
        ]
        return all(oks), {"parts_ok": oks}

    checks.append(("cone_split_upsilon1", split_upsilon1))

    def potential_check(form, k, expected=None):
        pot = sf.homogeneous_potential(form, k)
        ok_d, wd = _equal_check(sf.ext_d(pot), form)
        result = {"d_potential": wd}
        ok = ok_d
        if expected is not None:
            ok_e, we = _equal_check(pot, expected)
            ok = ok and ok_e
            result["expected_match"] = we
        return ok, result

    checks.append(
        (
            "potential_omega1",
            lambda: potential_check(cc["omega1"], 2, rp(al[1], 2) * Fraction(1, 2)),
        )
    )
    checks.append(("potential_Phi1", lambda: potential_check(cc["Phi1"], 4)))

    checks.append(
        ("potential_Lambda", lambda: potential_check(cc["Lambda"], 4, rp(s_aO() * Fraction(1, 12), 4)))
    )

    def potential_upsilon1():
        u = cc["upsilon1"]
        ok1, w1 = potential_check(u.re, 2 * n + 2)
        ok2, w2 = potential_check(u.im, 2 * n + 2)
        return ok1 and ok2, {"re": w1, "im": w2}

    checks.append(("potential_upsilon1", potential_upsilon1))

    def potential_euler():
        f = AltForm(dim, 2, {0b11: sf.RCoef.const(dim, 1)})
        expected = AltForm(
            dim,
            1,
            {
                0b10: sf.RCoef.from_poly(sf.Poly.x(dim, 0).scale(Fraction(1, 2))),
                0b01: sf.RCoef.from_poly(sf.Poly.x(dim, 1).scale(Fraction(-1, 2))),
            },
        )
        return potential_check(f, 2, expected)

    checks.append(("potential_constant_form_euler", potential_euler))

    def homogeneity():
        R = sf.dilation_field(dim)
        oks = [
            _equal_check(sf.lie_derivative(R, cc["omega1"]), cc["omega1"] * 2)[0],
            sf.lie_derivative(R, al[1]).is_zero(),
            _equal_check(sf.lie_derivative(R, cc["upsilon1"].re), cc["upsilon1"].re * (2 * n + 2))[0],
        ]
        return all(oks), {"parts_ok": oks}

    checks.append(("dilation_homogeneity", homogeneity))
    return checks


# ---------------------------------------------------------------------------
# calibrations suite


_ANCHORS = {
    1: [
        ("omega1_power2", "cone"),
        ("theta_I4", "cone"),
        ("re_upsilon1", "cone"),
        ("Phi2", "cone"),
        ("phi2", "link"),
        ("theta_I3", "link"),
        ("re_gamma1", "link"),
        ("re_gamma0", "twistor"),
    ],
    2: [
        ("theta_I4", "cone"),
        ("theta_I6", "cone"),
        ("theta_I3", "link"),
        ("re_gamma1", "link"),
        ("re_gamma0", "twistor"),
    ],
    3: [
        ("theta_I4", "cone"),
        ("re_gamma1", "link"),
        ("re_gamma0", "twistor"),
    ],
}


def _calibrations_checks(n: int, seed: int, restarts: int) -> list[tuple[str, object]]:
    checks: list[tuple[str, object]] = []
    params = SearchParams(restarts=restarts, seed=seed)

    @lru_cache(maxsize=None)
    def search(name, space):
        """The search at `params` on a catalog form, shared by every check of
        this build that runs it (the anchors, duality, homogeneity, phase 0)."""
        return comass_search(resolve(name, n, space)[0], params=params)

    def anchor_check(name, space):
        res = search(name, space)
        err = abs(res.value - 1.0)
        return err <= 1e-6, {"value": res.value, "error": err, "converged_fraction": res.converged_fraction}

    for name, space in _ANCHORS[min(n, 3)]:
        checks.append((f"comass_one_{space}_{name}", lambda name=name, space=space: anchor_check(name, space)))

    def oracle_agreement():
        rng = np.random.default_rng(seed)
        worst = 0.0
        small = SearchParams(restarts=max(40, restarts // 5), seed=seed + 1)
        for N in (6, 8, 12):
            for _ in range(50):
                A = rng.standard_normal((N, N))
                S = A - A.T
                f = AltForm(N, 2, {(i, j): S[i, j] for i in range(N) for j in range(i + 1, N)})
                exact = comass_2form_exact(f)
                found = comass_search(f, params=small).value
                worst = max(worst, abs(exact - found))
        return worst <= 1e-7, {"worst_gap": worst}

    checks.append(("oracle_2form_agreement", oracle_agreement))

    def hodge_duality():
        names = {1: ["omega1", "theta_I4", "Phi2", "Lambda", "re_upsilon1"],
                 2: ["omega1", "theta_I4", "theta_I6"]}.get(n)
        if names is None:
            return True, {"skipped": "duality runs at n = 1, 2: at n=3 the duals of omega1 and theta_I4 "
                                     "are a 14-form and a 12-form on R^16, too costly to search per run"}
        worst = 0.0
        rows = {}
        for name in names:
            form = resolve(name, n, "cone")[0]
            dual = hodge(form)  # the form itself unless it is omega1 or, at n=2, theta_I4
            v1 = search(name, "cone").value
            v2 = v1 if dual == form else comass_search(dual, params=params).value
            rows[name] = {"comass": v1, "dual_comass": v2}
            worst = max(worst, abs(v1 - v2))
        return worst <= 2e-6, {"worst_gap": worst, "rows": rows}

    checks.append(("hodge_duality_catalog", hodge_duality))

    def homogeneity_scaling():
        rng = np.random.default_rng(seed + 2)
        f, _ = resolve("re_gamma0", n, "twistor")
        base = search("re_gamma0", "twistor").value
        worst = 0.0
        for _ in range(3):
            c = float(rng.uniform(0.25, 4.0)) * (1 if rng.uniform() < 0.5 else -1)
            v = comass_search(f * c, params=params).value
            worst = max(worst, abs(v - abs(c) * base))
        return worst <= 1e-6, {"worst_gap": worst}

    checks.append(("comass_positive_homogeneity", homogeneity_scaling))

    def phase_anchors():
        re, _ = resolve("re_gamma0", n, "twistor")
        rows = {"phase_0": search("re_gamma0", "twistor").value,
                "phase_pi": comass_search(re * -1.0, params=params).value}
        return all(abs(v - 1.0) <= 1e-6 for v in rows.values()), rows

    checks.append(("re_gamma0_phase_anchors", phase_anchors))
    return checks


# ---------------------------------------------------------------------------
# propositions suite


def _propositions_checks(n: int, seed: int, samples: int, restarts: int) -> list[tuple[str, object]]:
    hk = build_hyperkahler_cone(n)
    lf = default_link_frame(n)
    tm = build_twistor_model(n)
    checks: list[tuple[str, object]] = []

    def implications(frames, model, *check_ids):
        """Whether every plane of a sampled batch meets the premise and the
        implication of each of `check_ids`, and their per-plane witnesses."""
        results = {r.check_id: r for r in pl.check_equivalences(frames, model)}
        chosen = [results[check_id] for check_id in check_ids]
        return (all(r.premise.all() and r.holds.all() for r in chosen),
                {key: v for r in chosen for key, v in r.witness.items()})

    def peak(values) -> float:
        return float(np.max(values))

    def value_gaps(model, frames, *terms):
        """peak |sign * value - 1| on `frames` of each (sign, name) in `terms`."""
        return [peak(np.abs(sign * model.value(name, frames) - 1.0)) for sign, name in terms]

    def maximizers(form, offset):
        """The search on `form` at `restarts` restarts seeded by seed + offset,
        and its maximizer frames."""
        res = comass_search(form, params=SearchParams(restarts=restarts, seed=seed + offset))
        return res, res.maximizer_frames(1e-12)

    def complex_w2iso_implies_w3iso():
        frames = pl.batch_complex_isotropic_planes(hk, 2, samples, np.random.default_rng(seed))
        ok, w = implications(frames, hk, "complex_w2iso_implies_w3iso")
        return ok, {"premise_residuals": [peak(w["I1_residual"]), peak(w["w2_residual"])],
                    "w3_residual": peak(w["w3_residual"]), "samples": samples}

    checks.append(("complex_w2iso_implies_w3iso", complex_w2iso_implies_w3iso))

    def double_lagrangian():
        frames = pl.batch_double_lagrangian_planes(hk, samples, np.random.default_rng(seed + 1))
        ok, w = implications(frames, hk, "double_lagrangian_implies_I1_invariant", "double_lagrangian_upsilon2_volume")
        rot = w["rotated_upsilon2"]  # the sampler orients each plane so that rot = +1
        vol_gap = peak(np.abs(rot.real - 1.0))
        return ok and vol_gap <= 1e-7, {"lagrangian_residuals": [peak(w["w2_residual"]), peak(w["w3_residual"])],
                                        "I1_residual": peak(w["I1_residual"]), "upsilon2_volume_gap": vol_gap,
                                        "upsilon2_imag_gap": peak(np.abs(rot.imag)), "samples": samples}

    checks.append(("double_lagrangian_complex_and_volume", double_lagrangian))

    def cayley_complex():
        rng = np.random.default_rng(seed + 2)
        gaps = []
        for structures in ((hk.I1,), (hk.I3,)):
            frames = pl.batch_complex_planes(structures, 2, samples // 2 + 1, rng)
            gaps += value_gaps(hk, frames, (1, "Phi2"))
        return max(gaps) <= 1e-7, {"value_gaps_I1_I3": gaps, "samples": 2 * (samples // 2 + 1)}

    checks.append(("cayley_from_complex_planes", cayley_complex))

    def cayley_complex_isotropic():
        rng = np.random.default_rng(seed + 3)
        frames = pl.batch_complex_isotropic_planes(hk, 2, samples, rng)
        gaps = value_gaps(hk, frames, (-1, "theta_J4"), (1, "theta_K4"), (1, "Phi2"))
        return max(gaps) <= 1e-7, {"value_gaps": gaps, "samples": samples}

    checks.append(("cayley_from_complex_isotropic", cayley_complex_isotropic))

    def assoc_cr():
        rng = np.random.default_rng(seed + 4)
        results = [implications(pl.batch_cr_planes(lf, samples // 2 + 1, rng, horizontal=False, p=p), lf,
                                f"cr_I{p}_implies_phi2_associative") for p in (1, 3)]
        gaps = [peak(np.abs(w["phi2"] - 1.0)) for _, w in results]  # the sampler orients each plane to phi2 = +1
        return all(ok for ok, _ in results) and max(gaps) <= 1e-7, {"value_gaps_I1_I3": gaps}

    checks.append(("associative_from_cr", assoc_cr))

    def assoc_cr_isotropic():
        rng = np.random.default_rng(seed + 5)
        frames = pl.batch_cr_planes(lf, samples, rng, horizontal=True, p=1)
        gaps = value_gaps(lf, frames, (-1, "theta_J3"), (1, "theta_K3"), (1, "phi2"))
        return max(gaps) <= 1e-7, {"value_gaps": gaps, "samples": samples}

    checks.append(("associative_from_cr_isotropic", assoc_cr_isotropic))

    def special_isotropic_assoc_horizontal():
        rng = np.random.default_rng(seed + 6)
        frames = pl.batch_cr_planes(lf, samples, rng, horizontal=True, p=3)
        [family_gap] = value_gaps(lf, frames, (-1, "theta_I3"))
        res, maxers = maximizers(lf.form("theta_I3") * -1.0, 0)
        [phi2_gap] = value_gaps(lf, maxers, (1, "phi2"))
        horiz = peak(pl.alpha_residual(maxers, 1))
        ok = family_gap <= 1e-7 and res.value >= 1 - 1e-6 and phi2_gap <= 1e-6 and horiz <= 1e-6
        return ok, {
            "family_theta_gap": family_gap,
            "maximizers": len(maxers),
            "phi2_gap": phi2_gap,
            "alpha1_component": horiz,
        }

    checks.append(("special_isotropic3_assoc_horizontal", special_isotropic_assoc_horizontal))

    def maximizers_isotropic_upsilon():
        res, maxers = maximizers(hk.form("re_upsilon1"), 7)
        ok = len(maxers) >= restarts // 2 and isotropy_of_maximizers(
            hk.form("re_upsilon1"), hk.I1, hk.form("omega1"), maxers
        )
        im_gap = peak(np.abs(hk.value("im_upsilon1", maxers)))
        ok = ok and im_gap <= 1e-6
        return ok, {"maximizers": len(maxers), "restarts": restarts, "value": res.value, "im_gap": im_gap}

    checks.append(("maximizers_isotropic_re_upsilon1", maximizers_isotropic_upsilon))

    def maximizers_isotropic_gamma0():
        # the pure-type lemma yields isotropy for the Kahler form of J_minus,
        # omega_H - omega_V; omega_NK does not vanish on every calibrated
        # plane (it restricts to cos(2 theta) on the normal-form family)
        res, maxers = maximizers(tm.form("re_gamma0"), 8)
        ok = len(maxers) >= restarts // 2 and isotropy_of_maximizers(
            tm.form("re_gamma0"), tm.J_minus, tm.form("omega_minus"), maxers
        )
        return ok, {"maximizers": len(maxers), "value": res.value}

    checks.append(("maximizers_isotropic_re_gamma0", maximizers_isotropic_gamma0))

    def maximizers_horizontal(name):
        # iota_{A1} form = 0 exactly, so every calibrated plane has alpha1 = 0
        annihilated = interior(np.eye(lf.dim, dtype=int)[0], lf.form(name)).is_zero()
        res, maxers = maximizers(lf.form(name), 9)
        ok = annihilated and len(maxers) >= restarts // 2 and peak(pl.alpha_residual(maxers, 1)) <= 1e-7
        return ok, {"maximizers": len(maxers), "value": res.value}

    checks.append(("maximizers_horizontal_re_gamma1", lambda: maximizers_horizontal("re_gamma1")))
    checks.append(("maximizers_horizontal_theta_I3", lambda: maximizers_horizontal("theta_I3")))

    def argmax_class_omega_power():
        res, maxers = maximizers(hk.form("omega1_power2"), 10)
        inv = peak(pl.projector_invariance_residual(maxers, hk.I1.astype(float)))
        return len(maxers) >= restarts // 2 and inv <= 1e-6, {"maximizers": len(maxers), "I1_residual": inv}

    checks.append(("argmax_complex_omega1_power2", argmax_class_omega_power))

    def hv_iso_equivalence():
        frames = pl.batch_hv_isotropic_planes(tm, tm.n, samples, np.random.default_rng(seed + 11))
        ok, w = implications(frames, tm, "hv_compatible_iso_KE_iff_NK")
        ke, nk = peak(w["ke_residual"]), peak(w["nk_residual"])
        return ok and ke <= 1e-8, {"ke_residual": ke, "nk_residual": nk, "samples": samples}  # isotropic, as sampled

    checks.append(("hv_compatible_iso_ke_iff_nk", hv_iso_equivalence))

    def double_lagrangian_hv():
        frames = pl.batch_double_lagrangian_twistor(tm, samples, np.random.default_rng(seed + 12))
        ok, w = implications(frames, tm, "double_lagrangian_hv_dimensions")
        dims_ok = bool(np.all(w["dim_cap_H"] == 2 * n) and np.all(w["dim_cap_V"] == 1))
        return ok, {"ke_residual": peak(w["ke_residual"]), "nk_residual": peak(w["nk_residual"]),
                    "dims_ok": dims_ok, "samples": samples}

    checks.append(("double_lagrangian_hv_dimensions", double_lagrangian_hv))

    def cr_legendrian_phases():
        frames = pl.batch_cr_legendrian_planes(lf, samples, np.random.default_rng(seed + 13))
        ok, w = implications(frames, lf, "cr_legendrian_special_phases")
        gap2 = peak(np.abs(w["psi2"] - 1j ** (n + 1)))  # the sampler orients each plane to psi2 = i^(n+1)
        gap3 = peak(np.abs(w["psi3"] - 1.0))  # and psi3 = +1
        return ok and max(gap2, gap3) <= 1e-7, {"psi2_phase_gap": gap2, "psi3_phase_gap": gap3, "samples": samples}

    checks.append(("cr_legendrian_special_phases", cr_legendrian_phases))
    return checks


# ---------------------------------------------------------------------------
# normal form suite


def _normalform_checks(n: int, seed: int, samples: int) -> list[tuple[str, object]]:
    tm = build_twistor_model(n)
    grid = [round(0.1 * k, 10) for k in range(8)] + [math.pi / 4]
    checks: list[tuple[str, object]] = []

    def recovery():
        rng = np.random.default_rng(seed)
        worst = 0.0
        violations = 0
        for th in grid:
            at_corner = abs(th - math.pi / 4) < 1e-12
            frames, _ = pl.batch_rotated_w_theta(n, th, samples, rng)
            for nf in pl.normal_form_theta(frames, tm):
                worst = max(worst, abs(nf.theta - th))
                conds = [
                    nf.dim_cap_H == 2,
                    nf.dim_cap_H + nf.dim_cap_V == 3,
                    nf.ke_isotropic,
                    abs(nf.theta - math.pi / 4) <= 1e-8,
                ]
                if at_corner and not all(conds):
                    violations += 1
                if not at_corner and any(conds):
                    violations += 1
        ok = worst <= 1e-8 and violations == 0
        return ok, {"worst_theta_error": worst, "equivalence_violations": violations,
                    "samples_per_theta": samples, "grid_size": len(grid)}

    checks.append(("theta_recovery_and_four_way_equivalence", recovery))

    def invariance():
        rng = np.random.default_rng(seed + 1)
        spread = 0.0
        for th in (0.0, 0.35, math.pi / 4):
            frames, _ = pl.batch_rotated_w_theta(n, th, max(10, samples // 10), rng)
            vals = [nf.theta for nf in pl.normal_form_theta(frames, tm)]
            spread = max(spread, max(vals) - min(vals))
        return spread <= 1e-9, {"max_spread": spread}

    checks.append(("theta_stabilizer_invariance", invariance))

    def envelope():
        rng = np.random.default_rng(seed + 2)
        L0 = np.zeros((4, tm.dim))
        L0[:, :4] = np.eye(4)
        worst = 0.0
        for th in (0.1, 0.4):
            frames, g = pl.batch_rotated_w_theta(n, th, max(10, samples // 10), rng)
            env = pl.quaternionic_envelope(frames, tm)
            expected = L0 @ np.swapaxes(g, -1, -2)
            P1 = np.swapaxes(env, -1, -2) @ env
            P2 = np.swapaxes(expected, -1, -2) @ np.linalg.solve(expected @ np.swapaxes(expected, -1, -2), expected)
            worst = max(worst, float(np.max(np.abs(P1 - P2))))
        return worst <= 1e-8, {"worst_projector_gap": worst}

    checks.append(("envelope_recovery_under_rotation", envelope))
    return checks


# ---------------------------------------------------------------------------
# entry point


# suite -> (its checks, the counts it reads and their defaults); `run_suite`
# rejects any other count
_SUITES = {
    "identities": (_identities_checks, {}),
    "cones": (_cones_checks, {}),
    "calibrations": (_calibrations_checks, {"restarts": 200}),
    "propositions": (_propositions_checks, {"samples": 10000, "restarts": 10000}),
    "normalform": (_normalform_checks, {"samples": 100}),
}
SUITES = tuple(_SUITES)


def run_suite(suite: str, n: int, seed: int = 0, samples: int | None = None,
              restarts: int | None = None) -> SuiteReport:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {SUITES}")
    if n not in (1, 2, 3):
        raise ValueError(f"n must be in (1, 2, 3), got {n}")
    build, defaults = _SUITES[suite]
    counts = suite_counts(suite, defaults, samples, restarts)
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return SuiteReport(suite, n, seed, _run_checks(build(n, seed, **counts)))


def suite_counts(suite: str, defaults: dict, samples: int | None, restarts: int | None) -> dict:
    """The counts `suite` reads, each as given or else its default in
    `defaults`; raises ValueError on a count below 1 or one the suite does
    not read."""
    counts = {"samples": samples, "restarts": restarts}
    for name, value in counts.items():
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    for name, value in counts.items():
        if value is not None and name not in defaults:
            raise ValueError(f"suite {suite!r} does not use {name}, got {name}={value}")
    return {name: default if counts[name] is None else counts[name] for name, default in defaults.items()}


def coverage_table(*suites: str) -> dict:
    """Stable listing of every check id of `suites` (of every suite if none
    is named) for n = 1 parameters, from the builders of those suites alone."""
    return {suite: sorted(cid for cid, _ in build(1, 0, **dict.fromkeys(defaults, 1)))
            for suite, (build, defaults) in _SUITES.items() if suite in (suites or SUITES)}
