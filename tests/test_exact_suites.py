"""The exact suites decide each identity by comparing exact forms, and
differentiate each catalog form once per run."""

from collections import Counter

import pytest

from caliber import suites
from caliber import symforms as sf
from caliber.exterior import AltForm, ComplexAltForm
from caliber.suites import run_suite

# checks that test one form for zero, or a contraction, and compare no two forms
ZERO_TESTS = {
    "identities": {"d_Omega1_zero", "d_Omega2_zero", "d_Omega3_zero", "d_im_gamma1_zero", "semibasic_gamma1",
                   "semibasic_fails_kappa2_alpha1_psi1", "dd_zero_random"},
    "cones": set(),
}
BUILDERS = {"identities": suites._identities_checks, "cones": suites._cones_checks}


def _bumped(form):
    """`form` with one coefficient changed: 1 added to its first blade (to
    the real part of a complex form), or a unit blade where it has none."""
    if isinstance(form, ComplexAltForm):
        return ComplexAltForm(_bumped(form.re), form.im)
    terms, one = dict(form._raw_terms()), sf.RCoef.const(form.dim, 1)
    mask = min(terms, default=(1 << form.degree) - 1)
    terms[mask] = terms[mask] + one if mask in terms else one
    return AltForm(form.dim, form.degree, _raw=terms)


def _counts(witness) -> list:
    """Every residual_term_count of a (nested) witness, in order."""
    if not isinstance(witness, dict):
        return []
    if "residual_term_count" in witness:
        return [witness["residual_term_count"]]
    return [c for value in witness.values() for c in _counts(value)]


@pytest.mark.parametrize("suite", ["identities", "cones"])
def test_each_identity_fails_when_one_right_hand_coefficient_changes(monkeypatch, suite):
    # every comparison of a check gets its right-hand side with one
    # coefficient changed: the check fails, and each comparison's witness is
    # the residual_term_count that the difference lhs - rhs has
    equal_check, seen = suites._equal_check, []

    def with_bumped_rhs(lhs, rhs):
        rhs = _bumped(rhs)
        result = equal_check(lhs, rhs)
        assert result == suites._zero_check(lhs - rhs)
        seen.append(result[1]["residual_term_count"])
        return result

    monkeypatch.setattr(suites, "_equal_check", with_bumped_rhs)
    compared = set()
    for check_id, fn in BUILDERS[suite](1, 0):
        seen.clear()
        ok, witness = fn()
        if not seen:
            continue
        compared.add(check_id)
        assert not ok and min(seen) > 0, check_id
        if "parts_ok" in witness:  # a list of bools, one per part
            assert witness["parts_ok"].count(False) == len(seen), check_id
        else:
            assert _counts(witness) == seen, check_id
    assert compared == set(suites.coverage_table(suite)[suite]) - ZERO_TESTS[suite]


@pytest.mark.parametrize("n", [1, 2])
def test_identities_take_each_catalog_derivative_once(monkeypatch, n):
    # a complex form's parts count apart: d of a complex form takes d of
    # each part once, and no check takes d of a part again
    names = {}
    for name, f in sf.link_extension_catalog(n).items():
        for key, part in [(name, f)] + ([(f"{name}.re", f.re), (f"{name}.im", f.im)]
                                        if isinstance(f, ComplexAltForm) else []):
            names.setdefault(id(part), key)  # Omega_q is a part of sigma_t{p} too
    ext_d, taken = sf.ext_d, Counter()

    def counting(f):
        if id(f) in names:
            taken[names[id(f)]] += 1
        return ext_d(f)

    monkeypatch.setattr(sf, "ext_d", counting)
    assert run_suite("identities", n).overall == "pass"
    assert {"gamma1", "gamma1.re", "kappa2", "psi1"} <= set(taken)
    assert max(taken.values()) == 1, taken
