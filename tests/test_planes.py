"""Classification flags, equivalence checks, normal form, and phase scans."""

import math
from fractions import Fraction

import numpy as np
import pytest

from caliber import exterior, suites
from caliber import planes as pl
from caliber.calib import FormEvaluator, Plane, SearchParams, batch_evaluate
from caliber.exterior import evaluate, power, wedge
from caliber.model import (
    _FormCatalog,
    build_hyperkahler_cone,
    build_twistor_model,
    default_link_frame,
    make_W_theta,
    random_sp_u1_element,
)
from caliber.planes import (
    batch_complex_isotropic_planes,
    batch_complex_planes,
    batch_cr_legendrian_planes,
    batch_cr_planes,
    batch_double_lagrangian_planes,
    batch_double_lagrangian_twistor,
    batch_hv_isotropic_planes,
    batch_random_planes,
    batch_rotated_w_theta,
    check_equivalences,
    classify_plane,
    intersection_dim,
    isotropy_residual,
    normal_form_theta,
    phase_rigidity_scan,
    projector_invariance_residual,
    quaternionic_envelope,
    rotated_w_theta,
)


# -- classification -----------------------------------------------------------


def test_classify_quaternion_line_is_cayley():
    hk = build_hyperkahler_cone(1)
    P = Plane.from_vectors(np.eye(8)[:4])
    rep = classify_plane(P, hk)
    assert rep.flag("complex_I1") and rep.flag("complex_I2") and rep.flag("complex_I3")
    assert rep.flag("cayley_Phi2") and rep.witness("cayley_Phi2") == pytest.approx(1.0)
    assert rep.flag("cayley_Phi1") and rep.flag("cayley_Phi3")
    assert not rep.flag("isotropic_omega1")


def test_classify_complex_isotropic_plane():
    hk = build_hyperkahler_cone(1)
    e = np.eye(8)
    P = Plane.from_vectors([e[0], hk.I2 @ e[0], e[4], hk.I2 @ e[4]])
    rep = classify_plane(P, hk)
    assert rep.flag("complex_I2")
    assert rep.flag("isotropic_omega1") and rep.flag("isotropic_omega3")
    assert rep.flag("complex_isotropic_I2")
    # cyclic special-isotropic witnesses for the second complex structure
    assert rep.flag("special_isotropic_theta_I4")
    assert rep.witness("special_isotropic_theta_K4") == pytest.approx(-1.0)


def test_classify_complex_line_orientation():
    # omega1 calibrates the complex line (e0, I1 e0) and not its reversal
    hk = build_hyperkahler_cone(1)
    e0 = np.eye(8)[0]
    line = classify_plane(Plane.from_vectors([e0, hk.I1 @ e0]), hk)
    assert line.flag("complex_I1") and not line.flag("anti_complex_I1")
    reversed_line = classify_plane(Plane.from_vectors([hk.I1 @ e0, e0]), hk)
    assert not reversed_line.flag("complex_I1") and reversed_line.flag("anti_complex_I1")


def test_classify_cr_plane_at_link():
    lf = default_link_frame(1)
    frames = batch_cr_planes(lf, 3, np.random.default_rng(0), horizontal=False)
    rep = classify_plane(Plane.from_vectors(frames[0]), lf)
    assert rep.flag("cr_I1")
    assert rep.witness("associative_phi2") == pytest.approx(1.0)
    assert rep.flag("associative_phi2")


def test_classify_cr_isotropic_link_plane():
    lf = default_link_frame(2)
    frames = batch_cr_planes(lf, 2, np.random.default_rng(1), horizontal=True)
    rep = classify_plane(Plane.from_vectors(frames[0]), lf)
    assert rep.flag("cr_isotropic_I1")
    assert rep.flag("special_isotropic_theta_K3")
    assert rep.witness("special_isotropic_theta_J3") == pytest.approx(-1.0)
    assert rep.flag("horizontal_p1") is False  # contains the first Reeb vector


def test_classify_reeb_line_at_link():
    # a Reeb line is CR of dimension 1: its calibrating form is alpha_p ^ Omega_p^0 = alpha_p
    lf = default_link_frame(1)
    for p in (1, 2, 3):
        rep = classify_plane(Plane.from_vectors(np.eye(lf.dim)[p - 1 : p]), lf)
        assert rep.flag(f"cr_I{p}")
        assert rep.flags[f"cr_I{p}"]["oriented_value"] == pytest.approx(1.0)


def test_classify_twistor_w_theta():
    tm = build_twistor_model(1)
    rep = classify_plane(make_W_theta(1, math.pi / 4), tm)
    assert rep.flag("re_gamma0_calibrated")
    assert rep.flag("isotropic_omega_KE") and rep.flag("isotropic_omega_NK")
    assert rep.flag("hv_compatible")
    assert rep.witness("dim_cap_H") == 2 and rep.witness("dim_cap_V") == 1
    rep0 = classify_plane(make_W_theta(1, 0.0), tm)
    assert rep0.flag("re_gamma0_calibrated")
    assert not rep0.flag("isotropic_omega_KE")
    assert not rep0.flag("hv_compatible")


def test_classify_dimension_mismatch():
    tm = build_twistor_model(1)
    with pytest.raises(ValueError):
        classify_plane(Plane.from_vectors(np.eye(8)[:3]), tm)
    # a plane of degree 0 is refused in each space, its degree named
    for m in (build_hyperkahler_cone(1), default_link_frame(1), tm):
        with pytest.raises(ValueError, match="degree at least 1, got degree 0$"):
            classify_plane(Plane.from_vectors(np.zeros((0, m.dim))), m)


def test_report_json_shape():
    tm = build_twistor_model(1)
    rep = classify_plane(make_W_theta(1, 0.3), tm)
    data = rep.to_json()
    assert data["space"] == "twistor" and data["degree"] == 3
    assert all({"flag", "witness", "tol"} <= set(v) for v in data["flags"].values())


def _special_planes(n: int, rng) -> list:
    """(model, row frame) pairs of every special family used in this file:
    complex, complex-isotropic and double Lagrangian planes and the
    quaternion line in the cone; CR, CR-isotropic, CR Legendrian planes and
    Reeb lines at the link; W_theta, its rotations and HV-compatible planes
    in the twistor model."""
    hk, lf, tm = build_hyperkahler_cone(n), default_link_frame(n), build_twistor_model(n)
    out = [(hk, np.eye(hk.dim)[:4])]
    for lines in (1, 2):
        out += [(hk, F) for F in batch_complex_planes((hk.I1,), lines, 2, rng)]
        out += [(hk, F) for F in batch_complex_isotropic_planes(hk, lines, 2, rng)]
    out += [(hk, F) for F in batch_double_lagrangian_planes(hk, 2, rng)]
    for p in (1, 2, 3):
        out.append((lf, np.eye(lf.dim)[p - 1:p]))
        out += [(lf, F) for F in batch_cr_planes(lf, 2, rng, horizontal=p == 2, p=p)]
    out += [(lf, F) for F in batch_cr_legendrian_planes(lf, 2, rng)]
    for th in (0.0, 0.3, math.pi / 4):
        out += [(tm, make_W_theta(n, th).frame), (tm, rotated_w_theta(n, th, rng).frame)]
    out += [(tm, F) for F in batch_hv_isotropic_planes(tm, tm.n, 2, rng)]
    out += [(tm, F) for F in batch_double_lagrangian_twistor(tm, 2, rng)]
    return out


def _reference_form(model, name: str):
    """The exact form behind an evaluator name, built here from the catalog:
    omega{p}_power{m} is omega_p^m / m!, alpha{p}_Omega{p}_power{m} is
    alpha_p ^ Omega_p^m / m!, any other name a catalog entry."""
    head, _, m = name.partition("_power")
    if not m:
        return model.form(name)
    factors = head.split("_")
    form = power(model.form(factors[-1]), int(m)) * Fraction(1, math.factorial(int(m)))
    return wedge(model.form(factors[0]), form) if len(factors) == 2 else form


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cached_evaluators_match_exact_evaluate(monkeypatch, n):
    # every form classify_plane and check_equivalences evaluate, against the
    # exact contraction path on the same frame; a tuple read of several names
    # (classify_plane's catalog values) gives, bit for bit, each name's
    # one-name read, signed zeros included
    gaps = {}
    seen = {}
    value = _FormCatalog.value

    def checked(self, names, frame, derive=None):
        got = value(self, names, frame, derive)
        reads = [(names, got)]
        if isinstance(names, tuple):
            assert len(got) == len(names)
            reads = list(zip(names, got))
            for name, g in reads:
                assert np.asarray(g).tobytes() == np.asarray(value(self, name, frame)).tobytes(), name
        for name, read in reads:
            form = _reference_form(self, name)
            key = (type(self).__name__, name)
            frames, gots = seen.setdefault((id(self), name), (self, [], []))[1:]
            # check_equivalences evaluates a plane as a batch of one
            for F, g in zip(frame, read) if np.ndim(read) else [(frame, read)]:
                gaps[key] = max(gaps.get(key, 0.0), abs(g - complex(evaluate(form, list(F)))))
                frames.append(F)
                gots.append(g)
        return got

    monkeypatch.setattr(_FormCatalog, "value", checked)
    rng = np.random.default_rng(30 + n)
    models = (build_hyperkahler_cone(n), default_link_frame(n), build_twistor_model(n))
    cases = [(m, F) for m in models for k in (2, 3, 4) for F in batch_random_planes(m.dim, k, 3, rng)]
    for m, F in cases + _special_planes(n, rng):
        P = Plane.from_vectors(F)
        classify_plane(P, m)
        check_equivalences(P, m)
    assert max(gaps.values()) <= 1e-12, max(gaps.items(), key=lambda kv: kv[1])
    # one more input, each name's frames as one batch: the batched value is,
    # bit for bit, a fresh evaluator of the float form on that batch, and it
    # agrees with the per-frame values (the BLAS sum order of the last
    # contraction depends on the batch, so not always to the last bit)
    for (_, name), (m, frames, gots) in seen.items():
        frames = np.array(frames)
        batch = value(m, name, frames)
        assert batch.shape == (len(frames),) and np.max(np.abs(batch - np.array(gots))) <= 1e-14, name
        form = _reference_form(m, name)
        pairs = [(batch.real, form.re), (batch.imag, form.im)] if np.iscomplexobj(batch) else [(batch, form)]
        for got, part in pairs:
            assert got.tobytes() == batch_evaluate(part.to_float(), frames).tobytes(), name
    names = {name for _, name in gaps}
    assert {"omega1_power1", "omega1_power2", "upsilon1", "upsilon2", "upsilon3", "theta_I2", "theta_K4",
            "Phi1", "Lambda", "alpha1_Omega1_power0", "alpha2_Omega2_power1", "psi1", "psi2", "psi3",
            "theta_J3", "phi2", "gamma1", "gamma0"} <= names


def test_repeat_classification_builds_no_evaluator_and_contracts_nothing(monkeypatch):
    rng = np.random.default_rng(5)
    cases = [(m, Plane.from_vectors(F)) for m, F in _special_planes(1, rng)]
    tm = build_twistor_model(1)
    calibrated = rotated_w_theta(1, 0.3, rng)

    def run():
        for m, P in cases:
            classify_plane(P, m)
            check_equivalences(P, m)
        normal_form_theta(calibrated, tm)

    run()
    counts = {"evaluators": 0, "interior": 0}
    init, interior = FormEvaluator.__init__, exterior.interior

    def counted_init(self, form):
        counts["evaluators"] += 1
        init(self, form)

    def counted_interior(v, a):
        counts["interior"] += 1
        return interior(v, a)

    monkeypatch.setattr(FormEvaluator, "__init__", counted_init)
    monkeypatch.setattr(exterior, "interior", counted_interior)
    run()
    assert counts == {"evaluators": 0, "interior": 0}


# -- equivalence checks ---------------------------------------------------------


def test_equivalences_hold_on_class_generators():
    hk, lf, tm = build_hyperkahler_cone(1), default_link_frame(1), build_twistor_model(1)
    rng = np.random.default_rng(3)
    batches = [
        (hk, batch_complex_isotropic_planes(hk, 2, 5, rng)),
        (hk, batch_double_lagrangian_planes(hk, 5, rng)),
        (lf, batch_cr_legendrian_planes(lf, 5, rng)),
        (tm, batch_double_lagrangian_twistor(tm, 5, rng)),
    ]
    for m, frames in batches:
        for res in check_equivalences(frames, m):
            assert res.holds.shape == (5,) and res.holds.all(), res


def test_equivalences_vacuous_on_random_planes():
    # random planes essentially never satisfy the premises; implications hold
    hk = build_hyperkahler_cone(1)
    frames = batch_random_planes(8, 4, 25, np.random.default_rng(4))
    for res in check_equivalences(frames, hk):
        assert res.holds.all() and not res.premise.any(), res


# form values of the witnesses; every other witness is a residual, a Reeb
# test or an intersection dimension
_VALUE_WITNESSES = {"rotated_upsilon2", "phi2", "psi2", "psi3"}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_equivalence_batch_agrees_with_each_plane(n):
    rng = np.random.default_rng(50 + n)
    models = (build_hyperkahler_cone(n), default_link_frame(n), build_twistor_model(n))
    cases = _special_planes(n, rng) + [
        (m, F) for m in models for k in (2, 3, 4) for F in batch_random_planes(m.dim, k, 3, rng)]
    groups = {}
    for m, F in cases:
        groups.setdefault((id(m), len(F)), (m, []))[1].append(F)
    for m, frames in groups.values():
        batch = check_equivalences(np.array(frames), m)
        for i, F in enumerate(frames):
            alone = check_equivalences(Plane.from_vectors(F, orthonormalize=False), m)
            assert [r.check_id for r in alone] == [r.check_id for r in batch]
            for a, b in zip(alone, batch):
                assert (a.premise, a.holds) == (b.premise[i], b.holds[i]), a.check_id
                assert a.witness.keys() == b.witness.keys()
                for key, value in a.witness.items():
                    if key in _VALUE_WITNESSES:
                        # BLAS sums one frame (dot) and a batch (gemv) in different orders
                        assert abs(value - b.witness[key][i]) <= 1e-14, (a.check_id, key)
                    else:
                        assert value == b.witness[key][i], (a.check_id, key)


# the propositions checks that run `check_equivalences`, and their samplers
_IMPLICATION_CHECKS = {
    "complex_w2iso_implies_w3iso": "batch_complex_isotropic_planes",
    "double_lagrangian_complex_and_volume": "batch_double_lagrangian_planes",
    "associative_from_cr": "batch_cr_planes",
    "hv_compatible_iso_ke_iff_nk": "batch_hv_isotropic_planes",
    "double_lagrangian_hv_dimensions": "batch_double_lagrangian_twistor",
    "cr_legendrian_special_phases": "batch_cr_legendrian_planes",
}


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("check_id", _IMPLICATION_CHECKS)
def test_implication_checks_fail_on_random_planes(monkeypatch, check_id, n):
    # a check must not pass vacuously: fed Haar-random planes of the sampled
    # shape, whose premises fail, it fails
    sampler = getattr(pl, _IMPLICATION_CHECKS[check_id])

    def haar(*args, **kwargs):
        frames = sampler(*args, **kwargs)
        return batch_random_planes(frames.shape[-1], frames.shape[-2], len(frames), np.random.default_rng(7))

    monkeypatch.setattr(pl, _IMPLICATION_CHECKS[check_id], haar)
    ok, witness = dict(suites._propositions_checks(n, 0, 40, 1))[check_id]()
    assert not ok, witness


# -- normal form ------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_normal_form_theta_recovery(n):
    tm = build_twistor_model(n)
    rng = np.random.default_rng(100 + n)
    for th in (0.0, 0.2, 0.5, math.pi / 4):
        for _ in range(10):
            P = rotated_w_theta(n, th, rng)
            nf = normal_form_theta(P, tm)
            assert abs(nf.theta - th) < 1e-8


def test_normal_form_four_way_equivalence_boundary():
    tm = build_twistor_model(2)
    nf = normal_form_theta(make_W_theta(2, math.pi / 4), tm)
    assert nf.dim_cap_H == 2 and nf.dim_cap_V == 1 and nf.ke_isotropic
    nf0 = normal_form_theta(make_W_theta(2, 0.0), tm)
    assert nf0.dim_cap_H == 1 and nf0.dim_cap_V == 0 and not nf0.ke_isotropic


def test_normal_form_requires_calibrated_plane():
    tm = build_twistor_model(1)
    with pytest.raises(ValueError):
        normal_form_theta(Plane.from_vectors(np.eye(6)[:3]), tm)


def test_envelope_standard_and_rotated():
    tm = build_twistor_model(2)
    env = quaternionic_envelope(make_W_theta(2, 0.3), tm)
    assert np.allclose(env[:, 4:], 0.0)
    assert np.allclose(env @ env.T, np.eye(4))
    rng = np.random.default_rng(9)
    g = random_sp_u1_element(2, rng)
    P = Plane.from_vectors(make_W_theta(2, 0.3).frame @ g.T)
    env_rot = quaternionic_envelope(P, tm)
    L0 = np.zeros((4, tm.dim))
    L0[:, :4] = np.eye(4)
    expected = L0 @ g.T
    assert np.max(np.abs(env_rot.T @ env_rot - expected.T @ expected)) < 1e-9


# Angles of the batch tests: interior ones and the corner pi/4, where the
# four-way equivalence flips dim_cap_V and ke_isotropic.
BATCH_THETAS = (0.0, 0.3, math.pi / 4)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_rotated_w_theta_matches_one_plane_draws(n, seed):
    rng_batch, rng_single, rng_g = (np.random.default_rng(seed) for _ in range(3))
    for th in BATCH_THETAS:
        frames, g = batch_rotated_w_theta(n, th, 7, rng_batch)
        single = np.array([rotated_w_theta(n, th, rng_single).frame for _ in range(7)])
        assert frames.tobytes() == single.tobytes()
        assert g.tobytes() == np.array([random_sp_u1_element(n, rng_g) for _ in range(7)]).tobytes()
    assert rng_batch.bit_generator.state == rng_single.bit_generator.state == rng_g.bit_generator.state


def _normal_form_fields(nf):
    return nf.theta, nf.envelope.tobytes(), nf.dim_cap_H, nf.dim_cap_V, nf.ke_isotropic


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_normal_form_matches_per_plane(n, seed):
    tm = build_twistor_model(n)
    rng = np.random.default_rng(seed)
    frames = np.concatenate([batch_rotated_w_theta(n, th, 5, rng)[0] for th in BATCH_THETAS])
    batched = normal_form_theta(frames, tm)
    single = [normal_form_theta(Plane.from_vectors(F, orthonormalize=False), tm) for F in frames]
    assert [_normal_form_fields(nf) for nf in batched] == [_normal_form_fields(nf) for nf in single]
    assert {nf.ke_isotropic for nf in batched} == {False, True}
    envelopes = quaternionic_envelope(frames, tm)
    assert envelopes.tobytes() == np.array([nf.envelope for nf in single]).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batch_raises_the_error_of_its_first_uncalibrated_plane(n, seed):
    tm = build_twistor_model(n)
    rng = np.random.default_rng(seed)
    frames = batch_rotated_w_theta(n, 0.3, 6, rng)[0].copy()
    bad = batch_random_planes(tm.dim, 3, 2, rng)
    frames[2], frames[4] = bad
    for fn in (normal_form_theta, quaternionic_envelope):
        with pytest.raises(ValueError) as alone:
            fn(Plane.from_vectors(frames[2], orthonormalize=False), tm)
        with pytest.raises(ValueError) as batched:
            fn(frames, tm)
        assert str(batched.value) == str(alone.value) == "plane is not calibrated by the real twistor 3-form"


def test_batch_raises_the_first_check_of_its_first_failing_plane():
    tm = build_twistor_model(2)
    rng = np.random.default_rng(0)
    frames = batch_rotated_w_theta(2, 0.3, 6, rng)[0].copy()

    def message(planes):
        with pytest.raises(ValueError) as exc:
            quaternionic_envelope(planes, tm, tol=-1.0)  # every residual fails
        return str(exc.value)

    # each message holds its plane's residual, and these differ between planes
    alone = [message(Plane.from_vectors(F, orthonormalize=False)) for F in frames]
    assert len(set(alone)) > 2 and all("residual" in m for m in alone)
    assert [message(frames[i:]) for i in range(6)] == alone
    frames[1] = batch_random_planes(tm.dim, 3, 1, rng)[0]
    assert message(frames[1:]) == message(Plane.from_vectors(frames[1])) == "plane is not calibrated by the real twistor 3-form"


def test_normal_form_tol_leaves_the_envelope_residual_gate():
    tm = build_twistor_model(2)
    rng = np.random.default_rng(0)
    P = rotated_w_theta(2, 0.3, rng)
    # a horizontal direction off the plane's quaternionic line, added at 1e-10
    env = quaternionic_envelope(P, tm)
    u = np.zeros(tm.dim)
    u[:8] = rng.standard_normal(8)
    u -= env.T @ (env @ u)
    frame = P.frame.copy()
    frame[0] += 1e-10 * u / np.linalg.norm(u)
    Q = Plane.from_vectors(frame)
    quaternionic_envelope(Q, tm)  # residual below the 1e-8 gate
    with pytest.raises(ValueError, match="escapes the quaternionic line"):
        quaternionic_envelope(Q, tm, tol=1e-12)
    # normal_form_theta's tol is the calibration and isotropy tolerance only
    strict = normal_form_theta(Q, tm, tol=1e-12)
    assert strict.to_json() == normal_form_theta(Q, tm).to_json()
    assert normal_form_theta(Q.frame[None], tm, tol=1e-12)[0].to_json() == strict.to_json()


def test_normal_form_rejects_malformed_batches():
    tm = build_twistor_model(1)
    frames = batch_rotated_w_theta(1, 0.3, 2, np.random.default_rng(0))[0]
    with pytest.raises(ValueError, match="batch of row frames"):
        normal_form_theta(frames[0], tm)
    with pytest.raises(ValueError, match="not orthonormal"):
        normal_form_theta(2 * frames, tm)
    with pytest.raises(ValueError, match="non-finite"):
        normal_form_theta(np.where(frames > 0.5, np.nan, frames), tm)
    for recover in (normal_form_theta, quaternionic_envelope):
        with pytest.raises(ValueError, match="3-planes"):
            recover(frames[:, :2], tm)
    assert normal_form_theta(frames[:0], tm) == []


def test_envelope_n1_is_everything():
    tm = build_twistor_model(1)
    env = quaternionic_envelope(make_W_theta(1, 0.1), tm)
    assert np.linalg.matrix_rank(env[:, :4]) == 4


# -- phases ---------------------------------------------------------------------


def test_phase_rotation_moves_calibrated_planes():
    """A vertical-plane rotation by phi pulls the real twistor 3-form back to
    the phase-rotated one, so each Re(e^{-i theta} gamma0) attains 1 on an
    explicitly rotated normal-form plane."""
    tm = build_twistor_model(1)
    re = tm.form("re_gamma0").to_float()
    im = tm.form("im_gamma0").to_float()
    W = make_W_theta(1, 0.3)
    for th in (0.0, math.pi / 8, math.pi / 2, 3 * math.pi / 4):
        f = re * math.cos(th) + im * math.sin(th)
        rot = np.eye(6)
        c, s = math.cos(-th), math.sin(-th)
        rot[4:, 4:] = [[c, -s], [s, c]]
        witness = Plane.from_vectors(W.frame @ rot.T)
        assert abs(evaluate(f, list(witness.frame)) - 1.0) < 1e-12


def test_phase_rigidity_scan_reports():
    tm = build_twistor_model(1)
    report = phase_rigidity_scan(tm, thetas=[0.0, math.pi / 2, math.pi],
                                 params=SearchParams(restarts=40, seed=2))
    data = report.to_json()
    assert len(data["rows"]) == 3
    assert data["rows"][0]["max_value"] == pytest.approx(1.0, abs=1e-6)
    assert data["rows"][2]["max_value"] == pytest.approx(1.0, abs=1e-6)


def test_rotated_phase_never_calibrates_random_planes():
    tm = build_twistor_model(1)
    re = tm.form("re_gamma0").to_float()
    im = tm.form("im_gamma0").to_float()
    f = re * math.cos(math.pi / 2) + im * math.sin(math.pi / 2)
    rng = np.random.default_rng(11)
    frames = batch_random_planes(6, 3, 10000, rng)
    vals = batch_evaluate(f, frames)
    assert not np.any(np.abs(vals - 1.0) <= 1e-9)


# -- generators -----------------------------------------------------------------


def test_generators_produce_orthonormal_frames():
    hk = build_hyperkahler_cone(2)
    lf = default_link_frame(2)
    tm = build_twistor_model(2)
    J = lf.transverse_structures
    rng = np.random.default_rng(8)
    hk_iso = [hk.skew("omega2"), hk.skew("omega3")]
    lf_iso = [lf.skew("Omega2"), lf.skew("Omega3")]
    tm_iso = [tm.skew("omega_KE"), tm.skew("omega_NK")]
    # (frames, structures leaving every plane invariant, 2-forms vanishing on it)
    batches = [
        (batch_complex_isotropic_planes(hk, 2, 50, rng), [hk.I1], hk_iso),
        (batch_double_lagrangian_planes(hk, 50, rng), [hk.I1], hk_iso),
        (batch_complex_planes((hk.I3,), 2, 50, rng), [hk.I3], []),
        (batch_cr_planes(lf, 50, rng, horizontal=True), [J[0]], lf_iso),
        (batch_cr_planes(lf, 50, rng, horizontal=False, p=3), [J[2]], []),
        (batch_cr_legendrian_planes(lf, 50, rng), [J[0]], lf_iso),
        (batch_hv_isotropic_planes(tm, tm.n, 50, rng), [], tm_iso),
        (batch_double_lagrangian_twistor(tm, 50, rng), [], tm_iso),
    ]
    for frames, structures, forms in batches:
        gram = np.einsum("bki,bli->bkl", frames, frames)
        eye = np.eye(frames.shape[1])
        assert np.max(np.abs(gram - eye)) < 1e-10
        for Jp in structures:
            assert np.max(projector_invariance_residual(frames, Jp)) <= 1e-10
        for w in forms:
            assert np.max(isotropy_residual(frames, w)) <= 1e-10


def test_generators_reject_overlong_requests():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        batch_complex_isotropic_planes(build_hyperkahler_cone(1), 3, 5, rng)
    with pytest.raises(ValueError):
        batch_hv_isotropic_planes(build_twistor_model(1), 3, 5, rng)


def test_intersection_dim():
    F = np.eye(6)[:3]
    assert intersection_dim(F, [0, 1, 2]) == 3
    assert intersection_dim(F, [0, 1]) == 2
    assert intersection_dim(F, [3, 4, 5]) == 0
    assert intersection_dim(np.stack([F, np.eye(6)[3:]]), [0, 1]).tolist() == [2, 0]


def test_batched_measurements_match_each_frame():
    hk = build_hyperkahler_cone(1)
    frames = batch_random_planes(hk.dim, 3, 6, np.random.default_rng(2))
    w = hk.skew("omega2")
    assert isotropy_residual(frames, w).tolist() == [isotropy_residual(F, w) for F in frames]
    assert projector_invariance_residual(frames, hk.I1).tolist() == [
        projector_invariance_residual(F, hk.I1) for F in frames
    ]
    assert isotropy_residual(frames[None], w).shape == (1, 6)
    assert isotropy_residual(frames[:0], w).shape == (0,)
    # a stack of structures gives, on a last axis, each structure's residual
    S, J = hk.skew(("omega1", "omega2", "omega3")), np.array(hk.complex_structures)
    for measure, stack in ((isotropy_residual, S), (projector_invariance_residual, J)):
        each = [[measure(F, M) for M in stack] for F in frames]
        assert measure(frames, stack).tolist() == each
        assert [measure(F, stack).tolist() for F in frames] == each
    assert isotropy_residual(frames[:0], S).shape == (0, 3)
