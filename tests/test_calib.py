"""Planes, comass search, the exact 2-form oracle, the reduction of cone
forms to the link, the structure of maximizers and the evaluator gradients."""

import json
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from caliber import calib, suites
from caliber.calib import (
    FormEvaluator,
    Plane,
    SearchParams,
    batch_evaluate,
    canonical_frame,
    canonical_frames,
    comass_2form_exact,
    comass_search,
    is_pure_type,
    isotropy_of_maximizers,
    orthonormal_rows,
)
from caliber.exterior import AltForm, evaluate, hodge, interior, pullback, wedge
from caliber.model import build_hyperkahler_cone, build_twistor_model, default_link_frame
from caliber.planes import alpha_residual
from caliber.registry import resolve

FAST = SearchParams(restarts=60, seed=5)


# -- planes -------------------------------------------------------------------


def test_plane_orthonormalization_preserves_orientation():
    rows = np.array([[2.0, 0, 0, 0], [1.0, 1.0, 0, 0], [0, 1.0, 1.0, 0]])
    P = Plane.from_vectors(rows)
    assert np.allclose(P.frame @ P.frame.T, np.eye(3))
    C = P.frame @ rows.T
    assert np.linalg.det(C) > 0


def test_plane_rejects_rank_deficient():
    with pytest.raises(ValueError):
        Plane.from_vectors([[1.0, 0, 0], [1.0, 1e-13, 0]])


def test_single_frame_orthonormal_rows_match_the_batched_path():
    rng = np.random.default_rng(2)
    for _ in range(200):
        k = int(rng.integers(1, 5))
        A = rng.standard_normal((k, k + int(rng.integers(0, 9))))
        one, batched = orthonormal_rows(A), orthonormal_rows(A[None])[0]
        assert one.tobytes() == batched.tobytes() and one.strides == batched.strides
    with pytest.raises(ValueError):
        orthonormal_rows(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]]))


def test_plane_strict_orthonormal_check():
    with pytest.raises(ValueError):
        Plane.from_vectors([[1.0, 1e-3, 0, 0]], orthonormalize=False)


def test_plane_json_roundtrip():
    P = Plane.from_vectors(np.eye(5)[:2])
    assert Plane.from_json(P.to_json()).spans_same_oriented(P)
    assert Plane.from_json({"frame": P.frame.tolist()}).dim == 5


def test_plane_json_rejects_a_declared_dim_other_than_the_row_length():
    with pytest.raises(ValueError, match="declared dim 8"):
        Plane.from_json({"dim": 8, "frame": np.eye(6)[:2].tolist()})


def test_canonical_frames_match_per_frame():
    # half the frames lie in coordinate subspaces, so their Gram-Schmidt skips
    # candidates that the other half keep
    rng = np.random.default_rng(8)
    k, N = 3, 7
    frames = [Plane.from_vectors(rng.standard_normal((k, N))).frame for _ in range(25)]
    for _ in range(25):
        axes = rng.choice(N, k + 1, replace=False)
        frame = np.zeros((k, N))
        frame[:, axes] = Plane.from_vectors(rng.standard_normal((k, k + 1))).frame
        frames.append(frame)
    batched = canonical_frames(np.array(frames))
    single = np.array([canonical_frame(f) for f in frames])
    assert np.max(np.abs(batched - single)) <= 1e-15
    for W, f in zip(batched, frames):
        assert Plane.from_vectors(W, orthonormalize=False).spans_same_oriented(Plane(f))


def test_canonical_frame_is_orientation_safe():
    rng = np.random.default_rng(4)
    for _ in range(20):
        P = Plane.from_vectors(rng.standard_normal((3, 6)))
        W = canonical_frame(P.frame)
        Q = Plane.from_vectors(W, orthonormalize=False)
        assert Q.spans_same_oriented(P)


# -- comass search ------------------------------------------------------------


def test_comass_unit_decomposable():
    f = AltForm.blade(6, [0, 1, 2], 1.0)
    res = comass_search(f, params=SearchParams(restarts=20, seed=1))
    assert abs(res.value - 1.0) < 1e-9
    expect = Plane.from_vectors(np.eye(6)[:3])
    assert res.argmax.spans_same_oriented(expect, 1e-6)
    assert evaluate(f, list(res.argmax.frame)) == pytest.approx(res.value, abs=1e-9)


def test_comass_scaled_blade():
    f = AltForm.blade(5, [0, 1], 3.0)
    assert abs(comass_search(f, params=FAST).value - 3.0) < 1e-9
    assert comass_2form_exact(f) == pytest.approx(3.0)


def test_comass_zero_form():
    res = comass_search(AltForm.zero(5, 2), params=SearchParams(restarts=3, seed=0))
    assert res.value == 0.0


def test_comass_rejects_complex():
    tm = build_twistor_model(1)
    with pytest.raises(TypeError):
        comass_search(tm.form("gamma0"))


def test_search_on_exact_form_matches_its_float_copy():
    # FormEvaluator takes float(c) of each coefficient, so an exact catalog
    # form needs no .to_float() copy: the search is the same to the bit
    params = SearchParams(restarts=40, seed=0)
    for name, space in suites._ANCHORS[1]:
        form, _ = resolve(name, 1, space)
        exact, copy = comass_search(form, params), comass_search(form.to_float(), params)
        assert np.float64(exact.value).tobytes() == np.float64(copy.value).tobytes(), name
        assert exact.all_values.tobytes() == copy.all_values.tobytes(), name
        assert exact.all_frames.tobytes() == copy.all_frames.tobytes(), name


@pytest.mark.parametrize("n, searches", [(1, 165), (2, 162), (3, 157)])
def test_calibrations_suite_searches_each_anchor_once(monkeypatch, n, searches):
    # duality, homogeneity and phase 0 read the anchor checks' searches
    # rather than repeating them with the same form and parameters, and
    # duality searches a self-dual form once
    calls = []

    def counted(form, params):
        calls.append(form)
        return comass_search(form, params)

    monkeypatch.setattr(suites, "comass_search", counted)
    assert suites.run_suite("calibrations", n, restarts=40).overall == "pass"
    assert len(calls) == searches


def test_hodge_duality_compares_forms_that_are_not_self_dual_at_n2():
    ok, witness = dict(suites._calibrations_checks(2, 0, 40))["hodge_duality_catalog"]()
    assert ok and "skipped" not in witness
    assert set(witness["rows"]) == {"omega1", "theta_I4", "theta_I6"}
    assert all(abs(row["comass"] - row["dual_comass"]) <= 2e-6 for row in witness["rows"].values())


def test_comass_theta_and_gamma_anchors():
    hk = build_hyperkahler_cone(1)
    assert abs(comass_search(hk.form("theta_I4").to_float(), params=FAST).value - 1.0) < 1e-6
    tm = build_twistor_model(1)
    assert abs(comass_search(tm.form("re_gamma0").to_float(), params=FAST).value - 1.0) < 1e-6


def test_comass_deterministic_given_seed():
    f = build_hyperkahler_cone(1).form("Phi2").to_float()
    r1 = comass_search(f, params=SearchParams(restarts=25, seed=9))
    r2 = comass_search(f, params=SearchParams(restarts=25, seed=9))
    assert r1.value == r2.value
    assert np.array_equal(r1.argmax.frame, r2.argmax.frame)
    assert r1.converged_fraction == r2.converged_fraction
    assert json.dumps(r1.to_json()) == json.dumps(r2.to_json())


def _seeded_normals(seed, restarts, n, k):
    return np.stack([np.random.default_rng(seed + r).standard_normal((n, k)) for r in range(restarts)])


def test_starting_draws_are_each_seeds_normals_whatever_ran_before():
    # restart r starts from default_rng(seed + r).standard_normal((n, k)),
    # bit for bit, whether its seed's draw is new, shorter or longer than n k
    calib._DRAWS.clear()
    for seed, restarts, n, k in [(3, 20, 4, 2), (0, 30, 12, 6), (10, 40, 3, 1), (5, 25, 16, 9), (1, 60, 7, 3)]:
        got = calib._starting_normals(seed, restarts, n, k)
        want = _seeded_normals(seed, restarts, n, k)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    calib._DRAWS.clear()
    assert calib._starting_normals(4, 9, 5, 2).tobytes() == _seeded_normals(4, 9, 5, 2).tobytes()


def test_search_is_the_same_cold_and_warm():
    f = build_hyperkahler_cone(1).form("theta_I4")
    params = SearchParams(restarts=30, seed=11)
    calib._DRAWS.clear()
    cold = comass_search(f, params=params)
    comass_search(build_twistor_model(1).form("re_gamma0"), params=SearchParams(restarts=50, seed=0))
    warm = comass_search(f, params=params)
    assert cold.all_values.tobytes() == warm.all_values.tobytes()
    assert cold.all_frames.tobytes() == warm.all_frames.tobytes()
    assert json.dumps(cold.to_json()) == json.dumps(warm.to_json())


def test_starting_draws_stay_within_their_cap():
    calib._DRAWS.clear()
    seeds = calib._DRAWS_CAP + 50
    first = calib._starting_normals(0, seeds, 2, 1)
    assert len(calib._DRAWS) == calib._DRAWS_CAP
    assert calib._starting_normals(0, seeds, 2, 1).tobytes() == first.tobytes()
    assert len(calib._DRAWS) == calib._DRAWS_CAP
    assert max(d.size for d in calib._DRAWS.values()) == calib._DRAW_SIZE


def _counted_search(monkeypatch, form, params):
    """comass_search of a real form, counting the frames that
    FormEvaluator.values and FormEvaluator.grads evaluate."""
    frames = {"values": 0, "grads": 0}
    for name in frames:
        method = getattr(FormEvaluator, name)

        def counted(self, V, _name=name, _method=method):
            frames[_name] += int(np.prod(V.shape[:-2]))
            return _method(self, V)

        monkeypatch.setattr(FormEvaluator, name, counted)
    return comass_search(form, params=params), frames


def _counted_gamma0_search(monkeypatch):
    """re_gamma0 at n=1 (200 restarts, seed 0), with its evaluator frames."""
    f = build_twistor_model(1).form("re_gamma0").to_float()
    return _counted_search(monkeypatch, f, SearchParams(restarts=200, seed=0))


def test_comass_line_search_spends_few_value_frames(monkeypatch):
    # a restart stalled at the float floor stops instead of halving its step
    # 30 times, and the current value is carried, not re-evaluated
    res, frames = _counted_gamma0_search(monkeypatch)
    assert abs(res.value - 1.0) < 1e-6
    assert frames["values"] <= 3 * frames["grads"]


def test_comass_ascent_spends_few_frames(monkeypatch):
    # Barzilai-Borwein trial steps under the nonmonotone Armijo test: most
    # line searches accept their first trial, and fewer iterations are needed
    f = build_hyperkahler_cone(2).form("theta_I6").to_float()
    res, frames = _counted_search(monkeypatch, f, SearchParams(restarts=200, seed=0))
    assert abs(res.value - 1.0) < 1e-9
    assert res.terminations["max_iters"] == 0 and res.terminations["max_halvings"] == 0
    assert frames["grads"] <= 3500
    assert frames["values"] <= 1.2 * frames["grads"]


def test_comass_terminations_account_for_every_restart(monkeypatch):
    res, _ = _counted_gamma0_search(monkeypatch)
    t = res.terminations
    assert set(t) == {"converged", "float_floor", "max_halvings", "max_iters"}
    assert sum(t.values()) == 200 == res.restarts_used
    assert t["max_iters"] == 0 and t["max_halvings"] == 0
    assert res.converged_fraction == 1.0
    assert res.to_json()["terminations"] == t


@pytest.mark.parametrize("c", [2.0**-40, 1e-10, -1e-10, 1e-3, 1e12, 1e300])
def test_comass_search_is_scale_free(c):
    # the ascent runs on the form scaled into [1, 2) by a power of two, so
    # neither the float floor, the step sizes nor |grad|^2 depend on |c|
    f = build_twistor_model(1).form("re_gamma0").to_float()
    params = SearchParams(restarts=40, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = comass_search(f * c, params=params)
    assert abs(res.value / abs(c) - 1.0) <= 1e-9
    assert res.terminations["max_iters"] == 0 and res.terminations["max_halvings"] == 0
    if np.frexp(c)[0] == 0.5:  # a power of two scales exactly
        unit = comass_search(f, params=params)
        assert res.value == c * unit.value
        assert np.array_equal(res.all_values, c * unit.all_values)
        assert np.array_equal(res.argmax.frame, unit.argmax.frame)


def test_maximizer_frames_tolerance_is_relative():
    # every restart reaches the comass |c| to about 15 digits, so a tolerance
    # relative to the value keeps the same restarts at every scale
    f = build_twistor_model(1).form("re_gamma0").to_float()
    params = SearchParams(restarts=40, seed=0)
    batches = [comass_search(f * c, params=params).maximizer_frames(1e-12) for c in (1.0, 1e6, 1e-13)]
    assert batches[0].shape[1:] == (3, 6)
    assert len({len(frames) for frames in batches}) == 1


def test_comass_rejects_degree_above_dimension():
    with pytest.raises(ValueError, match="4-form on R\\^3"):
        comass_search(AltForm.zero(3, 4), params=SearchParams(restarts=3, seed=0))


def test_comass_result_invariant():
    f = build_hyperkahler_cone(1).form("theta_I4").to_float()
    res = comass_search(f, params=FAST)
    assert abs(evaluate(f, list(res.argmax.frame)) - res.value) <= 1e-9


def test_hodge_dual_theta_comass_one():
    hk = build_hyperkahler_cone(1)
    dual = hodge(hk.form("theta_I4").to_float())
    assert abs(comass_search(dual, params=FAST).value - 1.0) < 1e-6


# -- 2-form oracle ------------------------------------------------------------


@pytest.mark.parametrize("N", [6, 8, 12])
def test_oracle_agreement_random_skew(N):
    rng = np.random.default_rng(N)
    for trial in range(6):
        A = rng.standard_normal((N, N))
        S = A - A.T
        f = AltForm(N, 2, {(i, j): S[i, j] for i in range(N) for j in range(i + 1, N)})
        exact = comass_2form_exact(f)
        found = comass_search(f, params=SearchParams(restarts=40, seed=trial)).value
        assert abs(exact - found) < 1e-7


def test_oracle_kahler_form():
    hk = build_hyperkahler_cone(1)
    assert comass_2form_exact(hk.form("omega1").to_float()) == pytest.approx(1.0, abs=1e-12)


def test_skew_matrix_wrong_degree():
    with pytest.raises(ValueError):
        comass_2form_exact(AltForm.blade(4, [0, 1, 2], 1.0))


# -- reduction along the radial line ---------------------------------------------
# A cone form reduces to the link by contracting with the base point x and
# pulling back by the link frame; both maps are integral, so == holds.


def _reduce_to_link(form, n):
    lf = default_link_frame(n)
    assert np.array_equal(lf.frame, np.rint(lf.frame))
    assert np.array_equal(lf.base_point, np.rint(lf.base_point))
    return lf, pullback(interior(lf.base_point.astype(int), form), lf.frame.astype(int))


def test_reduce_along_line_kahler_power_gives_cr_calibration():
    n = 1
    hk = build_hyperkahler_cone(n)
    lf, red = _reduce_to_link(hk.form("omega1_power2"), n)
    assert red == wedge(lf.form("alpha1"), lf.form("Omega1"))


def test_reduce_along_line_upsilon_gives_psi():
    n = 1
    hk = build_hyperkahler_cone(n)
    lf, red = _reduce_to_link(hk.form("upsilon1"), n)
    assert red.re == lf.form("re_psi1") and red.im == lf.form("im_psi1")


# -- maximizer structure ---------------------------------------------------------


def test_horizontal_maximizers_re_gamma1():
    # iota_{A1} Re gamma1 = 0 exactly, so every calibrated plane has alpha1 = 0
    lf = default_link_frame(1)
    A1 = np.eye(lf.dim, dtype=int)[0]
    assert interior(A1, lf.form("re_gamma1")).is_zero()
    assert not interior(A1, lf.form("phi1")).is_zero()
    res = comass_search(lf.form("re_gamma1").to_float(), params=SearchParams(restarts=120, seed=3))
    maxers = res.maximizer_frames(1e-12)
    assert len(maxers) >= 60
    assert np.max(alpha_residual(maxers, 1)) <= 1e-7
    tilted = maxers[0].copy()
    tilted[0] = 0.6 * tilted[0] + 0.8 * A1
    assert alpha_residual(tilted, 1) > 1e-7


def test_pure_type_projector():
    hk = build_hyperkahler_cone(1)
    assert is_pure_type(hk.form("re_upsilon1"), hk.I1)
    assert is_pure_type(hk.form("omega2"), hk.I1)
    assert not is_pure_type(hk.form("omega1"), hk.I1)
    tm = build_twistor_model(1)
    assert tm.J_minus.dtype.kind == "i"
    assert is_pure_type(tm.form("re_gamma0"), tm.J_minus)


def test_isotropy_of_maximizers_omega2():
    # maximizers of the second Kahler form are its complex lines, on which the
    # first Kahler form vanishes
    hk = build_hyperkahler_cone(1)
    res = comass_search(hk.form("omega2").to_float(), params=SearchParams(restarts=120, seed=6))
    maxers = res.maximizer_frames(1e-12)
    assert len(maxers) >= 60
    assert isotropy_of_maximizers(hk.form("omega2"), hk.I1, hk.form("omega1"), maxers)
    assert isotropy_of_maximizers(hk.form("omega2"), hk.I1, hk.form("omega1"), maxers[:0])


def test_isotropy_requires_pure_type():
    hk = build_hyperkahler_cone(1)
    with pytest.raises(ValueError):
        isotropy_of_maximizers(hk.form("omega1"), hk.I1, hk.form("omega2"), np.zeros((0, 2, 8)))


def test_batch_evaluate_matches_pointwise():
    hk = build_hyperkahler_cone(1)
    f = hk.form("Phi2").to_float()
    rng = np.random.default_rng(12)
    from caliber.planes import batch_random_planes

    frames = batch_random_planes(8, 4, 32, rng)
    vals = batch_evaluate(f, frames)
    for i in (0, 7, 31):
        assert vals[i] == pytest.approx(evaluate(f, list(frames[i])), abs=1e-12)


def test_values_in_chunks_match_pointwise():
    from itertools import combinations

    from caliber import calib

    rng = np.random.default_rng(3)
    N, k, T = 10, 5, 240
    blades = list(combinations(range(N), k))
    form = AltForm(N, k, {blades[i]: float(rng.standard_normal()) for i in rng.choice(len(blades), T, replace=False)})
    ev = FormEvaluator(form)
    step = calib._minor_plan(tuple(map(tuple, ev.idx.tolist()))).chunk
    V = calib._qf(rng.standard_normal((3 * step + 5, N, k)))  # orthonormal: values of order one
    vals = ev.values(V)
    assert vals.shape == (len(V),)
    ref = np.array([evaluate(form, list(v.T)) for v in V])
    assert np.max(np.abs(vals - ref)) <= 1e-12


def _frame_of_kind(rng, N, k, kind):
    V = rng.standard_normal((N, k))
    if kind == "repeated_column" and k >= 2:
        V[:, 1] = V[:, 0]
    if kind == "rank_k_minus_2" and k >= 2:
        V = rng.standard_normal((N, k - 2)) @ rng.standard_normal((k - 2, k))
    return V


def _random_sparse_form(rng, N, k, terms):
    blades = {tuple(sorted(rng.choice(N, k, replace=False))) for _ in range(terms)}
    return AltForm(N, k, {b: float(rng.standard_normal()) for b in blades})


@given(k=st.integers(1, 8), extra=st.integers(0, 4), terms=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_values_match_explicit_determinants(k, extra, terms, seed):
    rng = np.random.default_rng(seed)
    N = k + extra
    form = _random_sparse_form(rng, N, k, terms)
    kinds = ["random", "repeated_column", "rank_k_minus_2"]
    frames = np.stack([_frame_of_kind(rng, N, k, kind) for kind in kinds])
    vals = FormEvaluator(form).values(frames.reshape(3, 1, N, k))
    assert vals.shape == (3, 1)
    for kind, V, val in zip(kinds, frames, vals[:, 0]):
        ref = sum(c * np.linalg.det(V[list(idx)]) for idx, c in form.terms.items())
        # Hadamard bound on every blade determinant
        scale = sum(abs(c) for c in form.terms.values()) * np.prod(np.maximum(1.0, np.linalg.norm(V, axis=0)))
        assert abs(val - ref) <= 1e-12 * scale
        if kind != "random" and k >= 2:
            assert abs(val) <= 1e-12 * scale  # every blade determinant vanishes


def _positive_diagonal_qr(X):
    Q, R = np.linalg.qr(X)
    return Q * np.sign(np.einsum("...ii->...i", R))[..., None, :]


def test_retraction_is_positive_diagonal_qr():
    from caliber import calib

    for N in range(1, 17):
        for k in range(1, min(8, N) + 1):
            # starting frames drawn as comass_search draws them, then tangent steps from them
            X = np.stack([np.random.default_rng(r).standard_normal((N, k)) for r in range(40)])
            V = calib._qf(X)
            G = np.random.default_rng(N * 16 + k).standard_normal(X.shape)
            RG, _ = calib._tangent_grad(V, G)
            steps = [V + t * RG for t in (1e-8, 1e-3, 0.1, 1.0)]
            for Y in [X] + steps:
                Q = calib._qf(Y)
                assert np.max(np.abs(np.swapaxes(Q, -1, -2) @ Q - np.eye(k))) <= 1e-14
                # Q itself moves by about eps * cond(Y) under rounding; 1e-13 for cond(Y) <= 100
                tol = 1e-15 * np.maximum(100.0, np.linalg.cond(Y))
                assert np.all(np.max(np.abs(Q - _positive_diagonal_qr(Y)), axis=(1, 2)) <= tol)


# -- gradient -----------------------------------------------------------------


def _adjugate_grads(form, V):
    """Reference gradient from explicit (k-1) x (k-1) minors of each term."""
    N, k = V.shape
    G = np.zeros((N, k))
    for idx, c in form.terms.items():
        M = V[list(idx)]
        for p in range(k):
            for j in range(k):
                minor = np.delete(np.delete(M, p, axis=0), j, axis=1)
                G[idx[p], j] += c * (-1) ** (p + j) * np.linalg.det(minor)
    return G


@given(
    k=st.integers(1, 8),
    extra=st.integers(0, 4),
    terms=st.integers(1, 8),
    kind=st.sampled_from(["random", "repeated_column", "rank_k_minus_2"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_grads_match_adjugate_and_finite_differences(k, extra, terms, kind, seed):
    rng = np.random.default_rng(seed)
    N = k + extra
    form = _random_sparse_form(rng, N, k, terms)
    V = _frame_of_kind(rng, N, k, kind)
    ev = FormEvaluator(form)
    G = ev.grads(V)
    # Hadamard bound on every minor, with room for the unit perturbations below
    scale = sum(abs(c) for c in form.terms.values()) * np.prod(1.0 + np.linalg.norm(V, axis=0))
    ref = _adjugate_grads(form, V)
    assert np.max(np.abs(G - ref)) <= 1e-12 * scale
    if kind == "rank_k_minus_2" and k >= 2:
        assert np.max(np.abs(G)) <= 1e-12 * scale  # every cofactor vanishes
    # the form is linear in each entry, so a unit central difference is exact
    E = np.eye(N * k).reshape(N * k, N, k)
    fd = (ev.values(V + E) - ev.values(V - E)).reshape(N, k) / 2
    assert np.max(np.abs(G - fd)) <= 1e-12 * scale
    # a batch of frames with leading axes gives the per-frame gradients
    batched = ev.grads(np.stack([V, 2 * V, -V]).reshape(3, 1, N, k))
    assert batched.shape == (3, 1, N, k)
    expect = [G, 2 ** (k - 1) * G, (-1) ** (k - 1) * G]
    assert np.max(np.abs(batched[:, 0] - expect)) <= 1e-12 * scale * 2**k


@pytest.mark.parametrize("shape", [(9, 3), (8, 2), (4, 9, 3), (4, 8, 2), (8,)])
def test_evaluator_rejects_frames_of_the_wrong_shape(shape):
    ev = FormEvaluator(build_hyperkahler_cone(1).form("theta_I4").to_float())
    assert ev.values(np.eye(8)[:, :4]).shape == ()
    for method in (ev.values, ev.grads):
        with pytest.raises(ValueError, match="dimension mismatch"):
            method(np.zeros(shape))


def test_tuple_evaluator_reads_values_of_forms_of_one_degree_only():
    hk = build_hyperkahler_cone(1)
    ev = FormEvaluator((hk.form("theta_I4"), hk.form("Phi1")))
    assert ev.values(np.eye(8)[:, :4]).shape == (2,)
    with pytest.raises(TypeError, match="gradients are of one form"):
        ev.grads(np.eye(8)[:, :4])
    with pytest.raises(ValueError, match="share one space and one degree"):
        FormEvaluator((hk.form("omega1"), hk.form("Phi1")))
