"""Flat-model constructors: structure relations, catalogs, group actions."""

import math
from fractions import Fraction

import numpy as np
import pytest

from caliber import _quat, registry
from caliber.calib import FormEvaluator
from caliber.exterior import AltForm, ComplexAltForm, evaluate, interior, power, pullback, wedge
from caliber.model import (
    build_hyperkahler_cone,
    build_link_frame,
    build_twistor_model,
    default_link_frame,
    divided_powers,
    make_V_theta,
    make_W_theta,
    random_sp_cone_isometry,
)
from caliber.planes import batch_random_planes

EPS = {
    (0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
    (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1,
}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_quaternion_relations_exact(n):
    hk = build_hyperkahler_cone(n)
    I1, I2, I3 = hk.complex_structures
    N = hk.dim
    assert np.array_equal(I1 @ I2, I3)
    assert np.array_equal(I2 @ I3, I1)
    assert np.array_equal(I3 @ I1, I2)
    for M in (I1, I2, I3):
        assert np.array_equal(M @ M, -np.eye(N, dtype=int))
        assert np.array_equal(M @ M.T, np.eye(N, dtype=int))


@pytest.mark.parametrize("n", [1, 2])
def test_kahler_forms_match_structures(n):
    hk = build_hyperkahler_cone(n)
    rng = np.random.default_rng(0)
    Is = hk.complex_structures
    ws = [hk.form(f"omega{p}").to_float() for p in (1, 2, 3)]
    for _ in range(1000 // 4):
        X, Y = rng.standard_normal((2, hk.dim))
        for p in range(3):
            assert abs(evaluate(ws[p], [X, Y]) - (Is[p] @ X) @ Y) < 1e-12
        for (p, q, r), sign in EPS.items():
            assert abs(evaluate(ws[p], [Is[q] @ X, Y]) - sign * evaluate(ws[r], [X, Y])) < 1e-11


def test_cone_catalog_identities_n1():
    hk = build_hyperkahler_cone(1)
    w1, w2, w3 = (hk.form(f"omega{p}") for p in (1, 2, 3))
    assert hk.form("theta_I4") == (wedge(w2, w2) - wedge(w3, w3)) * Fraction(1, 2)
    assert hk.form("Phi2") == wedge(w1, w1) * Fraction(1, 2) - hk.form("theta_I4")
    assert hk.form("theta_K2") == w1
    assert hk.form("upsilon1") == ComplexAltForm(w2, w3).wedge(ComplexAltForm(w2, w3)) * Fraction(1, 2)
    assert hk.form("re_upsilon1") == hk.form("theta_I4")
    assert hk.form("Lambda") == (wedge(w1, w1) + wedge(w2, w2) + wedge(w3, w3)) * Fraction(1, 6)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cone_divided_power_families(n):
    hk = build_hyperkahler_cone(n)
    for p, label in zip((1, 2, 3), "IJK"):
        w = hk.form(f"omega{p}")
        for k in range(2, n + 2):
            assert hk.form(f"omega{p}_power{k}") == power(w, k) * Fraction(1, math.factorial(k))
        assert f"omega{p}_power{n + 2}" not in hk.catalog
        assert divided_powers(w, 1) == [power(w, 0), w]
        assert hk.form(f"theta_{label}{2 * n + 2}") == hk.form(f"re_upsilon{p}")
        assert hk.form(f"upsilon{p}") == power(hk.form(f"sigma{p}"), n + 1) * Fraction(1, math.factorial(n + 1))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_link_top_theta_is_re_psi(n):
    lf = default_link_frame(n)
    for p, label in zip((1, 2, 3), "IJK"):
        assert lf.form(f"theta_{label}{2 * n + 1}") == lf.form(f"psi{p}").re


@pytest.mark.parametrize("space", registry.SPACES)
@pytest.mark.parametrize("n", [1, 2, 3])
def test_registry_catalog_is_the_model_catalog(space, n):
    model = registry.model(space, n)
    cat = registry.catalog(space, n)
    assert list(cat) == list(model.catalog)
    assert all(cat[name] is model.catalog[name] for name in cat)
    cat.clear()
    assert registry.catalog(space, n)


class _FixedValues:
    """Stands in for a FormEvaluator whose values are given."""

    def __init__(self, values):
        self.out = np.asarray(values)

    def values(self, V):
        return self.out


def test_complex_value_keeps_signed_zeros():
    # the float kernel never returns -0.0 itself, so fixed values stand in
    lf = build_link_frame(1)
    # psi1 is one evaluator over (Re, Im), its values (..., 2) spanning (0, 2)
    lf.cache[("evaluator", ("psi1",))] = (_FixedValues([[-0.0, -0.0], [1.0, -0.0]]), ((0, 2),))
    got = lf.value("psi1", np.zeros((2, 3, lf.dim)))
    assert np.signbit(got.real).tolist() == [True, False] and np.signbit(got.imag).all()
    lf.cache[("evaluator", ("psi1",))] = (_FixedValues([-0.0, -0.0]), ((0, 2),))
    one = lf.value("psi1", np.zeros((3, lf.dim)))
    assert type(one) is complex and math.copysign(1, one.real) == math.copysign(1, one.imag) == -1


@pytest.mark.parametrize("space", registry.SPACES)
@pytest.mark.parametrize("n", [1, 2])
def test_complex_value_is_its_parts_values_on_batches(space, n):
    # a complex form is read by one evaluator over (Re, Im); on a batch one
    # frame wider than two of its plan's chunks each part is, bit for bit,
    # the value of that part's own evaluator
    model = registry.model(space, n)
    rng = np.random.default_rng(24 + n)
    forms = {name: f for name, f in model.catalog.items() if isinstance(f, ComplexAltForm)}
    assert forms
    for name, form in forms.items():
        model.value(name, np.eye(model.dim)[:form.degree])
        ev, _ = model.cache[("evaluator", (name,))]
        F = batch_random_planes(model.dim, form.degree, 2 * ev._plan.chunk + 1, rng)
        got, V = model.value(name, F), np.swapaxes(F, -1, -2)
        assert got.real.tobytes() == FormEvaluator(form.re).values(V).tobytes(), name
        assert got.imag.tobytes() == FormEvaluator(form.im).values(V).tobytes(), name


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_frame_values_are_the_batch_of_one(n):
    # a single (N, k) frame runs the batch kernel with no batch axis: every
    # real catalog form (and each part of a complex one), alone and in one
    # tuple evaluator per degree, gives the bits of the batch of one
    rng = np.random.default_rng(40 + n)
    for space in registry.SPACES:
        model = registry.model(space, n)
        by_degree = {}
        for f in model.catalog.values():
            for part in (f.re, f.im) if isinstance(f, ComplexAltForm) else (f,):
                if part.degree:
                    by_degree.setdefault(part.degree, []).append(part)
        for k, parts in by_degree.items():
            for ev, shape in [(FormEvaluator(p), ()) for p in parts] + [(FormEvaluator(tuple(parts)), (len(parts),))]:
                for frame in batch_random_planes(model.dim, k, 3, rng):
                    one, batch = ev.values(frame.T), ev.values(frame.T[None])
                    assert one.shape == shape and one.tobytes() == batch[0].tobytes(), (space, k)
        k = max(by_degree, key=lambda k: len(by_degree[k]))  # and one tuple read of the model
        names = tuple(name for name, f in model.catalog.items() if f.degree == k)
        frame = batch_random_planes(model.dim, k, 1, rng)[0]
        one, batch = model.value(names, frame), model.value(names, frame[None])
        assert [type(v) for v in one] == [complex if b.dtype.kind == "c" else float for b in batch]
        assert np.array(one).tobytes() == np.concatenate(batch).tobytes()


def test_registry_rejects_an_unknown_space():
    with pytest.raises(ValueError, match="unknown space"):
        registry.model("sphere", 1)


@pytest.mark.parametrize("n", [1, 2])
def test_theta_k2_equals_omega1_any_n(n):
    assert build_hyperkahler_cone(n).form("theta_K2") == build_hyperkahler_cone(n).form("omega1")


@pytest.mark.parametrize("n", [1, 2])
def test_sp_invariance_of_cone_catalog(n):
    hk = build_hyperkahler_cone(n)
    rng = np.random.default_rng(11)
    names = ["omega1", "omega2", "omega3", "theta_I4", "Phi1", "Phi2", "Phi3", "Lambda"]
    if n >= 2:
        names.append("theta_I6")
    for _ in range(20):
        g = random_sp_cone_isometry(n, rng)
        assert np.max(np.abs(g @ g.T - np.eye(hk.dim))) < 1e-12
        for name in names:
            f = hk.form(name)
            assert pullback(f, g).approx_eq(f.to_float(), 1e-10), name


@pytest.mark.parametrize("n", [1, 2, 3])
def test_default_link_catalog_is_exact(n):
    for name, f in default_link_frame(n).catalog.items():
        for part in (f.re, f.im) if isinstance(f, ComplexAltForm) else (f,):
            assert all(type(c) in (int, Fraction) for c in part.terms.values()), name


@pytest.mark.parametrize("m", [1, 2, 3])
def test_quaternion_helpers_stack_bit_for_bit(m):
    rng = np.random.default_rng(m)
    G = rng.standard_normal((2, 3, m, m, 4))
    B = _quat.gram_schmidt_sp(G)
    assert B.shape == (2, 3, m, m, 4)
    assert B.tobytes() == np.array([_quat.gram_schmidt_sp(g) for g in G.reshape(6, m, m, 4)]).tobytes()
    C = np.exp(1j * rng.standard_normal((6, 2 * m, 2 * m)))
    assert _quat.realify_interleaved(C).tobytes() == np.array([_quat.realify_interleaved(c) for c in C]).tobytes()


# -- link frame ---------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_link_frame_structure_relations(n):
    lf = default_link_frame(n)
    d = lf.dim
    basis = np.eye(d)
    # alpha_p(A_q) = delta_pq
    for p in (1, 2, 3):
        a = lf.form(f"alpha{p}")
        for q in (1, 2, 3):
            assert evaluate(a.to_float() if hasattr(a, "to_float") else a, [basis[q - 1]]) == (p == q)
    # J_p A_q = eps_pqr A_r, J_p A_p = 0
    J = lf.transverse_structures
    for p in range(3):
        assert np.allclose(J[p] @ basis[p], 0.0)
        for (a, b, c), sign in EPS.items():
            if a == p:
                assert np.allclose(J[p] @ basis[b], sign * basis[c])
    # Omega_p = alpha_q ^ alpha_r + kappa_p, cyclic
    for p, (q, r) in {1: (2, 3), 2: (3, 1), 3: (1, 2)}.items():
        lhs = lf.form(f"Omega{p}")
        rhs = wedge(lf.form(f"alpha{q}"), lf.form(f"alpha{r}")) + lf.form(f"kappa{p}")
        assert lhs == rhs
    # Re(Gamma_1) split
    assert lf.form("re_gamma1") == wedge(lf.form("alpha2"), lf.form("kappa2")) + wedge(
        lf.form("alpha3"), lf.form("kappa3")
    )


def test_link_theta_forms():
    lf = default_link_frame(1)
    assert lf.form("theta_I1") == lf.form("alpha2")
    tI3 = wedge(lf.form("alpha2"), lf.form("Omega2")) - wedge(lf.form("alpha3"), lf.form("Omega3"))
    assert lf.form("theta_I3") == tI3
    tI3_kappa = wedge(lf.form("alpha2"), lf.form("kappa2")) - wedge(lf.form("alpha3"), lf.form("kappa3"))
    assert lf.form("theta_I3") == tI3_kappa
    a123 = wedge(wedge(lf.form("alpha1"), lf.form("alpha2")), lf.form("alpha3"))
    ak = [wedge(lf.form(f"alpha{p}"), lf.form(f"kappa{p}")) for p in (1, 2, 3)]
    assert lf.form("phi1") == a123 - ak[0] + ak[1] + ak[2]
    assert lf.form("phi2") == a123 + ak[0] - ak[1] + ak[2]
    assert lf.form("phi3") == a123 + ak[0] + ak[1] - ak[2]


@pytest.mark.parametrize("n", [1, 2])
def test_link_catalog_is_base_point_independent(n):
    # frames at different base points are related by an orthogonal map, so the
    # frame-coordinate catalogs coincide; checked at a rotated Reeb image of
    # the default point and at a generic unit point
    hk = build_hyperkahler_cone(n)
    lf0 = default_link_frame(n)
    rng = np.random.default_rng(7)
    x_random = rng.standard_normal(4 * n + 4)
    x_random /= np.linalg.norm(x_random)
    x_reeb = (hk.I1 @ lf0.base_point).astype(float)
    for x in (x_reeb, x_random):
        lf1 = build_link_frame(n, x)
        for name in ("alpha1", "Omega2", "kappa3", "re_gamma1", "im_gamma1", "phi2",
                     "theta_I3", "omega1_tilde", "xi1"):
            a, b = lf1.form(name), lf0.form(name)
            b = b.to_float() if hasattr(b, "to_float") else b
            assert a.approx_eq(b, 1e-9), name


def test_link_frame_rejects_bad_base_point():
    with pytest.raises(ValueError):
        build_link_frame(1, np.ones(8))
    with pytest.raises(ValueError):
        build_link_frame(1, np.ones(7) / math.sqrt(7))


def test_model_builders_reject_out_of_range_n():
    with pytest.raises(ValueError):
        build_hyperkahler_cone(0)
    with pytest.raises(ValueError):
        build_hyperkahler_cone(4)
    with pytest.raises(ValueError):
        build_twistor_model(0)


def test_reeb_contraction_kills_descending_forms():
    lf = default_link_frame(2)
    A1 = np.eye(lf.dim)[0]
    assert interior(A1, lf.form("re_gamma1")).is_zero()
    assert interior(A1, lf.form("im_gamma1")).is_zero()
    assert interior(A1, lf.form("xi1")).is_zero()
    assert not interior(A1, lf.form("alpha1")).is_zero()


# -- twistor model ------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_twistor_structure_equations(n):
    tm = build_twistor_model(n)
    assert tm.form("omega_KE") == tm.form("omega_H") + tm.form("omega_V")
    assert tm.form("omega_NK") == tm.form("omega_H") * 2 - tm.form("omega_V")
    assert tm.form("omega_minus") == tm.form("omega_H") - tm.form("omega_V")
    assert tm.form("xi") == wedge(tm.form("beta2"), tm.form("beta2")) + wedge(tm.form("beta3"), tm.form("beta3"))
    # J_plus is the omega_KE structure, J_minus flips the vertical part
    rng = np.random.default_rng(2)
    for _ in range(20):
        X, Y = rng.standard_normal((2, tm.dim))
        assert abs(evaluate(tm.form("omega_KE").to_float(), [X, Y]) - (tm.J_plus @ X) @ Y) < 1e-12
        assert abs(evaluate(tm.form("omega_minus").to_float(), [X, Y]) - (tm.J_minus @ X) @ Y) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_gamma0_types(n):
    tm = build_twistor_model(n)
    g = tm.form("gamma0")
    rng = np.random.default_rng(3)
    for _ in range(25):
        u, v, w = rng.standard_normal((3, tm.dim))
        base = evaluate(g, [u, v, w])
        # (3,0) for J_minus: holomorphic in each argument
        assert abs(evaluate(g, [tm.J_minus @ u, v, w]) - 1j * base) < 1e-10
        # J_plus-type (2,1): net eigenvalue i under J_plus on all arguments
        assert abs(evaluate(g, [tm.J_plus @ u, tm.J_plus @ v, tm.J_plus @ w]) - 1j * base) < 1e-10


def test_su3_volume_normalization_n1():
    tm = build_twistor_model(1)
    g = tm.form("gamma0")
    vol = wedge(g, g.conjugate()) * complex(0.0, -0.125)
    assert vol.im.is_zero()
    assert vol.re == AltForm.blade(6, range(6), 1.0)


def test_vertical_contraction_of_re_gamma0():
    for n in (1, 2):
        tm = build_twistor_model(n)
        f2 = np.eye(tm.dim)[tm.v_indices[0]]
        assert interior(f2, tm.form("re_gamma0")) == tm.form("beta2")


def test_omega_nk_values():
    tm = build_twistor_model(1)
    e = np.eye(6)
    wnk = tm.form("omega_NK").to_float()
    assert evaluate(wnk, [e[0], e[1]]) == 2.0
    assert evaluate(wnk, [e[4], e[5]]) == -1.0


# -- V_theta -----------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2])
def test_v_theta_planes(n):
    tm = build_twistor_model(n)
    re_g = tm.form("re_gamma0").to_float()
    from caliber.planes import intersection_dim

    W = make_W_theta(n, math.pi / 4)
    assert intersection_dim(W.frame, range(4 * n)) == 2
    W0 = make_W_theta(n, 0.0)
    assert intersection_dim(W0.frame, range(4 * n)) == 1
    for th in (0.0, 0.23, 0.61, math.pi / 4):
        W = make_W_theta(n, th)
        assert abs(evaluate(re_g, list(W.frame)) - 1.0) < 1e-12
        V = make_V_theta(n, th)
        assert V.degree == 2 and np.allclose(V.frame @ V.frame.T, np.eye(2))


# -- the cone -> link -> twistor dictionary ------------------------------------


def _exact(form):
    """The form itself, after asserting that every coefficient is an int or a
    Fraction, so that no float enters an == comparison unnoticed."""
    parts = (form.re, form.im) if isinstance(form, ComplexAltForm) else (form,)
    coeffs = [c for part in parts for c in part.terms.values()]
    assert coeffs and all(type(c) in (int, Fraction) for c in coeffs)
    return form


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cone_link_twistor_dictionary_exact(n):
    """Cone -> link: at the base point x of the default link frame, contracting
    with x and pulling back by the frame sends omega1^2/2 to alpha1 ^ Omega1 and
    upsilon1 to psi1.  Link -> twistor: the submersion p along A_1 pulls gamma0
    back to gamma1.  Every map is integral and every catalog exact, so each
    identity holds with ==; a sign flip in Re gamma0 and omega2 in place of
    omega1 break their identities."""
    hk, lf, tm = build_hyperkahler_cone(n), default_link_frame(n), build_twistor_model(n)
    assert np.array_equal(lf.frame, np.rint(lf.frame))
    assert np.array_equal(lf.base_point, np.rint(lf.base_point))
    frame, x = lf.frame.astype(int), lf.base_point.astype(int)

    def to_link(form):
        return _exact(pullback(interior(x, form), frame))

    alpha_Omega = wedge(lf.form("alpha1"), lf.form("Omega1"))
    assert to_link(hk.form("omega1_power2")) == alpha_Omega
    upsilon = to_link(hk.form("upsilon1"))
    assert upsilon.re == lf.form("re_psi1") and upsilon.im == lf.form("im_psi1")

    p = lf.submersion_to_twistor()
    assert p.dtype.kind == "i"
    re_gamma0 = tm.form("re_gamma0")
    assert _exact(pullback(re_gamma0, p)) == lf.form("re_gamma1")
    assert _exact(pullback(tm.form("im_gamma0"), p)) == lf.form("im_gamma1")

    terms = re_gamma0.terms
    first = next(iter(terms))
    flipped = AltForm(tm.dim, 3, {**terms, first: -terms[first]})
    assert _exact(pullback(flipped, p)) != lf.form("re_gamma1")
    assert to_link(hk.form("omega2_power2")) != alpha_Omega
