"""Core alternating-algebra engine: wedge, contraction, star, evaluation, pullback."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from caliber.exterior import (
    AltForm,
    ComplexAltForm,
    evaluate,
    form_from_json,
    form_to_json,
    hodge,
    interior,
    pullback,
    wedge,
)
from caliber.model import (
    build_hyperkahler_cone,
    build_twistor_model,
    default_link_frame,
    random_sp_u1_element,
    random_unitary_pair_element,
)

# -- strategies -------------------------------------------------------------

DIM = 5


def blades(dim, degree):
    return st.sets(st.integers(0, dim - 1), min_size=degree, max_size=degree).map(lambda s: tuple(sorted(s)))


def forms(dim=DIM, degree=None):
    deg = st.integers(0, 3) if degree is None else st.just(degree)
    return deg.flatmap(
        lambda k: st.dictionaries(blades(dim, k), st.integers(-3, 3), max_size=4).map(
            lambda t: AltForm(dim, k, t)
        )
    )


vectors = st.lists(st.integers(-3, 3), min_size=DIM, max_size=DIM)


# -- construction i/o -------------------------------------------------------


def test_blade_validation():
    with pytest.raises(ValueError):
        AltForm(4, 2, {(1, 1): 1})
    with pytest.raises(ValueError):
        AltForm(4, 2, {(2, 1): 1})
    with pytest.raises(ValueError):
        AltForm(4, 2, {(0, 7): 1})
    with pytest.raises(ValueError):
        AltForm(4, 1, {(0, 1): 1})


def test_canonical_zero_dropping():
    f = AltForm(4, 1, {(0,): 1, (1,): 0})
    assert f.terms == {(0,): 1}
    assert AltForm(4, 1, {(0,): 1}) - AltForm(4, 1, {(0,): 1}) == AltForm.zero(4, 1)


def test_equality_is_exact():
    assert AltForm(4, 1, {(0,): Fraction(1, 2)}) != AltForm(4, 1, {(0,): 0.5000001})
    assert AltForm(4, 1, {(0,): 0.5}).approx_eq(AltForm(4, 1, {(0,): 0.5 + 1e-12}))


def test_json_schema_roundtrip():
    f = ComplexAltForm(AltForm(4, 2, {(0, 1): 1.5}), AltForm(4, 2, {(1, 2): -2.0}))
    data = form_to_json(f)
    assert data["dim"] == 4 and data["degree"] == 2
    assert all(set(t) == {"indices", "re", "im"} for t in data["terms"])
    assert form_from_json(json.dumps(data)) == f
    g = AltForm(3, 1, {(2,): 2.0})
    assert form_from_json(form_to_json(g)) == g


# -- wedge ------------------------------------------------------------------


def test_wedge_basis_blades():
    e1, e2 = AltForm.blade(4, [1]), AltForm.blade(4, [2])
    assert wedge(e1, e2) == AltForm(4, 2, {(1, 2): 1})
    assert wedge(e2, e1) == AltForm(4, 2, {(1, 2): -1})


def test_wedge_symplectic_square():
    om = AltForm(4, 2, {(0, 1): 1, (2, 3): 1})
    assert wedge(om, om) == AltForm(4, 4, {(0, 1, 2, 3): 2})


def test_wedge_gamma_split_at_link_frame():
    lf = default_link_frame(1)
    a2, a3 = lf.form("alpha2"), lf.form("alpha3")
    k2, k3 = lf.form("kappa2"), lf.form("kappa3")
    gamma = wedge(ComplexAltForm(a2, -a3), ComplexAltForm(k2, k3))
    assert gamma.re == wedge(a2, k2) + wedge(a3, k3)
    assert gamma.im == wedge(a2, k3) - wedge(a3, k2)


def test_wedge_dimension_mismatch():
    with pytest.raises(ValueError):
        wedge(AltForm.blade(4, [0]), AltForm.blade(5, [0]))


def test_wedge_overflow_is_zero():
    om = AltForm(4, 2, {(0, 1): 1})
    top = wedge(wedge(om, om), om)
    assert top.degree == 6 and top.is_zero()


@given(st.integers(0, 2).flatmap(lambda k: st.tuples(forms(degree=k), forms(degree=k), forms())))
def test_wedge_bilinear_associative(abc):
    a, b, c = abc
    assert wedge(a + b, c) == wedge(a, c) + wedge(b, c)
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@given(forms(), forms())
def test_wedge_graded_anticommutative(a, b):
    sign = (-1) ** (a.degree * b.degree)
    assert wedge(a, b) == wedge(b, a) * sign


# -- interior ---------------------------------------------------------------


def test_interior_basis():
    e12 = AltForm(4, 2, {(1, 2): 1})
    assert interior([0, 1, 0, 0], e12) == AltForm(4, 1, {(2,): 1})
    assert interior([0, 0, 1, 0], e12) == AltForm(4, 1, {(1,): -1})


def test_interior_reeb_kills_re_gamma1():
    lf = default_link_frame(1)
    a1 = np.eye(7)[0]
    assert interior(a1, lf.form("re_gamma1")).is_zero()


def test_interior_vertical_recovers_complex_pair():
    tm = build_twistor_model(2)
    g = tm.form("gamma0")
    f2, f3 = np.eye(tm.dim)[tm.v_indices[0]], np.eye(tm.dim)[tm.v_indices[1]]
    c1, c2 = interior(f2, g), interior(f3, g)
    total = ComplexAltForm(c1.re - c2.im, c1.im + c2.re)  # contraction with f2 + i f3
    assert total == ComplexAltForm(tm.form("beta2") * 2, tm.form("beta3") * 2)


def test_interior_degree_zero_rejected():
    with pytest.raises(ValueError):
        interior([1, 0, 0, 0], AltForm.constant(4, 1))


def test_interior_dimension_mismatch():
    with pytest.raises(ValueError):
        interior([1, 0], AltForm.blade(4, [0]))


@given(forms(degree=1), forms(degree=2), vectors)
def test_interior_antiderivation(a, b, v):
    lhs = interior(v, wedge(a, b))
    rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b)) * ((-1) ** a.degree)
    assert lhs == rhs


@given(forms(degree=2), forms(degree=2), vectors)
def test_interior_antiderivation_even(a, b, v):
    lhs = interior(v, wedge(a, b))
    rhs = wedge(interior(v, a), b) + wedge(a, interior(v, b))
    assert lhs == rhs


# -- hodge ------------------------------------------------------------------


def test_hodge_of_one_is_volume():
    assert hodge(AltForm.constant(3, 1)) == AltForm.blade(3, [0, 1, 2])


def test_hodge_involution_omega_on_r8():
    om = AltForm(8, 2, {(0, 1): 1, (2, 3): 1, (4, 5): 1, (6, 7): 1})
    assert hodge(hodge(om)) == om  # k=2, N=8: (-1)^{2*6} = +1


@pytest.mark.parametrize("N", range(1, 11))
def test_hodge_involution_sign_all_degrees(N):
    import itertools

    for k in range(N + 1):
        for idx in itertools.islice(itertools.combinations(range(N), k), 4):
            b = AltForm.blade(N, idx)
            assert hodge(hodge(b)) == b * ((-1) ** (k * (N - k)))


@given(forms())
def test_hodge_is_isometry_on_coefficients(a):
    assert sorted(abs(c) for c in hodge(a)._raw_terms().values()) == sorted(
        abs(c) for c in a._raw_terms().values()
    )


# -- evaluate ---------------------------------------------------------------


def test_evaluate_kahler_on_complex_line():
    lf_dim = 8
    om = AltForm(lf_dim, 2, {(0, 1): 1, (2, 3): 1, (4, 5): 1, (6, 7): 1})
    e0, e1 = np.eye(lf_dim)[0], np.eye(lf_dim)[1]
    assert evaluate(om, [e0, e1]) == 1


def test_evaluate_omega_ke_on_v_theta():
    import math

    tm = build_twistor_model(1)
    for th in (0.0, 0.37, math.pi / 4):
        c, s = math.cos(th), math.sin(th)
        v2 = np.zeros(6)
        v2[[2, 3, 4, 5]] = [-s, -c, -c, -s]
        v3 = np.zeros(6)
        v3[[2, 3, 4, 5]] = [c, s, -s, -c]
        val = evaluate(tm.form("omega_KE").to_float(), [v2, v3])
        assert abs(val - 2 * (c * c - s * s)) < 1e-12


def test_evaluate_re_gamma0_on_normal_form_frame():
    from caliber.model import make_W_theta

    tm = build_twistor_model(1)
    W = make_W_theta(1, 0.0)
    assert abs(evaluate(tm.form("re_gamma0").to_float(), list(W.frame)) - 1.0) < 1e-12


def test_evaluate_arity_mismatch():
    with pytest.raises(ValueError):
        evaluate(AltForm.blade(4, [0, 1]), [[1, 0, 0, 0]])


@given(forms(degree=2), vectors, vectors)
def test_evaluate_antisymmetry(a, u, v):
    assert evaluate(a, [u, v]) == -evaluate(a, [v, u])


@given(forms(degree=3), vectors, vectors, vectors)
def test_evaluate_transposition_sign(a, u, v, w):
    assert evaluate(a, [u, v, w]) == -evaluate(a, [v, u, w]) == evaluate(a, [v, w, u])


# -- pullback ---------------------------------------------------------------


def test_pullback_identity():
    om = AltForm(4, 2, {(0, 1): 1.0, (2, 3): -2.0})
    assert pullback(om, np.eye(4)).approx_eq(om, 1e-15)


def test_pullback_contravariant_composition():
    rng = np.random.default_rng(3)
    f = AltForm(5, 2, {(0, 1): 1.0, (1, 4): 0.5, (2, 3): -1.0})
    A = rng.standard_normal((5, 4))
    B = rng.standard_normal((4, 3))
    assert pullback(pullback(f, A), B).approx_eq(pullback(f, A @ B), 1e-10)


def test_pullback_shape_mismatch():
    with pytest.raises(ValueError):
        pullback(AltForm.blade(4, [0]), np.eye(3))


def test_pullback_to_a_smaller_space_keeps_the_degree():
    f = AltForm.blade(4, [0, 1, 2])
    for L in (np.ones((4, 2)), np.ones((4, 2), dtype=int)):
        got = pullback(f, L)
        assert got.is_zero() and (got.dim, got.degree) == (2, 3)


def test_pullback_float_matches_blade_determinants():
    # the LU determinant sum that the float path replaced, kept as a reference
    rng = np.random.default_rng(8)
    L = rng.standard_normal((7, 5))
    for k in (1, 2, 3, 5):
        terms = {tuple(sorted(rng.choice(7, k, replace=False).tolist())): float(rng.standard_normal())
                 for _ in range(6)}
        f = AltForm(7, k, terms)
        got = pullback(f, L)
        for J in itertools.combinations(range(5), k):
            ref = sum(c * np.linalg.det(L[np.ix_(T, J)]) for T, c in f.terms.items())
            assert abs(got.coefficient(J) - ref) <= 1e-12 * max(1.0, abs(ref)), (k, J)


def test_pullback_exact_matches_float_path_on_cone_catalog():
    hk = build_hyperkahler_cone(1)
    L = np.random.default_rng(4).integers(-3, 4, size=(hk.dim, hk.dim))
    for name, f in hk.catalog.items():
        for part in (f.re, f.im) if isinstance(f, ComplexAltForm) else (f,):
            exact = pullback(part, L)
            assert all(type(c) in (int, Fraction) for c in exact.terms.values()), name
            numeric = pullback(part, L.astype(float))
            scale = max(1.0, exact.norm_inf())
            assert exact.to_float().approx_eq(numeric, 1e-12 * scale), name


def test_pullback_by_fraction_rows_is_exact():
    f = AltForm(3, 2, {(0, 1): 1, (1, 2): Fraction(1, 3)})
    rows = [[Fraction(1, 2), 0], [0, Fraction(2, 3)], [1, 1]]
    # det rows (0, 1) = 1/3 and det rows (1, 2) = -2/3, so 1/3 - 2/9
    got = pullback(f, rows)
    assert got == AltForm(2, 2, {(0, 1): Fraction(1, 9)})
    assert type(got.coefficient((0, 1))) is Fraction


def test_exact_pullback_contracts_each_column_prefix_once(monkeypatch):
    import caliber.exterior as ext

    f = build_hyperkahler_cone(1).form("omega1")
    L = np.random.default_rng(5).integers(-3, 4, size=(f.dim, 7))
    expected = {J: evaluate(f, [L[:, j].tolist() for j in J]) for J in itertools.combinations(range(7), 2)}
    calls = []

    def counted(v, a):
        calls.append(a.degree)
        return interior(v, a)

    monkeypatch.setattr(ext, "interior", counted)
    got = pullback(f, L)
    # 6 first columns that some pair extends, then the 21 pairs: 42 from scratch
    assert len(calls) == 6 + 21
    assert got == AltForm(7, 2, {J: v for J, v in expected.items() if v})


@pytest.mark.parametrize("n", [1, 2])
def test_gamma0_stabilizer_fixes_catalog(n):
    tm = build_twistor_model(n)
    rng = np.random.default_rng(17)
    for _ in range(100):
        g = random_sp_u1_element(n, rng)
        assert pullback(tm.form("gamma0"), g).approx_eq(tm.form("gamma0"), 1e-9)
        assert pullback(tm.form("omega_KE"), g).approx_eq(tm.form("omega_KE").to_float(), 1e-9)
        assert pullback(tm.form("omega_NK"), g).approx_eq(tm.form("omega_NK").to_float(), 1e-9)


def test_generic_unitary_moves_gamma0():
    tm = build_twistor_model(1)
    rng = np.random.default_rng(23)
    moved = 0
    for _ in range(20):
        g = random_unitary_pair_element(1, rng)
        if not pullback(tm.form("gamma0"), g).approx_eq(tm.form("gamma0"), 1e-6):
            moved += 1
    assert moved == 20
