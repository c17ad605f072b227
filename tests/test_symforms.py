"""Exact symbolic cone calculus: derivative identities, splitting, potentials."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from caliber import symforms as sf
from caliber.exterior import AltForm, ComplexAltForm, _drop_sign, interior, power, pullback, wedge, wedge_powers
from caliber.model import build_link_frame


def x_form(dim, mask, poly):
    return sf.RationalForm(dim, bin(mask).count("1"), {mask: sf.RCoef.from_poly(poly)})


# -- coefficients -----------------------------------------------------------


def test_rcoef_sumsq_reduction_is_canonical():
    dim = 3
    ss = sf.Poly(dim, {(2 << 0): 1, (2 << 8): 1, (2 << 16): 1})
    c = sf.RCoef(dim, ss, sf.Poly(dim, {}), 1)  # |x|^2 / r^2 == 1
    assert c == sf.RCoef.const(dim, 1)
    assert c.s == 0 and c.p.terms == {0: 1}


def _counting_subtractions(monkeypatch) -> list:
    """A list that gets one entry per `RCoef.__sub__` call from now on."""
    calls, sub = [], sf.RCoef.__sub__
    monkeypatch.setattr(sf.RCoef, "__sub__", lambda a, b: calls.append(1) or sub(a, b))
    return calls


def test_reduced_coefficients_compare_with_no_subtraction(monkeypatch):
    # reduced coefficients of one value have one (p, q, s), so equal exact
    # forms compare coefficient by coefficient without a difference
    cat = sf.link_extension_catalog(1)
    lhs, rhs = sf.ext_d(cat["alpha1"]), cat["Omega1"] * 2
    subtractions = _counting_subtractions(monkeypatch)
    assert lhs is not rhs and lhs == rhs and not subtractions
    assert sf.ext_d(cat["gamma1"]).re == sf.ext_d(cat["gamma1"].re) and not subtractions
    assert lhs != cat["Omega1"] * 3 and subtractions  # unequal: decided by the difference


def test_an_equal_value_in_another_form_compares_equal(monkeypatch):
    # (S P, S Q, s + 1) is the value of a reduced (P, Q, s): equality falls
    # back to the zero test of the difference when (p, q, s) differ
    dim, S = 4, sf._sumsq(4)
    c = sf.RCoef(dim, sf.Poly.x(dim, 0) * sf.Poly.x(dim, 1), sf.Poly.x(dim, 2, 3), 1)
    assert c.s == 1 and c.p.terms and c.q.terms
    other = sf.RCoef._reduced(dim, S * c.p, S * c.q, c.s + 1)
    subtractions = _counting_subtractions(monkeypatch)
    assert c == other and other == c and len(subtractions) == 2
    assert c != other * 2 and len(subtractions) == 3
    assert AltForm(dim, 1, _raw={0b10: c}) == AltForm(dim, 1, _raw={0b10: other})
    assert sf.RCoef._reduced(dim, S, sf.Poly(dim, {}), 1) == 1


def test_rcoef_r_powers_multiply():
    dim = 3
    for a in range(-3, 4):
        for b in range(-3, 4):
            lhs = sf.RCoef.r_power(dim, a) * sf.RCoef.r_power(dim, b)
            assert lhs == sf.RCoef.r_power(dim, a + b)


def test_rcoef_eval_matches_symbolics():
    dim = 3
    c = sf.RCoef(dim, sf.Poly.x(dim, 0), sf.Poly.x(dim, 1), 1)  # (x0 + x1 r)/r^2
    pt = np.array([0.3, -1.2, 0.4])
    r = np.linalg.norm(pt)
    assert abs(c.eval(pt) - (0.3 + (-1.2) * r) / r**2) < 1e-14


def test_poly_exponent_overflow_raises():
    # an exponent past 8 bits would carry into the next variable's field
    with pytest.raises(OverflowError):
        sf.Poly.x(2, 0, 200) * sf.Poly.x(2, 0, 100)
    with pytest.raises(OverflowError):
        (sf.Poly.x(2, 1, 1) + sf.Poly.x(2, 0, 128)) * sf.Poly.x(2, 0, 128)
    with pytest.raises(OverflowError):
        sf.Poly.x(2, 0, 256)
    assert sf.Poly.x(2, 0, 200) * sf.Poly.x(2, 0, 55) == sf.Poly.x(2, 0, 255)
    assert sf.Poly.x(2, 0, 200) * sf.Poly.x(2, 1, 200) == sf.Poly.from_coeffs(2, {(200, 200): 1})


# -- reduction shortcuts ----------------------------------------------------
# Each operation that skips the division trial must give the (p, q, s) that
# the generic reducing constructor gives on the same unreduced numerators.


def sumsq_power(dim, k):
    ss = sf.Poly(dim, {(2 << (8 * i)): 1 for i in range(dim)})
    out = sf.Poly.const(dim, 1)
    for _ in range(k):
        out = out * ss
    return out


def polys(dim):
    exps = st.tuples(*[st.integers(0, 2)] * dim)
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    return st.dictionaries(exps, coeffs, max_size=3).map(lambda t: sf.Poly.from_coeffs(dim, t))


@st.composite
def reduced_coefs(draw, dim):
    """A reduced RCoef with a P part, a Q part or both, often from numerators
    with a factor S^k to cancel."""
    parts = draw(st.sampled_from(["p", "q", "pq"]))
    p = draw(polys(dim)) if "p" in parts else sf.Poly(dim, {})
    q = draw(polys(dim)) if "q" in parts else sf.Poly(dim, {})
    boost = sumsq_power(dim, draw(st.integers(0, 2)))
    return sf.RCoef(dim, p * boost, q * boost, draw(st.integers(0, 3)))


generic = sf.RCoef  # the reducing constructor, which tries every division


def same(a, b):
    return (a.p.terms, a.q.terms, a.s) == (b.p.terms, b.q.terms, b.s)


def generic_sum(terms):
    dim = terms[0].dim
    top = max(c.s for c in terms)
    p, q = sf.Poly(dim, {}), sf.Poly(dim, {})
    for c in terms:
        lift = sumsq_power(dim, top - c.s)
        p, q = p + c.p * lift, q + c.q * lift
    return generic(dim, p, q, top)


dims = st.integers(1, 4)


@settings(deadline=None)
@given(st.data())
def test_rcoef_negation_and_scaling_match_generic_reduction(data):
    dim = data.draw(dims)
    c = data.draw(reduced_coefs(dim))
    k = data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=3))
    assert same(-c, generic(dim, -c.p, -c.q, c.s))
    assert same(c * k, generic(dim, c.p.scale(k), c.q.scale(k), c.s))
    assert same(c * 0, sf.RCoef.const(dim, 0)) and (c * 0).s == 0


@settings(deadline=None)
@given(st.data())
def test_rcoef_product_matches_generic_reduction(data):
    dim = data.draw(dims)
    a, b = data.draw(reduced_coefs(dim)), data.draw(reduced_coefs(dim))
    ss = sumsq_power(dim, 1)
    p = a.p * b.p + a.q * b.q * ss
    q = a.p * b.q + a.q * b.p
    assert same(a * b, generic(dim, p, q, a.s + b.s))


@settings(deadline=None)
@given(st.data())
def test_rcoef_sums_match_generic_reduction(data):
    dim = data.draw(dims)
    terms = data.draw(st.lists(reduced_coefs(dim), min_size=1, max_size=5))
    a, b = terms[0], terms[-1]
    assert same(a + b, generic_sum([a, b]))
    assert same(a - a, sf.RCoef.const(dim, 0))
    # wedge, interior and ext_d sum each blade in one call
    grouped = sf.RCoef.sum_of(terms)
    assert same(grouped, generic_sum(terms))
    fold = terms[0]
    for t in terms[1:]:
        fold = fold + t
    assert same(grouped, fold)


@settings(deadline=None)
@given(st.data())
def test_rcoef_diff_matches_generic_reduction(data):
    dim = data.draw(st.integers(1, 5))
    c = data.draw(reduced_coefs(dim))
    i = data.draw(st.integers(0, dim - 1))
    ss, xi = sumsq_power(dim, 1), sf.Poly.x(dim, i)
    p = c.p.diff(i) * ss - c.p * xi.scale(2 * c.s)
    q = c.q.diff(i) * ss + c.q * xi.scale(1 - 2 * c.s)
    # the one-pass parts are the product formula's, term for term, and
    # negated when asked
    for neg in (False, True):
        parts = []
        for part, m in ((c.p, -2 * c.s), (c.q, 1 - 2 * c.s)):
            acc = {}
            sf._diff_part(acc, part, i, m, neg)
            parts.append(sf.Poly(dim, acc))
        assert parts == ([-p, -q] if neg else [p, q])
    assert same(c.diff(i), generic(dim, p, q, c.s + 1))


def test_rcoef_diff_exponent_overflow_raises():
    # S dP/dx_i adds 2 to every exponent but x_i's (which loses 1 first) and
    # m x_i P adds 1 to x_i's; past 255 a key would carry into the next field
    dim, zero = 3, sf.Poly(3, {})
    x = lambda i, e: sf.Poly.x(dim, i, e)  # noqa: E731
    raising = [
        (x(0, 1) * x(1, 254), zero, 1),  # S dP/dx_0 has x_1^256
        (x(0, 255), zero, 1),  # S dP/dx_0 and -2 x_0 P have x_0^256
        (x(0, 1), x(0, 1) * x(2, 254), 0),  # S dQ/dx_0 has x_2^256
        (zero, x(0, 255) * x(1, 1), 2),  # both parts of Q reach x_0^256
    ]
    for p, q, s in raising:
        c = sf.RCoef(dim, p, q, s)
        with pytest.raises(OverflowError):
            c.diff(0)
        with pytest.raises(OverflowError):  # as the product formula does
            (c.p.diff(0) * sumsq_power(dim, 1) - c.p * sf.Poly.x(dim, 0).scale(2 * c.s)
             + c.q.diff(0) * sumsq_power(dim, 1) + c.q * sf.Poly.x(dim, 0).scale(1 - 2 * c.s))
    # one exponent short of each limit, every key is exact
    c = sf.RCoef(dim, x(0, 1) * x(1, 253) + x(0, 254), zero, 1)
    d = c.diff(0)
    assert max(e for k in d.p.terms for e in sf._mono_exponents(k, dim)) == 255
    ss, x0 = sumsq_power(dim, 1), sf.Poly.x(dim, 0)
    assert same(d, generic(dim, c.p.diff(0) * ss - c.p * x0.scale(2), zero, 2))
    # at s = 0 the P part is S dP/dx_0 alone: a P without x_0 cannot overflow
    assert not sf.RCoef(dim, x(1, 255), x(0, 1), 0).diff(0).p.terms


def div_sumsq_by_max(poly):
    """The quadratic division loop: take the largest remaining key each step."""
    dim = poly.dim
    top_shift = 8 * (dim - 1)
    sq = [2 << (8 * i) for i in range(dim)]
    rem, quot = dict(poly.terms), {}
    while rem:
        k = max(rem)
        c = rem.pop(k)
        if (k >> top_shift) & 255 < 2:
            return None
        qk = k - sq[dim - 1]
        quot[qk] = c
        for i in range(dim - 1):
            v = rem.get(qk + sq[i], 0) - c
            if v == 0:
                rem.pop(qk + sq[i], None)
            else:
                rem[qk + sq[i]] = v
    return sf.Poly(dim, quot)


@settings(deadline=None)
@given(st.data())
def test_heap_division_matches_the_quadratic_loop(data):
    dim = data.draw(st.integers(1, 5))
    q = data.draw(polys(dim))
    if q.is_zero():
        q = sf.Poly.const(dim, 1)
    dividend = q * sumsq_power(dim, data.draw(st.integers(1, 2))) + data.draw(polys(dim))
    expect = div_sumsq_by_max(dividend) if dividend.terms else None
    got = dividend.try_div_sumsq() if dividend.terms else None
    assert (got is None) == (expect is None)
    if got is not None:
        assert got.terms == expect.terms and list(got.terms) == list(expect.terms)
        assert got * sumsq_power(dim, 1) == dividend


@settings(deadline=None)
@given(st.data())
def test_r_power_shift_matches_the_product(data):
    dim = data.draw(dims)
    c = data.draw(reduced_coefs(dim))
    m = data.draw(st.integers(-5, 5))
    assert same(c.times_r_power(m), c * sf.RCoef.r_power(dim, m))


@pytest.mark.parametrize("n", [1, 2])
def test_transverse_powers_match_the_generic_power(n):
    # sigma_p^(n+1) = r^{-2(n+1)} (A^(n+1) - (n+1) dr ^ a ^ A^n) against the wedge power
    cat = sf.link_extension_catalog(n)
    for p in (1, 2, 3):
        b, g = sf.transverse_power(n, p), wedge_powers(cat[f"sigma_t{p}"], n + 1)[n + 1]
        for b_part, g_part in ((b.re, g.re), (b.im, g.im)):
            b_terms, g_terms = b_part._raw_terms(), g_part._raw_terms()
            assert b_terms.keys() == g_terms.keys(), p
            for blade, coef in g_terms.items():
                assert same(b_terms[blade], coef), (p, blade)


# -- folded blade sums -------------------------------------------------------
# wedge, interior and ext_d fold each product or derivative straight into its
# blade's s-levels; each blade must equal the sum of the separately made terms.
# N = 1 is drawn because S = x_0^2 is a square there.

fold_dims = st.sampled_from([1, 2, 4])
scalars = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=3)).filter(bool)


def generic_diff(c, i):
    """d/dx_i of c by the product formula and the reducing constructor."""
    dim = c.dim
    if not (c.s or c.q.terms):
        return generic(dim, c.p.diff(i), c.q, 0)
    ss, xi = sumsq_power(dim, 1), sf.Poly.x(dim, i)
    p = c.p.diff(i) * ss - c.p * xi.scale(2 * c.s)
    q = c.q.diff(i) * ss + c.q * xi.scale(1 - 2 * c.s)
    return generic(dim, p, q, c.s + 1)


@st.composite
def cone_forms(draw, dim, degree, coefs=None):
    masks = [m for m in range(1 << dim) if bin(m).count("1") == degree]
    chosen = draw(st.lists(st.sampled_from(masks), unique=True, min_size=1, max_size=3))
    coefs = reduced_coefs(dim) if coefs is None else coefs
    return AltForm(dim, degree, _raw={m: draw(coefs) for m in chosen})


def same_blades(form, expected: dict):
    expected = {m: c for m, c in expected.items() if c}
    got = form._raw_terms()
    assert got.keys() == expected.keys()
    for m, c in expected.items():
        assert same(got[m], c), m


def merge_sign(m1, m2):
    """(-1)^(inversions of m1's indices followed by m2's)."""
    i1, i2 = [i for i in range(m1.bit_length()) if m1 >> i & 1], [i for i in range(m2.bit_length()) if m2 >> i & 1]
    return -1 if sum(a > b for a in i1 for b in i2) % 2 else 1


def blade_sums(terms: dict) -> dict:
    return {m: sf.RCoef.sum_of(ts) for m, ts in terms.items()}


@settings(deadline=None)
@given(st.data())
def test_folded_products_match_the_sum_of_products(data):
    dim = data.draw(fold_dims)
    pairs = data.draw(st.lists(st.tuples(st.sampled_from([1, -1]), reduced_coefs(dim),
                                         st.one_of(reduced_coefs(dim), scalars), st.booleans()),
                               min_size=1, max_size=5))
    pairs = [(sign, b, a) if flip else (sign, a, b) for sign, a, b, flip in pairs]
    products = [a * b if sign > 0 else -(a * b) for sign, a, b in pairs]
    folded = sf.RCoef.sum_of_products(pairs)
    assert same(folded, sf.RCoef.sum_of(products)) and same(folded, generic_sum(products))


@settings(deadline=None)
@given(st.data())
def test_folded_wedge_and_interior_match_the_sum_of_products(data):
    dim = data.draw(fold_dims)
    k1, k2 = data.draw(st.integers(0, min(dim, 2))), data.draw(st.integers(0, min(dim, 2)))
    f = data.draw(cone_forms(dim, k1))
    g = data.draw(cone_forms(dim, k2, data.draw(st.sampled_from([None, scalars]))))
    terms: dict = {}
    for m1, c1 in f._raw_terms().items():
        for m2, c2 in g._raw_terms().items():
            if not m1 & m2 and k1 + k2 <= dim:
                prod = c1 * c2
                terms.setdefault(m1 | m2, []).append(prod if merge_sign(m1, m2) > 0 else -prod)
    same_blades(wedge(f, g), blade_sums(terms))
    if k1:
        v = data.draw(st.lists(st.one_of(reduced_coefs(dim), scalars, st.just(0)), min_size=dim, max_size=dim))
        terms = {}
        for mask, c in f._raw_terms().items():
            for i in range(dim):
                if mask >> i & 1 and v[i]:
                    prod = c * v[i]
                    terms.setdefault(mask ^ 1 << i, []).append(prod if _drop_sign(mask, i) > 0 else -prod)
        same_blades(interior(v, f), blade_sums(terms))


def derivative_sums(f, diff) -> dict:
    """Each blade of d f as the sum of its separately made signed derivatives."""
    terms: dict = {}
    for mask, c in f._raw_terms().items():
        for i in range(f.dim):
            if not mask >> i & 1:
                terms.setdefault(mask | 1 << i, []).append(diff(c, i) * _drop_sign(mask, i))
    return terms


@settings(deadline=None)
@given(st.data())
def test_folded_derivatives_match_the_sum_of_derivatives(data):
    dim = data.draw(fold_dims)
    f = data.draw(cone_forms(dim, data.draw(st.integers(0, min(dim, 2) - 1))))
    df = sf.ext_d(f)
    same_blades(df, blade_sums(derivative_sums(f, sf.RCoef.diff)))
    same_blades(df, {m: generic_sum(ts) for m, ts in derivative_sums(f, generic_diff).items()})


def test_folded_wedge_raises_where_the_products_overflow():
    # exponents from 128 up have the top bit of their field set, which sends a
    # product to the exact check; 127 + 128 and 254 + 1 still fit in 8 bits
    dim, zero = 2, sf.Poly(2, {})
    x0 = lambda e: sf.Poly.x(dim, 0, e)  # noqa: E731
    one_part = lambda e, s: sf.RCoef(dim, x0(e), zero, s)  # noqa: E731
    two_part = lambda e, s: sf.RCoef(dim, x0(e), sf.Poly.x(dim, 1), s)  # noqa: E731
    for make_a, make_b in ((one_part, one_part), (one_part, two_part), (two_part, two_part)):
        for (ea, eb), raises in (((127, 128), False), ((254, 1), False), ((128, 128), True), ((255, 1), True)):
            for sa, sb in ((0, 0), (1, 0), (2, 1)):
                a, b = make_a(ea, sa), make_b(eb, sb)
                f, g = AltForm(dim, 1, _raw={0b01: a}), AltForm(dim, 1, _raw={0b10: b})
                if raises:
                    with pytest.raises(OverflowError):
                        a * b
                    with pytest.raises(OverflowError):
                        wedge(f, g)
                else:
                    assert same(wedge(f, g)._raw_terms()[0b11], a * b)
    # lifting a lower level by S: x_0^254 at s = 0 beside a summand at s = 1
    low, high = AltForm(dim, 1, _raw={0b01: one_part(254, 0)}), AltForm(dim, 1, _raw={0b10: one_part(1, 1)})
    with pytest.raises(OverflowError):
        wedge(low, AltForm(dim, 1, _raw={0b10: sf.RCoef.const(dim, 1)})) + wedge(high, low)
    with pytest.raises(OverflowError):
        sf.RCoef.sum_of_products([(1, one_part(254, 0), sf.RCoef.const(dim, 1)), (1, one_part(1, 1), 1)])


def test_folded_ext_d_raises_where_the_derivatives_overflow():
    # S dP/dx_0 adds 2 to every exponent but x_0's, and m x_0 P adds 1 to
    # x_0's: 254 and 255 overflow where 253 and 254 fit; 128 passes the check
    dim, zero = 3, sf.Poly(3, {})
    x = lambda i, e: sf.Poly.x(dim, i, e)  # noqa: E731
    for (p, q, s), raises in (((x(0, 1) * x(1, 254), zero, 1), True), ((x(0, 255), zero, 1), True),
                              ((x(0, 1), x(0, 1) * x(2, 254), 0), True), ((zero, x(0, 255) * x(1, 1), 2), True),
                              ((x(0, 1) * x(1, 253) + x(0, 254), zero, 1), False),
                              ((x(0, 128) * x(1, 127), x(2, 128), 1), False), ((x(1, 255), x(0, 1), 0), False)):
        c = sf.RCoef(dim, p, q, s)
        f = AltForm(dim, 2, _raw={0b110: c})  # d f = dc/dx_0 dx_0 ^ dx_1 ^ dx_2
        if raises:
            with pytest.raises(OverflowError):
                c.diff(0)
            with pytest.raises(OverflowError):
                sf.ext_d(f)
        else:
            same_blades(sf.ext_d(f), blade_sums(derivative_sums(f, sf.RCoef.diff)))


def test_float_wedge_sums_each_blade_left_to_right():
    # the three products land on one blade; a running sum loses the 1.0
    a = AltForm(3, 1, {(0,): 1e16, (1,): 1.0, (2,): -1e16})
    b = AltForm(3, 2, {(1, 2): 1.0, (0, 2): -1.0, (0, 1): 1.0})
    assert wedge(a, b).coefficient((0, 1, 2)) == (1e16 + 1.0) + -1e16 == 0.0


def test_float_interior_sums_each_blade_left_to_right():
    # the three contractions land on e3; a compensated or reordered sum gives 1.0
    a = AltForm(4, 2, {(0, 3): 1e16, (1, 3): 1.0, (2, 3): -1e16})
    assert interior((1, 1, 1, 0), a).coefficient((3,)) == (1e16 + 1.0) + -1e16 == 0.0


def test_rcoef_one_variable_square_still_reduces():
    # at N = 1, S = x_0^2 is not prime: (x_0 / r^2)(x_0 / r^2) = 1 / r^2
    c = sf.RCoef(1, sf.Poly.x(1, 0), sf.Poly(1, {}), 1)
    assert c.s == 1
    sq = c * c
    assert sq.p.terms == {0: 1} and not sq.q.terms and sq.s == 1
    d = c.diff(0)  # d(x_0 / x_0^2) = -1 / x_0^2
    assert d.p.terms == {0: -1} and not d.q.terms and d.s == 1


# -- exterior derivative ----------------------------------------------------


def test_d_of_x0_dx1():
    f = x_form(4, 0b10, sf.Poly.x(4, 0))
    df = sf.ext_d(f)
    assert df == sf.RationalForm(4, 2, {0b11: sf.RCoef.const(4, 1)})


def test_d_r_power_rule():
    # d(r^m) = m r^{m-2} sum x_i dx_i, checked through the 0-form path
    dim = 3
    for m in (-3, -1, 1, 2, 5):
        f = sf.RationalForm(dim, 0, {0: sf.RCoef.r_power(dim, m)})
        df = sf.ext_d(f)
        expect = sf.RationalForm(
            dim,
            1,
            {
                1 << i: sf.RCoef.r_power(dim, m - 2) * sf.RCoef.from_poly(sf.Poly.x(dim, i).scale(m))
                for i in range(dim)
            },
        )
        assert (df - expect).is_zero()


@given(
    st.integers(0, 2),
    st.lists(st.tuples(st.integers(0, 15), st.integers(-2, 2), st.integers(0, 1)), min_size=1, max_size=3),
)
def test_dd_zero(degree, raw_terms):
    dim = 4
    terms = {}
    for mask_seed, coeff, s in raw_terms:
        mask = 0
        bits = [b for b in range(dim) if (mask_seed >> b) & 1]
        if len(bits) < degree:
            continue
        for b in bits[:degree]:
            mask |= 1 << b
        poly = sf.Poly(dim, {(1 << (8 * (mask_seed % dim))): coeff})
        c = sf.RCoef(dim, poly, sf.Poly.x(dim, mask_seed % dim), s)
        terms[mask] = terms.get(mask, sf.RCoef.const(dim, 0)) + c
    f = sf.RationalForm(dim, degree, terms)
    assert sf.ext_d(sf.ext_d(f)).is_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_structure_identities_exact(n):
    cat = sf.link_extension_catalog(n)
    for p in (1, 2, 3):
        assert (sf.ext_d(cat[f"alpha{p}"]) - cat[f"Omega{p}"] * 2).is_zero()
        assert sf.ext_d(cat[f"Omega{p}"]).is_zero()
    assert sf.ext_d(cat["gamma1"].im).is_zero()


def test_lie_derivative_homogeneity():
    cc = sf.cone_constant_catalog(1)
    cat = sf.link_extension_catalog(1)
    R = sf.dilation_field(8)
    assert (sf.lie_derivative(R, cc["omega1"]) - cc["omega1"] * 2).is_zero()
    assert sf.lie_derivative(R, cat["alpha1"]).is_zero()
    ups = cc["upsilon1"]
    assert (sf.lie_derivative(R, ups.re) - ups.re * 4).is_zero()
    assert (sf.lie_derivative(R, ups.im) - ups.im * 4).is_zero()


# -- cone splitting ---------------------------------------------------------


def test_cone_split_omega1_rows():
    cc = sf.cone_constant_catalog(1)
    cat = sf.link_extension_catalog(1)
    a, b = sf.cone_split(cc["omega1"])
    assert (a - cat["alpha1"] * sf.RCoef.r_power(8, 1)).is_zero()
    assert (b - cat["Omega1"] * sf.RCoef.r_power(8, 2)).is_zero()


def test_cone_split_upsilon_rows():
    n = 1
    cc = sf.cone_constant_catalog(n)
    cat = sf.link_extension_catalog(n)
    u = cc["upsilon1"]
    ar, br = sf.cone_split(u.re)
    ai, bi = sf.cone_split(u.im)
    psi = cat["psi1"]
    rp = lambda m: sf.RCoef.r_power(8, m)
    assert (ar - psi.re * rp(2 * n + 1)).is_zero()
    assert (ai - psi.im * rp(2 * n + 1)).is_zero()
    rhs = cat["sigma_t1"].power(n + 1) * Fraction(1, math.factorial(n + 1))
    assert (br - rhs.re * rp(2 * n + 2)).is_zero()
    assert (bi - rhs.im * rp(2 * n + 2)).is_zero()


def test_cone_split_horizontal_part_untouched():
    dim = 4
    f = sf.RationalForm(dim, 2, {0b11: sf.RCoef.const(dim, 1)})
    a0, b0 = sf.cone_split(f)
    # the dr-free component splits as (0, itself)
    a1, b1 = sf.cone_split(b0)
    assert a1.is_zero()
    assert (b1 - b0).is_zero()


def test_cone_split_reconstructs():
    dim = 4
    f = sf.RationalForm(dim, 2, {0b101: sf.RCoef.from_poly(sf.Poly.x(dim, 2)), 0b11: sf.RCoef.r_power(dim, -2)})
    a, b = sf.cone_split(f)
    assert (sf.dr_form(dim).wedge(a) + b - f).is_zero()
    radial = sf.unit_radial_field(dim)
    assert sf.interior_field(radial, a).is_zero() or a.degree == 0
    assert sf.interior_field(radial, b).is_zero()


# -- homogeneous potential --------------------------------------------------


def test_potential_euler_formula():
    dim = 4
    f = sf.RationalForm(dim, 2, {0b11: sf.RCoef.const(dim, 1)})
    pot = sf.homogeneous_potential(f, 2)
    expect = sf.RationalForm(
        dim,
        1,
        {
            0b10: sf.RCoef.from_poly(sf.Poly.x(dim, 0).scale(Fraction(1, 2))),
            0b01: sf.RCoef.from_poly(sf.Poly.x(dim, 1).scale(Fraction(-1, 2))),
        },
    )
    assert (pot - expect).is_zero()
    assert (sf.ext_d(pot) - f).is_zero()


def test_potential_of_omega_and_lambda():
    cc = sf.cone_constant_catalog(1)
    cat = sf.link_extension_catalog(1)
    pot = sf.homogeneous_potential(cc["omega1"], 2)
    assert (pot - cat["alpha1"] * sf.RCoef.r_power(8, 2) * Fraction(1, 2)).is_zero()
    potL = sf.homogeneous_potential(cc["Lambda"], 4)
    s_aO = None
    for p in (1, 2, 3):
        t = cat[f"alpha{p}"].wedge(cat[f"Omega{p}"])
        s_aO = t if s_aO is None else s_aO + t
    assert (potL - s_aO * Fraction(1, 12) * sf.RCoef.r_power(8, 4)).is_zero()
    assert (sf.ext_d(potL) - cc["Lambda"]).is_zero()


def test_potential_rejects_nonclosed_and_nonconical():
    dim = 4
    not_closed = x_form(dim, 0b10, sf.Poly.x(dim, 0))
    with pytest.raises(sf.NotClosedError) as ei:
        sf.homogeneous_potential(not_closed, 2)
    assert ei.value.residual.residual_term_count() > 0
    not_conical = sf.RationalForm(dim, 1, {0b1: sf.RCoef.const(dim, 1)})
    with pytest.raises(sf.NotConicalError):
        sf.homogeneous_potential(not_conical, 2)


def test_potential_reports_the_lie_derivative_residual():
    # a closed form that is not homogeneous of degree k raises with the
    # residual L_R f - k f that the Cartan formula gives
    cc = sf.cone_constant_catalog(1)
    for f, k in ((sf.RationalForm(4, 1, {0b1: sf.RCoef.const(4, 1)}), 2), (cc["omega1"], 3), (cc["Lambda"], 2)):
        with pytest.raises(sf.NotConicalError) as ei:
            sf.homogeneous_potential(f, k)
        expect = sf.lie_derivative(sf.dilation_field(f.dim), f) - f * k
        assert ei.value.residual == expect and expect.residual_term_count() > 0


# -- one algebra over both rings --------------------------------------------


def fraction_forms(dim, degree):
    blades = [m for m in range(1 << dim) if m.bit_count() == degree]
    coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.dictionaries(st.sampled_from(blades), coeffs, max_size=4).map(lambda t: AltForm(dim, degree, t))


@given(st.data())
def test_constant_form_commutes_with_the_algebra(data):
    # lifting Fraction coefficients to constant RCoefs is a ring map, so the
    # same sum, wedge and wedge power agree on both sides of constant_form
    dim = 5
    d1, d2 = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 2))
    a, a2 = data.draw(fraction_forms(dim, d1)), data.draw(fraction_forms(dim, d1))
    b = data.draw(fraction_forms(dim, d2))
    p = data.draw(st.integers(0, 3))
    lift = sf.constant_form
    assert lift(a + a2) == lift(a) + lift(a2)
    assert lift(wedge(a, b)) == wedge(lift(a), lift(b))
    # Fraction x RCoef products are summed in the ring of the products
    assert lift(wedge(a, b)) == wedge(a, lift(b)) == wedge(lift(a), b)
    assert lift(power(a, p)) == power(lift(a), p)
    z = ComplexAltForm(a, a2)
    assert lift(wedge(z, b)) == wedge(lift(z), lift(b))
    assert lift(power(z, p)) == power(lift(z), p)


# -- consistency between symbolic and numeric catalogs ----------------------


@pytest.mark.parametrize("n", [1, 2])
def test_cone_restriction_matches_link_frame(n):
    rng = np.random.default_rng(5)
    x = rng.standard_normal(4 * n + 4)
    x /= np.linalg.norm(x)
    lf = build_link_frame(n, x)
    cat = sf.link_extension_catalog(n)
    # every name both link catalogs define; complex forms by their parts
    pairs = [(name, name) for name in ("theta_I3", "omega1_tilde")]
    for p in (1, 2, 3):
        pairs += [(f"{base}{p}", f"{base}{p}") for base in ("alpha", "Omega", "kappa", "phi", "xi")]
        pairs += [(f"{part}_{base}{p}", f"{base}{p}") for base in ("psi", "gamma") for part in ("re", "im")]
    for name, sym_name in pairs:
        sym = cat[sym_name]
        if name.startswith(("re_", "im_")):
            sym = sym.re if name.startswith("re_") else sym.im
        num = pullback(sf.eval_at(sym, x), lf.frame)  # ambient form at x, restricted to the adapted frame
        assert num.approx_eq(lf.form(name).to_float(), 1e-10), name
