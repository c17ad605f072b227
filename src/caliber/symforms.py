"""Exact symbolic exterior calculus on the punctured cone R^N minus the origin.

A coefficient is a finite sum of (rational) x (monomial in x_0..x_{N-1}) x r^m
with m an integer, reduced through r^2 = sum x_i^2 to the canonical shape

    (P + Q r) / r^{2s},   P, Q polynomials with rational coefficients, s >= 0,

with common sum-of-squares factors cancelled.  Zero testing therefore reduces
to polynomial identity, so every exterior-derivative identity checked here is
verified with no numerical error at all.

The distinguished link forms (contact one-forms, transverse Kahler forms, and
everything built from them) are represented by their canonical conical
extensions, homogeneous of degree zero, so that link identities become exact
cone identities and no chart on the sphere is ever needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from operator import or_

import numpy as np

from caliber.exterior import AltForm, _merge_sign

__all__ = [
    "Poly",
    "RCoef",
    "RationalForm",
    "CRationalForm",
    "PolyVectorField",
    "ext_d",
    "interior_field",
    "lie_derivative",
    "cone_split",
    "homogeneous_potential",
    "NotClosedError",
    "NotConicalError",
    "dr_form",
    "dilation_field",
    "unit_radial_field",
    "reeb_extension",
    "constant_form",
    "link_extension_catalog",
    "cone_constant_catalog",
]

_BITS = 8
_MASK = (1 << _BITS) - 1


@lru_cache(maxsize=None)
def _high_bits(dim: int) -> int:
    """The top bit of every exponent field: clear in both factors means no carry."""
    return sum(1 << (_BITS * i + _BITS - 1) for i in range(dim))


def _check_exponent(e: int) -> int:
    if not 0 <= e <= _MASK:
        raise OverflowError(f"exponent {e} outside 0..{_MASK}")
    return e


def _mono_key(exponents) -> int:
    key = 0
    for i, e in enumerate(exponents):
        if e:
            key |= _check_exponent(int(e)) << (_BITS * i)
    return key


def _mono_exponents(key: int, dim: int) -> tuple[int, ...]:
    return tuple((key >> (_BITS * i)) & _MASK for i in range(dim))


def _check_product_exponents(a: "Poly", b: "Poly") -> None:
    """Raise when some exponent of the product a * b would exceed 8 bits."""

    def top(p):
        return [max(col) for col in zip(*(_mono_exponents(k, p.dim) for k in p.terms))]

    for ea, eb in zip(top(a), top(b)):
        _check_exponent(ea + eb)


class Poly:
    """Multivariate polynomial with exact coefficients, monomials packed as
    integer keys (8 bits of exponent per variable; a larger exponent raises
    OverflowError)."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: dict | None = None):
        self.dim = dim
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    @classmethod
    def const(cls, dim: int, c) -> "Poly":
        return cls(dim, {0: c} if c != 0 else {})

    @classmethod
    def x(cls, dim: int, i: int, power: int = 1) -> "Poly":
        return cls(dim, {_check_exponent(int(power)) << (_BITS * i): 1})

    @classmethod
    def from_coeffs(cls, dim: int, mapping: dict) -> "Poly":
        return cls(dim, {_mono_key(mono): c for mono, c in mapping.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.dim == other.dim and self.terms == other.terms

    __hash__ = None

    def __add__(self, other: "Poly") -> "Poly":
        acc = dict(self.terms)
        for k, c in other.terms.items():
            v = acc.get(k, 0) + c
            if v == 0:
                acc.pop(k, None)
            else:
                acc[k] = v
        return Poly(self.dim, acc)

    def __neg__(self) -> "Poly":
        return Poly(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if len(self.terms) > len(other.terms):
            self, other = other, self
        # one pass over each factor's keys, never over the pairs; most products
        # here have an empty factor, which cannot overflow
        if self.terms and reduce(or_, other.terms, reduce(or_, self.terms, 0)) & _high_bits(self.dim):
            _check_product_exponents(self, other)
        acc: dict[int, object] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                v = acc.get(k)
                acc[k] = c1 * c2 if v is None else v + c1 * c2
        return Poly(self.dim, acc)

    def scale(self, c) -> "Poly":
        if c == 0:
            return Poly(self.dim, {})
        return Poly(self.dim, {k: v * c for k, v in self.terms.items()})

    def diff(self, i: int) -> "Poly":
        shift = _BITS * i
        acc = {}
        for k, c in self.terms.items():
            e = (k >> shift) & _MASK
            if e:
                acc[k - (1 << shift)] = c * e
        return Poly(self.dim, acc)

    def eval(self, point) -> float:
        total = 0.0
        for k, c in self.terms.items():
            v = float(c)
            kk = k
            i = 0
            while kk:
                e = kk & _MASK
                if e:
                    v *= float(point[i]) ** e
                kk >>= _BITS
                i += 1
            total += v
        return total

    def try_div_sumsq(self) -> "Poly | None":
        """Exact quotient by sum(x_i^2), or None if not divisible."""
        dim = self.dim
        top_shift = _BITS * (dim - 1)
        rem = dict(self.terms)
        quot: dict[int, object] = {}
        sq = [(2 << (_BITS * i)) for i in range(dim)]
        while rem:
            k = max(rem)
            c = rem.pop(k)
            if (k >> top_shift) & _MASK >= 2:
                qk = k - sq[dim - 1]
                quot[qk] = quot.get(qk, 0) + c
                for i in range(dim - 1):
                    kk = qk + sq[i]
                    v = rem.get(kk, 0) - c
                    if v == 0:
                        rem.pop(kk, None)
                    else:
                        rem[kk] = v
            else:
                return None
        return Poly(dim, quot)


@lru_cache(maxsize=None)
def _sumsq(dim: int) -> Poly:
    return Poly(dim, {(2 << (_BITS * i)): 1 for i in range(dim)})


class RCoef:
    """A cone coefficient (P + Q r) / r^{2s} in canonical reduced form."""

    __slots__ = ("dim", "p", "q", "s")

    def __init__(self, dim: int, p: Poly, q: Poly, s: int):
        if s < 0:
            boost = _power(_sumsq(dim), -s)
            p, q, s = p * boost, q * boost, 0
        while s > 0:
            if p.is_zero() and q.is_zero():
                s = 0
                break
            dp = p.try_div_sumsq() if not p.is_zero() else Poly(dim, {})
            if dp is None:
                break
            dq = q.try_div_sumsq() if not q.is_zero() else Poly(dim, {})
            if dq is None:
                break
            p, q = dp, dq
            s -= 1
        self.dim, self.p, self.q, self.s = dim, p, q, s

    @classmethod
    def const(cls, dim: int, c) -> "RCoef":
        return cls(dim, Poly.const(dim, c), Poly(dim, {}), 0)

    @classmethod
    def from_poly(cls, p: Poly) -> "RCoef":
        return cls(p.dim, p, Poly(p.dim, {}), 0)

    @classmethod
    def r_power(cls, dim: int, m: int) -> "RCoef":
        zero = Poly(dim, {})
        one = Poly.const(dim, 1)
        if m >= 0:
            body = _power(_sumsq(dim), m // 2)
            return cls(dim, body, zero, 0) if m % 2 == 0 else cls(dim, zero, body, 0)
        mm = -m
        if mm % 2 == 0:
            return cls(dim, one, zero, mm // 2)
        return cls(dim, zero, one, (mm + 1) // 2)

    def is_zero(self) -> bool:
        return self.p.is_zero() and self.q.is_zero()

    def __eq__(self, other) -> bool:
        return isinstance(other, RCoef) and (self - other).is_zero()

    __hash__ = None

    def _align(self, other: "RCoef") -> tuple[Poly, Poly, Poly, Poly, int]:
        s = max(self.s, other.s)
        b1 = _power(_sumsq(self.dim), s - self.s)
        b2 = _power(_sumsq(self.dim), s - other.s)
        return self.p * b1, self.q * b1, other.p * b2, other.q * b2, s

    def __add__(self, other: "RCoef") -> "RCoef":
        p1, q1, p2, q2, s = self._align(other)
        return RCoef(self.dim, p1 + p2, q1 + q2, s)

    def __neg__(self) -> "RCoef":
        return RCoef(self.dim, -self.p, -self.q, self.s)

    def __sub__(self, other: "RCoef") -> "RCoef":
        return self + (-other)

    def __mul__(self, other: "RCoef") -> "RCoef":
        p = self.p * other.p + (self.q * other.q) * _sumsq(self.dim)
        q = self.p * other.q + self.q * other.p
        return RCoef(self.dim, p, q, self.s + other.s)

    def scale(self, c) -> "RCoef":
        return RCoef(self.dim, self.p.scale(c), self.q.scale(c), self.s)

    def diff(self, i: int) -> "RCoef":
        ss = _sumsq(self.dim)
        xi = Poly.x(self.dim, i)
        two_s = 2 * self.s
        p_new = self.p.diff(i) * ss - self.p * xi.scale(two_s)
        q_new = self.q.diff(i) * ss + self.q * xi.scale(1 - two_s)
        return RCoef(self.dim, p_new, q_new, self.s + 1)

    def eval(self, point) -> float:
        r2 = float(sum(float(x) * float(x) for x in point))
        r = math.sqrt(r2)
        return (self.p.eval(point) + self.q.eval(point) * r) / (r2**self.s)

    def __repr__(self) -> str:
        return f"RCoef(p={len(self.p.terms)}t, q={len(self.q.terms)}t, s={self.s})"


def _power(p: Poly, n: int) -> Poly:
    out = Poly.const(p.dim, 1)
    for _ in range(n):
        out = out * p
    return out


@dataclass(frozen=True)
class PolyVectorField:
    """Vector field on the cone with RCoef components."""

    dim: int
    components: tuple


def dilation_field(dim: int) -> PolyVectorField:
    """The dilation field r d/dr, with components x_i."""
    return PolyVectorField(dim, tuple(RCoef.from_poly(Poly.x(dim, i)) for i in range(dim)))


def unit_radial_field(dim: int) -> PolyVectorField:
    """d/dr, with components x_i / r."""
    zero = Poly(dim, {})
    return PolyVectorField(dim, tuple(RCoef(dim, zero, Poly.x(dim, i), 1) for i in range(dim)))


def reeb_extension(Ip: np.ndarray) -> PolyVectorField:
    """Degree-0 extension of a Reeb field: components (I x)_i / r for an
    integer complex-structure matrix I."""
    dim = Ip.shape[0]
    comps = []
    zero = Poly(dim, {})
    for i in range(dim):
        poly = Poly(dim, {})
        for j in range(dim):
            if Ip[i, j]:
                poly = poly + Poly.x(dim, j).scale(int(Ip[i, j]))
        comps.append(RCoef(dim, zero, poly, 1))
    return PolyVectorField(dim, tuple(comps))


class RationalForm:
    """A k-form on the punctured cone with RCoef coefficients."""

    __slots__ = ("dim", "degree", "terms")

    def __init__(self, dim: int, degree: int, terms: dict | None = None):
        self.dim = dim
        self.degree = degree
        self.terms = {m: c for m, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def zero(cls, dim: int, degree: int) -> "RationalForm":
        return cls(dim, degree, {})

    def is_zero(self) -> bool:
        return not self.terms

    def residual_term_count(self) -> int:
        return len(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalForm)
            and self.dim == other.dim
            and self.degree == other.degree
            and (self - other).is_zero()
        )

    __hash__ = None

    def __add__(self, other: "RationalForm") -> "RationalForm":
        if (self.dim, self.degree) != (other.dim, other.degree):
            raise ValueError("shape mismatch")
        acc = dict(self.terms)
        for m, c in other.terms.items():
            prev = acc.get(m)
            acc[m] = c if prev is None else prev + c
        return RationalForm(self.dim, self.degree, acc)

    def __neg__(self) -> "RationalForm":
        return RationalForm(self.dim, self.degree, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "RationalForm") -> "RationalForm":
        return self + (-other)

    def scale(self, c) -> "RationalForm":
        return RationalForm(self.dim, self.degree, {m: v.scale(c) for m, v in self.terms.items()})

    def mul_coef(self, rc: RCoef) -> "RationalForm":
        return RationalForm(self.dim, self.degree, {m: v * rc for m, v in self.terms.items()})

    def wedge(self, other: "RationalForm") -> "RationalForm":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        degree = self.degree + other.degree
        if degree > self.dim:
            return RationalForm(self.dim, degree, {})
        acc: dict[int, RCoef] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 & m2:
                    continue
                m = m1 | m2
                c = c1 * c2
                if _merge_sign(m1, m2) < 0:
                    c = -c
                prev = acc.get(m)
                acc[m] = c if prev is None else prev + c
        return RationalForm(self.dim, degree, acc)

    def eval_at(self, point) -> AltForm:
        """Numeric restriction of the coefficients at a point (floats)."""
        raw = {}
        for m, c in self.terms.items():
            v = c.eval(point)
            if v != 0.0:
                raw[m] = v
        return AltForm(self.dim, self.degree, _raw=raw)

    def __repr__(self) -> str:
        return f"RationalForm(dim={self.dim}, degree={self.degree}, blades={len(self.terms)})"


def constant_form(f: AltForm) -> RationalForm:
    """Lift a constant-coefficient exact form to the cone."""
    dim = f.dim
    terms = {}
    for m, c in f._raw_terms().items():
        terms[m] = RCoef.const(dim, c)
    return RationalForm(dim, f.degree, terms)


def ext_d(f: RationalForm) -> RationalForm:
    """Exterior derivative; d(r^m) = m r^{m-2} sum_i x_i dx_i, d o d = 0 exactly."""
    acc: dict[int, RCoef] = {}
    dim = f.dim
    for mask, c in f.terms.items():
        for i in range(dim):
            bit = 1 << i
            if mask & bit:
                continue
            dc = c.diff(i)
            if dc.is_zero():
                continue
            sign = -1 if (mask & (bit - 1)).bit_count() & 1 else 1
            term = dc if sign > 0 else -dc
            m = mask | bit
            prev = acc.get(m)
            acc[m] = term if prev is None else prev + term
    return RationalForm(dim, f.degree + 1, acc)


def interior_field(X: PolyVectorField, f: RationalForm) -> RationalForm:
    """Contraction with a vector field (antiderivation of degree -1)."""
    if f.degree == 0:
        raise ValueError("cannot contract a 0-form")
    acc: dict[int, RCoef] = {}
    for mask, c in f.terms.items():
        m = mask
        pos = 0
        while m:
            low = m & -m
            i = low.bit_length() - 1
            m ^= low
            comp = X.components[i]
            if not comp.is_zero():
                term = c * comp
                if pos & 1:
                    term = -term
                nm = mask ^ low
                prev = acc.get(nm)
                acc[nm] = term if prev is None else prev + term
            pos += 1
    return RationalForm(f.dim, f.degree - 1, acc)


def lie_derivative(X: PolyVectorField, f: RationalForm) -> RationalForm:
    """Cartan formula L_X = d iota_X + iota_X d, computed exactly."""
    if f.degree == 0:
        df = ext_d(f)
        return interior_field(X, df)
    return ext_d(interior_field(X, f)) + interior_field(X, ext_d(f))


def dr_form(dim: int) -> RationalForm:
    """dr = (sum x_i dx_i) / r."""
    zero = Poly(dim, {})
    return RationalForm(dim, 1, {1 << i: RCoef(dim, zero, Poly.x(dim, i), 1) for i in range(dim)})


def cone_split(f: RationalForm) -> tuple[RationalForm, RationalForm]:
    """Split f = dr ^ alpha + beta with both parts radial-free; exact."""
    if f.degree == 0:
        raise ValueError("cannot split a 0-form")
    alpha = interior_field(unit_radial_field(f.dim), f)
    beta = f - dr_form(f.dim).wedge(alpha)
    return alpha, beta


class NotClosedError(ValueError):
    def __init__(self, residual: RationalForm):
        super().__init__(f"form is not closed: d has {residual.residual_term_count()} residual terms")
        self.residual = residual


class NotConicalError(ValueError):
    def __init__(self, residual: RationalForm, k: int):
        super().__init__(
            f"form is not homogeneous of degree {k}: residual has {residual.residual_term_count()} terms"
        )
        self.residual = residual


def homogeneous_potential(f: RationalForm, k: int) -> RationalForm:
    """Primitive (r^k / k) alpha_0 of a closed degree-k homogeneous form.

    Checks closedness and homogeneity exactly and raises with the residual
    otherwise; the returned potential satisfies d(potential) = f exactly.
    """
    if k == 0:
        raise ValueError("homogeneity degree must be nonzero")
    df = ext_d(f)
    if not df.is_zero():
        raise NotClosedError(df)
    R = dilation_field(f.dim)
    res = lie_derivative(R, f) - f.scale(k)
    if not res.is_zero():
        raise NotConicalError(res, k)
    return interior_field(R, f).scale(Fraction(1, k))


class CRationalForm:
    """Complex cone form as a pair (re, im) of rational forms."""

    __slots__ = ("re", "im")

    def __init__(self, re: RationalForm, im: RationalForm):
        if (re.dim, re.degree) != (im.dim, im.degree):
            raise ValueError("shape mismatch")
        self.re = re
        self.im = im

    @property
    def dim(self) -> int:
        return self.re.dim

    @property
    def degree(self) -> int:
        return self.re.degree

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def residual_term_count(self) -> int:
        return self.re.residual_term_count() + self.im.residual_term_count()

    def __add__(self, other: "CRationalForm") -> "CRationalForm":
        return CRationalForm(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "CRationalForm") -> "CRationalForm":
        return CRationalForm(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "CRationalForm":
        return CRationalForm(-self.re, -self.im)

    def scale(self, c) -> "CRationalForm":
        return CRationalForm(self.re.scale(c), self.im.scale(c))

    def scale_i(self) -> "CRationalForm":
        """Multiply by the imaginary unit."""
        return CRationalForm(-self.im, self.re)

    def wedge(self, other: "CRationalForm") -> "CRationalForm":
        return CRationalForm(
            self.re.wedge(other.re) - self.im.wedge(other.im),
            self.re.wedge(other.im) + self.im.wedge(other.re),
        )

    def power(self, n: int) -> "CRationalForm":
        out = self
        for _ in range(n - 1):
            out = out.wedge(self)
        return out

    def d(self) -> "CRationalForm":
        return CRationalForm(ext_d(self.re), ext_d(self.im))

    def interior(self, X: PolyVectorField) -> "CRationalForm":
        return CRationalForm(interior_field(X, self.re), interior_field(X, self.im))


# ---------------------------------------------------------------------------
# conical extensions of the link catalog


@lru_cache(maxsize=None)
def cone_constant_catalog(n: int) -> dict:
    """Constant cone forms lifted to rational forms (exact)."""
    from caliber.model import build_hyperkahler_cone

    hk = build_hyperkahler_cone(n)
    out = {}
    for name in ("omega1", "omega2", "omega3", "theta_I4", "Phi1", "Phi2", "Phi3", "Lambda"):
        out[name] = constant_form(hk.form(name))
    for p in (1, 2, 3):
        ups = hk.form(f"upsilon{p}")
        out[f"upsilon{p}"] = CRationalForm(constant_form(ups.re), constant_form(ups.im))
    return out


@lru_cache(maxsize=None)
def link_extension_catalog(n: int) -> dict:
    """Degree-0 conical extensions of the distinguished link forms.

    On the cone these extensions satisfy the same structure identities as the
    link forms themselves, with exact rational coefficients throughout.
    """
    from caliber.model import build_hyperkahler_cone

    hk = build_hyperkahler_cone(n)
    dim = hk.dim
    rm2 = RCoef.r_power(dim, -2)
    R = dilation_field(dim)
    cat: dict = {}
    omega = {p: constant_form(hk.form(f"omega{p}")) for p in (1, 2, 3)}
    alpha = {}
    Omega = {}
    for p in (1, 2, 3):
        a, b = cone_split(omega[p])
        alpha[p] = a.mul_coef(RCoef.r_power(dim, -1))
        Omega[p] = b.mul_coef(rm2)
        cat[f"alpha{p}"] = alpha[p]
        cat[f"Omega{p}"] = Omega[p]
    kappa = {
        1: Omega[1] - alpha[2].wedge(alpha[3]),
        2: Omega[2] - alpha[3].wedge(alpha[1]),
        3: Omega[3] - alpha[1].wedge(alpha[2]),
    }
    for p in (1, 2, 3):
        cat[f"kappa{p}"] = kappa[p]

    pairs = {1: (2, 3), 2: (3, 1), 3: (1, 2)}
    inv_nfact = Fraction(1, math.factorial(n))
    for p, (q, r) in pairs.items():
        tau = CRationalForm(alpha[q], alpha[r])
        sig = CRationalForm(Omega[q], Omega[r])
        cat[f"sigma_t{p}"] = sig
        cat[f"psi{p}"] = tau.wedge(sig.power(n)).scale(inv_nfact)
        gam = CRationalForm(alpha[q], -alpha[r]).wedge(CRationalForm(kappa[q], kappa[r]))
        cat[f"gamma{p}"] = gam
        cat[f"xi{p}"] = kappa[q].wedge(kappa[q]) + kappa[r].wedge(kappa[r])

    aO = {p: alpha[p].wedge(Omega[p]) for p in (1, 2, 3)}
    cat["phi1"] = -aO[1] + aO[2] + aO[3]
    cat["phi2"] = aO[1] - aO[2] + aO[3]
    cat["phi3"] = aO[1] + aO[2] - aO[3]
    cat["theta_I3"] = aO[2] - aO[3]
    cat["omega1_tilde"] = kappa[1].scale(2) - alpha[2].wedge(alpha[3])
    cat["alpha123"] = alpha[1].wedge(alpha[2]).wedge(alpha[3])
    cat["reeb1"] = reeb_extension(hk.I1)
    cat["reeb2"] = reeb_extension(hk.I2)
    cat["reeb3"] = reeb_extension(hk.I3)
    return cat
