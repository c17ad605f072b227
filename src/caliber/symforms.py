"""Exact symbolic exterior calculus on the punctured cone R^N minus the origin.

A coefficient is a finite sum of (rational) x (monomial in x_0..x_{N-1}) x r^m
with m an integer, reduced through r^2 = sum x_i^2 to the canonical shape

    (P + Q r) / r^{2s},   P, Q polynomials with rational coefficients, s >= 0,

with common sum-of-squares factors cancelled.  Zero testing therefore reduces
to polynomial identity, so every exterior-derivative identity checked here is
verified with no numerical error at all.

Forms on the cone are `exterior.AltForm` / `ComplexAltForm` with `RCoef`
coefficients: the same sparse algebra (sum, scalar and coefficient multiples,
wedge, wedge powers, contraction) that evaluates forms numerically.  This
module adds the calculus that needs point-dependent coefficients: the
exterior derivative, contraction with vector fields, Lie derivatives, the
radial split, homogeneous potentials, products by powers of r and the full
top power of sigma_p = Omega_q + i Omega_r (`transverse_power`).  A vector
field is the tuple of its `RCoef` components, the sequence that
`exterior.interior` contracts with.

The distinguished link forms (contact one-forms, transverse Kahler forms, and
everything built from them) are represented by their canonical conical
extensions, homogeneous of degree zero, so that link identities become exact
cone identities and no chart on the sphere is ever needed.  They come from
`model.link_forms`, as the link frame catalog does, fed radial-free sigma_p
powers (r^{-2k} A_p^k; psi_p stays exact as tau_p ^ dr ^ tau_p = 0).
"""

from __future__ import annotations

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from operator import or_
from typing import Sequence

import numpy as np

from caliber.exterior import AltForm, ComplexAltForm, _drop_sign, interior, wedge, wedge_powers

__all__ = [
    "Poly",
    "RCoef",
    "RationalForm",
    "CRationalForm",
    "constant_form",
    "times_r_power",
    "transverse_power",
    "eval_at",
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
    def _wrap(cls, dim: int, terms: dict) -> "Poly":
        """A polynomial on a term dict that holds no zero coefficient."""
        out = object.__new__(cls)
        out.dim, out.terms = dim, terms
        return out

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
        return Poly._wrap(self.dim, acc)

    def __neg__(self) -> "Poly":
        return Poly._wrap(self.dim, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        acc: dict[int, object] = {}
        _mul_into(acc, self, other)
        return Poly._wrap(self.dim, {k: c for k, c in acc.items() if c})

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
        return Poly._wrap(self.dim, acc)

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
        """Exact quotient of a nonzero polynomial by sum(x_i^2), or None if not divisible."""
        dim = self.dim
        top_shift = _BITS * (dim - 1)
        # keys compare as monomials (lex, x_{N-1} first), so a multiple S * Q
        # has leading key lead(Q) + x_{N-1}^2 and trailing key trail(Q) + x_0^2
        if (max(self.terms) >> top_shift) & _MASK < 2 or min(self.terms) & _MASK < 2:
            return None
        sq = _square_keys(dim)
        rem = dict(self.terms)
        # largest key first, off a heap: a key the subtraction makes trades
        # x_{N-1}^2 for a smaller square, so it is below the key just popped
        heap = [-k for k in rem]
        heapify(heap)
        quot: dict[int, object] = {}
        while rem:  # every live key is on the heap
            k = -heappop(heap)
            if k not in rem:  # cancelled after it was pushed
                continue
            if (k >> top_shift) & _MASK < 2:
                return None
            qk = k - sq[dim - 1]
            c = quot[qk] = rem.pop(k)
            for i in range(dim - 1):
                kk = qk + sq[i]
                v = rem.get(kk)
                if v is None:
                    heappush(heap, -kk)
                    rem[kk] = -c
                elif v == c:
                    del rem[kk]
                else:
                    rem[kk] = v - c
        return Poly._wrap(dim, quot)


def _mul_into(acc: dict, a: Poly, b: Poly, neg: bool = False) -> None:
    """acc += a * b, or -= when neg, term by term; raises OverflowError where
    some exponent of a * b would exceed 8 bits."""
    if len(a.terms) > len(b.terms):
        a, b = b, a
    # one pass over each factor's keys, never over the pairs; most products
    # here have an empty factor, which cannot overflow
    if a.terms and reduce(or_, b.terms, reduce(or_, a.terms, 0)) & _high_bits(a.dim):
        _check_product_exponents(a, b)
    for k1, c1 in a.terms.items():
        if neg:
            c1 = -c1
        for k2, c2 in b.terms.items():
            k = k1 + k2
            v = acc.get(k)
            acc[k] = c1 * c2 if v is None else v + c1 * c2


def _diff_part(acc: dict, poly: Poly, i: int, m: int, neg: bool, lift: bool = True) -> None:
    """acc += L dP/dx_i + m x_i P, or -= when neg, for L = S = sum x_j^2 (or
    L = 1 when not lift), in one pass over P's terms; raises OverflowError
    where the products S * dP/dx_i and m x_i * P would."""
    dim, terms = poly.dim, poly.terms
    if terms and reduce(or_, terms, 0) & _high_bits(dim):  # an exponent >= 128
        if lift:
            _check_product_exponents(poly.diff(i), _sumsq(dim))
        if m:
            _check_product_exponents(poly, Poly.x(dim, i))
    sign, shift = -1 if neg else 1, _BITS * i
    m, lift_keys = m * sign, _square_keys(dim) if lift else (0,)
    for k, c in terms.items():
        if e := (k >> shift) & _MASK:
            ce, base = c * (e * sign), k - (1 << shift)
            for s2 in lift_keys:
                v = acc.get(base + s2)
                acc[base + s2] = ce if v is None else v + ce
        if m:
            kk = k + (1 << shift)
            v = acc.get(kk)
            acc[kk] = c * m if v is None else v + c * m


def _add_into(acc: dict, terms: dict) -> None:
    for k, c in terms.items():
        v = acc.get(k)
        acc[k] = c if v is None else v + c


@lru_cache(maxsize=None)
def _square_keys(dim: int) -> tuple[int, ...]:
    """The packed keys of x_0^2 .. x_{N-1}^2."""
    return tuple(2 << (_BITS * i) for i in range(dim))


@lru_cache(maxsize=None)
def _sumsq(dim: int, k: int = 1) -> Poly:
    """S^k for S = sum x_i^2."""
    if k <= 1:
        return Poly(dim, dict.fromkeys(_square_keys(dim), 1)) if k else Poly.const(dim, 1)
    return _sumsq(dim, k - 1) * _sumsq(dim)


def _fold_coef(levels: dict, c: "RCoef") -> None:
    """Add a (reduced) coefficient into the level of its s."""
    level = levels.get(c.s)
    if level is None:  # a level starts from copies of its first numerators
        levels[c.s] = [dict(c.p.terms), dict(c.q.terms), 1]
        return
    if c.p.terms:
        _add_into(level[0], c.p.terms)
    if c.q.terms:
        _add_into(level[1], c.q.terms)
    level[2] += 1


def _finish(dim: int, levels: dict) -> "RCoef":
    """The sum of a level accumulator {s: [P terms, Q terms, summands]}: each
    level lifted to the largest s by S^(top - s), zeros dropped, and reduced.
    A summand not known to be reduced counts twice.  When the largest s > 0
    holds one summand (N >= 2), the other levels bring a factor S and it does
    not, so S cannot divide the sum and no division is tried."""
    top = max(levels)
    p_acc, q_acc, at_top = levels[top]
    for s, (p, q, _) in levels.items():
        if s < top:
            for part, acc in ((p, p_acc), (q, q_acc)):
                part = {k: c for k, c in part.items() if c}
                if part:
                    _add_into(acc, (Poly._wrap(dim, part) * _sumsq(dim, top - s)).terms)
    p = Poly._wrap(dim, {k: c for k, c in p_acc.items() if c})
    q = Poly._wrap(dim, {k: c for k, c in q_acc.items() if c})
    if top and (dim < 2 or at_top > 1):
        return RCoef(dim, p, q, top)
    return RCoef._reduced(dim, p, q, top)


class RCoef:
    """A cone coefficient (P + Q r) / r^{2s} in canonical reduced form.

    Reduced means s = 0, or s > 0 and S = sum x_i^2 does not divide both P
    and Q; a zero coefficient has s = 0.  The generic constructor takes
    s >= 0 and divides by S until that holds, so the reduced form of a value
    is unique and equal coefficients have equal (p, q, s).

    A sum, an exact wedge or contraction blade, and an `ext_d` blade are one
    level accumulator, the numerators of P and of Q per s: a summand's
    numerators, a product of one-part coefficients (`_mul_into`) and a
    derivative (`_diff_part`) add into their level as they are made, the
    last two with no `RCoef` of their own, and one step (`_finish`) lifts the
    levels to the largest s and reduces the sum once.

    For N >= 2, S is prime in Q[x_0..x_{N-1}] (irreducible, and the ring is a
    UFD), and does not divide x_i.  So these results are reduced already and
    skip the division trial:
    - negation and rational scaling (at every N: a unit keeps divisibility);
    - the derivative at s = 0 with empty q, which is dP/dx_i (at every N);
    - the derivative at s > 0: modulo S its parts are -2s x_i P and
      (1 - 2s) x_i Q, so S cannot divide both;
    - the product of two coefficients that each have one part (P or Q r)
      only, with s > 0 for one of them: S can divide the product only through
      the numerator of a factor with s = 0, so that small numerator is the one
      divided (`_one_part_factors`), and at s = 0 for both no S appears
      unless both are Q parts (at every N);
    - a sum whose largest s > 0 holds one reduced summand alone (`_finish`);
    - a one-part coefficient times r^m that keeps its numerator, when s > 0
      before or s = 0 after (`times_r_power`, at every N).
    Every other result gets the generic reduction, which rules most failing
    divisions out by two key comparisons (`Poly.try_div_sumsq`).  At N = 1,
    S = x_0^2 is a square, (x_0 / r^2)^2 = 1 / r^2, and only the shortcuts
    marked "at every N" apply.

    Multiplying by a rational scalar is allowed, and a rational compares
    equal to its constant coefficient, so `RCoef` can be the coefficient ring
    of an `exterior.AltForm`.  Truth testing is the exact zero test.
    """

    __slots__ = ("dim", "p", "q", "s")

    def __init__(self, dim: int, p: Poly, q: Poly, s: int):
        while s > 0:
            if p.is_zero() and q.is_zero():
                s = 0
                break
            dp = p.try_div_sumsq() if p.terms else p
            if dp is None:
                break
            dq = q.try_div_sumsq() if q.terms else q
            if dq is None:
                break
            p, q = dp, dq
            s -= 1
        self.dim, self.p, self.q, self.s = dim, p, q, s

    @classmethod
    def _reduced(cls, dim: int, p: Poly, q: Poly, s: int) -> "RCoef":
        """Wrap a (p, q, s) known to be reduced, with no division trial."""
        out = object.__new__(cls)
        out.dim, out.p, out.q, out.s = dim, p, q, s
        return out

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
            body = _sumsq(dim, m // 2)
            return cls(dim, body, zero, 0) if m % 2 == 0 else cls(dim, zero, body, 0)
        mm = -m
        if mm % 2 == 0:
            return cls(dim, one, zero, mm // 2)
        return cls(dim, zero, one, (mm + 1) // 2)

    @staticmethod
    def sum_of(coeffs: Sequence["RCoef"]) -> "RCoef":
        """The sum of one or more coefficients, reduced once (`_finish`).
        A one-term sum is the term itself."""
        if len(coeffs) == 1:
            return coeffs[0]
        levels: dict = {}
        for c in coeffs:
            _fold_coef(levels, c)
        return _finish(coeffs[0].dim, levels)

    @staticmethod
    def sum_of_products(pairs) -> "RCoef":
        """The sum of sign * a * b over (sign, a, b), a or b maybe rational,
        reduced once.  A product of one-part coefficients is multiplied
        straight into its level; any other is made and reduced first."""
        levels: dict = {}
        for sign, a, b in pairs:
            if not isinstance(a, RCoef):
                a, b = b, a
            one_part = a._one_part_factors(b) if isinstance(b, RCoef) else None
            if one_part is None:
                _fold_coef(levels, a * (-b if sign < 0 else b))
            else:
                s, odd, na, nb = one_part
                level = levels.get(s) or levels.setdefault(s, [{}, {}, 0])
                _mul_into(level[odd], na, nb, sign < 0)
                level[2] += 1
        return _finish(a.dim, levels)

    def __bool__(self) -> bool:
        return bool(self.p.terms or self.q.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RCoef.const(self.dim, other)
        return isinstance(other, RCoef) and not (self - other)

    __hash__ = None

    def __add__(self, other: "RCoef") -> "RCoef":
        return RCoef.sum_of((self, other))

    def __neg__(self) -> "RCoef":
        return RCoef._reduced(self.dim, -self.p, -self.q, self.s)

    def __sub__(self, other: "RCoef") -> "RCoef":
        return self + (-other)

    def __mul__(self, other) -> "RCoef":
        dim = self.dim
        if not isinstance(other, RCoef):  # a rational scalar
            if other == 0:
                return RCoef.const(dim, 0)
            return RCoef._reduced(dim, self.p.scale(other), self.q.scale(other), self.s)
        one_part = self._one_part_factors(other)
        if one_part is not None:
            s, odd, na, nb = one_part
            n, empty = na * nb, Poly._wrap(dim, {})
            return RCoef._reduced(dim, empty, n, s) if odd else RCoef._reduced(dim, n, empty, s)
        # (p1 + q1 r)(p2 + q2 r) = p1 p2 + q1 q2 r^2 + (p1 q2 + q1 p2) r, not
        # known to be reduced; a product with an empty factor adds nothing
        p, q = {}, {}
        for acc, x, y in ((p, self.p, other.p), (p, self.q * other.q, _sumsq(dim)), (q, self.p, other.q),
                          (q, self.q, other.p)):
            _mul_into(acc, x, y)
        return _finish(dim, {self.s + other.s: [p, q, 2]})

    __rmul__ = __mul__

    def _one_part(self) -> bool:
        """Nonzero with exactly one of P, Q r."""
        return not self.p.terms if self.q.terms else bool(self.p.terms)

    def _one_part_factors(self, other: "RCoef"):
        """(s, odd, na, nb) with self * other = na nb r^odd / r^{2s} reduced,
        for one-part factors with s = 0 and a P part for one (at every N) or
        s > 0 for one (N >= 2); else None.  With a.s > 0, S can divide the
        product only through b's numerator, reduced first when b.s = 0."""
        if not (self._one_part() and other._one_part()):
            return None
        a, b = (self, other) if self.s else (other, self)
        na, a_odd = (a.q, True) if a.q.terms else (a.p, False)
        nb, b_odd = (b.q, True) if b.q.terms else (b.p, False)
        if not a.s:
            return None if a_odd and b_odd else (0, a_odd != b_odd, na, nb)
        if a.dim < 2:
            return None
        s = a.s + b.s - (a_odd and b_odd)  # r^2 = S cancels one factor
        while not b.s and s and (d := nb.try_div_sumsq()) is not None:
            nb, s = d, s - 1
        return s, a_odd != b_odd, na, nb

    def diff(self, i: int) -> "RCoef":
        levels: dict = {}
        self._fold_diff(levels, i, False)
        return _finish(self.dim, levels)

    def _fold_diff(self, levels: dict, i: int, neg: bool) -> None:
        """Add (-1 if neg) d self/dx_i into a level accumulator: P_i at s = 0
        with Q empty, else ((S P_i - 2s x_i P) + (S Q_i + (1 - 2s) x_i Q) r)
        / r^{2s+2}."""
        s = self.s + 1 if self.s or self.q.terms else 0
        level = levels.get(s) or levels.setdefault(s, [{}, {}, 0])
        for acc, part, m in ((level[0], self.p, -2 * self.s), (level[1], self.q, 1 - 2 * self.s)):
            if part.terms:
                _diff_part(acc, part, i, m, neg, lift=s > 0)
        level[2] += 1 if self.s else 2  # at s = 0, S may divide both parts

    def times_r_power(self, m: int) -> "RCoef":
        """self * r^m.  A one-part X r^e / r^{2s} (e = 1 for a Q part) gives
        X r^{(e + m) mod 2} / r^{2s'}, s' = s - floor((e + m) / 2): the same
        numerator, reduced when s' = 0, or when s > 0 (a reduced X with s > 0
        has no factor S, in every dimension).  Other cases take the product
        with `r_power`."""
        e = m + bool(self.q.terms)
        s = self.s - e // 2
        if s < 0 or (s and not self.s) or not self._one_part():
            return self * RCoef.r_power(self.dim, m)
        x, empty = self.q if self.q.terms else self.p, Poly._wrap(self.dim, {})
        return RCoef._reduced(self.dim, empty, x, s) if e % 2 else RCoef._reduced(self.dim, x, empty, s)

    def eval(self, point) -> float:
        r2 = float(sum(float(x) * float(x) for x in point))
        r = math.sqrt(r2)
        return (self.p.eval(point) + self.q.eval(point) * r) / (r2**self.s)

    def __repr__(self) -> str:
        return f"RCoef(p={len(self.p.terms)}t, q={len(self.q.terms)}t, s={self.s})"


def dilation_field(dim: int) -> tuple:
    """The dilation field r d/dr, with components x_i."""
    return tuple(RCoef.from_poly(Poly.x(dim, i)) for i in range(dim))


def unit_radial_field(dim: int) -> tuple:
    """d/dr, with components x_i / r."""
    zero = Poly(dim, {})
    return tuple(RCoef(dim, zero, Poly.x(dim, i), 1) for i in range(dim))


def reeb_extension(Ip: np.ndarray) -> tuple:
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
    return tuple(comps)


# Forms on the cone are exterior forms with RCoef coefficients; the old names
# stay as aliases of the one algebra.
RationalForm = AltForm
CRationalForm = ComplexAltForm


def constant_form(f):
    """Lift a constant-coefficient exact form (real or complex) to the cone."""
    if isinstance(f, ComplexAltForm):
        return ComplexAltForm(constant_form(f.re), constant_form(f.im))
    return AltForm(f.dim, f.degree, _raw={m: RCoef.const(f.dim, c) for m, c in f._raw_terms().items()})


def times_r_power(f, m: int):
    """f * r^m, coefficient by coefficient through `RCoef.times_r_power`."""
    if isinstance(f, ComplexAltForm):
        return ComplexAltForm(times_r_power(f.re, m), times_r_power(f.im, m))
    return AltForm(f.dim, f.degree, _raw={mask: c.times_r_power(m) for mask, c in f._raw_terms().items()})


def eval_at(f: AltForm, point) -> AltForm:
    """Numeric restriction of the coefficients at a point (a float form)."""
    return AltForm(f.dim, f.degree, _raw={m: c.eval(point) for m, c in f._raw_terms().items()})


def ext_d(f):
    """Exterior derivative; d(r^m) = m r^{m-2} sum_i x_i dx_i, d o d = 0 exactly."""
    if isinstance(f, ComplexAltForm):
        return ComplexAltForm(ext_d(f.re), ext_d(f.im))
    dim, blades = f.dim, defaultdict(dict)
    for mask, c in f._raw_terms().items():
        # at s = 0 with no Q part, only the variables of P have a derivative
        live = -1 if c.s or c.q.terms else reduce(or_, c.p.terms, 0)
        for i in range(dim):
            if not mask >> i & 1 and (live >> (_BITS * i)) & _MASK:
                c._fold_diff(blades[mask | 1 << i], i, _drop_sign(mask, i) < 0)
    return AltForm(dim, f.degree + 1, _raw={m: _finish(dim, levels) for m, levels in blades.items()})


def interior_field(X: tuple, f):
    """Contraction with a vector field (antiderivation of degree -1)."""
    return interior(X, f)


def lie_derivative(X: tuple, f):
    """Cartan formula L_X = d iota_X + iota_X d, computed exactly."""
    if f.degree == 0:
        df = ext_d(f)
        return interior_field(X, df)
    return ext_d(interior_field(X, f)) + interior_field(X, ext_d(f))


def dr_form(dim: int) -> AltForm:
    """dr = (sum x_i dx_i) / r."""
    zero = Poly(dim, {})
    return AltForm(dim, 1, _raw={1 << i: RCoef(dim, zero, Poly.x(dim, i), 1) for i in range(dim)})


def cone_split(f):
    """Split f = dr ^ alpha + beta with both parts radial-free; exact."""
    if f.degree == 0:
        raise ValueError("cannot split a 0-form")
    alpha = interior_field(unit_radial_field(f.dim), f)
    beta = f - dr_form(f.dim).wedge(alpha)
    return alpha, beta


def transverse_power(n: int, p: int):
    """sigma_p^(n+1) on the cone, dr parts included (d psi_p).

    With (a_p, b_p) = cone_split(omega_p), r^2 Omega_p = b_p = omega_p - dr ^ a_p,
    so r^2 sigma_p = A - D for sigma_p = Omega_q + i Omega_r (`sigma_t{p}`),
    the cone model's integer form A = sigma{p} and D = dr ^ (a_q + i a_r).
    D ^ D = 0 and 2-forms commute, so sigma_p^k = r^{-2k} (A^k - k D ^ A^{k-1}):
    integer wedge powers of A and one wedge with D, no wedge of two cone forms.
    """
    from caliber.model import build_hyperkahler_cone

    sigma = link_extension_catalog(n)[f"sigma_t{p}"]
    A = wedge_powers(build_hyperkahler_cone(n).form(f"sigma{p}"), n + 1)
    D = constant_form(A[1]) - times_r_power(sigma, 2)
    return times_r_power(constant_form(A[n + 1]) - wedge(D, A[n]) * (n + 1), -2 * (n + 1))


class NotClosedError(ValueError):
    def __init__(self, residual):
        super().__init__(f"form is not closed: d has {residual.residual_term_count()} residual terms")
        self.residual = residual


class NotConicalError(ValueError):
    def __init__(self, residual, k: int):
        super().__init__(
            f"form is not homogeneous of degree {k}: residual has {residual.residual_term_count()} terms"
        )
        self.residual = residual


def homogeneous_potential(f, k: int):
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
    res = lie_derivative(R, f) - f * k
    if not res.is_zero():
        raise NotConicalError(res, k)
    return interior_field(R, f) * Fraction(1, k)


# ---------------------------------------------------------------------------
# conical extensions of the link catalog


@lru_cache(maxsize=None)
def cone_constant_catalog(n: int) -> dict:
    """Constant cone forms lifted to exact cone forms."""
    from caliber.model import build_hyperkahler_cone

    hk = build_hyperkahler_cone(n)
    names = ("omega1", "omega2", "omega3", "theta_I4", "Phi1", "Phi2", "Phi3", "Lambda",
             "upsilon1", "upsilon2", "upsilon3")
    return {name: constant_form(hk.form(name)) for name in names}


@lru_cache(maxsize=None)
def link_extension_catalog(n: int) -> dict:
    """Degree-0 conical extensions of the distinguished link forms.

    alpha_p and Omega_p are the rescaled radial split of omega_p; the rest
    comes from the shared link recipe (`sigma_t{p}` is the full sigma_p).
    On the cone these extensions satisfy the same structure identities as
    the link forms themselves, with exact rational coefficients throughout.
    """
    from caliber.model import CYCLIC_PAIRS, build_hyperkahler_cone, link_forms

    hk = build_hyperkahler_cone(n)
    alpha, Omega = {}, {}
    for p in (1, 2, 3):
        a, b = cone_split(constant_form(hk.form(f"omega{p}")))
        alpha[p], Omega[p] = times_r_power(a, -1), times_r_power(b, -2)
    sigma_powers = {p: [times_r_power(constant_form(pw), -2 * k)
                        for k, pw in enumerate(wedge_powers(hk.form(f"sigma{p}"), n))] for p in (1, 2, 3)}
    cat = link_forms(alpha, Omega, sigma_powers, n)
    for p, (q, r) in CYCLIC_PAIRS.items():
        cat[f"sigma_t{p}"] = ComplexAltForm(Omega[q], Omega[r])
    # alpha2 ^ Omega2 - alpha3 ^ Omega3, from the phi family without new wedges
    cat["theta_I3"] = (cat["phi3"] - cat["phi2"]) * Fraction(1, 2)
    cat["alpha123"] = alpha[1].wedge(alpha[2]).wedge(alpha[3])
    for p, I in enumerate(hk.complex_structures, start=1):
        cat[f"reeb{p}"] = reeb_extension(I)
    return cat
