"""Sparse alternating k-forms on R^N: the one form algebra of caliber.

Blades are stored as bitmasks over the standard basis, so a k-form is a map
from strictly increasing index lists to coefficients.  Coefficients may come
from any commutative ring whose elements support +, -, * and truth testing
(false exactly for zero): int, Fraction, float, or the exact cone
coefficients `symforms.RCoef`.  Exact types stay exact through every
operation.  An operation collects the signed factor pairs (sign, a, b) that
land on each blade, in the order it makes them, and one helper (`_totals`)
sums them: a ring that defines `sum_of_products` folds each product straight
into its blade's sum (`RCoef` multiplies the numerators into the blade's
s-levels and reduces the sum once), any other multiplies and adds left to
right with `*` and `+`.  Complex-valued forms are a pair of real forms
(`ComplexAltForm`), and all operations distribute over the pair.

Vectors are plain sequences / 1-D numpy arrays of length N.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import defaultdict
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence, Union

import numpy as np

Scalar = Union[int, float, Fraction]

__all__ = [
    "AltForm",
    "ComplexAltForm",
    "wedge",
    "interior",
    "hodge",
    "power",
    "wedge_powers",
    "evaluate",
    "pullback",
    "form_to_json",
    "form_from_json",
]


# ---------------------------------------------------------------------------
# bitmask blade helpers


def _mask_from_indices(indices: Iterable[int], dim: int) -> int:
    mask = 0
    prev = -1
    for i in indices:
        i = int(i)
        if i <= prev:
            raise ValueError(f"index list must be strictly increasing, got {tuple(indices)}")
        if not 0 <= i < dim:
            raise ValueError(f"index {i} out of range for dimension {dim}")
        mask |= 1 << i
        prev = i
    return mask


def _indices_from_mask(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _odd_above(m1: int) -> int:
    """The bits j with an odd number of indices of m1 above j: sorting the
    concatenation of m1's and a disjoint m2's increasing index lists has the
    sign (-1)^popcount(_odd_above(m1) & m2).  The xor-shift cascade leaves in
    bit j the parity of m1's bits from j up."""
    x, shift = m1, 1
    while shift < m1.bit_length():
        x ^= x >> shift
        shift <<= 1
    return x >> 1


def _drop_sign(mask: int, i: int) -> int:
    """Sign (-1)^p where p is the position of index i inside the blade."""
    return -1 if (mask & ((1 << i) - 1)).bit_count() & 1 else 1


def _totals(products: dict) -> dict:
    """{mask: the sum of sign * a * b over its list of factor pairs (sign, a, b)},
    in order; a lone value c is the pair (1, c, 1).  The pairs of one
    operation share a ring, read off the first pair.  A ring that defines
    `sum_of_products` (the exact cone coefficients) folds each list in one
    call; any other negates a product for sign -1 and adds left to right, so
    a float total has the bits of a running sum (builtin `sum` compensates
    float sums from Python 3.12 on)."""
    if not products:
        return {}
    _, a, b = next(iter(products.values()))[0]
    fold = getattr(type(a), "sum_of_products", None) or getattr(type(b), "sum_of_products", None)
    if fold is not None:
        return {m: fold(ps) for m, ps in products.items()}
    out = {}
    for m, ps in products.items():
        total = None
        for sign, a, b in ps:
            t = a * b if sign > 0 else -(a * b)
            total = t if total is None else total + t
        out[m] = total
    return out


# ---------------------------------------------------------------------------


class AltForm:
    """A real alternating k-form on R^N in canonical sparse storage.

    Instances are immutable in practice: no method mutates `terms`, and two
    forms compare equal iff dim, degree, and the canonicalized term maps are
    identical (exact comparison; use :meth:`approx_eq` for floats).
    """

    __slots__ = ("dim", "degree", "_terms")

    def __init__(self, dim: int, degree: int, terms: Mapping | None = None, *, _raw: dict | None = None):
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        if degree > dim and (terms or _raw):
            raise ValueError(f"no nonzero forms of degree {degree} on R^{dim}")
        self.dim = int(dim)
        self.degree = int(degree)
        if _raw is not None:
            self._terms = {m: c for m, c in _raw.items() if c}
        else:
            products: dict[int, list] = defaultdict(list)
            for key, coeff in (terms or {}).items():
                mask = key if isinstance(key, int) else _mask_from_indices(key, dim)
                if mask.bit_count() != degree:
                    raise ValueError(f"blade {key} has wrong length for degree {degree}")
                if mask >= (1 << dim):
                    raise ValueError(f"blade {key} out of range for dimension {dim}")
                products[mask].append((1, coeff, 1))
            self._terms = {m: c for m, c in _totals(products).items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, dim: int, degree: int) -> "AltForm":
        return cls(dim, degree, _raw={})

    @classmethod
    def blade(cls, dim: int, indices: Sequence[int], coeff: Scalar = 1) -> "AltForm":
        mask = _mask_from_indices(indices, dim)
        return cls(dim, len(tuple(indices)), _raw={mask: coeff})

    @classmethod
    def constant(cls, dim: int, value: Scalar) -> "AltForm":
        return cls(dim, 0, _raw={0: value} if value != 0 else {})

    # -- views --------------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, ...], Scalar]:
        return {_indices_from_mask(m): c for m, c in sorted(self._terms.items())}

    @property
    def scalar_kind(self) -> str:
        return "real"

    def coefficient(self, indices: Sequence[int]) -> Scalar:
        return self._terms.get(_mask_from_indices(indices, self.dim), 0)

    def num_terms(self) -> int:
        return len(self._terms)

    residual_term_count = num_terms  # the witness of an exact zero test

    def is_zero(self) -> bool:
        return not self._terms

    def norm_inf(self) -> float:
        return max((abs(c) for c in self._terms.values()), default=0.0)

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "AltForm") -> "AltForm":
        self._check_compatible(other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            prev = acc.get(m)
            acc[m] = c if prev is None else prev + c
        return AltForm(self.dim, self.degree, _raw=acc)

    def __sub__(self, other: "AltForm") -> "AltForm":
        return self + (-other)

    def __neg__(self) -> "AltForm":
        return AltForm(self.dim, self.degree, _raw={m: -c for m, c in self._terms.items()})

    def __mul__(self, scalar):
        return AltForm(self.dim, self.degree, _raw={m: c * scalar for m, c in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, AltForm):
            return NotImplemented
        return self.dim == other.dim and self.degree == other.degree and self._terms == other._terms

    __hash__ = None  # mutable-ish container semantics

    def approx_eq(self, other: "AltForm", tol: float = 1e-9) -> bool:
        self._check_compatible(other)
        keys = set(self._terms) | set(other._terms)
        return all(abs(self._terms.get(m, 0) - other._terms.get(m, 0)) <= tol for m in keys)

    def wedge(self, other):
        return wedge(self, other)

    def to_float(self) -> "AltForm":
        return AltForm(self.dim, self.degree, _raw={m: float(c) for m, c in self._terms.items()})

    # -- plumbing -----------------------------------------------------------

    def _check_compatible(self, other: "AltForm") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        if self.degree != other.degree:
            raise ValueError(f"degree mismatch: {self.degree} vs {other.degree}")

    def __repr__(self) -> str:
        inside = ", ".join(f"{idx}: {c}" for idx, c in list(self.terms.items())[:6])
        more = "" if len(self._terms) <= 6 else f", ... ({len(self._terms)} terms)"
        return f"AltForm(dim={self.dim}, degree={self.degree}, {{{inside}{more}}})"

    # raw access for sibling modules
    def _raw_terms(self) -> dict[int, Scalar]:
        return self._terms


class ComplexAltForm:
    """A complex k-form stored as the pair (Re, Im) of real forms."""

    __slots__ = ("re", "im")

    def __init__(self, re: AltForm, im: AltForm):
        re._check_compatible(im)
        self.re = re
        self.im = im

    @property
    def dim(self) -> int:
        return self.re.dim

    @property
    def degree(self) -> int:
        return self.re.degree

    @property
    def scalar_kind(self) -> str:
        return "complex"

    def num_terms(self) -> int:
        masks = set(self.re._raw_terms()) | set(self.im._raw_terms())
        return len(masks)

    def residual_term_count(self) -> int:
        return self.re.residual_term_count() + self.im.residual_term_count()

    def is_zero(self) -> bool:
        return self.re.is_zero() and self.im.is_zero()

    def conjugate(self) -> "ComplexAltForm":
        return ComplexAltForm(self.re, -self.im)

    def __add__(self, other):
        other = _as_complex(other)
        return ComplexAltForm(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = _as_complex(other)
        return ComplexAltForm(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return ComplexAltForm(-self.re, -self.im)

    def __mul__(self, scalar):
        if not isinstance(scalar, complex):
            return ComplexAltForm(self.re * scalar, self.im * scalar)
        a, b = scalar.real, scalar.imag
        return ComplexAltForm(self.re * a - self.im * b, self.re * b + self.im * a)

    __rmul__ = __mul__

    def wedge(self, other):
        return wedge(self, other)

    def power(self, p: int):
        return power(self, p)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexAltForm):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    __hash__ = None

    def approx_eq(self, other, tol: float = 1e-9) -> bool:
        other = _as_complex(other)
        return self.re.approx_eq(other.re, tol) and self.im.approx_eq(other.im, tol)

    def __repr__(self) -> str:
        return f"ComplexAltForm(re={self.re!r}, im={self.im!r})"


def _as_complex(f) -> ComplexAltForm:
    if isinstance(f, ComplexAltForm):
        return f
    return ComplexAltForm(f, AltForm.zero(f.dim, f.degree))


# ---------------------------------------------------------------------------
# operations


def wedge(a, b):
    """Exterior product; graded-anticommutative, associative, bilinear."""
    if isinstance(a, ComplexAltForm) or isinstance(b, ComplexAltForm):
        ac, bc = _as_complex(a), _as_complex(b)
        return ComplexAltForm(
            wedge(ac.re, bc.re) - wedge(ac.im, bc.im),
            wedge(ac.re, bc.im) + wedge(ac.im, bc.re),
        )
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    degree = a.degree + b.degree
    if degree > a.dim:
        return AltForm.zero(a.dim, degree)
    products: dict[int, list] = defaultdict(list)
    for m1, c1 in a._raw_terms().items():
        odd = _odd_above(m1)
        for m2, c2 in b._raw_terms().items():
            if not m1 & m2:
                products[m1 | m2].append((-1 if (odd & m2).bit_count() & 1 else 1, c1, c2))
    return AltForm(a.dim, degree, _raw=_totals(products))


def power(f, p: int):
    """Wedge power f ^ ... ^ f (p factors); p = 0 gives the constant 1."""
    return wedge_powers(f, p)[p]


def wedge_powers(f, top: int) -> list:
    """[f^k for k = 0 .. top]: the constant 1, f, then one wedge with f per power."""
    one = AltForm.constant(f.dim, 1)
    out = [_as_complex(one) if isinstance(f, ComplexAltForm) else one, f]
    while len(out) <= top:
        out.append(wedge(out[-1], f))
    return out[: top + 1]


def interior(v, a):
    """Interior product (contraction) of a vector with a form.

    The vector's entries may be numbers or ring elements (the vector fields
    of `symforms`).  Acts as an antiderivation of degree -1; contracting a
    0-form is an error.
    """
    if isinstance(a, ComplexAltForm):
        return ComplexAltForm(interior(v, a.re), interior(v, a.im))
    entries = v.tolist() if isinstance(v, np.ndarray) else list(v)
    if len(entries) != a.dim:
        raise ValueError(f"dimension mismatch: vector has {len(entries)} entries, form dim {a.dim}")
    if a.degree == 0:
        raise ValueError("cannot contract a 0-form")
    products: dict[int, list] = defaultdict(list)
    for mask, c in a._raw_terms().items():
        m, sign = mask, 1  # (-1)^(position of the index in the blade)
        while m:
            low = m & -m
            m ^= low
            vi = entries[low.bit_length() - 1]
            if vi:
                products[mask ^ low].append((sign, c, vi))
            sign = -sign
    return AltForm(a.dim, a.degree - 1, _raw=_totals(products))


def hodge(a):
    """Euclidean Hodge star; satisfies hodge(hodge(a)) = (-1)^{k(N-k)} a."""
    if isinstance(a, ComplexAltForm):
        return ComplexAltForm(hodge(a.re), hodge(a.im))
    n, k = a.dim, a.degree
    full = (1 << n) - 1
    base = (k * (k - 1)) // 2
    acc: dict[int, Scalar] = {}
    for mask, c in a._raw_terms().items():
        s = -1 if (_index_sum(mask) - base) & 1 else 1
        acc[full ^ mask] = c * s
    return AltForm(n, n - k, _raw=acc)


def _index_sum(mask: int) -> int:
    total = 0
    while mask:
        low = mask & -mask
        total += low.bit_length() - 1
        mask ^= low
    return total


def evaluate(a, vectors: Sequence):
    """Evaluate the form on an ordered list of vectors (fully antisymmetric).

    The exact reference path: one contraction per vector, in the ring of the
    coefficients and entries, so exact inputs give exact values.  Float
    values of catalog forms on planes go through `calib.FormEvaluator`
    (`model.value`), which the tests check against this function.
    """
    if isinstance(a, ComplexAltForm):
        return complex(evaluate(a.re, vectors)) + 1j * complex(evaluate(a.im, vectors))
    vecs = list(vectors)
    if len(vecs) != a.degree:
        raise ValueError(f"arity mismatch: form degree {a.degree}, got {len(vecs)} vectors")
    out = a
    for v in vecs:
        out = interior(v, out)
    return out._raw_terms().get(0, 0)


def pullback(a, matrix):
    """Pull back a form on R^N along the linear map R^M -> R^N given by an N x M matrix.

    Coefficient J of the result is the form's value on the columns J of the
    matrix.  A float array is evaluated by `calib.FormEvaluator.values`, the
    one float kernel.  An integer or object array, or a list of rows, is
    contracted as `evaluate` does, in the ring of its entries (an int64 array
    gives Python ints), so an exact matrix gives an exact pullback; the
    column subsets are walked in lexicographic order, and each prefix's
    partial contraction is shared by every subset that extends it.
    """
    if isinstance(a, ComplexAltForm):
        return ComplexAltForm(pullback(a.re, matrix), pullback(a.im, matrix))
    rows, cols = np.shape(matrix)
    if rows != a.dim:
        raise ValueError(f"shape mismatch: form dim {a.dim}, matrix has {rows} rows")
    k = a.degree
    if k == 0:
        return AltForm(cols, 0, _raw=dict(a._raw_terms()))
    if k > cols:
        return AltForm.zero(cols, k)
    combos = list(combinations(range(cols), k))
    if isinstance(matrix, np.ndarray) and matrix.dtype.kind not in "biuO":
        from caliber.calib import FormEvaluator  # calib imports this module

        L = np.asarray(matrix, dtype=float)
        values = FormEvaluator(a).values(L[:, combos].transpose(1, 0, 2)).tolist()
    else:
        columns = list(zip(*(matrix.tolist() if isinstance(matrix, np.ndarray) else matrix)))

        def contracted(form, start, left):
            # values on the `left`-subsets of columns[start:] in lexicographic
            # order, as `evaluate` contracts them, each prefix contracted once
            for j in range(start, cols - left + 1):
                c = interior(columns[j], form)
                if left == 1:
                    yield c._raw_terms().get(0, 0)
                else:
                    yield from contracted(c, j + 1, left - 1)

        values = list(contracted(a, 0, k))
    return AltForm(cols, k, _raw={_mask_from_indices(J, cols): v for J, v in zip(combos, values)})


# ---------------------------------------------------------------------------
# JSON schema: {"dim": N, "degree": k, "terms": [{"indices": [...], "re": x, "im": y}]}


def form_to_json(f) -> dict:
    cf = _as_complex(f)
    entries = {m: (c, 0) for m, c in cf.re._raw_terms().items()}
    for m, c in cf.im._raw_terms().items():
        entries[m] = (entries.get(m, (0, 0))[0], c)
    terms = [
        {"indices": list(_indices_from_mask(m)), "re": float(re), "im": float(im)}
        for m, (re, im) in sorted(entries.items())
    ]
    return {"dim": f.dim, "degree": f.degree, "terms": terms}


def _json_count(x, what: str) -> int:
    if isinstance(x, bool) or not isinstance(x, numbers.Integral) or x < 0:
        raise ValueError(f"{what} must be a nonnegative integer, got {x!r}")
    return int(x)


def _json_object(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(x).__name__}")
    return x


def form_from_json(data) -> AltForm | ComplexAltForm:
    """The form a schema document describes; a malformed one raises ValueError.

    Terms on the same blade are summed, and every summed coefficient must be
    finite.
    """
    if isinstance(data, str):
        data = json.loads(data)
    data = _json_object(data, "a form")
    dim, degree = _json_count(data["dim"], "dim"), _json_count(data["degree"], "degree")
    terms = data.get("terms", [])
    if not isinstance(terms, list):
        raise ValueError(f"terms must be a list, got {type(terms).__name__}")
    parts = {"re": defaultdict(list), "im": defaultdict(list)}
    for t in terms:
        indices = _json_object(t, "a term")["indices"]
        if not isinstance(indices, list):
            raise ValueError(f"indices must be a list, got {indices!r}")
        mask = _mask_from_indices([_json_count(i, "an index") for i in indices], dim)
        if mask.bit_count() != degree:
            raise ValueError(f"term {indices} does not have degree {degree}")
        for key, part in parts.items():
            c = t.get(key, 0.0)
            if isinstance(c, bool) or not isinstance(c, numbers.Real):
                raise ValueError(f"term {indices} has a coefficient {key!r} that is not a number: {c!r}")
            part[mask].append((1, float(c), 1))
    re, im = (AltForm(dim, degree, _raw=_totals(part)) for part in parts.values())
    for m, c in [*re._raw_terms().items(), *im._raw_terms().items()]:
        if not math.isfinite(c):
            raise ValueError(f"blade {list(_indices_from_mask(m))} has a non-finite coefficient")
    if im.is_zero():
        return re
    return ComplexAltForm(re, im)
