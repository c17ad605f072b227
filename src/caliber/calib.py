"""Comass computation and the structure of comass maximizers.

The comass of a k-form is its maximum over oriented orthonormal k-planes.
`comass_search` runs multi-start Riemannian ascent on the Stiefel manifold of
orthonormal k-frames: Euclidean multilinear gradient projected to the tangent
space, Gram-Schmidt retraction, Armijo backtracking.  Search values are
certified lower bounds only; "comass one" acceptance additionally rests on
the relevant structure theorem for the form at hand.

The ascent runs on f / 2^e, where 2^e <= max |c_T| < 2^(e+1), and scales
the values back; both scalings are exact, so the steps, the float floor and
`tol` see a form of unit size whatever the scale of its coefficients.
Values are resolved only to about eps * |f|, so once a restart's Armijo gain
c1 * t * |grad|^2 falls to the float floor eps * max(|f|, 1) no step can pass
the test.  A restart stops when its Riemannian gradient norm falls below
`tol` (converged), when its next trial gain reaches the float floor
(float_floor: stationary to working precision), after `MAX_HALVINGS` failed
trials (max_halvings), or when `MAX_ITERS` runs out (max_iters);
`ComassResult.terminations` counts each reason.  Each line search starts at
the Barzilai-Borwein step t = -<s, y> / <y, y> of the restart's last move
(s = V_k - V_(k-1), y = RG_k - RG_(k-1) for the Riemannian gradient RG;
Wen & Yin, Math. Program. 142, 2013), capped at `BB_MAX`, where that is
positive; otherwise at min(STEP0, t_last / SHRINK), one step up from the
restart's last accepted step t_last.  The Armijo test compares a trial with
the restart's Zhang-Hager reference C rather than its current value (Zhang &
Hager, SIAM J. Optim. 14, 2004): C <- (eta Q C + f) / (eta Q + 1) and
Q <- eta Q + 1 at each accepted value f, with C = f and Q = 1 at the start
and eta = `ZH_ETA`.  Each restart's current value is carried from the trial
that accepted it rather than re-evaluated.

Values and gradients share one recurrence.  The column-prefix minor
det V[S, :j] of every j-subset S of the support blades' rows is a Laplace
expansion along column j-1 of the prefix minors of level j-1; level k is
the blade determinants themselves, so a value is their sum with the form's
coefficients.  The Euclidean gradient uses that a k-form is multilinear in
the frame columns: its derivative in column j at row n sums, over the
support blades through n, the coefficient times a (k-1)-minor of the frame.
Each minor is a sum of products of column-prefix and column-suffix minors,
computed once per frame on the distinct subsets and shared by every term;
one signed matrix scatters them to the rows.  The path has no division, no
LU and no SVD, so it stays exact on singular frames, for every degree.

One batched Gram-Schmidt (`_gram_schmidt`) serves the retraction (the Q
factor with positive diagonal of each trial frame), the starting frames and
the canonical frames; outside this module it draws every
`planes.batch_*_planes` sample and builds the adapted basis of
`model.build_link_frame`.  The restarts tied with the best value
are canonicalized in one batched call; the smallest canonical frame, by its
bytes rounded to 12 digits, is the argmax.

`ComassResult.maximizer_frames` is the row-frame batch (M, k, N) of the
restarts within a tolerance relative to the best value, so it is scale-free
like the search; `isotropy_of_maximizers` reads `planes.isotropy_residual`
of a whole batch, to 1e-7, after an exact zero test of its premise
(`is_pure_type`).

`FormEvaluator` takes float(c) of each coefficient, so an exact catalog form
(int or Fraction coefficients) goes to the search as it is: the search runs
bit for bit as on its `to_float()` copy.  A tuple of forms of one degree
gets one evaluator whose plan covers the union of their support blades:
`model.value` reads a complex form as its (Re, Im), and `classify_plane`
all of a plane's unconditional catalog values from one minor table.  A minor
is computed from its row subset alone, so it is the same in any plan, and
each form's last contraction is the one-form evaluator's BLAS call on the
same rows, so each value is bit for bit the one-form value on one frame.

Restart r is seeded by seed + r: its starting frame is, bit for bit,
default_rng(seed + r).standard_normal((n, k)), a prefix of a draw made once
per seed per process.  Reruns with the same parameters are byte-identical.
A value's last bit can still depend on the batch it is computed in, since
`FormEvaluator.values` ends in a BLAS dot or gemv, so a different restart
count may move a witness at round-off, and on the frames' memory layout,
since einsum sums in the order of their strides.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from caliber.exterior import AltForm, ComplexAltForm, _indices_from_mask, interior

__all__ = [
    "Plane",
    "SearchParams",
    "ComassResult",
    "FormEvaluator",
    "comass_search",
    "comass_2form_exact",
    "skew_matrix",
    "orthonormal_rows",
    "batch_evaluate",
    "is_pure_type",
    "isotropy_of_maximizers",
    "canonical_frame",
    "canonical_frames",
]


# ---------------------------------------------------------------------------
# planes


def orthonormal_rows(A: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the oriented plane of the rows of each frame
    (..., k, N): the Q factor of QR with signs fixed by the diagonal of R.
    Raises ValueError when some frame's rows are rank-deficient (a diagonal
    entry of R within 1e-10 of zero, relative to the largest)."""
    if A.ndim == 2:  # one frame: scalar rank test, the same bytes and strides
        Q, R = np.linalg.qr(A.T)
        d = R.diagonal()
        diag = np.abs(d)
        if diag.min() <= 1e-10 * max(1.0, diag.max()):
            raise ValueError("rank-deficient frame")
        return (Q * np.sign(d)).T
    Q, R = np.linalg.qr(np.swapaxes(A, -1, -2))
    d = np.diagonal(R, axis1=-2, axis2=-1)
    diag = np.abs(d)
    if np.any(np.min(diag, axis=-1) <= 1e-10 * np.maximum(1.0, np.max(diag, axis=-1))):
        raise ValueError("rank-deficient frame")
    return np.swapaxes(Q * np.sign(d)[..., None, :], -1, -2)


@dataclass(frozen=True, eq=False)
class Plane:
    """An oriented k-plane in R^N, held as an ordered orthonormal frame.

    `frame` has shape (k, N): rows are the frame vectors, and the orientation
    is the row order.  Construction orthonormalizes (`orthonormal_rows`: QR,
    orientation preserved) and rejects rank-deficient input.
    """

    frame: np.ndarray

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @property
    def degree(self) -> int:
        return self.frame.shape[0]

    @classmethod
    def from_vectors(cls, vectors, *, orthonormalize: bool = True) -> "Plane":
        A = np.asarray(vectors, dtype=float)
        if A.ndim != 2:
            raise ValueError("frame must be a 2-D array of row vectors")
        if not np.all(np.isfinite(A)):
            raise ValueError("frame has non-finite entries")
        k, n = A.shape
        if k > n:
            raise ValueError(f"cannot span a {k}-plane in R^{n}")
        if k == 0:
            frame = A.copy()
            frame.setflags(write=False)
            return cls(frame)
        if orthonormalize:
            frame = orthonormal_rows(A)
        else:
            gram = A @ A.T
            if np.max(np.abs(gram - np.eye(k))) > 1e-10:
                raise ValueError("frame is not orthonormal")
            frame = A.copy()
        frame.setflags(write=False)
        return cls(frame)

    def spans_same_oriented(self, other: "Plane", tol: float = 1e-8) -> bool:
        if (self.dim, self.degree) != (other.dim, other.degree):
            return False
        C = self.frame @ other.frame.T
        return bool(np.max(np.abs(C @ C.T - np.eye(self.degree))) <= tol and np.linalg.det(C) > 0)

    def to_json(self) -> dict:
        return {"dim": self.dim, "frame": [[float(x) for x in row] for row in self.frame]}

    @classmethod
    def from_json(cls, data) -> "Plane":
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, dict):
            raise ValueError(f"a plane must be a JSON object, got {type(data).__name__}")
        try:
            frame = np.asarray(data["frame"], dtype=float)
        except TypeError as exc:  # an entry that is an object or a list of objects
            raise ValueError(f"frame must be an array of numbers: {exc}") from exc
        plane = cls.from_vectors(frame)
        if data.get("dim", plane.dim) != plane.dim:
            raise ValueError(f"declared dim {data['dim']!r} does not match the frame rows of length {plane.dim}")
        return plane


@dataclass(frozen=True)
class SearchParams:
    restarts: int = 200
    seed: int = 0
    tol: float = 1e-10  # Riemannian gradient norm for convergence


# Fixed knobs of the ascent: iteration cap, sufficient-increase fraction of
# the linear model, weight of the past in the Zhang-Hager reference value,
# first trial step without a Barzilai-Borwein step, cap of the BB step, step
# shrink factor and halvings per line search.
MAX_ITERS = 500
ARMIJO_C1 = 0.3
ZH_ETA = 0.85
STEP0 = 1.0
BB_MAX = 1e3
SHRINK = 0.5
MAX_HALVINGS = 30


# Why a restart stopped: its Riemannian gradient fell below `tol`; its next
# Armijo gain fell to the float floor eps * max(|f|, 1), where no step can
# pass the test; its line search used all `MAX_HALVINGS`; or `MAX_ITERS` ran out.
TERMINATIONS = ("converged", "float_floor", "max_halvings", "max_iters")


@dataclass(frozen=True)
class ComassResult:
    value: float
    argmax: Plane
    all_values: np.ndarray = field(repr=False)
    all_frames: np.ndarray = field(repr=False)
    terminations: dict  # restarts per reason in TERMINATIONS

    @property
    def restarts_used(self) -> int:
        return len(self.all_values)

    @property
    def converged_fraction(self) -> float:
        """Share of restarts that converged or stopped at the float floor."""
        return (self.terminations["converged"] + self.terminations["float_floor"]) / self.restarts_used

    def maximizer_frames(self, tol: float = 1e-6) -> np.ndarray:
        """Row frames (M, k, N) of the restarts whose value is within
        tol * |value| of the best found, in restart order."""
        return self.all_frames[np.abs(self.all_values - self.value) <= tol * abs(self.value)]

    def to_json(self) -> dict:
        return {
            "value": float(self.value),
            "argmax": self.argmax.to_json(),
            "restarts_used": int(self.restarts_used),
            "converged_fraction": float(self.converged_fraction),
            "terminations": dict(self.terminations),
        }


# ---------------------------------------------------------------------------
# batched multilinear evaluation


# Frames per evaluator chunk: as many as keep one chunk's minors near
# _CHUNK_FLOATS doubles (4 MB, the L2 cache of a 2-core Xeon), but at least
# _CHUNK_FRAMES so that numpy's per-call cost stays small.  On that host,
# chunks made `grads` of re_upsilon1 (k = 8, n = 3) on 1000 frames 2x faster.
_CHUNK_FRAMES = 64
_CHUNK_FLOATS = 1 << 19


@dataclass(frozen=True)
class _MinorPlan:
    """Index plan of the shared-minor evaluator for one set of support blades.

    Level j < k lists the `sizes[j]` distinct j-subsets of the blades, sorted
    by bitmask; level k-1 holds the faces, and level k is the blades in their
    given order.  `children[j][t]` is (row, child): the t-th row of each
    j-subset and the position of the subset without it in level j-1.  Each
    split (j, negate, a, b) writes a face F as A + B with |A| = j, taking A
    and B = F minus A from levels j and k-1-j.  Blade t, position p sits on
    row `idx[t, p]` and face `face[t, p]`.
    """

    sizes: tuple
    children: tuple
    splits: tuple
    face: np.ndarray
    chunk: int


@lru_cache(maxsize=64)
def _minor_plan(blades: tuple) -> _MinorPlan:
    idx = np.array(blades, dtype=np.intp)
    k = idx.shape[1]
    dtype = np.int64 if idx.max() < 63 else object  # bitmasks of row sets

    def masks_of(rows):
        return np.sum(np.left_shift(np.array(1, dtype=dtype), rows.astype(dtype)), axis=-1, dtype=dtype)

    levels, masks = [], []
    for j in range(k):
        combos = list(combinations(range(k), j))
        rows = idx[:, np.array(combos, dtype=np.intp).reshape(len(combos), j)].reshape(len(idx) * len(combos), j)
        m, first = np.unique(masks_of(rows), return_index=True)
        levels.append(rows[first])
        masks.append(m)

    def position(j, rows):
        return np.searchsorted(masks[j], masks_of(rows))

    children = [()] + [
        tuple((levels[j][:, t], position(j - 1, np.delete(levels[j], t, axis=1))) for t in range(j))
        for j in range(1, k)
    ]
    faces = levels[k - 1]
    face = np.stack([position(k - 1, np.delete(idx, p, axis=1)) for p in range(k)], axis=1)
    children.append(tuple((idx[:, t], face[:, t]) for t in range(k)))
    splits = []
    for j in range(k):
        for s in combinations(range(k - 1), j):
            rest = [p for p in range(k - 1) if p not in s]
            # shuffle sign of (A, B) inside F, times the column sign (-1)^j
            negate = bool((sum(s) - j * (j - 1) // 2 + j) % 2)
            splits.append((j, negate, position(j, faces[:, list(s)]), position(k - 1 - j, faces[:, rest])))
    sizes = tuple(len(level) for level in levels)
    chunk = max(_CHUNK_FRAMES, _CHUNK_FLOATS // (2 * sum(sizes) + k * sizes[k - 1]))
    return _MinorPlan(sizes, tuple(children), tuple(splits), face, chunk)


class FormEvaluator:
    """Vectorized evaluation and Euclidean gradient of a real form on frames.

    Frames are passed as arrays of shape (..., N, k) with frame vectors as
    columns; `values` returns shape (...,) and `grads` shape (..., N, k).
    Both run in frame chunks of the plan's size, so memory stays flat in the
    frame count.

    A tuple of real forms of one degree on one space gets one evaluator
    whose plan covers the union of their support blades, and `values` then
    returns shape (..., F): column f contracts form f's own coefficients
    with its own blades' minors.  The recurrence builds each minor from its
    subset alone, so a minor is the same in any plan, and the contraction is
    the one-form evaluator's BLAS call on the same rows: on one frame each
    column is, bit for bit, that form's own value; on a batch only within one
    chunk of the union plan, which may be smaller than the form's own (a
    complex form's Re and Im share one).  Such an evaluator has no `grads`.
    """

    def __init__(self, form):
        forms = form if isinstance(form, tuple) else (form,)
        if any(isinstance(f, ComplexAltForm) for f in forms):
            raise TypeError("comass machinery operates on real forms; take .re or .im first")
        if any(f.degree < 1 for f in forms):
            raise ValueError("comass machinery operates on forms of degree at least 1")
        if len({(f.dim, f.degree) for f in forms}) != 1:
            raise ValueError("the forms of one evaluator share one space and one degree")
        self.dim = forms[0].dim
        self.degree = forms[0].degree
        terms = [sorted(f._raw_terms().items()) for f in forms]
        masks = sorted({m for t in terms for m, _ in t})
        self.idx = np.array([_indices_from_mask(m) for m in masks], dtype=np.intp).reshape(len(masks), self.degree)
        coeffs = [np.array([float(c) for _, c in t]) for t in terms]
        self._parts = None  # (coefficients, blade positions) of each form of a tuple
        if isinstance(form, tuple):
            where = {m: i for i, m in enumerate(masks)}
            self._parts = tuple((c, np.array([where[m] for m, _ in t], dtype=np.intp)) for c, t in zip(coeffs, terms))
        else:
            self.coeffs = coeffs[0]
        self._plan = None  # built on the first call
        self._scatter = None  # built on the first `grads` call

    def _chunks(self, V: np.ndarray, shape: tuple, kernel) -> np.ndarray:
        """Per-frame results of `shape`, from `kernel` on the (k, N, B)
        columns of each frame chunk of V."""
        if V.shape[-2:] != (self.dim, self.degree):
            raise ValueError(f"dimension mismatch: frames of shape {V.shape}, "
                             f"the form needs (..., {self.dim}, {self.degree})")
        flat = V.reshape(-1, self.dim, self.degree)
        out = np.zeros((len(flat),) + shape)
        if len(self.idx):
            if self._plan is None:
                self._plan = _minor_plan(tuple(map(tuple, self.idx.tolist())))
            step = self._plan.chunk
            for s in range(0, len(flat), step):
                # X[c][n] is column c at row n for every frame of the chunk
                out[s:s + step] = kernel(flat[s:s + step].transpose(2, 1, 0).copy())
        return out

    def values(self, V: np.ndarray) -> np.ndarray:
        """Form values sum_T c_T det V[T, :k]: the prefix-minor recurrence of
        `grads` run one level further, up to the support blades themselves;
        shape (..., F) for a tuple of F forms."""
        shape = () if self._parts is None else (len(self._parts),)
        return self._chunks(V, shape, self._values_chunk).reshape(V.shape[:-2] + shape)

    def grads(self, V: np.ndarray) -> np.ndarray:
        """Shared-minor gradient: G[n, j] = (-1)^j sum_F W[n, F] E[F, j].

        E[F, j] is the minor of V on the face rows F and every column but j.
        It sums, over the splits F = A + B, the column-prefix minor
        det V[A, :j] times the column-suffix minor det V[B, j+1:], both built
        once per frame by Laplace recurrences on the subsets of the support
        blades.  No division, so the gradient stays exact on singular frames.
        """
        if self._parts is not None:
            raise TypeError("gradients are of one form; this evaluator holds a tuple")
        return self._chunks(V, (self.dim, self.degree), self._grads_chunk).reshape(V.shape)

    def _values_chunk(self, X: np.ndarray) -> np.ndarray:
        children = self._plan.children
        minors = X[0][children[1][0][0]]  # level 1: the entries of column 0
        for j in range(2, self.degree + 1):
            minors = _laplace_level(children[j], X[j - 1], minors, j - 1)
        if self._parts is None:
            return self.coeffs @ minors
        return np.array([c @ minors[pos] for c, pos in self._parts]).T

    def _grads_chunk(self, X: np.ndarray) -> np.ndarray:
        plan, N, k = self._plan, self.dim, self.degree
        if self._scatter is None:
            self._scatter = np.zeros((N, plan.sizes[k - 1]))
            self._scatter[self.idx, plan.face] = self.coeffs[:, None] * (-1.0) ** np.arange(k)
        B = X.shape[-1]
        one = np.ones((1, B))  # the empty minor
        prefix, suffix = [one], [one]
        if k > 1:  # level 1: the column entries, + 0.0 as in 0 + x * 1 (no -0.0)
            prefix.append(X[0][plan.children[1][0][0]] + 0.0)
            suffix.append(X[k - 1][plan.children[1][0][0]] + 0.0)
        for j in range(2, k):
            prefix.append(_laplace_level(plan.children[j], X[j - 1], prefix[-1], j - 1))
            suffix.append(_laplace_level(plan.children[j], X[k - j], suffix[-1], 0))
        E = np.zeros((k, plan.sizes[k - 1], B))
        for j, negate, a, b in plan.splits:
            if 0 < j < k - 1:
                _add_product(E[j], prefix[j][a], suffix[k - 1 - j][b], negate)
            else:  # one side is the empty minor 1
                _add_product(E[j], suffix[k - 1][b] if j == 0 else prefix[k - 1][a], None, negate)
        return np.matmul(self._scatter, E).transpose(2, 1, 0)


def _laplace_level(children: tuple, column: np.ndarray, lower: np.ndarray, parity: int) -> np.ndarray:
    """Minors of the next plan level, expanded along one column: for each
    subset S, sum_t (-1)^(t + parity) column[S_t] * lower[S without S_t]."""
    acc = np.zeros((len(children[0][0]), column.shape[-1]))
    for t, (row, child) in enumerate(children):
        _add_product(acc, column[row], lower[child], (t + parity) % 2)
    return acc


def _add_product(acc: np.ndarray, x: np.ndarray, y: np.ndarray, negate) -> None:
    """acc += x * y, or acc -= x * y when `negate`; x is a scratch copy, and
    y None stands for the factor 1."""
    if y is not None:
        x *= y
    if negate:
        acc -= x
    else:
        acc += x


def batch_evaluate(form: AltForm, frames: np.ndarray) -> np.ndarray:
    """Evaluate a real k-form on a batch of row-vector frames (..., k, N)."""
    ev = FormEvaluator(form)
    V = np.swapaxes(np.asarray(frames, dtype=float), -1, -2)
    return ev.values(V)


# ---------------------------------------------------------------------------
# comass search


def _gram_schmidt(candidates: np.ndarray, count: int):
    """Batched Gram-Schmidt on candidate rows (..., M, N), taken in order.

    Each batch entry keeps its own rows: a candidate within 1e-8 of the span
    of the rows it kept so far is skipped, and once it holds `count` rows its
    remaining candidates are ignored.  Classical Gram-Schmidt with one
    reorthogonalization pass keeps the rows orthonormal to working precision.
    Returns the rows (..., count, N), zero where an entry ran out of
    candidates, and the number each entry kept (...).
    """
    C = np.asarray(candidates, dtype=float)
    batch, (M, N) = C.shape[:-2], C.shape[-2:]
    C = C.reshape(-1, M, N)
    Q = np.zeros((len(C), count, N))
    kept = None  # per-entry row counts, once some entry has skipped a candidate
    for c in range(M):
        w = C[:, c]
        U = Q[:, :min(c, count)]  # rows an entry has not kept yet are zero
        for _ in range(2 if c else 0):
            w = w - np.matmul(np.matmul(U, w[:, :, None]).transpose(0, 2, 1), U)[:, 0]
        nrm = np.sqrt(np.einsum("bn,bn->b", w, w))
        ok = nrm > 1e-8
        if kept is None and ok.all():
            Q[:, c] = w / nrm[:, None]
            if c + 1 == count:
                break
            continue
        if kept is None:
            kept = np.full(len(C), c)
        take = np.flatnonzero(ok & (kept < count))
        Q[take, kept[take]] = w[take] / nrm[take, None]
        kept[take] += 1
        if np.all(kept == count):
            break
    if kept is None:
        kept = np.full(len(C), min(M, count))
    return Q.reshape(batch + (count, N)), kept.reshape(batch)


def _qf(X: np.ndarray) -> np.ndarray:
    """Retraction onto the Stiefel manifold: the Q factor of the frames
    (..., N, k) with positive diagonal R, by Gram-Schmidt on the columns
    (orientation safe)."""
    Q, _ = _gram_schmidt(X.swapaxes(-1, -2), X.shape[-1])
    return Q.swapaxes(-1, -2)


def _tangent_grad(V: np.ndarray, G: np.ndarray):
    """Riemannian gradient G - V sym(V^T G) on the Stiefel manifold, and its squared norm."""
    VtG = np.einsum("bnk,bnl->bkl", V, G)
    RG = G - np.einsum("bnk,bkl->bnl", V, 0.5 * (VtG + VtG.swapaxes(-1, -2)))
    return RG, (RG * RG).sum(axis=(1, 2))


def canonical_frames(frames: np.ndarray) -> np.ndarray:
    """`canonical_frame` of every row-vector frame in a batch (B, k, N)."""
    frames = np.asarray(frames, dtype=float)
    k = frames.shape[-2]
    P = np.swapaxes(frames, -1, -2) @ frames  # symmetric: row i projects e_i
    W, kept = _gram_schmidt(P, k)
    if np.any(kept < k):
        raise ValueError("could not canonicalize frame")
    first = np.argmax(np.abs(W) > 1e-9, axis=-1)
    W *= np.where(np.take_along_axis(W, first[..., None], -1) < 0, -1.0, 1.0)
    W[np.linalg.det(W @ np.swapaxes(frames, -1, -2)) < 0, k - 1] *= -1.0
    return W


def canonical_frame(frame: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal frame spanning the same oriented plane.

    Gram-Schmidt on the projections of the standard basis vectors, signs fixed
    by first significant coordinate, last vector flipped to match orientation.
    """
    return canonical_frames(np.asarray(frame, dtype=float)[None])[0]


# seed -> the first max(n k, _DRAW_SIZE) normals of default_rng(seed), whose
# first n k are the frame standard_normal((n, k)); 128 cover every catalog
# search (k = 8 in R^16), and the oldest of _DRAWS_CAP seeds goes first.
_DRAWS: dict = {}
_DRAWS_CAP = 1024
_DRAW_SIZE = 128


def _starting_normals(seed: int, restarts: int, n: int, k: int) -> np.ndarray:
    """default_rng(seed + r).standard_normal((n, k)) for r < restarts, stacked."""
    size, rows = n * k, []
    for s in range(seed, seed + restarts):
        draw = _DRAWS.get(s)
        if draw is None or draw.size < size:
            if len(_DRAWS) >= _DRAWS_CAP:
                del _DRAWS[next(iter(_DRAWS))]
            draw = _DRAWS[s] = np.random.default_rng(s).standard_normal(max(size, _DRAW_SIZE))
        rows.append(draw[:size])
    return np.stack(rows).reshape(restarts, n, k)


def comass_search(form: AltForm, params: SearchParams = SearchParams()) -> ComassResult:
    """Multi-start Riemannian ascent for the comass of a real k-form.

    Returns a certified lower bound together with the best local maximizer
    found; deterministic given `params.seed`.
    """
    if isinstance(form, ComplexAltForm):
        raise TypeError("comass_search needs a real form; use its .re or .im")
    if params.restarts < 1:
        raise ValueError("restarts must be >= 1")
    n, k = form.dim, form.degree
    if k > n:
        raise ValueError(f"a {k}-form on R^{n} has no {k}-planes to search")
    if form.is_zero() or k == 0:
        plane = Plane.from_vectors(np.eye(n)[:k], orthonormalize=False)
        value = abs(float(form._raw_terms().get(0, 0.0))) if k == 0 else 0.0
        return ComassResult(value, plane, np.full(params.restarts, value),
                            np.repeat(plane.frame[None, :, :], params.restarts, axis=0),
                            dict.fromkeys(TERMINATIONS, 0) | {"converged": params.restarts})

    ev = FormEvaluator(form)
    # ascend on f / 2^e with 2^e <= max|c_T| < 2^(e+1): exact, and the steps,
    # the float floor and `tol` then see a form of unit size
    e = int(np.frexp(np.max(np.abs(ev.coeffs)))[1]) - 1
    ev.coeffs = np.ldexp(ev.coeffs, -e)
    R = params.restarts
    V = _qf(_starting_normals(params.seed, R, n, k))
    f = ev.values(V)  # each restart's frame and value, final once it stops
    reason = np.full(R, -1)  # index into TERMINATIONS once a restart stops
    # the live restarts only, in _qf's layout: ids, frames, values, Zhang-Hager
    # reference value and weight, last accepted step, previous frame and
    # Riemannian gradient
    live, Vl, fl, C, Q, t_last = np.arange(R), V, f, f.copy(), np.ones(R), np.full(R, np.inf)
    V_prev = RG_prev = V  # read from the second iteration on
    eps = np.finfo(float).eps

    def stop(mask, why):
        V[live[mask]], f[live[mask]], reason[live[mask]] = Vl[mask], fl[mask], why

    for it in range(MAX_ITERS):
        if live.size == 0:
            break
        RG, gn2 = _tangent_grad(Vl, ev.grads(Vl))
        done = np.sqrt(gn2) < params.tol
        if done.any():
            stop(done, 0)
            live, Vl, fl, C, Q, t_last, V_prev, RG_prev, RG, gn2 = (
                a[~done] for a in (live, Vl, fl, C, Q, t_last, V_prev, RG_prev, RG, gn2))
            if live.size == 0:
                break

        floor = eps * np.maximum(np.abs(fl), 1.0)
        t = np.minimum(STEP0, t_last / SHRINK)
        if it:  # from the second iteration on every live restart has moved:
            # BB2 step -<s,y>/<y,y> where the curvature is negative; frames
            # keep _qf's memory layout, which sets einsum's summation order
            s, y = Vl - V_prev, RG - RG_prev
            sy, yy = np.einsum("bnk,bnk->b", s, y), np.einsum("bnk,bnk->b", y, y)
            bb = np.flatnonzero(sy < 0)
            t[bb] = np.minimum(-sy[bb] / yy[bb], BB_MAX)
        V_prev, RG_prev = Vl, RG
        accepted = np.zeros(live.size, dtype=bool)
        trying = ~accepted
        for h in range(MAX_HALVINGS):
            gain = ARMIJO_C1 * t * gn2
            trying &= gain > floor  # a gain at the value resolution can never pass the test
            every = trying.all()
            if not (every or trying.any()):
                break
            at = slice(None) if every else np.flatnonzero(trying)
            cand = _qf(Vl[at] + t[at, None, None] * RG[at])
            f1 = ev.values(cand)
            ok = f1 >= C[at] + gain[at]
            if h == 0 and ok.all():  # the common case: all that try move at once, the rest are at the floor
                if not every:
                    stop(~trying, 1)
                    live, C, Q, V_prev, RG_prev = (a[at] for a in (live, C, Q, V_prev, RG_prev))
                Vl, fl, t_last = cand, f1, t[at]
                C, Q = (ZH_ETA * Q * C + f1) / (ZH_ETA * Q + 1), ZH_ETA * Q + 1
                accepted = None
                break
            if Vl is V_prev:  # first scatter of this line search
                Vl = Vl.copy(order="K")
            hit = np.flatnonzero(ok) if every else at[ok]
            Vl[hit], fl[hit], t_last[hit] = cand[ok], f1[ok], t[hit]
            C[hit] = (ZH_ETA * Q[hit] * C[hit] + f1[ok]) / (ZH_ETA * Q[hit] + 1)
            Q[hit] = ZH_ETA * Q[hit] + 1
            accepted[hit], trying[hit] = True, False
            t[trying] *= SHRINK
        if accepted is not None and not accepted.all():
            stuck = ~accepted
            stop(stuck, np.where(ARMIJO_C1 * t[stuck] * gn2[stuck] <= floor[stuck], 1, 2))
            live, Vl, fl, C, Q, t_last, V_prev, RG_prev = (
                a[accepted] for a in (live, Vl, fl, C, Q, t_last, V_prev, RG_prev))

    if live.size:
        _, gn2 = _tangent_grad(Vl, ev.grads(Vl))
        stop(slice(None), np.where(np.sqrt(gn2) < params.tol, 0, 3))

    best = float(np.max(f))  # ties are judged on the scaled values
    tied = canonical_frames(np.swapaxes(V[f >= best - 1e-9], -1, -2))
    keys = [W.tobytes() for W in np.round(tied, 12)]
    argmax = Plane.from_vectors(tied[keys.index(min(keys))], orthonormalize=True)
    value = float(np.ldexp(ev.values(argmax.frame.T), e))
    counts = np.bincount(reason, minlength=len(TERMINATIONS))
    terminations = {name: int(c) for name, c in zip(TERMINATIONS, counts)}
    return ComassResult(value, argmax, np.ldexp(f, e), np.swapaxes(V, -1, -2), terminations)


def skew_matrix(form: AltForm) -> np.ndarray:
    """The skew coefficient matrix S of a 2-form: form(X, Y) = X^T S Y."""
    if form.degree != 2:
        raise ValueError(f"expected a 2-form, got degree {form.degree}")
    S = np.zeros((form.dim, form.dim))
    for (i, j), c in form.terms.items():
        S[i, j] = float(c)
        S[j, i] = -float(c)
    return S


def comass_2form_exact(form: AltForm) -> float:
    """Comass of a 2-form: the spectral norm of its skew coefficient matrix."""
    S = skew_matrix(form)
    if not np.any(S):
        return 0.0
    return float(np.linalg.svd(S, compute_uv=False)[0])


# ---------------------------------------------------------------------------
# structure of maximizers


def is_pure_type(form: AltForm, J: np.ndarray) -> bool:
    """Projector test for J-type (k,0)+(0,k): the polarized double contraction
    with (u, Jv) is the zero form for all basis pairs (exact for an exact
    form and an integer J)."""
    n = form.dim
    basis = np.eye(n, dtype=int)
    contracted = [interior(J[:, a], form) for a in range(n)]
    for a in range(n):
        for b in range(a, n):
            if not (interior(basis[a], contracted[b]) + interior(basis[b], contracted[a])).is_zero():
                return False
    return True


def isotropy_of_maximizers(form: AltForm, J: np.ndarray, omega: AltForm, maximizers: np.ndarray) -> bool:
    """True iff omega vanishes, to 1e-7, on every plane of the row-frame batch (M, k, N).

    Precondition (checked): form has J-type (k,0)+(0,k).
    """
    from caliber.planes import isotropy_residual  # planes imports calib

    if not is_pure_type(form, J):
        raise ValueError("type precondition failed: form is not of J-type (k,0)+(0,k)")
    return bool(np.all(isotropy_residual(maximizers, skew_matrix(omega)) <= 1e-7))
