"""Tangent-plane classification, proposition-level equivalence checks, and the
normal form of calibrated 3-planes in the twistor model.

Membership tests are basis-free: J-invariance through the orthogonal projector
onto the plane, isotropy through the restricted 2-form, phases through the
complex value of the relevant volume form (defined only on calibrated planes).

Every form value on a plane, the Re gamma0 gate of the normal form included,
is `model.value(name, frame)`: the model's cached `FormEvaluator` of that
form (one for a complex form's Re and Im), built on first use and kept with
the model, as is the skew matrix (`model.skew`) behind each isotropy
residual.  `classify_plane` reads a plane's unconditional catalog values in
one tuple read `model.value(names, frame)`, one minor table for all of them,
each bit for bit its one-name read: a minor depends only on its rows, and
each form's last contraction is the same BLAS call on the same rows.  On a
batch wider than the tuple's plan chunk the last bits may move, so
`check_equivalences` reads its forms by name.  Isotropy residuals, in both,
are one product over the stacked skew matrices, and `classify_plane`'s
J-invariance residuals share one projector.  The structure stacks and the
CR test's columns are built once per model (`model.cached`), as the skew
matrices are.  The derived
calibrations omega{p}_power1 (cone) and alpha{p}_Omega{p}_power{m} (link) are
built once per model from `model.divided_powers`, as the catalog's forms are.

The normal form (`normal_form_theta`, `quaternionic_envelope`) and the
plane-level implications (`check_equivalences`, which the propositions suite
runs) take a `Plane` or a batch of row frames (B, k, N); a `Plane` is the
batch of one, so each runs one code path.  Each flag that `check_equivalences`
shares with the one-plane `classify_plane` comes from one helper.
`batch_rotated_w_theta` draws a batch of rotated W_theta planes with one
batched quaternionic Gram-Schmidt and one stacked QR.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from caliber.calib import (
    Plane,
    SearchParams,
    _gram_schmidt,
    _qf,
    comass_search,
    orthonormal_rows,
)
from caliber.exterior import wedge
from caliber.model import (
    CYCLIC_PAIRS,
    HKModel,
    LinkFrame,
    TwistorModel,
    divided_powers,
    make_W_theta,
    random_sp_u1_element,
    standard_triple_matrices,
)

__all__ = [
    "ClassificationReport",
    "NormalFormResult",
    "EquivalenceResult",
    "classify_plane",
    "check_equivalences",
    "normal_form_theta",
    "quaternionic_envelope",
    "PhaseRigidityReport",
    "phase_rigidity_scan",
    "rotated_w_theta",
    "batch_rotated_w_theta",
    "batch_random_planes",
    "batch_complex_planes",
    "batch_complex_isotropic_planes",
    "batch_double_lagrangian_planes",
    "batch_cr_planes",
    "batch_cr_legendrian_planes",
    "batch_hv_isotropic_planes",
    "batch_double_lagrangian_twistor",
    "projector_invariance_residual",
    "isotropy_residual",
    "alpha_residual",
    "intersection_dim",
]


# ---------------------------------------------------------------------------
# basic geometric measurements


def _item(a: np.ndarray):
    """A per-plane result: the array for a batch, a Python scalar for one plane."""
    return a if a.ndim else a.item()


def _blockwise(measure):
    """Measure a batch (..., k, N) in blocks of 512 planes, whose temporaries
    stay in cache; each plane gets the value it gets alone, and an empty batch
    gets an empty array."""

    @functools.wraps(measure)
    def blocked(frame: np.ndarray, *args):
        frame = np.asarray(frame)
        if frame.ndim == 2:
            return measure(frame, *args)
        flat = frame.reshape(-1, *frame.shape[-2:])
        out = np.concatenate([measure(flat[i:i + 512], *args) for i in range(0, max(len(flat), 1), 512)])
        return out.reshape(frame.shape[:-2] + out.shape[1:])

    return blocked


@_blockwise
def projector_invariance_residual(frame: np.ndarray, J: np.ndarray):
    """sup-norm of proj_E J proj_E - J proj_E, zero iff J(E) is contained in E:
    a float for one frame (k, N), an array for a batch (..., k, N).  A stack
    of structures J (m, N, N) shares one projector and gives the m residuals
    of each frame on a last axis."""
    P = frame.swapaxes(-1, -2) @ frame
    if J.ndim == 3:
        P = P[..., None, :, :]
    JP = J @ P
    return _item(np.abs(P @ JP - JP).max(axis=(-2, -1)))


@_blockwise
def isotropy_residual(frame: np.ndarray, S: np.ndarray):
    """sup-norm of the 2-form with skew matrix S (`model.skew`,
    `calib.skew_matrix`) restricted to E: a float for one frame (k, N), an
    array for a batch (..., k, N).  A stack of skew matrices S (m, N, N)
    gives the m residuals of each frame on a last axis."""
    if S.ndim == 3:
        frame = frame[..., None, :, :]
    return _item(np.abs(frame @ S @ frame.swapaxes(-1, -2)).max(axis=(-2, -1)))


def alpha_residual(frame: np.ndarray, p):
    """sup-norm of the contact form alpha_p on E at the link frame: a float
    for one frame (k, N), an array for a batch (..., k, N); a tuple of m
    indices p gives the m residuals of each frame on a last axis."""
    cols = np.abs(frame[..., np.subtract(p, 1)])  # (..., k), or (..., k, m) for a tuple
    return _item(cols.max(axis=-2 if isinstance(p, tuple) else -1))


def _cr(frame: np.ndarray, lf: LinkFrame, ps, tol: float) -> dict:
    """The CR tests for I_p at the link frame, {p: (flag, Reeb test, J_p
    residual)} for p in ps: E holds A_p (to 10 tol) and is J_p-invariant (to
    tol), from one stacked Reeb test and one projector; the columns, Reeb
    targets and J_p of ps are built once per (model, ps)."""
    idx, reeb_rows, J = lf.cached(("cr", ps), lambda: (
        i := np.subtract(ps, 1), np.eye(lf.dim)[i], np.array(lf.transverse_structures)[i]))
    A = frame[..., idx].swapaxes(-1, -2)[..., None]  # (..., m, k, 1): the A_p components
    reeb = np.linalg.norm((A * frame[..., None, :, :]).sum(axis=-2) - reeb_rows, axis=-1) <= 10 * tol
    jres = projector_invariance_residual(frame, J)
    # each test with p on the first axis, one frame's as Python scalars
    tests = (reeb & (jres <= tol), reeb, jres)
    tests = [t.tolist() if frame.ndim == 2 else np.moveaxis(t, -1, 0) for t in tests]
    return {p: tuple(t[i] for t in tests) for i, p in enumerate(ps)}


@functools.lru_cache(maxsize=None)
def _complement(n: int, indices: tuple) -> np.ndarray:
    """The read-only index array of the coordinates of R^n outside `indices`."""
    comp = np.array([i for i in range(n) if i not in indices], dtype=np.intp)
    comp.setflags(write=False)
    return comp


def intersection_dim(frame: np.ndarray, indices):
    """dim of the intersection with the coordinate subspace on `indices`: an
    int for one frame (k, N), an int array for a batch (..., k, N).  The rank
    of the other columns M counts the eigenvalues above (1e-6)^2 of the
    smaller Gram matrix of M (faster than an SVD), that is its singular
    values above 1e-6."""
    frame = np.asarray(frame)
    k, n = frame.shape[-2:]
    comp = _complement(n, tuple(indices))
    if len(comp):
        M = frame[..., comp]
        if M.shape[-2] > M.shape[-1]:
            M = M.swapaxes(-1, -2)
        rank = (np.linalg.eigvalsh(M @ M.swapaxes(-1, -2).copy()) > 1e-6 * 1e-6).sum(axis=-1)
    else:
        rank = np.zeros(frame.shape[:-2], dtype=int)
    return _item(k - rank)


def _phase(value: complex, tol: float) -> float | None:
    if abs(abs(value) - 1.0) > tol:
        return None
    return float(math.atan2(value.imag, value.real))


# ---------------------------------------------------------------------------
# classification report


@dataclass
class ClassificationReport:
    space: str
    n: int
    dim: int
    degree: int
    tol: float
    flags: dict = field(default_factory=dict)

    def add(self, name: str, flag, witness, **extra) -> None:
        if isinstance(witness, complex):
            witness = {"re": float(witness.real), "im": float(witness.imag)}
        self.flags[name] = {"flag": flag, "witness": witness, "tol": self.tol, **extra}

    def flag(self, name: str):
        return self.flags[name]["flag"]

    def witness(self, name: str):
        return self.flags[name]["witness"]

    def to_json(self) -> dict:
        return {
            "space": self.space,
            "n": self.n,
            "dim": self.dim,
            "degree": self.degree,
            "tol": self.tol,
            "flags": {k: dict(v) for k, v in sorted(self.flags.items())},
        }


def _space(model, dim: int) -> str:
    """The space of a model, checked against the dimension of the planes."""
    space = {HKModel: "cone", LinkFrame: "link", TwistorModel: "twistor"}.get(type(model))
    if space is None:
        raise TypeError(f"unsupported model type {type(model)!r}")
    if dim != model.dim:
        raise ValueError(f"dimension mismatch: plane {dim}, model {model.dim}")
    return space


def classify_plane(plane: Plane, model, tol: float = 1e-8) -> ClassificationReport:
    """Full vector of membership flags and numeric witnesses for a plane."""
    space = _space(model, plane.dim)
    if plane.degree < 1:
        raise ValueError(f"classify_plane needs a plane of degree at least 1, got degree {plane.degree}")
    rep = ClassificationReport(space, model.n, model.dim, plane.degree, tol)
    {"cone": _classify_cone, "link": _classify_link, "twistor": _classify_twistor}[space](plane.frame, model, rep)
    return rep


def _add_catalog_flags(model, F: np.ndarray, rep: ClassificationReport, rows: list) -> None:
    """Add the flag of each row (flag, catalog form, test) from the values on
    F of the rows' forms, read in one tuple read of `model.value` (one minor
    table for all of them).  The test "unit" asks for the value 1, "re" for
    real part 1 and "phase" for modulus 1, with the phase; None records the
    value alone."""
    if not rows:
        return
    for (flag, _, test), val in zip(rows, model.value(tuple(name for _, name, _ in rows), F)):
        if test == "phase":
            ph = _phase(val, rep.tol)
            rep.add(flag, ph is not None, val, phase=ph)
        else:
            rep.add(flag, None if test is None else abs((val.real if test == "re" else val) - 1) <= rep.tol, val)


def _classify_cone(F: np.ndarray, hk: HKModel, rep: ClassificationReport) -> None:
    k, tol, top = rep.degree, rep.tol, 2 * hk.n + 2
    invariance = projector_invariance_residual(
        F, hk.cached("complex_structures", lambda: np.array(hk.complex_structures))).tolist()
    isotropy = isotropy_residual(F, hk.skew(("omega1", "omega2", "omega3"))).tolist()
    for p, res, iso in zip((1, 2, 3), invariance, isotropy):
        invariant = res <= tol
        rep.add(f"invariant_I{p}", invariant, res)
        if invariant and k % 2 == 0:
            m = k // 2
            val = hk.value(f"omega{p}_power{m}", F, lambda: divided_powers(hk.form(f"omega{p}"), m)[m])
            rep.add(f"complex_I{p}", abs(val - 1) <= tol, val)
            rep.add(f"anti_complex_I{p}", abs(val + 1) <= tol, val)
        else:
            rep.add(f"complex_I{p}", False if not invariant else None, res)
            rep.add(f"anti_complex_I{p}", False if not invariant else None, res)
        rep.add(f"isotropic_omega{p}", iso <= tol, iso)
        rep.add(f"lagrangian_omega{p}", iso <= tol and k == top, iso)
    for p, (q, r) in CYCLIC_PAIRS.items():
        ci = bool(rep.flag(f"complex_I{p}")) and rep.flag(f"isotropic_omega{q}") and rep.flag(f"isotropic_omega{r}")
        rep.add(f"complex_isotropic_I{p}", ci, None)
    _add_catalog_flags(hk, F, rep, [(f"special_lagrangian_phase_upsilon{p}", f"upsilon{p}", "phase")
                                    for p in (1, 2, 3) if k == top]
                       + [(f"special_isotropic_theta_{label}{k}", f"theta_{label}{k}", "unit")
                          for label in "IJK" if k % 2 == 0 and k <= top]
                       + ([(f"cayley_Phi{p}", f"Phi{p}", "unit") for p in (1, 2, 3)]
                          + [("quaternionic_Lambda_value", "Lambda", None)] if k == 4 else []))


def _classify_link(F: np.ndarray, lf: LinkFrame, rep: ClassificationReport) -> None:
    k, n, tol = rep.degree, lf.n, rep.tol
    crs = _cr(F, lf, (1, 2, 3), tol)
    alphas = alpha_residual(F, (1, 2, 3)).tolist()
    for p, aval in zip((1, 2, 3), alphas):
        cr, has_reeb, jres = crs[p]
        rep.add(f"cr_I{p}", cr, {"reeb": has_reeb, "J_residual": jres})
        if cr and k % 2 == 1:
            m = (k - 1) // 2
            rep.flags[f"cr_I{p}"]["oriented_value"] = lf.value(
                f"alpha{p}_Omega{p}_power{m}", F,
                lambda: wedge(lf.form(f"alpha{p}"), divided_powers(lf.form(f"Omega{p}"), m)[m]))
        rep.add(f"isotropic_alpha{p}", aval <= tol, aval)
        rep.add(f"legendrian_alpha{p}", aval <= tol and k == 2 * n + 1, aval)
    for p, (q, r) in CYCLIC_PAIRS.items():
        ci = bool(rep.flag(f"cr_I{p}")) and rep.flag(f"isotropic_alpha{q}") and rep.flag(f"isotropic_alpha{r}")
        rep.add(f"cr_isotropic_I{p}", ci, None)
    _add_catalog_flags(lf, F, rep, [(f"special_legendrian_phase_psi{p}", f"psi{p}", "phase")
                                    for p in (1, 2, 3) if k == 2 * n + 1]
                       + [(f"special_isotropic_theta_{label}{k}", f"theta_{label}{k}", "unit")
                          for label in "IJK" if k % 2 == 1 and k <= 2 * n + 1]
                       + ([(f"associative_phi{p}", f"phi{p}", "unit") for p in (1, 2, 3)]
                          + [("re_gamma1_value", "gamma1", "re")] if k == 3 else []))
    horiz = max(alphas)
    rep.add("horizontal_p1", rep.flag("isotropic_alpha1"), rep.witness("isotropic_alpha1"))
    rep.add("horizontal", horiz <= tol, horiz)


def _classify_twistor(F: np.ndarray, tm: TwistorModel, rep: ClassificationReport) -> None:
    k, n, tol = rep.degree, tm.n, rep.tol
    invariance = projector_invariance_residual(
        F, tm.cached("complex_structures", lambda: np.array([tm.J_plus, tm.J_minus]))).tolist()
    for name, res in zip(("J_plus", "J_minus"), invariance):
        rep.add(f"complex_{name}", res <= tol, res)
    names = ("omega_KE", "omega_NK", "omega_H", "omega_V")
    for name, res in zip(names, isotropy_residual(F, tm.skew(names)).tolist()):
        rep.add(f"isotropic_{name}", res <= tol, res, restriction_norm=res)
    rep.add("lagrangian_omega_KE", rep.flag("isotropic_omega_KE") and k == 2 * n + 1, rep.witness("isotropic_omega_KE"))
    rep.add("lagrangian_omega_NK", rep.flag("isotropic_omega_NK") and k == 2 * n + 1, rep.witness("isotropic_omega_NK"))
    horiz = float(np.max(np.abs(F[:, tm.v_indices])))
    rep.add("horizontal", horiz <= tol, horiz)
    dim_h = intersection_dim(F, tm.h_indices)
    dim_v = intersection_dim(F, tm.v_indices)
    rep.add("dim_cap_H", None, dim_h)
    rep.add("dim_cap_V", None, dim_v)
    rep.add("hv_compatible", dim_h + dim_v == k, {"dim_cap_H": dim_h, "dim_cap_V": dim_v})
    if k == 3:
        val = tm.value("gamma0", F)
        rep.add("re_gamma0_calibrated", abs(val.real - 1) <= tol, val, phase=_phase(val, tol))


# ---------------------------------------------------------------------------
# proposition-level equivalences


@dataclass(frozen=True)
class EquivalenceResult:
    """Whether an implication's premise holds and whether it holds, with the
    residuals and values it read: scalars for a `Plane`, arrays for a batch."""

    check_id: str
    premise: object
    holds: object
    witness: dict


def check_equivalences(planes, model) -> list[EquivalenceResult]:
    """Evaluate both sides of the plane-level structure implications on a
    `Plane` or a batch of row frames (B, k, N), each residual and phase to
    1e-8.  A failure on any plane contradicts a theorem.  The propositions
    suite runs this on its batches.
    """
    tol = 1e-8
    F = _frame_batch(planes)
    space = _space(model, F.shape[-1])
    k, n = F.shape[-2], model.n
    out: list[EquivalenceResult] = []

    def implication(check_id: str, premise, conclusion, **witness):
        out.append(EquivalenceResult(check_id, premise, ~premise | conclusion, witness))

    def plus_minus(z, target):  # z = +-target, to tol
        return np.minimum(np.abs(z - target), np.abs(z + target)) <= tol

    if space == "cone":
        inv = projector_invariance_residual(F, model.I1)
        w2, w3 = isotropy_residual(F, model.skew(("omega2", "omega3"))).T
        residuals = dict(I1_residual=inv, w2_residual=w2, w3_residual=w3)
        implication("complex_w2iso_implies_w3iso", (inv <= tol) & (w2 <= tol), w3 <= tol, **residuals)
        if k == 2 * n + 2:
            rot = model.value("upsilon2", F) * (-1j) ** (n + 1)
            implication("double_lagrangian_implies_I1_invariant", (w2 <= tol) & (w3 <= tol), inv <= tol, **residuals)
            implication("double_lagrangian_upsilon2_volume", (w2 <= tol) & (w3 <= tol),
                        plus_minus(rot.real, 1) & (np.abs(rot.imag) <= tol), rotated_upsilon2=rot, **residuals)
    elif space == "link":
        ps = (1, 3) if k == 3 else (1,) if k == 2 * n + 1 else ()
        cr = _cr(F, model, ps, tol) if ps else {}
        if k == 3:
            phi2 = model.value("phi2", F)
            for p in (1, 3):
                implication(f"cr_I{p}_implies_phi2_associative", cr[p][0], plus_minus(phi2, 1),
                            reeb=cr[p][1], J_residual=cr[p][2], phi2=phi2)
        if k == 2 * n + 1:
            a2, a3 = alpha_residual(F, 2), alpha_residual(F, 3)
            psi2, psi3 = model.value("psi2", F), model.value("psi3", F)
            implication("cr_legendrian_special_phases", cr[1][0] & (a2 <= tol) & (a3 <= tol),
                        plus_minus(psi2, 1j ** (n + 1)) & plus_minus(psi3, 1), reeb=cr[1][1], J_residual=cr[1][2],
                        alpha2_residual=a2, alpha3_residual=a3, psi2=psi2, psi3=psi3)
    else:
        ke, nk = isotropy_residual(F, model.skew(("omega_KE", "omega_NK"))).T
        dim_h, dim_v = (intersection_dim(F, indices) for indices in (model.h_indices, model.v_indices))
        hv = dim_h + dim_v == k
        witness = dict(ke_residual=ke, nk_residual=nk, dim_cap_H=dim_h, dim_cap_V=dim_v)
        implication("hv_compatible_iso_KE_iff_NK", hv, (ke <= tol) == (nk <= tol), **witness)
        if k == 2 * n + 1:
            implication("double_lagrangian_hv_dimensions", (ke <= tol) & (nk <= tol),
                        hv & (dim_h == 2 * n) & (dim_v == 1), **witness)
    if isinstance(planes, Plane):
        return [EquivalenceResult(r.check_id, r.premise[0].item(), r.holds[0].item(),
                                  {key: v[0].item() for key, v in r.witness.items()}) for r in out]
    return out


# ---------------------------------------------------------------------------
# normal form for calibrated 3-planes in the twistor model

# largest sup-norm by which a plane's horizontal part may leave its
# quaternionic line; `normal_form_theta` keeps it whatever its own tol
_ENVELOPE_TOL = 1e-8


@dataclass(frozen=True)
class NormalFormResult:
    theta: float
    envelope: np.ndarray  # (4, dim) orthonormal quaternionic-line basis
    dim_cap_H: int
    dim_cap_V: int
    ke_isotropic: bool

    def to_json(self) -> dict:
        return {
            "theta": float(self.theta),
            "envelope": [[float(x) for x in row] for row in self.envelope],
            "dim_cap_H": int(self.dim_cap_H),
            "dim_cap_V": int(self.dim_cap_V),
            "ke_isotropic": bool(self.ke_isotropic),
        }


def _frame_batch(planes) -> np.ndarray:
    """Row frames (B, k, N) of a `Plane` (B = 1) or of a frame batch, which must
    be finite and orthonormal, as a `Plane` frame is."""
    if isinstance(planes, Plane):
        return planes.frame[None]
    F = np.asarray(planes, dtype=float)
    if F.ndim != 3:
        raise ValueError(f"expected a Plane or a (B, k, N) batch of row frames, got shape {F.shape}")
    if not np.all(np.isfinite(F)):
        raise ValueError("frame has non-finite entries")
    gram = F @ np.swapaxes(F, -1, -2).copy()  # a copy: numpy's A @ A.T path (syrk) is slower
    if np.any(np.abs(gram - np.eye(F.shape[-2])) > 1e-10):
        raise ValueError("frame is not orthonormal")
    return F


def _raise_first(failures) -> None:
    """Raise, for the first plane of the batch that fails any check, the
    ValueError the one-plane path raises for it: `failures` lists (mask over
    the batch, message of plane i) in the order that path runs its checks."""
    masks = np.array([mask for mask, _ in failures])
    if masks.any():
        i = int(np.argmax(masks.any(axis=0)))
        raise ValueError(failures[int(np.argmax(masks[:, i]))][1](i))


def _envelopes(F: np.ndarray, model: TwistorModel, tol: float, cal_tol: float):
    """Envelopes (B, 4, dim) of the row frames F (B, 3, dim) and the failures
    of `quaternionic_envelope` on them (see `_raise_first`)."""
    if F.shape[-2] != 3:
        raise ValueError("normal form applies to 3-planes")
    calibrated = np.abs(model.value("re_gamma0", F) - 1) <= cal_tol
    n = model.n
    Mh = F[..., : 4 * n]
    w = np.linalg.svd(Mh, full_matrices=False)[2][:, 0]
    first = w[np.arange(len(w)), np.argmax(np.abs(w) > 1e-9, axis=-1)]
    w = np.where(first[:, None] < 0, -w, w)
    basis_h = np.concatenate([w[:, None], (model.quaternion_triple @ w.T).transpose(2, 0, 1)], axis=1)
    resid = np.abs(Mh - (Mh @ np.swapaxes(basis_h, -1, -2)) @ basis_h).max(axis=(-2, -1))
    env = np.zeros((len(F), 4, model.dim))
    env[..., : 4 * n] = basis_h
    return env, [
        (~calibrated, lambda i: "plane is not calibrated by the real twistor 3-form"),
        (resid > tol, lambda i: f"horizontal part escapes the quaternionic line (residual {resid[i]:.2e})"),
    ]


def quaternionic_envelope(planes, model: TwistorModel, tol: float = _ENVELOPE_TOL) -> np.ndarray:
    """Orthonormal basis (w, J1 w, J2 w, J3 w) of the quaternionic line whose
    sum with the vertical plane contains the calibrated 3-plane: a (4, dim)
    array for a `Plane`, a (B, 4, dim) array for a batch of row frames
    (B, 3, dim), which raises the error of its first failing plane.  The
    plane must be calibrated to 1e-8."""
    F = _frame_batch(planes)
    env, failures = _envelopes(F, model, tol, 1e-8)
    _raise_first(failures)
    return env[0] if isinstance(planes, Plane) else env


def normal_form_theta(planes, model: TwistorModel, tol: float = 1e-8):
    """Recover the normal-form angle theta in [0, pi/4] of a calibrated 3-plane.

    The primary extraction is theta = arccos(s) / 2 with s the largest
    singular value of the restriction of the Kahler form to the plane (an
    invariant of the stabilizer action, since the restricted pairing is
    equivariant).  Because arccos loses half the significant digits near
    s = 1, the reported angle is the equivalent well-conditioned extraction
    from the singular values (sin(theta + pi/4), cos(theta + pi/4)) of the
    vertical block of the frame; the two are cross-checked and a discrepancy
    beyond conditioning error is raised, not absorbed.

    `planes` is a `Plane`, giving one `NormalFormResult`, or a batch of row
    frames (B, 3, dim), giving a list of B results from one evaluator call
    and stacked SVDs.  A batch raises the ValueError that its first failing
    plane raises alone.  The angles are taken with scalar `math` functions,
    so each is the same float whether its plane comes alone or in a batch.
    """
    F = _frame_batch(planes)
    env, failures = _envelopes(F, model, _ENVELOPE_TOL, tol)  # fails unless calibrated
    S = model.skew("omega_KE")
    B = F @ S @ np.swapaxes(F, -1, -2)
    s = np.linalg.svd(B, compute_uv=False)[:, 0]
    theta_spec = [0.5 * math.acos(min(1.0, max(0.0, float(x)))) for x in s]
    sv = np.linalg.svd(F[..., list(model.v_indices)], compute_uv=False)
    theta = [min(math.pi / 4, max(0.0, math.atan2(float(a), float(b)) - math.pi / 4)) for a, b in sv]
    # the rank test of `intersection_dim(F, model.h_indices)`, on the singular values at hand
    dim_h = 3 - (sv > 1e-6).sum(axis=-1)
    dim_v = intersection_dim(F, model.v_indices)
    iso = np.abs(B).max(axis=(-2, -1)) <= tol
    _raise_first(failures + [
        (np.abs(np.subtract(theta, theta_spec)) > 1e-6,
         lambda i: f"normal-form extractions disagree: spectral {theta_spec[i]!r} vs vertical-block {theta[i]!r}"),
        (dim_h < 1, lambda i: "internal inconsistency: calibrated plane with no horizontal vector"),
    ])
    results = [NormalFormResult(theta[i], env[i], int(dim_h[i]), int(dim_v[i]), bool(iso[i]))
               for i in range(len(F))]
    return results[0] if isinstance(planes, Plane) else results


def batch_rotated_w_theta(n: int, theta: float, count: int, rng: np.random.Generator):
    """`count` random stabilizer-group rotations g of the normal-form plane
    W_theta: the row frames (count, 3, 4n+2) of the planes W_theta g^T,
    orthonormalized as `Plane.from_vectors` does it (`orthonormal_rows`),
    and the rotations (count, 4n+2, 4n+2).
    Consumes `rng` as `count` calls of `rotated_w_theta` do."""
    g = random_sp_u1_element(n, rng, count)
    return orthonormal_rows(make_W_theta(n, theta).frame @ np.swapaxes(g, -1, -2)), g


def rotated_w_theta(n: int, theta: float, rng: np.random.Generator) -> Plane:
    """A random stabilizer-group rotation of the normal-form plane W_theta: the
    one-plane case of `batch_rotated_w_theta`."""
    frames, _ = batch_rotated_w_theta(n, theta, 1, rng)
    return Plane.from_vectors(frames[0], orthonormalize=False)


# ---------------------------------------------------------------------------
# phase rigidity scan


@dataclass(frozen=True)
class PhaseRigidityReport:
    thetas: tuple
    values: tuple

    def to_json(self) -> dict:
        return {
            "rows": [
                {"theta": float(t), "max_value": float(v), "margin": float(1.0 - v)}
                for t, v in zip(self.thetas, self.values)
            ]
        }


def phase_rigidity_scan(model: TwistorModel, thetas=None,
                        params: SearchParams = SearchParams()) -> PhaseRigidityReport:
    """Measure max_P Re(e^{-i theta} gamma0)(P) over a grid of phases.

    Reports the observed maximum and margin 1 - max for each phase; no
    assertion is made here.
    """
    if thetas is None:
        thetas = [k * math.pi / 8 for k in range(9)]
    re, im = model.form("re_gamma0"), model.form("im_gamma0")
    values = [comass_search(re * math.cos(th) + im * math.sin(th), params=params).value for th in thetas]
    return PhaseRigidityReport(tuple(thetas), tuple(values))


# ---------------------------------------------------------------------------
# batched rejection-free plane generators


def _constrained_lines(count: int, rng: np.random.Generator, dim: int, support, lines: int,
                       structures) -> np.ndarray:
    """`lines` unit vectors per sample, shape (count, lines, dim): line l is a
    Gaussian on the coordinates `support`, made orthogonal to every earlier
    line and its images under `structures` by one batched Gram-Schmidt over
    (g_1, g_1 J^T for J in structures, g_2, ..., g_lines): no line needs the
    images of the last.  Raises ValueError when the support cannot hold them."""
    support = list(support)
    m = 1 + len(structures)
    g = np.zeros((lines, count, dim))
    g[..., support] = rng.standard_normal((lines, count, len(support)))
    cand = np.stack([g] + [g @ J.T for J in structures], axis=2)
    rows = max(lines * m - m + 1, 0)
    Q, kept = _gram_schmidt(cand.transpose(1, 0, 2, 3).reshape(count, lines * m, dim), rows)
    if np.any(kept < rows):
        raise ValueError(f"{lines} constrained lines do not fit in {len(support)} coordinates")
    return Q[:, ::m]


def batch_random_planes(dim: int, k: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random oriented k-planes as row frames of shape (count, k, dim)."""
    return np.swapaxes(_qf(rng.standard_normal((count, dim, k))), -1, -2)


def batch_complex_planes(structures, line_count: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """J-complex planes, J = structures[0], spanned by lines (v, J v); each v
    is orthogonal to the earlier lines and their images under `structures`, so
    under the triple the planes are isotropic for the other two Kahler forms."""
    J = structures[0]
    dim = J.shape[0]
    V = _constrained_lines(count, rng, dim, range(dim), line_count, structures)
    return np.stack([V, V @ J.T], axis=2).reshape(count, 2 * line_count, dim)


def batch_complex_isotropic_planes(hk: HKModel, line_count: int, count: int,
                                   rng: np.random.Generator) -> np.ndarray:
    return batch_complex_planes(hk.complex_structures, line_count, count, rng)


def batch_double_lagrangian_planes(hk: HKModel, count: int, rng: np.random.Generator) -> np.ndarray:
    """Planes of top dimension 2n+2 that are Lagrangian for the second and
    third Kahler forms (equivalently invariant complex Lagrangians)."""
    return batch_complex_isotropic_planes(hk, hk.n + 1, count, rng)


def batch_cr_planes(lf: LinkFrame, count: int, rng: np.random.Generator,
                    horizontal: bool = False, p: int = 1) -> np.ndarray:
    """3-planes (A_p, v, J_p v) at the link frame; `horizontal` draws v from
    the joint kernel of the contact forms, giving the isotropic class."""
    dim = lf.dim
    support = range(3, dim) if horizontal else [q for q in range(dim) if q != p - 1]
    v = _constrained_lines(count, rng, dim, support, 1, ())[:, 0]
    a = np.zeros((count, dim))
    a[:, p - 1] = 1.0
    return np.stack([a, v, v @ lf.transverse_structures[p - 1].T], axis=1)


def batch_cr_legendrian_planes(lf: LinkFrame, count: int, rng: np.random.Generator) -> np.ndarray:
    """(2n+1)-planes spanned by the first Reeb vector and n complex lines with
    quaternionically orthogonal generators inside the joint contact kernel."""
    dim = lf.dim
    J = lf.transverse_structures
    V = _constrained_lines(count, rng, dim, range(3, dim), lf.n, J)
    a = np.zeros((count, 1, dim))
    a[:, 0, 0] = 1.0
    return np.concatenate([a, np.stack([V, V @ J[0].T], axis=2).reshape(count, 2 * lf.n, dim)], axis=1)


def batch_hv_isotropic_planes(tm: TwistorModel, h_dim: int, count: int,
                              rng: np.random.Generator) -> np.ndarray:
    """HV-compatible planes: an isotropic horizontal part plus a vertical
    line, hence isotropic for both twistor Kahler forms."""
    n = tm.n
    T1 = standard_triple_matrices(n, tm.dim)[0]
    H = _constrained_lines(count, rng, tm.dim, range(4 * n), h_dim, (T1,))
    ang = rng.uniform(0.0, 2.0 * np.pi, size=count)
    w = np.zeros((count, 1, tm.dim))
    w[:, 0, 4 * n] = np.cos(ang)
    w[:, 0, 4 * n + 1] = np.sin(ang)
    return np.concatenate([H, w], axis=1)


def batch_double_lagrangian_twistor(tm: TwistorModel, count: int, rng: np.random.Generator) -> np.ndarray:
    """(2n+1)-planes Lagrangian for both the Kahler-Einstein and the
    nearly-Kahler form: a Lagrangian horizontal part plus a vertical line."""
    return batch_hv_isotropic_planes(tm, 2 * tm.n, count, rng)
