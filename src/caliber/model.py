"""Flat-model constructors: the quaternionic cone, its unit-sphere link frame,
and the linear twistor model, each with its catalog of distinguished forms.

Conventions
-----------
Cone R^{4(n+1)}: coordinates are literal quaternion components per block,
h_j = x_{j0} + x_{j1} i + x_{j2} j + x_{j3} k, and the complex structures
I_1, I_2, I_3 act by left multiplication by i, j, k.  The standard basis
order is positively oriented.

Twistor model R^{4n+2} = H^n + C: basis (e_{10}, ..., e_{n3}, f_2, f_3); the
H^n block carries the same numerical Kahler-triple patterns (beta_1, beta_2,
beta_3), which there arise from right quaternion multiplication, so the
left-acting quaternionic unitary group and the circle h -> h lambda^{-1},
z -> lambda^{-2} z act as isometries of the structure.

Link frame at a unit point x: tangent space x-perp with orthonormal basis
(A_1, A_2, A_3, then the quaternionic complement in quaternionic order),
A_p = I_p x.  All catalog forms are expressed in these frame indices; the
frame at the default base point is integral, so that catalog is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

from caliber import _quat
from caliber.calib import FormEvaluator, Plane, _gram_schmidt, skew_matrix
from caliber.exterior import AltForm, ComplexAltForm, pullback, wedge, wedge_powers

__all__ = [
    "HKModel",
    "LinkFrame",
    "TwistorModel",
    "build_hyperkahler_cone",
    "build_link_frame",
    "default_link_frame",
    "link_forms",
    "build_twistor_model",
    "divided_powers",
    "make_V_theta",
    "make_W_theta",
    "standard_triple_matrices",
    "standard_kahler_forms",
    "random_sp_cone_isometry",
    "random_sp_u1_element",
    "sp_u1_matrix",
    "random_unitary_pair_element",
]


# ---------------------------------------------------------------------------
# standard quaternionic patterns

_I1_BLOCK = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
_I2_BLOCK = np.array([[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]])
_I3_BLOCK = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]])

# the cyclic pairs (q, r) completing p in the quaternionic triple (I_q I_r = I_p)
CYCLIC_PAIRS = {1: (2, 3), 2: (3, 1), 3: (1, 2)}


def standard_triple_matrices(blocks: int, dim: int | None = None):
    """The three anticommuting complex-structure matrices built from 4x4
    quaternion blocks on the leading coordinates of an ambient dimension."""
    n = dim if dim is not None else 4 * blocks
    out = []
    for B in (_I1_BLOCK, _I2_BLOCK, _I3_BLOCK):
        M = np.zeros((n, n), dtype=int)
        for j in range(blocks):
            s = 4 * j
            M[s : s + 4, s : s + 4] = B
        out.append(M)
    return tuple(out)


def standard_kahler_forms(blocks: int, dim: int | None = None):
    """Exact Kahler 2-forms omega_p(X, Y) = <I_p X, Y> of the standard triple:
    the (i, j) coefficient, i < j, is I_p[j, i].  Per block this gives
    beta_1 = e01 + e23, beta_2 = e02 - e13, beta_3 = e03 + e12."""
    forms = []
    for I in standard_triple_matrices(blocks, dim):
        upper = np.triu(I.T, 1)
        forms.append(AltForm(len(I), 2, {(int(i), int(j)): int(upper[i, j]) for i, j in zip(*np.nonzero(upper))}))
    return tuple(forms)


def divided_powers(f, top: int) -> list:
    """[f^k / k! for k = 0 .. top]: the integral `wedge_powers`, each divided
    by k! once (dividing as they go would put Fractions into every later wedge)."""
    return [_over_factorial(pw, k) for k, pw in enumerate(wedge_powers(f, top))]


def _over_factorial(f, k: int):
    """f / k!, or f itself for k < 2, so that its coefficients keep their ring."""
    return f if k < 2 else f * Fraction(1, math.factorial(k))


def _assemble(re: np.ndarray, im: np.ndarray | None = None) -> np.ndarray:
    """Values on a batch as `_FormCatalog.value` returns them: complex when
    there is an imaginary part, its parts assigned so signed zeros stay."""
    if im is None:
        return re
    out = np.empty(re.shape, dtype=complex)
    out.real, out.imag = re, im
    return out


class _FormCatalog:
    """Named forms of a model and their float evaluation on planes.

    Each read gets one `FormEvaluator` over the real parts of all its forms
    (a single name is the tuple of one, a complex form its Re and Im), and
    each 2-form one skew matrix, built on first use and kept in the model's
    `cache`, as are `classify_plane`'s structure stacks (`cached`); the
    models of the lru_cached builders therefore evaluate every plane with the
    same evaluators, and the cache is bounded by the catalog, the derived
    calibrations named by callers and the name tuples and stacks that
    `classify_plane` reads.  A tuple builds a plane's minor table once for
    all its forms, each value bit for bit its one-name read on one frame; on
    a batch wider than the tuple's plan chunk the last bits may move.
    """

    def form(self, name: str):
        return self.catalog[name]

    def value(self, name, frames: np.ndarray, derive=None):
        """Values of form `name` on one row frame (k, N), as a float, or on a
        batch (..., k, N), as an array of shape (...); complex for a complex
        form, its parts assigned so signed zeros stay.  A name outside the
        catalog names the form `derive()` returns.  A tuple of names gives
        the tuple of their values.  The evaluator of `name`, or of the tuple
        `(name,)`, is built on the first call and cached under that tuple."""
        names = name if isinstance(name, tuple) else (name,)
        def build():
            forms = [derive() if derive is not None and n not in self.catalog else self.form(n) for n in names]
            parts = [(f.re, f.im) if isinstance(f, ComplexAltForm) else (f,) for f in forms]
            ends = np.cumsum([len(p) for p in parts]).tolist()
            return FormEvaluator(sum(parts, ())), tuple(zip([0] + ends, ends))

        ev, spans = self.cached(("evaluator", names), build)
        out = ev.values(np.swapaxes(frames, -1, -2))
        if out.ndim == 1:  # one frame: Python scalars, a complex one from its (Re, Im)
            flat = out.tolist()
            values = tuple(flat[a] if b - a == 1 else complex(*flat[a:b]) for a, b in spans)
        else:
            values = tuple(_assemble(*(out[..., i] for i in range(a, b))) for a, b in spans)
        return values if isinstance(name, tuple) else values[0]

    def skew(self, name) -> np.ndarray:
        """The cached, read-only `skew_matrix` of catalog 2-form `name`, or
        the stack (m, N, N) of those of a tuple of m names."""
        return self.cached(("skew", name), lambda: np.array([self.skew(n) for n in name]) if isinstance(name, tuple)
                           else skew_matrix(self.form(name)))

    def cached(self, key, build):
        """What `build()` returns, built on the first call with `key` and kept
        in `cache`, an array read-only (a tuple's arrays too)."""
        if key not in self.cache:
            value = self.cache[key] = build()
            for a in value if isinstance(value, tuple) else (value,):
                if isinstance(a, np.ndarray):
                    a.setflags(write=False)
        return self.cache[key]


# ---------------------------------------------------------------------------
# hyperkahler cone


@dataclass(frozen=True)
class HKModel(_FormCatalog):
    """The flat quaternionic cone R^{4n+4} with its full form catalog."""

    n: int
    dim: int
    I1: np.ndarray
    I2: np.ndarray
    I3: np.ndarray
    catalog: dict = field(repr=False)
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def complex_structures(self):
        return (self.I1, self.I2, self.I3)


def _cone_catalog(n: int) -> dict:
    dim = 4 * (n + 1)
    w1, w2, w3 = standard_kahler_forms(n + 1, dim)
    zero2 = AltForm.zero(dim, 2)
    sigma = {
        1: ComplexAltForm(w2, w3),
        2: ComplexAltForm(w3, w1),
        3: ComplexAltForm(w1, w2),
    }
    cat: dict = {"omega1": w1, "omega2": w2, "omega3": w3}
    for p, label in zip((1, 2, 3), "IJK"):
        for k, omega_power in enumerate(divided_powers(cat[f"omega{p}"], n + 1)[2:], start=2):
            cat[f"omega{p}_power{k}"] = omega_power
        sigma_powers = divided_powers(sigma[p], n + 1)
        for k in range(1, n + 2):
            cat[f"theta_{label}{2 * k}"] = sigma_powers[k].re
        cat[f"sigma{p}"] = sigma[p]
        cat[f"upsilon{p}"] = sigma_powers[n + 1]
        cat[f"re_upsilon{p}"] = sigma_powers[n + 1].re
        cat[f"im_upsilon{p}"] = sigma_powers[n + 1].im
    sq = {p: cat[f"omega{p}_power2"] for p in (1, 2, 3)}
    cat["Phi1"] = -sq[1] + sq[2] + sq[3]
    cat["Phi2"] = sq[1] - sq[2] + sq[3]
    cat["Phi3"] = sq[1] + sq[2] - sq[3]
    cat["Lambda"] = (sq[1] + sq[2] + sq[3]) * Fraction(1, 3)
    cat["vol"] = AltForm.blade(dim, tuple(range(dim)))
    return cat


@lru_cache(maxsize=None)
def build_hyperkahler_cone(n: int) -> HKModel:
    """Flat hyperkahler cone model for quaternionic link dimension n (1..3)."""
    if not 1 <= n <= 3:
        raise ValueError(f"n must be in 1..3, got {n}")
    dim = 4 * (n + 1)
    I1, I2, I3 = standard_triple_matrices(n + 1)
    return HKModel(n, dim, I1, I2, I3, _cone_catalog(n))


# ---------------------------------------------------------------------------
# link frame


@dataclass(frozen=True)
class LinkFrame(_FormCatalog):
    """Structure tensors of the unit-sphere link at a point, in an adapted
    orthonormal frame of the tangent space.

    Frame indices: 0, 1, 2 are the Reeb directions A_1, A_2, A_3; indices
    3 .. 4n+2 run through the horizontal space in quaternionic order.
    """

    n: int
    dim: int
    base_point: np.ndarray
    frame: np.ndarray  # (4n+4, 4n+3) columns: A1, A2, A3, horizontal blocks
    J1: np.ndarray
    J2: np.ndarray
    J3: np.ndarray
    catalog: dict = field(repr=False)
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def transverse_structures(self):
        return (self.J1, self.J2, self.J3)

    def submersion_to_twistor(self) -> np.ndarray:
        """The linear model of the circle projection along A_1: a
        (4n+2) x (4n+3) integer 0/1 matrix sending (A_2, A_3) to (f_2, f_3)
        and the horizontal block to H^n, killing A_1.  It is integral, so
        `exterior.pullback` by it is exact on the exact twistor catalog."""
        m = np.zeros((self.dim - 1, self.dim), dtype=int)
        m[: self.dim - 3, 3:] = np.eye(self.dim - 3, dtype=int)
        m[self.dim - 3, 1] = 1
        m[self.dim - 2, 2] = 1
        return m


def _exactify(M: np.ndarray):
    R = np.rint(M)
    if np.max(np.abs(M - R)) < 1e-12:
        return R.astype(int)
    return None


def link_forms(alpha: dict, Omega: dict, sigma_powers: dict, n: int) -> dict:
    """The link forms built from the contact forms alpha_p, the transverse
    Kahler forms Omega_p and the radial-free powers `sigma_powers[p]` of
    sigma_p = Omega_q + i Omega_r, k = 0 .. n (dicts keyed by p = 1, 2, 3):
    `wedge_powers` on the link frame, where dr pulls back to 0, and the lifted
    integer powers r^{-2k} A_p^k of the cone's A_p = sigma{p} on the cone.
    psi_p is exact in both rings, as sigma_p = r^{-2} A_p - r^{-1} dr ^ tau_p
    for tau_p = alpha_q + i alpha_r and tau_p ^ dr ^ tau_p = 0; it divides by
    n! after its wedge, so the wedge stays in the ring of the powers.

    The catalog holds alpha, Omega,
    kappa_p = Omega_p - alpha_q ^ alpha_r, the complex
    psi_p = (alpha_q + i alpha_r) ^ sigma_p^n / n! and
    gamma_p = (alpha_q - i alpha_r) ^ (kappa_q + i kappa_r),
    xi_p = kappa_q^2 + kappa_r^2, the associative phi_p and omega1_tilde.
    The recipe only adds, scales and wedges, so it serves both rings.
    """
    kappa = {p: Omega[p] - wedge(alpha[q], alpha[r]) for p, (q, r) in CYCLIC_PAIRS.items()}
    cat: dict = {}
    for p in (1, 2, 3):
        cat[f"alpha{p}"] = alpha[p]
        cat[f"Omega{p}"] = Omega[p]
        cat[f"kappa{p}"] = kappa[p]
    for p, (q, r) in CYCLIC_PAIRS.items():
        cat[f"psi{p}"] = _over_factorial(wedge(ComplexAltForm(alpha[q], alpha[r]), sigma_powers[p][n]), n)
        cat[f"gamma{p}"] = wedge(ComplexAltForm(alpha[q], -alpha[r]), ComplexAltForm(kappa[q], kappa[r]))
        cat[f"xi{p}"] = wedge(kappa[q], kappa[q]) + wedge(kappa[r], kappa[r])
    aO = {p: wedge(alpha[p], Omega[p]) for p in (1, 2, 3)}
    cat["phi1"] = -aO[1] + aO[2] + aO[3]
    cat["phi2"] = aO[1] - aO[2] + aO[3]
    cat["phi3"] = aO[1] + aO[2] - aO[3]
    cat["omega1_tilde"] = kappa[1] * 2 - wedge(alpha[2], alpha[3])
    return cat


def _link_catalog(n: int, frame, cone: HKModel) -> dict:
    dim = 4 * n + 3
    alpha = {p: AltForm.blade(dim, [p - 1]) for p in (1, 2, 3)}
    Omega = {p: pullback(cone.form(f"omega{p}"), frame) for p in (1, 2, 3)}
    sigma_powers = {p: wedge_powers(ComplexAltForm(Omega[q], Omega[r]), n) for p, (q, r) in CYCLIC_PAIRS.items()}
    cat = link_forms(alpha, Omega, sigma_powers, n)
    for p in (1, 2, 3):
        for name in (f"psi{p}", f"gamma{p}"):
            cat[f"re_{name}"] = cat[name].re
            cat[f"im_{name}"] = cat[name].im
    for label, (p, (q, r)) in zip("IJK", CYCLIC_PAIRS.items()):
        tau = ComplexAltForm(alpha[q], alpha[r])
        for k in range(1, n + 1):
            cat[f"theta_{label}{2 * k - 1}"] = _over_factorial(wedge(tau, sigma_powers[p][k - 1]), k - 1).re
        cat[f"theta_{label}{2 * n + 1}"] = cat[f"psi{p}"].re
    cat["vol"] = AltForm.blade(dim, tuple(range(dim)))
    return cat


def build_link_frame(n: int, x=None) -> LinkFrame:
    """Adapted link frame at a unit base point of the cone (default e_0)."""
    cone = build_hyperkahler_cone(n)
    N = cone.dim
    if x is None:
        x = np.zeros(N)
        x[0] = 1.0
    x = np.asarray(x, dtype=float)
    if x.shape != (N,):
        raise ValueError(f"base point must have dimension {N}")
    if abs(np.linalg.norm(x) - 1.0) > 1e-12:
        raise ValueError("base point must be a unit vector")
    A = [cone.complex_structures[p] @ x for p in range(3)]
    # candidates x, I_p x, then e_i, I_p e_i for each i: the span kept so far
    # is quaternionic, so Gram-Schmidt of I_p e_i is I_p of the kept e_i part
    E = np.eye(N)
    cand = np.stack([E] + [E @ I.T for I in cone.complex_structures], axis=1).reshape(4 * N, N)
    Q, _ = _gram_schmidt(np.vstack([x] + A + [cand]), N)
    frame = Q[1:].T  # (N, 4n+3)
    exact = _exactify(frame)
    frame_for_pullback = exact if exact is not None else frame
    catalog = _link_catalog(n, frame_for_pullback, cone)
    J = tuple(frame.T @ cone.complex_structures[p] @ frame for p in range(3))
    frame.setflags(write=False)
    return LinkFrame(n, N - 1, x, frame, J[0], J[1], J[2], catalog)


@lru_cache(maxsize=None)
def default_link_frame(n: int) -> LinkFrame:
    return build_link_frame(n)


# ---------------------------------------------------------------------------
# twistor model


@dataclass(frozen=True)
class TwistorModel(_FormCatalog):
    """The linear twistor model R^{4n+2} = H^n + C with its form catalog, its
    integer compatible complex structures, and the read-only (3, 4n, 4n) float
    stack of the standard triple on the horizontal space H^n."""

    n: int
    dim: int
    J_plus: np.ndarray
    J_minus: np.ndarray
    quaternion_triple: np.ndarray = field(repr=False)
    catalog: dict = field(repr=False)
    cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def h_indices(self) -> tuple:
        return tuple(range(4 * self.n))

    @property
    def v_indices(self) -> tuple:
        return (4 * self.n, 4 * self.n + 1)


@lru_cache(maxsize=None)
def build_twistor_model(n: int) -> TwistorModel:
    if not 1 <= n <= 3:
        raise ValueError(f"n must be in 1..3, got {n}")
    dim = 4 * n + 2
    b1, b2, b3 = standard_kahler_forms(n, dim)
    f2, f3 = dim - 2, dim - 1
    omega_V = AltForm(dim, 2, {(f2, f3): 1})
    omega_H = b1
    omega_KE = omega_H + omega_V
    omega_NK = omega_H * 2 - omega_V
    omega_minus = omega_H - omega_V  # Kahler form of the vertical-reversed structure
    f2_form = AltForm.blade(dim, [f2])
    f3_form = AltForm.blade(dim, [f3])
    gamma0 = wedge(ComplexAltForm(f2_form, -f3_form), ComplexAltForm(b2, b3))
    xi = wedge(b2, b2) + wedge(b3, b3)
    cat = {
        "beta1": b1,
        "beta2": b2,
        "beta3": b3,
        "omega_H": omega_H,
        "omega_V": omega_V,
        "omega_KE": omega_KE,
        "omega_NK": omega_NK,
        "omega_minus": omega_minus,
        "gamma0": gamma0,
        "re_gamma0": gamma0.re,
        "im_gamma0": gamma0.im,
        "xi": xi,
        "vol": AltForm.blade(dim, tuple(range(dim))),
    }
    J_plus = standard_triple_matrices(n, dim)[0]
    J_plus[f2:, f2:] = [[0, -1], [1, 0]]
    J_minus = J_plus.copy()
    J_minus[f2:, f2:] = [[0, 1], [-1, 0]]
    triple = np.array(standard_triple_matrices(n), dtype=float)
    triple.setflags(write=False)
    return TwistorModel(n, dim, J_plus, J_minus, triple, cat)


def make_V_theta(n: int, theta: float) -> Plane:
    """The distinguished 2-plane V_theta inside the twistor model."""
    model = build_twistor_model(n)
    dim = model.dim
    f2, f3 = model.v_indices
    e12, e13 = 2, 3
    c, s = math.cos(theta), math.sin(theta)
    v2 = np.zeros(dim)
    v2[f2] = -c
    v2[e13] = -c
    v2[f3] = -s
    v2[e12] = -s
    v3 = np.zeros(dim)
    v3[f2] = -s
    v3[e13] = s
    v3[f3] = -c
    v3[e12] = c
    return Plane.from_vectors([v2, v3])


@lru_cache(maxsize=128)
def make_W_theta(n: int, theta: float) -> Plane:
    """The 3-plane R e_{10} + V_theta, oriented (e_{10}, v_2, v_3); cached."""
    V = make_V_theta(n, theta)
    e10 = np.zeros(V.dim)
    e10[0] = 1.0
    return Plane.from_vectors(np.vstack([e10, V.frame]))


# ---------------------------------------------------------------------------
# isometry sampling


def random_sp_cone_isometry(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random quaternionic-unitary isometry of the cone R^{4n+4} commuting
    with the left-multiplication structures (so it fixes the whole catalog)."""
    B = _quat.random_sp_quaternion_matrix(n + 1, rng)
    return _quat.right_action_realification(B)


def sp_u1_matrix(n: int, B_quat: np.ndarray, lam: complex | np.ndarray) -> np.ndarray:
    """Real matrix of the twistor action (h, z) -> (B h lambda^{-1}, lambda^{-2} z);
    a stack (..., 4n+2, 4n+2) for quaternion matrices B (..., n, n, 4) and
    unit complex numbers lambda (...)."""
    lam = np.asarray(lam)
    C = _quat.sp_complex_block(B_quat) * (1.0 / lam)[..., None, None]
    dim = 4 * n + 2
    M = np.zeros(lam.shape + (dim, dim))
    M[..., : 4 * n, : 4 * n] = _quat.realify_interleaved(C)
    M[..., 4 * n :, 4 * n :] = _quat.rotation2(-2.0 * np.angle(lam))
    return M


def random_sp_u1_element(n: int, rng: np.random.Generator, count: int | None = None) -> np.ndarray:
    """Random element of the gamma0 stabilizer inside U(2n) x U(1), or a stack
    (count, 4n+2, 4n+2) of them.  Each element draws its quaternion matrix and
    then its phase, so a stack consumes `rng` as `count` single calls do and
    holds the same matrices."""
    draws = [(rng.standard_normal((n, n, 4)), np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))
             for _ in range(1 if count is None else count)]
    B = _quat.gram_schmidt_sp(np.array([b for b, _ in draws]).reshape(-1, n, n, 4))
    M = sp_u1_matrix(n, B, np.array([lam for _, lam in draws], dtype=complex))
    return M[0] if count is None else M


def _random_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    Q, R = np.linalg.qr(Z)
    d = np.diag(R)
    return Q * (d / np.abs(d))


def random_unitary_pair_element(n: int, rng: np.random.Generator) -> np.ndarray:
    """Random element of U(2n) x U(1) acting on the twistor model (generically
    outside the gamma0 stabilizer)."""
    U = _random_unitary(2 * n, rng)
    H = _quat.realify_interleaved(U)
    dim = 4 * n + 2
    M = np.zeros((dim, dim))
    M[: 4 * n, : 4 * n] = H
    M[4 * n :, 4 * n :] = _quat.rotation2(rng.uniform(0.0, 2.0 * np.pi))
    return M
