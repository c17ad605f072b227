"""Quaternion-array helpers for sampling structure-preserving isometries.

Quaternions are numpy arrays of shape (..., 4) holding (w, x, y, z) components
with the multiplication convention i*j = k.
"""

from __future__ import annotations

import numpy as np


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    aw, ax, ay, az = a[..., 0], a[..., 1], a[..., 2], a[..., 3]
    bw, bx, by, bz = b[..., 0], b[..., 1], b[..., 2], b[..., 3]
    return np.stack(
        [
            aw * bw - ax * bx - ay * by - az * bz,
            aw * bx + ax * bw + ay * bz - az * by,
            aw * by - ax * bz + ay * bw + az * bx,
            aw * bz + ax * by - ay * bx + az * bw,
        ],
        axis=-1,
    )


def qconj(a: np.ndarray) -> np.ndarray:
    out = a.copy()
    out[..., 1:] *= -1.0
    return out


def right_mult_matrix(q: np.ndarray) -> np.ndarray:
    """Real 4x4 matrix of h -> h*q in the (1, i, j, k) component basis."""
    a, b, c, d = q
    return np.array(
        [
            [a, -b, -c, -d],
            [b, a, d, -c],
            [c, -d, a, b],
            [d, c, -b, a],
        ]
    )


def gram_schmidt_sp(mat: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of an m x m quaternion matrix over H.

    Inner product <u, v> = sum_k conj(u_k) v_k; coefficients multiply from the
    right, so the output satisfies B* B = Id exactly up to float roundoff.
    """
    m = mat.shape[0]
    cols = [mat[:, j].copy() for j in range(m)]
    out = []
    for j in range(m):
        v = cols[j]
        for u in out:
            coef = qmul(qconj(u), v).sum(axis=0)  # <u, v> in H
            v = v - qmul(u, np.broadcast_to(coef, u.shape))
        norm = np.sqrt((v**2).sum())
        if norm < 1e-12:
            raise ValueError("rank-deficient quaternion matrix")
        out.append(v / norm)
    return np.stack(out, axis=1)


def random_sp_quaternion_matrix(m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-like random element of the quaternionic unitary group, as an
    (m, m, 4) quaternion matrix with orthonormal columns."""
    return gram_schmidt_sp(rng.standard_normal((m, m, 4)))


def right_action_realification(B: np.ndarray) -> np.ndarray:
    """Real 4m x 4m matrix of h -> h B (components h_k on the left of entries).

    Commutes with every left quaternion multiplication, hence preserves the
    left-multiplication Kahler triple.
    """
    m = B.shape[0]
    M = np.zeros((4 * m, 4 * m))
    for j in range(m):
        for k in range(m):
            M[4 * j : 4 * j + 4, 4 * k : 4 * k + 4] = right_mult_matrix(B[k, j])
    return M


def quaternion_entry_to_complex_pair(q: np.ndarray) -> tuple[complex, complex]:
    """Split q = q1 + j*q2 with q1, q2 complex (so c*j = j*conj(c))."""
    a, b, c, d = q
    return complex(a, b), complex(c, -d)


def sp_complex_block(B: np.ndarray) -> np.ndarray:
    """Complex 2m x 2m block matrix of the left action h -> B h on H^m = C^m + j C^m."""
    m = B.shape[0]
    A1 = np.zeros((m, m), dtype=complex)
    A2 = np.zeros((m, m), dtype=complex)
    for j in range(m):
        for k in range(m):
            q1, q2 = quaternion_entry_to_complex_pair(B[j, k])
            A1[j, k] = q1
            A2[j, k] = q2
    top = np.hstack([A1, -np.conj(A2)])
    bot = np.hstack([A2, np.conj(A1)])
    return np.vstack([top, bot])


def realify_interleaved(C: np.ndarray) -> np.ndarray:
    """Realify a complex 2m x 2m matrix acting on (h1; h2) stacked complex
    coordinates, in the interleaved real basis where component j of h1 sits at
    real indices (4j, 4j+1) and component j of h2 at (4j+2, 4j+3)."""
    two_m = C.shape[0]
    m = two_m // 2

    def real_pair(p: int) -> int:
        return 4 * p if p < m else 4 * (p - m) + 2

    M = np.zeros((4 * m, 4 * m))
    for p in range(two_m):
        rp = real_pair(p)
        for q in range(two_m):
            rq = real_pair(q)
            u, v = C[p, q].real, C[p, q].imag
            M[rp, rq] = u
            M[rp, rq + 1] = -v
            M[rp + 1, rq] = v
            M[rp + 1, rq + 1] = u
    return M


def rotation2(angle: float) -> np.ndarray:
    """Real 2x2 matrix of complex multiplication by exp(i*angle)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])
