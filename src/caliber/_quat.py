"""Quaternion-array helpers for sampling structure-preserving isometries.

Quaternions are numpy arrays of shape (..., 4) holding (w, x, y, z) components
with the multiplication convention i*j = k.
"""

from __future__ import annotations

import numpy as np

from caliber.calib import _gram_schmidt


def right_mult_matrix(q: np.ndarray) -> np.ndarray:
    """Real 4x4 matrix of h -> h*q in the (1, i, j, k) component basis; shape
    (..., 4, 4) for quaternions (..., 4)."""
    a, b, c, d = np.moveaxis(np.asarray(q, dtype=float), -1, 0)
    rows = [[a, -b, -c, -d], [b, a, d, -c], [c, -d, a, b], [d, c, -b, a]]
    return np.moveaxis(np.array(rows), (0, 1), (-2, -1))


# h -> h u as a right factor on (1, i, j, k) component rows, for u = 1, i, j, k
_RIGHT_UNITS = np.swapaxes(right_mult_matrix(np.eye(4)), -1, -2)


def gram_schmidt_sp(mat: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of an m x m quaternion matrix over H.

    Inner product <u, v> = sum_k conj(u_k) v_k, coefficients multiplying from
    the right.  The right H-span of a column v is the real span of (v, v i,
    v j, v k), so one real Gram-Schmidt over those candidates, column by
    column, keeps every fourth row: the output satisfies B* B = Id up to
    float roundoff.
    """
    m = mat.shape[0]
    # candidate 4 j + u is column j times the u-th unit of (1, i, j, k)
    cand = (np.swapaxes(mat, 0, 1)[:, None] @ _RIGHT_UNITS).reshape(4 * m, 4 * m)
    Q, kept = _gram_schmidt(cand, 4 * m)
    if kept < 4 * m:
        raise ValueError("rank-deficient quaternion matrix")
    return np.swapaxes(Q[::4].reshape(m, m, 4), 0, 1)


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
    # block (j, k) is right_mult_matrix(B[k, j])
    return right_mult_matrix(B).transpose(1, 2, 0, 3).reshape(4 * m, 4 * m)


def sp_complex_block(B: np.ndarray) -> np.ndarray:
    """Complex 2m x 2m block matrix of the left action h -> B h on H^m = C^m + j C^m,
    from the split q = q1 + j*q2 of each entry, q1 and q2 complex (so c*j = j*conj(c))."""
    q1 = B[..., 0] + 1j * B[..., 1]
    q2 = B[..., 2] - 1j * B[..., 3]
    return np.block([[q1, -np.conj(q2)], [q2, np.conj(q1)]])


def realify_interleaved(C: np.ndarray) -> np.ndarray:
    """Realify a complex 2m x 2m matrix acting on (h1; h2) stacked complex
    coordinates, in the interleaved real basis where component j of h1 sits at
    real indices (4j, 4j+1) and component j of h2 at (4j+2, 4j+3)."""
    m = C.shape[0] // 2
    r = np.concatenate([4 * np.arange(m), 4 * np.arange(m) + 2])  # real index of each complex one
    M = np.zeros((4 * m, 4 * m))
    M[np.ix_(r, r)] = M[np.ix_(r + 1, r + 1)] = C.real
    M[np.ix_(r, r + 1)] = -C.imag
    M[np.ix_(r + 1, r)] = C.imag
    return M


def rotation2(angle: float) -> np.ndarray:
    """Real 2x2 matrix of complex multiplication by exp(i*angle)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])
