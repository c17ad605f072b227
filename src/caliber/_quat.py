"""Quaternion-array helpers for sampling structure-preserving isometries.

Quaternions are numpy arrays of shape (..., 4) holding (w, x, y, z) components
with the multiplication convention i*j = k.  `gram_schmidt_sp`,
`sp_complex_block`, `realify_interleaved` and `rotation2` take one matrix
or a stack over leading batch axes, and give each entry of a stack the same
bits as that matrix alone.
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
    """Orthonormalize the columns of m x m quaternion matrices (..., m, m, 4) over H.

    Inner product <u, v> = sum_k conj(u_k) v_k, coefficients multiplying from
    the right.  The right H-span of a column v is the real span of (v, v i,
    v j, v k), so one real Gram-Schmidt over those candidates, column by
    column, keeps every fourth row: the output satisfies B* B = Id up to
    float roundoff.  A stack runs as one batched Gram-Schmidt.
    """
    m = mat.shape[-2]
    # candidate 4 j + u is column j times the u-th unit of (1, i, j, k)
    cand = np.swapaxes(mat, -3, -2)[..., None, :, :] @ _RIGHT_UNITS
    Q, kept = _gram_schmidt(cand.reshape(mat.shape[:-3] + (4 * m, 4 * m)), 4 * m)
    if np.any(kept < 4 * m):
        raise ValueError("rank-deficient quaternion matrix")
    return np.swapaxes(Q[..., ::4, :].reshape(mat.shape), -3, -2)


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
    """Complex 2m x 2m block matrices (..., 2m, 2m) of the left action h -> B h
    on H^m = C^m + j C^m, from the split q = q1 + j*q2 of each entry of B
    (..., m, m, 4), q1 and q2 complex (so c*j = j*conj(c))."""
    q1 = B[..., 0] + 1j * B[..., 1]
    q2 = B[..., 2] - 1j * B[..., 3]
    return np.block([[q1, -np.conj(q2)], [q2, np.conj(q1)]])


def realify_interleaved(C: np.ndarray) -> np.ndarray:
    """Realify complex 2m x 2m matrices (..., 2m, 2m) acting on (h1; h2)
    stacked complex coordinates, in the interleaved real basis where
    component j of h1 sits at real indices (4j, 4j+1) and component j of h2
    at (4j+2, 4j+3)."""
    m = C.shape[-1] // 2
    r = np.concatenate([4 * np.arange(m), 4 * np.arange(m) + 2])  # real index of each complex one
    M = np.zeros(C.shape[:-2] + (4 * m, 4 * m))
    M[..., r[:, None], r] = M[..., r[:, None] + 1, r + 1] = C.real
    M[..., r[:, None], r + 1] = -C.imag
    M[..., r[:, None] + 1, r] = C.imag
    return M


def rotation2(angle) -> np.ndarray:
    """Real 2x2 matrices (..., 2, 2) of complex multiplication by exp(i*angle)."""
    c, s = np.cos(angle), np.sin(angle)
    return np.moveaxis(np.array([[c, -s], [s, c]]), (0, 1), (-2, -1))
