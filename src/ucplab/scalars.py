"""Real composition algebras R, C, H, O built by Cayley-Dickson doubling.

Basis units follow the doubling order: unit k of the doubled algebra with
k >= d is e_{k-d} * e_d of the previous level, so the octonion table is
fixed by the recursion alone.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=None)
def multiplication_table(dim: int) -> np.ndarray:
    """Structure-constant tensor M with e_i e_j = sum_k M[i, j, k] e_k.

    Built by the Cayley-Dickson recursion
    (p, q)(r, s) = (p r - conj(s) q, s p + q conj(r)).
    """
    if dim == 1:
        return np.ones((1, 1, 1))
    half = dim // 2
    sub = multiplication_table(half)
    conj = -np.ones(half)
    conj[0] = 1.0
    m = np.zeros((dim, dim, dim))
    # (e_i, 0)(e_j, 0) = (e_i e_j, 0)
    m[:half, :half, :half] = sub
    # (e_i, 0)(0, e_j) = (0, e_j e_i)
    m[:half, half:, half:] = np.transpose(sub, (1, 0, 2))
    # (0, e_i)(e_j, 0) = (0, e_i conj(e_j))
    m[half:, :half, half:] = sub * conj[None, :, None]
    # (0, e_i)(0, e_j) = (-conj(e_j) e_i, 0)
    m[half:, half:, :half] = -np.transpose(sub, (1, 0, 2)) * conj[None, :, None]
    m.setflags(write=False)
    return m


def cd_mul(a: np.ndarray, b: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Product of coordinate arrays (broadcasts over leading axes)."""
    return np.einsum("...i,...j,ijk->...k", a, b, table)


def cd_conj(a: np.ndarray) -> np.ndarray:
    out = -np.asarray(a, dtype=float).copy()
    out[..., 0] = np.asarray(a)[..., 0]
    return out


def cd_norm(a: np.ndarray) -> np.ndarray:
    """Composition norm: sum of squared coordinates."""
    return (np.asarray(a, dtype=float) ** 2).sum(axis=-1)
