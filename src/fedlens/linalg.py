"""Dense matrix helpers: input validation and a thin SVD with a rank cutoff.

Everything operates on plain 2-D float64 numpy arrays. The SVD is LAPACK's,
through numpy; this module adds only the relative cutoff that decides which
singular values count as zero.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, ShapeError


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a finite 2-D float64 array."""
    arr = np.asarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericError(f"{name} contains non-finite entries")
    return arr


def svd(a):
    """Thin singular value decomposition through LAPACK (numpy.linalg.svd).

    Returns (u, s, v) with a = u @ diag(s) @ v.T: u (rows x k) and v
    (cols x k) have orthonormal columns, and s (length k = min(rows, cols))
    is non-negative and sorted descending. Singular values at or below
    max(rows, cols) * eps * s_max are set to exactly 0.0, so the rank is the
    count of non-zero values in s; u and v stay orthonormal either way.
    """
    a = as_matrix(a)
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    cutoff = max(a.shape) * np.finfo(np.float64).eps * s.max(initial=0.0)
    return u, np.where(s > cutoff, s, 0.0), vt.T
