"""Bond truncation policy and the truncated SVD behind every compression.

Tensors throughout the package are plain numpy arrays in row-major layout;
this module only decides which singular values a split keeps and reports the
weight it throws away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TruncationSpec", "truncated_svd"]


@dataclass(frozen=True)
class TruncationSpec:
    """Bond truncation policy: hard rank cap plus relative weight cutoff.

    Singular values ``s[i]`` are retained while ``s[i] >= weight_cutoff * s[0]``
    (inclusive, so exact ties at the threshold survive) and at most
    ``max_rank`` values are kept. ``max_rank`` defaults to "no cap".
    """

    max_rank: int = 2**30
    weight_cutoff: float = 0.0

    def __post_init__(self):
        if self.max_rank < 1:
            raise ValueError("max_rank must be >= 1")
        if not 0.0 <= self.weight_cutoff < 1.0:
            raise ValueError("weight_cutoff must lie in [0, 1)")


def truncated_svd(matrix, spec=None):
    """SVD of a matrix with rank-capped, cutoff-based truncation.

    Returns ``(u, s, vh, discarded_weight)`` where ``discarded_weight`` is the
    sum of squared discarded singular values divided by the total squared
    norm (0 for an exactly zero matrix).
    """
    spec = spec or TruncationSpec()
    matrix = np.asarray(matrix, dtype=complex)
    try:
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    except np.linalg.LinAlgError:
        # Rare LAPACK convergence failure; the slower driver is robust.
        import scipy.linalg

        u, s, vh = scipy.linalg.svd(matrix, full_matrices=False, lapack_driver="gesvd")
    total = float(np.sum(s**2))
    keep = _kept(s, spec)
    discarded = float(np.sum(s[keep:] ** 2))
    weight = discarded / total if total > 0.0 else 0.0
    return u[:, :keep], s[:keep], vh[:keep, :], weight


def _kept(s, spec):
    """How many of the non-increasing singular values `s` the policy `spec`
    keeps: at least one, and one of an all-zero `s`."""
    if float(np.sum(s**2)) == 0.0:
        return 1
    return max(1, min(int(np.sum(s >= spec.weight_cutoff * s[0])), spec.max_rank))
