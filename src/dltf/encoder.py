"""Thresholded feature encoding.

The encoder keeps, per sample, the k entries of W^T x with the largest
magnitudes and zeroes the rest. Selection uses a partial partition rather
than a full sort; when the k-th and (k+1)-th magnitudes tie, the lower
index wins, which makes the output independent of partition order.
"""

from __future__ import annotations

import numpy as np

from .core import DataMatrix, Dictionary, as_finite_array
from .errors import DimensionMismatch, check_k

_BLOCK = 200  # columns per selection block: 1600-byte rows


def top_k_mask(M: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k entries of largest magnitude in every column
    of M, which must be finite: exactly k True per column, the lower index
    winning ties."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise DimensionMismatch(f"expected 2-d array, got shape {M.shape}")
    m = M.shape[0]
    k = check_k(k, m)
    # The k-th largest magnitude per column, by partial selection over
    # blocks of columns copied into a small buffer. np.partition walks a
    # column with the row stride; the buffer stays in cache, and its rows
    # of 25 cache lines keep a column from piling onto a few cache sets,
    # as it does in a 128 x 8000 matrix (rows of 1000 lines).
    N = M.shape[1]
    work = np.empty((m, min(N, _BLOCK)))
    thresh = np.empty(N)
    for j in range(0, N, _BLOCK):
        A = work[:, :min(_BLOCK, N - j)]
        np.abs(M[:, j:j + _BLOCK], out=A)
        A.partition(m - k, axis=0)
        thresh[j:j + _BLOCK] = A[m - k]
    keep = M >= thresh
    keep |= M <= -thresh
    # Where boundary ties outnumber the free slots, fill the slots in
    # ascending index order; other columns keep all their ties.
    over = np.flatnonzero(keep.sum(axis=0) > k)
    if over.size:
        A, thresh = np.abs(M[:, over]), thresh[over]
        above = A > thresh
        tied = A == thresh
        rank = np.cumsum(tied, axis=0)
        keep[:, over] = above | (tied & (rank <= k - above.sum(axis=0)))
    return keep


def max_k_columns(M: np.ndarray, k: int) -> np.ndarray:
    """Apply the top-k magnitude threshold to every column of M, which must be finite."""
    M = np.asarray(M, dtype=np.float64)
    return np.where(top_k_mask(M, k), M, 0.0)


def max_k(v: np.ndarray, k: int) -> np.ndarray:
    """Top-k magnitude threshold of a single vector.

    Exactly min(k, nnz(v)) entries survive with their original signed
    values (selected exact zeros contribute nothing to the support).
    """
    v = as_finite_array(v, "v", (1,))
    return max_k_columns(v[:, None], k)[:, 0]


def encode_batch(W: Dictionary, X: DataMatrix, k: int) -> np.ndarray:
    """Thresholded features for every column of X, as an m x N matrix."""
    if W.n != X.n:
        raise DimensionMismatch(f"dictionary has n={W.n}, data has n={X.n}")
    return max_k_columns(W.data.T @ X.data, k)


def ave_dif(Z_hat: np.ndarray, Z_ref: np.ndarray) -> float:
    """Average support difference between two code batches.

    Counts per column the entries on which the supports disagree, halves
    the count, and averages over columns. Symmetric in its arguments and
    bounded by max nnz per column; identical supports give 0.
    """
    Z_hat = as_finite_array(Z_hat, "Z_hat")
    Z_ref = as_finite_array(Z_ref, "Z_ref")
    if Z_hat.shape != Z_ref.shape:
        raise DimensionMismatch(f"code shapes differ: {Z_hat.shape} vs {Z_ref.shape}")
    mism = (Z_hat != 0) ^ (Z_ref != 0)
    return float(mism.sum()) / (2.0 * Z_hat.shape[1])
