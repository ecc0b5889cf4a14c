"""Proximal operator of the squared (k,2) gauge norm.

The (k,2) norm of a vector is the Euclidean norm of its k
largest-magnitude entries. This module evaluates

    prox(c) = argmin_q  gamma * ||q||_{k,2}^2 + ||q - c||^2

exactly in O(m log m), for one vector or for every column of an m x N
matrix in one call. A stable magnitude sort reduces it to weighted
isotonic regression on the ascending magnitudes c_0 <= ... <= c_{m-1}:
entries [0, p), p = m - k', keep target c_j and weight 1, and the
candidate top block [p, m) gets target c_j / g and weight g, g = 1 + gamma.
Both runs are already sorted, so at most one pooled block straddles p.
Its value v is the root of the decreasing, piecewise-linear

    phi(v) = sum_{j<p} (c_j - v)_+  -  sum_{j>=p} (g v - c_j)_+ .

A stable merge of the two runs orders the breakpoints of phi, and
prefix sums along that order give phi at every breakpoint. The ones
where phi > 0 fix the pooled block, and v is the block's weighted mean,
summed over the block alone. This is the (l, r) search
that Argyriou, Foygel & Srebro (2012) give for the k-support norm, done
for all columns at once with no Python loop. When the runs do not
overlap nothing pools and v = c_{p-1}. The sorted solution is then
min(c_j, v) for j < p and max(c_j / g, v) for j >= p; the sort's
permutation and the input's signs carry it back. The merge count is the
pooled block's length minus one: the block is {j < p : c_j > v} and
{j >= p : c_j / g < v}.

When k' + 8 <= m/4, the size alone picks a shorter path, the same for a
vector and for every column of a batch: np.argpartition picks each
column's top k' + 8 magnitudes, and only that slice is sorted and
solved, as its own problem with 8 left entries. Its pooled value v is
the column's whenever v is at least the slice's smallest entry, because
every excluded entry is at most that entry and so stays put; the merge
count is then the full sort's too. A column whose v falls below the
slice's smallest entry, the only case in which an excluded entry could
pool, goes back through the full sort. A column that does not fall back
costs O(m + (k'+8) log(k'+8)).

A full-sort solve peaks at about 5.3 float64 words of working memory
per entry (tracemalloc, m = 10^5 and 10^6): the magnitudes, their sort
order and the sorted copy, plus two arrays along the merged order and
two masks. The merge order is dropped once the merged values are
gathered, and the prefix sums run in the buffers of their steps: W in
its own, P in the merged values' once x_t W_t is formed.
"""

from __future__ import annotations

import numpy as np

from .core import as_finite_array
from .errors import DimensionMismatch, check_k, check_real

# Left entries kept below a column's top k' on the top-slice path.
_SLACK = 8


def k2_norm_sq(v, k: int) -> float:
    """Sum of the k largest squared magnitudes of v. For an m x N matrix,
    the sum over its columns of that quantity."""
    arr = as_finite_array(v, "v", (1, 2))
    m = arr.shape[0]
    k = check_k(k, m)
    sq = np.square(arr.T, order="C")  # a matrix's columns as contiguous rows
    if k < m:
        sq.partition(m - k, axis=-1)  # in place: np.partition would copy
        sq = sq[..., m - k:]
    return float(sq.sum())


def _solve_sorted(S: np.ndarray, p: int, g: float) -> np.ndarray:
    """Replace each row of S by its prox, in place, and return the merge
    counts as an (N,) array.

    S is a C-contiguous N x m array whose rows are ascending nonnegative
    magnitudes, and p = m - k'. Each row is solved as the weighted isotonic
    problem with targets S[:p] (weight 1) and S[p:] / g (weight g).
    """
    N, m = S.shape
    S[:, p:] /= g
    if p == 0:
        return np.zeros(N, dtype=np.intp)
    order = S.argsort(axis=1, kind="stable")  # merges the two sorted runs
    right = order >= p
    x = S[np.arange(N)[:, None], order]
    del order
    # Along the merged breakpoints x_t, W_t = #(left entries after t)
    # + g #(right entries up to t) and P_t = the matching weighted sum of
    # targets, so phi(x_t) = P_t - x_t W_t, and phi(v) = P_t - v W_t up to
    # the next breakpoint. The cumulative sums start from W = p, P = the
    # left total, and run in the buffers of their steps: W's own, then
    # x's once x_t W_t is formed.
    W = np.where(right, g, -1.0)
    W[:, 0] += p
    np.cumsum(W, axis=1, out=W)
    xW = np.multiply(x, W, out=W)
    P = np.negative(x, out=x)  # P's steps: -x_t on the left, g x_t on the right
    np.multiply(P, -g, out=P, where=right)
    P[:, 0] += S[:, :p].sum(axis=1)
    np.cumsum(P, axis=1, out=P)
    positive = xW < P  # phi > 0: a prefix of the merged order
    del x, P
    count = positive.sum(axis=1)
    # The block is the left entries at or after position `count` and the
    # right entries before it: S[:, p - n_left : p + n_right].
    positive &= right
    n_right = positive.sum(axis=1)
    del positive, right
    n_left = p - count + n_right
    overlap = S[:, p - 1] > S[:, p]  # else nothing pools and v = c_{p-1}
    # v is the block's weighted mean, summed over the block alone: P and W
    # carry the whole left run, whose rounding would grow with m.
    cols = np.arange(m)
    inblock = (cols >= (p - n_left)[:, None]) & (cols < (p + n_right)[:, None])
    block = np.multiply(S, inblock, out=xW)  # xW is no longer needed
    block[:, p:] *= g
    v = S[:, p - 1].copy()
    np.divide(block.sum(axis=1), n_left + g * n_right, out=v, where=overlap)
    v = v[:, None]
    np.minimum(S[:, :p], v, out=S[:, :p])
    np.maximum(S[:, p:], v, out=S[:, p:])
    merges = n_left + n_right - 1
    merges[~overlap] = 0
    return merges


def _prox_rows(A: np.ndarray, kprime: int, g: float) -> np.ndarray:
    """Replace each row of the C-contiguous magnitudes A by its prox, in
    place, by the full stable sort, and return the merge counts."""
    rows = np.arange(A.shape[0])[:, None]
    order = A.argsort(axis=1, kind="stable")
    S = A[rows, order]
    merges = _solve_sorted(S, A.shape[1] - kprime, g)
    A[rows, order] = S
    return merges


def _prox_rows_top(A: np.ndarray, kprime: int, g: float) -> np.ndarray:
    """_prox_rows from each row's top kprime + _SLACK magnitudes alone.

    The slice is solved as its own problem, with _SLACK left entries. Its
    pooled value v is the row's whenever v is at least the slice's
    smallest entry, since every excluded entry is at most that entry and
    so stays put; the other rows go back through _prox_rows."""
    t = kprime + _SLACK
    rows = np.arange(A.shape[0])[:, None]
    top = np.argpartition(A, A.shape[1] - t, axis=1)[:, -t:]
    T = A[rows, top]
    order = T.argsort(axis=1, kind="stable")
    top = top[rows, order]
    S = T[rows, order]
    smallest = S[:, 0].copy()
    merges = _solve_sorted(S, _SLACK, g)
    back = np.flatnonzero(S[:, 0] < smallest)  # v below the slice's smallest entry
    B = A[back]
    A[rows, top] = S
    if back.size:
        merges[back] = _prox_rows(B, kprime, g)
        A[back] = B
    return merges


def prox_k2(c, kprime: int, gamma: float, return_merges: bool = False):
    """Prox of the squared (k',2) norm at a vector, or at each column of an
    m x N matrix (one call, no per-column loop).

    Signs and positions are round-tripped through a magnitude sort, and
    equal magnitudes get equal outputs whichever order their sort leaves
    them in, so the output keeps the signs and the magnitude order of the
    input, and zero entries stay zero. With
    ``return_merges`` the merge count is returned as a second value (an
    int for a vector, one per column for a matrix); it is at most m-1.
    When k' + 8 <= m/4 only each column's top k' + 8 magnitudes are
    sorted (module docstring).
    """
    c = as_finite_array(c, "c", (1, 2))
    kprime = check_k(kprime, c.shape[0])
    gamma = check_real(gamma, "gamma")
    # the columns of c (or the vector c) as the rows of A
    A = np.abs(c[None, :] if c.ndim == 1 else c.T, order="C")
    solve = _prox_rows_top if 4 * (kprime + _SLACK) <= A.shape[1] else _prox_rows
    merges = solve(A, kprime, 1.0 + gamma)
    if c.ndim == 1:
        q, merges = np.copysign(A[0], c), int(merges[0])
    else:
        q = np.copysign(A.T, c)
    return (q, merges) if return_merges else q


def prox_objective(q, c, kprime: int, gamma: float) -> float:
    """gamma * ||q||_{k',2}^2 + ||q - c||^2, the quantity prox_k2 minimizes."""
    q = as_finite_array(q, "q", (1,))
    c = as_finite_array(c, "c", (1,))
    if q.shape != c.shape:
        raise DimensionMismatch(f"q and c differ in shape: {q.shape} vs {c.shape}")
    gamma = check_real(gamma, "gamma")
    d = q - c
    return gamma * k2_norm_sq(q, kprime) + float(d @ d)
