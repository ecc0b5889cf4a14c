import numpy as np
import pytest

from dltf import core, encoder
from dltf.errors import DimensionMismatch, InvalidK


def naive_max_k(v, k):
    """Reference: full stable sort on (-|v|, index), keep first k."""
    order = sorted(range(len(v)), key=lambda i: (-abs(v[i]), i))
    out = np.zeros(len(v))
    for i in order[:k]:
        out[i] = v[i]
    return out


def test_max_k_trivial():
    v = np.array([3.0, -1.0, 0.5, 2.0])
    assert np.array_equal(encoder.max_k(v, 2), [3.0, 0.0, 0.0, 2.0])
    assert np.array_equal(encoder.max_k(v, 4), v)
    assert np.array_equal(encoder.max_k(np.zeros(3), 2), np.zeros(3))


def test_max_k_tie_lowest_index():
    v = np.array([1.0, -2.0, 2.0, 0.3])
    out = encoder.max_k(v, 1)
    assert np.array_equal(out, [0.0, -2.0, 0.0, 0.0])
    out = encoder.max_k(np.array([-5.0, 5.0, 5.0]), 2)
    assert np.array_equal(out, [-5.0, 5.0, 0.0])


def test_max_k_matches_naive_oracle():
    rng = np.random.default_rng(10)
    for trial in range(300):
        m = int(rng.integers(1, 20))
        k = int(rng.integers(1, m + 1))
        v = rng.standard_normal(m)
        if trial % 3 == 0:
            v = np.round(v, 1)  # force ties and zeros
        assert np.array_equal(encoder.max_k(v, k), naive_max_k(v, k)), (m, k, v)


def test_max_k_invalid_k():
    with pytest.raises(InvalidK):
        encoder.max_k(np.ones(3), 0)
    with pytest.raises(InvalidK):
        encoder.max_k(np.ones(3), 4)


def test_max_k_survivor_count():
    rng = np.random.default_rng(11)
    for _ in range(100):
        m = int(rng.integers(2, 15))
        k = int(rng.integers(1, m + 1))
        v = rng.standard_normal(m)
        v[rng.random(m) < 0.4] = 0.0
        out = encoder.max_k(v, k)
        assert np.count_nonzero(out) == min(k, np.count_nonzero(v))
        nz = out != 0
        assert np.array_equal(out[nz], v[nz])


def test_max_k_columns_consistent_with_vector():
    # max_k scans its input and max_k_columns does not; on finite input
    # they keep the same entries byte for byte, -0.0 and ties included
    rng = np.random.default_rng(12)
    for N in (40, 650):
        M = np.round(rng.standard_normal((9, N)), 1)
        M[rng.random(M.shape) < 0.2] = -0.0
        for k in (1, 3, 9):
            out = encoder.max_k_columns(M, k)
            for i in range(M.shape[1]):
                assert out[:, i].tobytes() == encoder.max_k(M[:, i], k).tobytes()


def test_top_k_mask_matches_stable_argsort():
    # exactly k rows per column, the order a stable sort of -|M| gives:
    # ties, an all-zero column and -0.0 entries go to the lower index
    rng = np.random.default_rng(44)
    m, N = 10, 40
    M = np.round(rng.standard_normal((m, N)), 1)
    M[rng.random(M.shape) < 0.2] = -0.0
    M[:, 5] = 0.0
    M[:, 6] = -0.0
    M[[0, 9], 7] = [0.5, -0.5]
    cols = np.arange(N)
    for k in (1, 3, m):
        mask = encoder.top_k_mask(M, k)
        assert mask.dtype == bool and np.all(mask.sum(axis=0) == k)
        want = np.zeros_like(mask)
        want[np.argsort(-np.abs(M), axis=0, kind="stable")[:k], cols] = True
        assert np.array_equal(mask, want), k
        assert encoder.max_k_columns(M, k).tobytes() == np.where(mask, M, 0.0).tobytes()


def test_encode_batch_shapes_and_sparsity():
    rng = np.random.default_rng(13)
    W = core.normalize_columns(rng.standard_normal((16, 24)))
    X = core.DataMatrix(rng.standard_normal((16, 50)))
    Z = encoder.encode_batch(W, X, 5)
    assert Z.shape == (24, 50)
    assert np.all(np.count_nonzero(Z, axis=0) <= 5)
    C = W.data.T @ X.data
    nz = Z != 0
    assert np.array_equal(Z[nz], C[nz])


def test_encode_batch_dimension_mismatch():
    rng = np.random.default_rng(14)
    W = core.normalize_columns(rng.standard_normal((16, 24)))
    X = core.DataMatrix(rng.standard_normal((15, 5)))
    with pytest.raises(DimensionMismatch):
        encoder.encode_batch(W, X, 3)


@pytest.mark.parametrize("shape", [(6,), (2, 3, 4)])
def test_max_k_columns_rejects_a_non_matrix(shape):
    for select in (encoder.max_k_columns, encoder.top_k_mask):
        with pytest.raises(DimensionMismatch, match="^expected 2-d array, got shape "):
            select(np.ones(shape), 1)


def test_ave_dif_exact_zero():
    # supports are exact: 1e-300 counts as nonzero, -0.0 does not
    v = np.array([[0.0], [1e-300], [-0.0], [2.0]])
    assert encoder.ave_dif(v, [[0.0], [1.0], [0.0], [1.0]]) == 0.0
    assert encoder.ave_dif(v, np.zeros((4, 1))) == 1.0


def test_ave_dif_basics():
    Z1 = np.zeros((6, 2))
    Z2 = np.zeros((6, 2))
    Z1[0, 0] = 1.0
    Z2[1, 0] = 1.0
    # one column differs in two positions -> 2/2 = 1 for that column.
    assert encoder.ave_dif(Z1, Z2) == 0.5
    assert encoder.ave_dif(Z1, Z1) == 0.0
    assert encoder.ave_dif(Z1, Z2) == encoder.ave_dif(Z2, Z1)


def test_ave_dif_bounded_by_k():
    rng = np.random.default_rng(15)
    m, N, k = 20, 30, 4
    for _ in range(20):
        A = encoder.max_k_columns(rng.standard_normal((m, N)), k)
        B = encoder.max_k_columns(rng.standard_normal((m, N)), k)
        d = encoder.ave_dif(A, B)
        assert 0.0 <= d <= k


def test_ave_dif_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        encoder.ave_dif(np.zeros((3, 2)), np.zeros((4, 2)))
