import json

import numpy as np
import pytest

from dltf import core
from dltf.errors import DimensionMismatch, FileFormatError, ZeroColumn


def test_normalize_columns_unit_norms():
    rng = np.random.default_rng(0)
    W = core.normalize_columns(rng.standard_normal((12, 7)))
    norms = np.linalg.norm(W.data, axis=0)
    assert np.max(np.abs(norms - 1.0)) < 1e-12


def test_normalize_columns_idempotent():
    rng = np.random.default_rng(1)
    W1 = core.normalize_columns(rng.standard_normal((16, 9)) * 3.7)
    W2 = core.normalize_columns(W1.data)
    assert np.max(np.abs(W2.data - W1.data)) <= 1e-15 * np.max(np.abs(W1.data))


def test_normalize_columns_zero_column():
    A = np.ones((4, 3))
    A[:, 1] = 0.0
    with pytest.raises(ZeroColumn):
        core.normalize_columns(A)
    A[:, 1] = 1e-13
    with pytest.raises(ZeroColumn):
        core.normalize_columns(A)


def test_random_dictionary_takes_a_seed_or_a_generator():
    for seed in (0, 7, 12345):
        by_int = core.random_dictionary(9, 14, seed)
        by_rng = core.random_dictionary(9, 14, np.random.default_rng(seed))
        assert by_int.data.tobytes() == by_rng.data.tobytes()
    assert np.allclose(np.linalg.norm(by_int.data, axis=0), 1.0, atol=1e-12)


def test_dictionary_rejects_unnormalized():
    with pytest.raises(ValueError):
        core.Dictionary(np.full((3, 2), 2.0))


def test_dictionary_is_immutable():
    W = core.normalize_columns(np.random.default_rng(2).standard_normal((5, 4)))
    with pytest.raises(ValueError):
        W.data[0, 0] = 9.0


def test_gram_matches_loop_oracle():
    rng = np.random.default_rng(3)
    W = core.normalize_columns(rng.standard_normal((4, 6)))
    G = core.gram(W)
    ref = np.empty((6, 6))
    for i in range(6):
        for j in range(6):
            ref[i, j] = float(np.dot(W.data[:, i], W.data[:, j]))
    assert np.max(np.abs(G - ref)) < 1e-14


def test_gram_symmetric_unit_diagonal():
    rng = np.random.default_rng(4)
    W = core.normalize_columns(rng.standard_normal((32, 48)))
    G = core.gram(W)
    assert np.max(np.abs(G - G.T)) <= 1e-12
    assert np.max(np.abs(np.diag(G) - 1.0)) <= 1e-8


def test_dictionary_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(5)
    W = core.normalize_columns(rng.standard_normal((64, 128)))
    path = tmp_path / "w.dltf"
    core.save_dictionary(W, path)
    W2 = core.load_dictionary(path)
    assert W2.data.tobytes() == W.data.tobytes()


def test_data_matrix_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(6)
    X = core.DataMatrix(rng.standard_normal((8, 17)) * 1e-3)
    path = tmp_path / "x.dltx"
    core.save_data_matrix(X, path)
    X2 = core.load_data_matrix(path)
    assert X2.data.tobytes() == X.data.tobytes()


def test_load_truncated_header(tmp_path):
    path = tmp_path / "bad.dltf"
    path.write_bytes(b"DLTF\x01\x02")
    with pytest.raises(FileFormatError):
        core.load_dictionary(path)


def test_load_wrong_magic(tmp_path):
    rng = np.random.default_rng(7)
    X = core.DataMatrix(rng.standard_normal((4, 4)))
    path = tmp_path / "x.dltx"
    core.save_data_matrix(X, path)
    with pytest.raises(FileFormatError):
        core.load_dictionary(path)


def test_load_payload_dimension_mismatch(tmp_path):
    rng = np.random.default_rng(8)
    W = core.normalize_columns(rng.standard_normal((4, 3)))
    path = tmp_path / "w.dltf"
    core.save_dictionary(W, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(DimensionMismatch):
        core.load_dictionary(path)


@pytest.mark.parametrize("version, rows, cols, message", [
    (core.FORMAT_VERSION + 1, 2, 2, "unsupported format version 2"),
    (core.FORMAT_VERSION, 0, 2, r"degenerate shape \(0, 2\)"),
    (core.FORMAT_VERSION, 2, 0, r"degenerate shape \(2, 0\)"),
])
def test_load_rejects_bad_header_fields(tmp_path, version, rows, cols, message):
    path = tmp_path / "w.dltf"
    header = core._HEADER.pack(core.MAGIC_DICTIONARY, version, rows, cols)
    path.write_bytes(header + np.eye(2).tobytes())
    with pytest.raises(FileFormatError, match=message):
        core.load_dictionary(path)


def test_json_roundtrip_row_major(tmp_path):
    rng = np.random.default_rng(9)
    W = core.normalize_columns(rng.standard_normal((3, 5)))
    obj = core.dictionary_to_json(W)
    assert obj["n"] == 3 and obj["m"] == 5
    assert obj["data"][:5] == list(W.data[0, :])
    W2 = core.dictionary_from_json(json.loads(json.dumps(obj)))
    assert np.array_equal(W2.data, W.data)
    path = tmp_path / "w.json"
    core.save_dictionary_json(W, path)
    W3 = core.load_dictionary_json(path)
    assert np.array_equal(W3.data, W.data)


@pytest.mark.parametrize("n, m, data", [
    (2, 2, [[1, 0], [0, 1]]), (2, 2, [[1, 0, 0, 1]]), (1, 1, 1.0),
    (1, 1, ["1.0"]), (1, 1, [True]), (1, 1, {"a": 1}), (1, 1, [None]),
    (2, 1, [1.0, "x"]),
])
def test_json_data_must_be_a_flat_list(n, m, data):
    # a nested list of the right size would otherwise be reshaped silently,
    # and "1.0" or true read as 1.0
    with pytest.raises(FileFormatError, match="data must be a flat list of numbers"):
        core.dictionary_from_json({"n": n, "m": m, "data": data})


@pytest.mark.parametrize("size", [3, 5])
def test_json_data_size_must_match_dimensions(size):
    with pytest.raises(DimensionMismatch, match=f"promises 2x2, data has {size} entries$"):
        core.dictionary_from_json({"n": 2, "m": 2, "data": [1.0] * size})


def test_json_missing_field():
    with pytest.raises(FileFormatError):
        core.dictionary_from_json({"n": 2, "data": [1.0, 0.0]})


@pytest.mark.parametrize("dims, field", [
    (dict(n=2.5, m=2), "n"), (dict(n="2", m=2), "n"), (dict(n=2, m=2.0), "m"),
    (dict(n=2, m=None), "m"), (dict(n=-2, m=-2), "n"), (dict(n=2, m=0), "m"),
    (dict(n=True, m=4), "n"), (dict(n=4, m=True), "m"),
])
def test_json_dimensions_must_be_positive_integers(dims, field):
    with pytest.raises(FileFormatError, match=f"field {field}="):
        core.dictionary_from_json({**dims, "data": [1.0, 0.0, 0.0, 1.0]})


def test_sparse_code_batch_enforces_k():
    Z = np.zeros((6, 4))
    Z[0, :] = 1.0
    Z[3, 2] = 2.0
    core.SparseCodeBatch(Z, k=2)
    with pytest.raises(Exception):
        core.SparseCodeBatch(Z, k=1)


def test_data_matrix_rejects_nonfinite():
    X = np.ones((3, 3))
    X[1, 1] = np.nan
    with pytest.raises(ValueError):
        core.DataMatrix(X)
