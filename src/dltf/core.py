"""Core containers and dictionary serialization.

A dictionary is an n x m float64 matrix whose columns (atoms) have unit
Euclidean norm. The containers here validate their invariants once at
construction so the numerical code can assume them.

On-disk format for matrices is a small binary container:

    magic (4 bytes) | version (1 byte) | rows u64 LE | cols u64 LE | payload

with the payload stored as little-endian float64 in column-major order.
Dictionaries use magic ``DLTF``, raw data matrices use ``DLTX``. A JSON
export (row-major) is provided for interop with other tooling.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, FileFormatError, InvalidK, ZeroColumn, check_int, check_k

MAGIC_DICTIONARY = b"DLTF"
MAGIC_DATA = b"DLTX"
FORMAT_VERSION = 1

UNIT_NORM_ATOL = 1e-8
ZERO_NORM_FLOOR = 1e-12

_HEADER = struct.Struct("<4sBQQ")


def _freeze(container, arr: np.ndarray) -> None:
    """Store a read-only copy of arr as the frozen container's data."""
    arr = arr.copy()
    arr.flags.writeable = False
    object.__setattr__(container, "data", arr)


def as_finite_array(values, name: str, ndims=(2,)) -> np.ndarray:
    """values as a non-empty, finite float64 array of one of the given
    ranks; DimensionMismatch or ValueError otherwise."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim not in ndims or arr.size < 1:
        kinds = " or ".join(f"{d}-d" for d in ndims)
        raise DimensionMismatch(f"{name} must be a non-empty {kinds} array, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class Dictionary:
    """An n x m matrix of unit-norm atoms. Immutable after construction."""

    data: np.ndarray

    def __post_init__(self):
        arr = as_finite_array(self.data, "dictionary")
        norms = np.linalg.norm(arr, axis=0)
        if np.max(np.abs(norms - 1.0)) > UNIT_NORM_ATOL:
            raise ValueError(
                "dictionary columns must have unit norm within "
                f"{UNIT_NORM_ATOL:g}; worst deviation {np.max(np.abs(norms - 1.0)):.3e}"
            )
        _freeze(self, arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class DataMatrix:
    """An n x N batch of column samples with finite entries."""

    data: np.ndarray

    def __post_init__(self):
        _freeze(self, as_finite_array(self.data, "data matrix"))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def N(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class SparseCodeBatch:
    """An m x N code matrix where every column has at most k nonzeros."""

    data: np.ndarray
    k: int

    def __post_init__(self):
        arr = as_finite_array(self.data, "code batch")
        k = check_k(self.k, arr.shape[0])
        nnz = np.count_nonzero(arr, axis=0)
        if np.max(nnz) > k:
            raise InvalidK(f"a column has {int(np.max(nnz))} nonzeros, limit is k={k}")
        _freeze(self, arr)
        object.__setattr__(self, "k", k)


def normalize_columns(raw) -> Dictionary:
    """Scale each column of ``raw`` to unit norm and wrap it as a Dictionary.

    Raises ZeroColumn if any column norm falls below 1e-12. Applying this to
    an already-normalized matrix reproduces it to within a relative 1e-15
    per entry (one multiply by a ratio that equals 1 up to rounding).
    """
    arr = as_finite_array(raw, "matrix")
    norms = np.linalg.norm(arr, axis=0)
    bad = np.flatnonzero(norms < ZERO_NORM_FLOOR)
    if bad.size:
        raise ZeroColumn(f"column {int(bad[0])} has norm {norms[bad[0]]:.3e} < {ZERO_NORM_FLOOR:g}")
    return Dictionary(arr / norms)


def random_dictionary(n: int, m: int, seed) -> Dictionary:
    """Seeded Gaussian n x m dictionary with unit-norm columns. seed is
    anything np.random.default_rng takes; a Generator is drawn from as is."""
    rng = np.random.default_rng(seed)
    return normalize_columns(rng.standard_normal((n, m)))


def gram(W: Dictionary) -> np.ndarray:
    """Return the m x m Gram matrix of the atoms."""
    return W.data.T @ W.data


def _write_container(path, magic: bytes, arr: np.ndarray) -> None:
    header = _HEADER.pack(magic, FORMAT_VERSION, arr.shape[0], arr.shape[1])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.asarray(arr, dtype="<f8").tobytes(order="F"))


def _read_container(path, magic: bytes) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise FileFormatError(f"{path}: truncated header ({len(blob)} bytes)")
    got_magic, version, rows, cols = _HEADER.unpack_from(blob)
    if got_magic != magic:
        raise FileFormatError(f"{path}: bad magic {got_magic!r}, expected {magic!r}")
    if version != FORMAT_VERSION:
        raise FileFormatError(f"{path}: unsupported format version {version}")
    if rows < 1 or cols < 1:
        raise FileFormatError(f"{path}: degenerate shape ({rows}, {cols})")
    expected = rows * cols * 8
    payload = blob[_HEADER.size:]
    if len(payload) != expected:
        raise DimensionMismatch(
            f"{path}: header promises {rows}x{cols} ({expected} bytes), payload has {len(payload)}"
        )
    flat = np.frombuffer(payload, dtype="<f8")
    return flat.reshape((rows, cols), order="F")


def save_dictionary(W: Dictionary, path) -> None:
    """Write a dictionary to the binary container (bit-exact round trip)."""
    _write_container(path, MAGIC_DICTIONARY, W.data)


def load_dictionary(path) -> Dictionary:
    return Dictionary(_read_container(path, MAGIC_DICTIONARY))


def save_data_matrix(X: DataMatrix, path) -> None:
    """Write a data matrix to the binary container (bit-exact round trip)."""
    _write_container(path, MAGIC_DATA, X.data)


def load_data_matrix(path) -> DataMatrix:
    return DataMatrix(_read_container(path, MAGIC_DATA))


def dictionary_to_json(W: Dictionary) -> dict:
    """Row-major JSON object: {"n": ..., "m": ..., "data": [...]}."""
    return {"n": W.n, "m": W.m, "data": W.data.reshape(-1, order="C").tolist()}


def dictionary_from_json(obj: dict) -> Dictionary:
    try:
        n, m, flat = obj["n"], obj["m"], obj["data"]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"JSON dictionary missing field: {exc}") from exc
    try:
        n, m = check_int(n, "n", least=1), check_int(m, "m", least=1)
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"JSON dictionary field {exc}") from None
    if not isinstance(flat, list):
        raise FileFormatError(
            f"JSON dictionary data must be a flat list of numbers, got {type(flat).__name__}")
    for entry in flat:
        # np.asarray would read "1.0" and true as 1.0, and null as NaN
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise FileFormatError(
                f"JSON dictionary data must be a flat list of numbers, got entry {entry!r:.40}")
    flat = np.asarray(flat, dtype=np.float64)
    if flat.size != n * m:
        raise DimensionMismatch(f"JSON dictionary promises {n}x{m}, data has {flat.size} entries")
    return Dictionary(flat.reshape((n, m), order="C"))


def save_dictionary_json(W: Dictionary, path) -> None:
    with open(path, "w") as fh:
        json.dump(dictionary_to_json(W), fh)


def load_dictionary_json(path) -> Dictionary:
    with open(path) as fh:
        obj = json.load(fh)
    return dictionary_from_json(obj)
