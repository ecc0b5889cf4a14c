"""Dictionary learning for thresholded feature encoding.

Public surface: containers and serialization (core), the thresholded
encoder, the squared (k,2)-norm prox, recovery-condition checkers,
the ADMM trainer, OMP/KSVD baselines, and the synthetic benchmark.
"""

from .core import (
    DataMatrix,
    Dictionary,
    SparseCodeBatch,
    gram,
    load_data_matrix,
    load_dictionary,
    normalize_columns,
    save_data_matrix,
    save_dictionary,
)
from .encoder import ave_dif, encode_batch, max_k, max_k_columns
from .prox import k2_norm_sq, prox_k2, prox_objective
from . import errors

__version__ = "0.1.0"

__all__ = [
    "DataMatrix",
    "Dictionary",
    "SparseCodeBatch",
    "ave_dif",
    "encode_batch",
    "errors",
    "gram",
    "k2_norm_sq",
    "load_data_matrix",
    "load_dictionary",
    "max_k",
    "max_k_columns",
    "normalize_columns",
    "prox_k2",
    "prox_objective",
    "save_data_matrix",
    "save_dictionary",
]
