"""Exception types shared across the library, and its range rules:
check_int for counts, sizes and seeds, check_real for weights and
tolerances, and check_k for the sparsity k.

Everything raised on purpose derives from DltfError so callers can catch
library failures without also swallowing programming errors.
"""

import math
import numbers
import operator


class DltfError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(DltfError):
    """Operands have incompatible shapes."""


class ZeroColumn(DltfError):
    """A column with (near-)zero norm cannot be normalized."""


class InvalidK(DltfError):
    """Sparsity level outside the valid range for the operand."""


def check_int(value, name: str, least: int | None = None) -> int:
    """value as an int. TypeError naming the field for a non-integer (2.5,
    or even 4.0) or a bool (True would pass as 1); ValueError below least."""
    try:
        index = operator.index(value)
    except TypeError:
        index = None
    if index is None or isinstance(value, bool):
        raise TypeError(f"{name}={value!r} must be an integer")
    if least is not None and index < least:
        raise ValueError(f"{name}={index} must be at least {least}")
    return index


def check_real(value, name: str, positive: bool = False) -> float:
    """value as a float. TypeError naming the field for a bool (True would
    pass as 1.0) or a non-real such as a string or None; ValueError for NaN,
    an infinity, a negative or, if positive is set, zero."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name}={value!r} must be a real number")
    real = float(value)
    if not 0.0 <= real < math.inf or positive and real == 0.0:
        rule = "positive" if positive else "finite and nonnegative"
        raise ValueError(f"{name}={value} must be {rule}")
    return real


def check_k(k, m: int) -> int:
    """k as an int (check_int), or InvalidK unless 1 <= k <= m."""
    k = check_int(k, "k")
    if not 1 <= k <= m:
        raise InvalidK(f"k={k} outside [1, {m}]")
    return k


class TooFewAtoms(DltfError):
    """Coherence needs at least two atoms."""


class AllZeroCode(DltfError):
    """A recovery condition is undefined for the all-zero code."""


class BudgetExceeded(DltfError):
    """Exhaustive enumeration would exceed the subset budget."""


class DeltaOutOfRange(DltfError):
    """Isometry constant outside the range the bound is proved for."""


class DenominatorNonpositive(DltfError):
    """The norm lower bound's denominator is not positive."""


class MonotonicityViolated(DltfError):
    """A descent step increased its objective beyond the allowed slack."""


class LineSearchFailed(RuntimeWarning):
    """Backtracking exhausted its budget; the step is skipped, not fatal."""


class SingularSubproblem(DltfError):
    """A least-squares subproblem is too ill-conditioned to solve."""


class FileFormatError(DltfError):
    """A serialized container is truncated or malformed."""
