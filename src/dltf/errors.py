"""Exception types shared across the library, its one integer check and
its one k-range check.

Everything raised on purpose derives from DltfError so callers can catch
library failures without also swallowing programming errors.
"""

import operator


class DltfError(Exception):
    """Base class for all library-specific errors."""


class DimensionMismatch(DltfError):
    """Operands have incompatible shapes."""


class ZeroColumn(DltfError):
    """A column with (near-)zero norm cannot be normalized."""


class InvalidK(DltfError):
    """Sparsity level outside the valid range for the operand."""


def check_int(value, name: str) -> int:
    """value as an int. A value that is not an integer (2.5, or even 4.0)
    or is a bool (an int subclass, so True would pass as 1) raises
    TypeError naming the field rather than truncating."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{name}={value!r} must be an integer")


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
