"""Exception types shared across the library.

Naming follows the failure condition, not the call site: the same error class
is raised wherever that condition occurs.
"""


class ShapeMismatch(ValueError):
    """Operand dimensions do not conform."""


class NumericalFailure(RuntimeError):
    """A per-slice SVD did not converge or returned a non-finite singular value."""


class RankOutOfRange(ValueError):
    """Requested rank outside [0, min(n1, n2)]."""


class CountOutOfRange(ValueError):
    """Support size or rate outside its admissible range."""


class ZeroTensor(ValueError):
    """Operation undefined for the all-zero tensor."""


class DataError(ValueError):
    """Input data, a file or its payload, is unusable as given."""


class NonFiniteInput(DataError):
    """Input tensor contains NaN or Inf. Raised by ``core.as_finite_tensor3``
    alone, through which ``solve``, ``tprod`` (and ``is_orthogonal``),
    ``io.psnr`` and ``io.tensor_to_image`` take their tensors; the t-SVD and
    norm functions raise NumericalFailure for such a tensor instead."""


class BadMagic(DataError):
    """Tensor file does not start with the expected magic bytes."""


class Truncated(DataError):
    """Tensor file ends before the declared payload is complete."""


class DimensionOverflow(DataError):
    """Declared dimensions are zero or too large to allocate safely."""


class UnsupportedFormat(DataError):
    """Image is not binary 8-bit P6."""


class MalformedHeader(DataError):
    """Image header or payload cannot be parsed."""


class ZeroReference(DataError):
    """PSNR reference signal has zero peak."""
