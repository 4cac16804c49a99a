"""Exception types shared across the library.

Naming follows the failure condition, not the call site: the same error class
is raised wherever that condition occurs.
"""


class ShapeMismatch(ValueError):
    """Operand dimensions do not conform."""


class NumericalFailure(RuntimeError):
    """A per-slice SVD did not converge."""


class RankOutOfRange(ValueError):
    """Requested rank outside [0, min(n1, n2)]."""


class CountOutOfRange(ValueError):
    """Support size or rate outside its admissible range."""


class ZeroTensor(ValueError):
    """Operation undefined for the all-zero tensor."""


class BadMagic(ValueError):
    """Tensor file does not start with the expected magic bytes."""


class Truncated(ValueError):
    """Tensor file ends before the declared payload is complete."""


class DimensionOverflow(ValueError):
    """Declared dimensions are zero or too large to allocate safely."""


class UnsupportedFormat(ValueError):
    """Image is not binary 8-bit P6."""


class MalformedHeader(ValueError):
    """Image header or payload cannot be parsed."""


class ZeroReference(ValueError):
    """PSNR reference signal has zero peak."""
