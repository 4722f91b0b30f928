"""Exception hierarchy shared by all tfcca modules.

Two broad families matter to callers: input problems (ValidationError and
subclasses) and numerical failures (NumericalError and subclasses). The CLI
maps them to exit codes 2 and 3 respectively.
"""


class TfccaError(Exception):
    """Base class for all library errors."""


class ValidationError(TfccaError):
    """Invalid input: bad shapes, broken invariants, infeasible requests."""


class GridMismatchError(ValidationError):
    """Operands live on different grids or have different value dimensions."""


class DegenerateSampleError(ValidationError):
    """A sample carries no usable information (e.g. all values identical)."""


class RankError(ValidationError):
    """Requested rank exceeds what the data can support."""


class GeodesicOverflowError(ValidationError):
    """A requested geodesic step reaches or exceeds length pi."""


class NumericalError(TfccaError):
    """A numerical procedure failed (non-convergence, ill-conditioning)."""


class AntipodeError(NumericalError):
    """Inverse-exponential map requested at (or too near) the antipode."""


class ConvergenceError(NumericalError):
    """An iterative procedure did not converge within its iteration cap."""


class DensityNormalizationWarning(UserWarning):
    """A density's integral drifted from 1 and was silently renormalized."""
