"""Canonical correlation analysis for densities and planar shapes via
tangent-space coordinates on unit Hilbert spheres.

Pipelines: density/shape samples -> sphere representation -> Karcher mean ->
tangent projection -> functional PCA coefficients -> CCA / canonical variate
regression, plus simulation generators and a batch CLI.
"""

import os as _os

# Pin BLAS pools to one thread before numpy loads anywhere in the package,
# so results are bitwise reproducible across runs. setdefault leaves a value
# the caller has already set in place, and the pin has no effect if numpy
# was imported before this package.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")
del _os, _var

from .errors import (  # noqa: E402
    AntipodeError,
    ConvergenceError,
    DegenerateSampleError,
    DensityNormalizationWarning,
    GeodesicOverflowError,
    GridMismatchError,
    NonMonotoneWarpError,
    NumericalError,
    RankError,
    TfccaError,
    ValidationError,
)
from .numerics import (  # noqa: E402
    DiscreteFunction,
    Grid,
    compose_warp,
    derivative,
    inner_product,
    norm,
    resample,
)
from .sphere import (  # noqa: E402
    KarcherMeanResult,
    SpherePoint,
    TangentVector,
    exp_map,
    geodesic_distance,
    karcher_mean,
    log_map,
    parallel_transport,
)
from .density import (  # noqa: E402
    Pdf,
    Srt,
    estimate_pdf,
    pdf_tangent_coordinates,
    pdf_variate_direction,
    srt,
    srt_inverse,
)
from .shape import (  # noqa: E402
    Curve,
    Registration,
    Srvf,
    optimal_rotation,
    optimal_warp,
    project_Pi,
    project_to_preshape,
    register,
    shape_distance,
    shape_karcher_mean,
    shape_tangent_coordinates,
    shape_variate_direction,
    srvf,
    srvf_inverse,
)
from .fpca import (  # noqa: E402
    CoeffMatrix,
    FpcBasis,
    TangentModeResult,
    coefficients,
    fit_fpca,
    tangent_mode_pipeline,
)
from .cca import CcaResult, cca, cca_oracle  # noqa: E402
from .cvr import (  # noqa: E402
    CvTrace,
    CvrResult,
    concordance_index,
    cvr_cross_validate,
    cvr_fit,
    cvr_predict,
)
from .simgen import (  # noqa: E402
    CurveSimSpec,
    PdfSimSpec,
    ShapeRecovery,
    gen_curve_group,
    gen_pdf_group,
    recovery_protocol_pdf,
    recovery_protocol_shape,
)

__version__ = "0.1.0"
