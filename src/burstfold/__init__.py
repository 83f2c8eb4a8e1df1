"""Burst-error decoding of evaluation codes in quasi-linear time.

The pipeline: evaluate polynomials on a coset of an affine group (a subspace
translated and scaled inside GF(q)) with a radix-chain transform, fold a
received word into a short interleaved quotient code, and correct burst
errors either by sweeping erasure windows (list decoding) or by locating the
burst through root runs of a check polynomial (probabilistic unique
decoding).  Hermitian-curve codes ride the same machinery after quotienting
out the curve's covering of the x-line.
"""

from .errors import (
    BurstfoldError,
    ConfigInfeasible,
    CyclicStructureAbsent,
    DependentBasis,
    DetectedFailure,
    DimensionOutOfRange,
    DivisionByZero,
    DuplicateAbscissa,
    DuplicatePoints,
    FieldOrderMismatch,
    FieldTooLarge,
    GammaInKernel,
    IndexOutsideBasis,
    InvalidSymbol,
    LambdaTooSmall,
    LengthMismatch,
    LevelOutOfRange,
    NoRootRun,
    NoSuchOrder,
    NonDivisor,
    NonPrimeCharacteristic,
    NotACodeword,
    ReducibleModulus,
    SmoothnessExceeded,
    WindowTooLong,
)
from .fields import (
    AffineGroupSpec,
    Field,
    LinearizedPoly,
    default_subspace_basis,
    element_of_order,
    enumerate_coset_points,
    get_field,
    infer_subfield_order,
    linearized_polynomial,
)
from .gfft import (
    GfftPlan,
    composite_derivative,
    dit_exponents,
    plan_build,
)
from .folding import (
    burst_span,
    fold,
    folded_burst_bound,
    is_burst,
    is_cyclic_burst,
    row_dims,
    unfold,
)
from .rs import (
    RsCode,
    WuBatch,
    WuOutcome,
    check_polynomial,
    erasure_decode,
    longest_root_run,
    syndrome,
    wu_decode,
    wu_decode_batch,
)
from .decoders import (
    UniqueOutcome,
    default_unique_radius,
    interleaved_list_decode,
    interleaved_unique_decode,
    list_decode,
    list_decode_batch,
    unique_decode,
    unique_decode_batch,
)
from .hermitian import (
    HermitianCode,
    HermitianCurve,
    ag_unique_decode,
    ag_unique_decode_batch,
    rr_basis,
    staircase_dims,
)

__version__ = "0.1.0"
