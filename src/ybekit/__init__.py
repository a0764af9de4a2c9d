"""ybekit: braid and Temperley-Lieb representations, Yang-Baxter R-matrix
families, the factorized three-body scattering matrix in tensor and
fusion-space forms, and l1-norm / entropy landscapes with their GHZ and W
critical points."""

__version__ = "0.1.0"

from .braiding import (
    BraidRep,
    TLRep,
    bell_braid,
    braid_from_tl,
    check_braid_relations,
    check_tl_relations,
    permutation_matrix,
    quantum_dimension,
    tl_type1_local,
    tl_type2_local,
)
from .entanglement import (
    binary_entropy,
    cut_entropy,
    entanglement_report,
    weighted_l1,
)
from .fusionbasis import (
    FusionBasis,
    fusion_basis_type1,
    fusion_basis_type2,
    reduce_operator,
    reduce_three_body,
)
from .landscape import (
    FUNCTIONS,
    AxisSpec,
    CriticalPoint,
    find_critical_points,
    sample,
)
from .rmatrix import (
    RMatrixFamily,
    bundled_families,
    check_ybe,
    type1_r_4x4,
    type2_r_4x4,
)
from .tensor import (
    kron,
    kron_all,
)
from .threebody import (
    AngleTriple,
    BETA_STAR,
    ConstraintViolation,
    ScatterParams,
    angles_to_params,
    constrained_triple,
    fusion_form,
    fusion_row,
    product_form,
    random_constrained_triple,
    state_coordinates,
    state_from_params,
)
