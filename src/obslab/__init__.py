"""obslab: desk-scale laboratory for geometric control conditions,
uncertainty principles, resolvent estimates, and Schrodinger observability
costs on periodic boxes."""

__version__ = "0.1.0"

from .fields import (
    ObservationField,
    evaluate,
    family_catalog,
    field_from_config,
    load_grid,
    make_field,
    mollify,
    save_grid,
)
from .geometry import (
    CombProfile,
    Direction,
    LineSegment,
    RectangleSpec,
    comb_gcc_check,
    comb_profile,
    gcc_constant,
    line_average,
    rectangle_density,
    rectangle_density_inf,
    relative_density_1d,
)
from .covering import (
    Certificate,
    CertifyReport,
    CoveringEntry,
    EffectiveCovering,
    RationalDirection,
    bezout_bounded,
    comb_gcc_certify,
    covering_from_dict,
    covering_to_dict,
    default_covering_builder,
    dirichlet_direction,
    farey_directions,
    periodic_effective_covering,
    product_effective_covering,
    verify_covering,
)
from .construct import (
    AlmostPeriodicPartition,
    BallSystem,
    SmoothMinorant,
    TransferResult,
    build_partition,
    bump_template,
    derivative_bounds,
    smooth_minorant,
    transfer_function,
)
from .spectral import (
    FrequencyMask,
    SpectralReport,
    annulus_containment,
    build_mask,
    calibrate_m,
    compression_matrix,
    low_freq_extension_check,
    resolvent_constant,
    resolvent_sweep,
    uncertainty_constant,
)
from .evolution import (
    GramianReport,
    PropagatorSpec,
    arb_time_shape_check,
    cost_curve,
    miller_cost,
    nyquist_nodes,
    observability_gramian,
    propagate,
)
