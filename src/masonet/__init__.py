"""Deep networks as compositions of max-affine spline operators.

Each layer is a spline with per-unit regions; inference selects a region
(hard, soft, or beta-weighted), which makes every network an exact
input-conditioned affine map.  The package covers the forward/backward
machinery, the affine decomposition and its analytics, input-space
partition tools, and direct max-affine fitting.
"""

from .analysis import (
    AffineForm,
    class_templates,
    convexity_probe,
    decompose,
    partial_product_norms,
    resnet_ensemble_terms,
)
from .layers import (
    Activation,
    AvgPool,
    BatchNorm,
    Conv,
    Dense,
    MaxPool,
    Network,
    SkipBlock,
    apodized_reconstruct,
    compose_layer_maso,
    conv_to_matrix,
    make_mlp,
    network_forward,
    network_forward_batch,
    pool_regions_2d,
    slope_nonnegativity,
)
from .learn import (
    Gradients,
    TrainConfig,
    accuracy,
    backward,
    cross_entropy,
    forward_loss,
    gram_schmidt,
    joint_map_factorial,
    ortho_penalty_filters,
    ortho_penalty_templates,
    train,
)
from .maso import (
    BetaParam,
    HardSelection,
    MasoParams,
    SoftSelection,
    beta_vq_infer,
    codes_from_offset_perturbation,
    entropy_objective,
    forward_hard,
    forward_with_selection,
    kmeans_codes,
    region_prior,
    scores,
    selection_to_affine,
    svq_infer,
)
from .ndcore import (
    AmbiguityError,
    DegeneracyError,
    DivergenceError,
    DomainError,
    MasonetError,
    PreconditionError,
    ShapeError,
    StructureError,
    ValidationError,
    WindowError,
    as_tensor,
    row_argmax,
    row_softmax,
)
from .partition import (
    LayerCode,
    RegionTable,
    grid_scan,
    layer_code,
    layer_codes_batch,
    nearest_neighbors,
    region_stats,
    vq_distance,
)
from .splinefit import (
    FitProblem,
    fit_max_affine,
    sup_error,
    universality_curve,
)

__version__ = "0.1.0"
