"""Spatial correlation modeling and subspace channel estimation for
holographic massive MIMO planar arrays.

The package covers the pipeline from array geometry to estimator
benchmarks: correlation matrix construction under isotropic or clustered
scattering (exact quadrature and a closed-form approximation), eigenstructure
analysis of the resulting low-rank matrices, and pilot-based channel
estimators with Monte Carlo and closed-form NMSE evaluation. The `holomimo`
CLI drives the same machinery from JSON configs.
"""

from .config import ExperimentConfig, load_config
from .correlation import (
    CorrelationMatrix,
    MatrixProvenance,
    QuadratureSpec,
    build_approx_clustered,
    build_exact_clustered,
    build_isotropic,
    correlation_matrix_distance,
    export_matrix_csv,
    load_matrix,
    quadrature_self_check,
    save_matrix,
)
from .errors import (
    AccuracyError,
    ConfigurationError,
    NumericalError,
    OracleInvalidError,
    UnsupportedModelError,
)
from .estimation import (
    ChannelEstimate,
    Estimator,
    MonteCarloNmse,
    PilotObservation,
    analytic_nmse,
    complex_normal,
    estimate_conservative_rsls,
    estimate_ls,
    estimate_mmse,
    estimate_rsls,
    monte_carlo_nmse,
    observe_pilot,
    sample_channel,
)
from .geometry import (
    ArrayGeometry,
    Direction,
    antenna_indices,
    antenna_position,
    array_response,
    normalized_offsets,
    wave_vector,
)
from .scattering import (
    Cluster,
    ScatteringConfig,
    directivity_gain,
    generate_clusters,
    isotropic_density,
    normalization_constant,
    unnormalized_cluster_density,
)
from .spectral import (
    EigenBasis,
    Spectrum,
    effective_rank,
    eigendecompose,
    rank_fraction_prediction,
    spectrum,
    subspace_containment_residual,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "ArrayGeometry",
    "ChannelEstimate",
    "Cluster",
    "ConfigurationError",
    "CorrelationMatrix",
    "Direction",
    "EigenBasis",
    "Estimator",
    "ExperimentConfig",
    "MatrixProvenance",
    "MonteCarloNmse",
    "NumericalError",
    "OracleInvalidError",
    "PilotObservation",
    "QuadratureSpec",
    "ScatteringConfig",
    "Spectrum",
    "UnsupportedModelError",
    "analytic_nmse",
    "antenna_indices",
    "antenna_position",
    "array_response",
    "build_approx_clustered",
    "build_exact_clustered",
    "build_isotropic",
    "complex_normal",
    "correlation_matrix_distance",
    "directivity_gain",
    "effective_rank",
    "eigendecompose",
    "estimate_conservative_rsls",
    "estimate_ls",
    "estimate_mmse",
    "estimate_rsls",
    "export_matrix_csv",
    "generate_clusters",
    "isotropic_density",
    "load_config",
    "load_matrix",
    "monte_carlo_nmse",
    "normalization_constant",
    "normalized_offsets",
    "observe_pilot",
    "quadrature_self_check",
    "rank_fraction_prediction",
    "sample_channel",
    "save_matrix",
    "spectrum",
    "subspace_containment_residual",
    "unnormalized_cluster_density",
    "wave_vector",
]
