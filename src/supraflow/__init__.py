"""Topic-state diffusion on interconnected multilayer networks.

Assembles supra-Laplacian operators over networks of agents and documents,
predicts per-node topic-state evolution under closed and open (stochastic)
diffusion, fits diffusion constants and learns the full operator from snapshot
histories, refines predictions with a discrete Kalman filter under partial
observation, and analyzes structural robustness via spectral perturbation.
"""

from .errors import NumericalError, ValidationError
from .network import (
    DiffusionConstants,
    InterconnectedNetwork,
    InterLayerCoupling,
    LayerGraph,
    LayerKind,
    SupraLaplacian,
    assemble_supra_laplacian,
    build_laplacian,
    load_network,
    save_network,
    scale_inter_layer,
)
from .states import (
    StateMatrix,
    knn_similarity,
    read_states_csv,
    write_states_csv,
)
from .diffusion import (
    NoiseModel,
    SimulationConfig,
    SimulationPath,
    ensemble_statistics,
    matrix_exponential,
    propagate_closed,
    simulate_ensemble,
    simulate_open,
)
from .calibration import (
    DiffusionFit,
    LearnedOperator,
    SnapshotSeries,
    devectorize,
    fit_diffusion_constants,
    learn_supra_operator,
    one_step_predict_learned,
    vectorize,
)
from .kalman import (
    FilterResult,
    KalmanState,
    ObservationModel,
    kalman_predict,
    kalman_update,
    nested_masks,
    run_filter,
)
from .spectral import (
    SpectralSummary,
    SweepPoint,
    connectivity_sweep,
    kernel_rayleigh_quotients,
    lambda2_perturbation_estimate,
    spectrum,
)
from .synthetic import LayerSpec, PlantedTruth, SyntheticSpec, generate_synthetic
from .harness import (
    ExperimentConfig,
    ExperimentResult,
    coupling_strength_sweep,
    error_measure,
    external_influence_sweep,
    run_experiment,
    upper_bound_series,
)

__version__ = "0.1.0"

__all__ = [
    "DiffusionConstants",
    "DiffusionFit",
    "ExperimentConfig",
    "ExperimentResult",
    "FilterResult",
    "InterconnectedNetwork",
    "InterLayerCoupling",
    "KalmanState",
    "LayerGraph",
    "LayerKind",
    "LayerSpec",
    "LearnedOperator",
    "NoiseModel",
    "NumericalError",
    "ObservationModel",
    "PlantedTruth",
    "SimulationConfig",
    "SimulationPath",
    "SnapshotSeries",
    "SpectralSummary",
    "StateMatrix",
    "SupraLaplacian",
    "SweepPoint",
    "SyntheticSpec",
    "ValidationError",
    "assemble_supra_laplacian",
    "build_laplacian",
    "connectivity_sweep",
    "coupling_strength_sweep",
    "devectorize",
    "ensemble_statistics",
    "error_measure",
    "external_influence_sweep",
    "fit_diffusion_constants",
    "generate_synthetic",
    "kalman_predict",
    "kalman_update",
    "kernel_rayleigh_quotients",
    "knn_similarity",
    "lambda2_perturbation_estimate",
    "learn_supra_operator",
    "load_network",
    "matrix_exponential",
    "nested_masks",
    "one_step_predict_learned",
    "propagate_closed",
    "read_states_csv",
    "run_experiment",
    "run_filter",
    "save_network",
    "scale_inter_layer",
    "simulate_ensemble",
    "simulate_open",
    "spectrum",
    "upper_bound_series",
    "vectorize",
    "write_states_csv",
]
