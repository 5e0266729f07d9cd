"""Post-processing for recommenders that allocate scarce items: rescale any
upstream score matrix to jointly reduce expected envy and inferiority while
preserving utility, evaluate the results deterministically, and compare
trade-off frontiers against baseline strategies."""

from .baselines import (
    CAConfig,
    CAInfo,
    RRConfig,
    SinkhornError,
    congestion_alleviation,
    naive,
    round_robin,
    shuffle,
)
from .core import (
    CountMatrix,
    DimensionError,
    MatrixFormatError,
    NumericError,
    Policy,
    ScorePair,
    load_matrix,
    load_scores,
    row_softmax,
    save_matrix,
    top_k,
)
from .datagen import GenSpec, generate
from .losses import (
    LossBreakdown,
    LossWeights,
    MCEstimate,
    expected_pair_inferiority,
    expected_user_utility,
    finite_diff_grad,
    mc_estimate,
)
from .metrics import (
    CompetitionMetrics,
    NormalizedMetrics,
    SystemMetrics,
    competition_metrics,
    gini_index,
    inferiority_by_user,
    normalized_metrics,
    system_metrics,
)
from .optim import (
    Scaling,
    TrainConfig,
    TrainingDiverged,
    TrainTrace,
    default_weight_grid,
    fit,
    loss_and_grad,
    make_training_view,
)
from .pareto import (
    Front2D,
    SolutionPoint,
    hypervolume_2d,
    make_solution,
    min_fairness_above_threshold,
    pareto_front,
)

__version__ = "0.1.0"
