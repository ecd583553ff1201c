"""Sparse low-rank tensor recovery: Tucker-factorized completion with
block-sparse anomaly diagnosis, solved by ADMM."""

from .datagen import SyntheticInstance, SyntheticSpec, generate, sparsity_report
from .metrics import DetectionRule, detection_metrics, imputation_metrics
from .preprocess import (
    ScaleTransform,
    hosvd,
    scale_revert,
    scale_transform,
    select_rank,
    tucker_smooth,
)
from .prox import group_hard_threshold_l20, hard_threshold_l0
from .solver import (
    SolveResult,
    SolverConfig,
    SolverDivergenceError,
    SolverState,
    ablation_config,
    init_state,
    solve,
)
from .stiefel import SmoothObjective, grad_U_subproblem, grad_fbeta_U, minimize_on_stiefel
from .tensor_ops import (
    fold,
    frobenius_norm,
    l0_count,
    l20_count,
    mode_n_product,
    project_observed,
    toeplitz_diff,
    toeplitz_diff_adjoint,
    tucker_reconstruct,
    unfold,
)

__version__ = "0.1.0"
