"""Deterministic laboratory for fine-tuning-based machine unlearning.

Linear side: minimum-norm training, anchored fine-tuning, retraining from
scratch, pretrained-model editing, and closed-form loss predictions that
the measured pipeline is verified against.  Classifier side: a toy
softmax model with discriminatively regularized unlearning objectives.
The ``unlearn-lab`` CLI drives both as reproducible, CSV-emitting
experiments.
"""

from .classifier import (
    ClassTask,
    LabeledSet,
    SoftmaxClassifier,
    gen_class_task,
    pretrain,
    relabel_forget,
    run_seed_grid,
    split_class,
    unlearn_ft,
)
from .errors import (
    ConfigError,
    DivergenceError,
    InconsistentSystemError,
    InvalidMatrixError,
    LayoutMismatchError,
    RegimeViolationError,
    SvdFailureError,
    UnlearnLabError,
)
from .linalg import (
    min_norm_anchor_solve,
    min_norm_solve,
    projector,
    pseudoinverse,
    svd,
    weighted_seminorm_sq,
)
from .metrics import (
    GapReport,
    Metrics,
    classifier_metrics,
    gap_report,
    measure_losses,
    mse_loss,
)
from .oracle import (
    predict_distinct,
    predict_edited,
    predict_overlap,
    within_tolerance,
)
from .scenarios import (
    FeatureLayout,
    SyntheticScenario,
    WStarDecomposition,
    decompose_w_star,
    fine_tune_subset,
    gen_scenario,
)
from .solvers import (
    EditOption,
    edit_pretrained,
    fine_tune_unlearn,
    retrain_golden,
    train_original,
)

__version__ = "0.1.0"
