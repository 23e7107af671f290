"""Solvency-band classification toolkit for non-life insurers.

Capabilities: CAR-band labeling of insurer-year records, seeded synthetic
data generation, correlation-based feature selection, class rebalancing
(bias-to-uniform resampling and SMOTE), gain-ratio decision trees with
confidence-factor pruning, and stratified cross-validation reporting.
"""

from types import ModuleType as _ModuleType

from .balance import BalanceTargets, nearest_neighbors, resample, smote
from .dataset import (
    ATTRIBUTE_NAMES,
    CLASS_ALPHABET,
    CSV_BASE_COLUMNS,
    ActionLevel,
    CompanyRecord,
    CsvFormatError,
    Dataset,
    SolvencyClass,
    class_distribution,
    label_from_car,
    load_csv,
    stratified_split,
    write_csv,
)
from .datagen import GeneratorSpec, generate
from .evaluate import (
    ConfusionMatrix,
    EvalReport,
    cross_validate,
    evaluate_on,
    mae,
    render_report,
    report_from_predictions,
    rmse,
    stratified_folds,
    summary_lines,
)
from .features import (
    DiscretizedView,
    FeatureSubset,
    cfs_merit,
    discretize,
    greedy_stepwise,
    merit_from_correlations,
    symmetric_uncertainty,
)
from .tree import (
    Leaf,
    LearnerParams,
    Split,
    SplitCandidate,
    TreeModel,
    TreeNode,
    best_split,
    entropy,
    grow,
    grow_unpruned,
    invert_binomial_tail,
    node_count,
    pessimistic_error,
    predict,
    prune,
)
from .tree_io import (
    ModelFormatError,
    parse,
    read_model,
    render_lines,
    render_text,
    serialize,
    write_model,
)

# every public name bound above, and the one that __getattr__ provides; submodules are not names
__all__ = sorted([name for name, value in globals().items() if not name.startswith("_")
                  and not isinstance(value, _ModuleType)] + ["PipelineConfig"])

__version__ = "0.1.0"


def __getattr__(name: str):
    # cli is imported on first use, so `python -m solvtree.cli` does not find
    # it already imported by this package
    if name == "PipelineConfig":
        from .cli import PipelineConfig

        return PipelineConfig
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
