"""Set-level classification of single-cell samples with kernel mean embeddings.

Pipeline: featurize cells with a frozen random Fourier map, average per
sample into a mean embedding, optionally distill each sample to m
representative cells by kernel herding, train a linear max-margin model on
the embeddings, and decompose every prediction into exact per-cell scores.
"""

from .config import PipelineConfig, derive_seed
from .data import (
    LabeledDataset,
    Manifest,
    SampleSet,
    Standardizer,
    apply_standardizer,
    arcsinh_transform,
    fit_standardizer,
    load_manifest,
    load_sample_set,
    map_samples,
    read_manifest,
    save_sample_set,
)
from .embedding import mean_embedding, naive_mean
from .errors import ConfigError, DataError, ModelFormatError, NumericalError
from .herding import HerdingResult, herd, subset, uniform_subsample
from .classifier import (
    CvReport,
    LinearModel,
    cross_validate,
    decision,
    fit_pipeline,
    load_model,
    predict_label,
    save_model,
    solve_hinge,
    train,
)
from .interpret import (
    ClusterModel,
    RegionScores,
    cell_scores,
    frequency_score_predict,
    kmeans,
    pearson,
    rank_sum_test,
    region_scores,
    score_gradient,
    train_frequency_model,
)
from .rff import (
    RffMap,
    featurize_batch,
    featurize_jacobian,
    kernel_exact,
    sample_frequencies,
)

__version__ = "0.1.0"
