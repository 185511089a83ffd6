"""Distance metric learning from pairwise constraints.

A Mahalanobis metric is parametrized over the top eigenvectors of the
data and learned from equivalence/inequivalence pair constraints, either
as a variational Gaussian posterior or as a penalized point estimate.
Unlabeled pairs can then be ranked by predictive entropy for active
acquisition, and metrics evaluated with a 1NN harness.
"""

from . import active, harness, kernels, metric, mle, spectral, vb
from .active import PairPool, PairScore, Scorer, entropy, laplace_posterior, plugin_posterior, score_pairs, select
from .harness import ExperimentConfig, ResultRecord, SynthSpec, report, run_active_loop, synth_data
from .metric import MetricModel, accuracy, distance, euclidean_knn, from_mle, from_posterior, knn_classify
from .mle import MleSolution, mle_fit
from .spectral import ConstraintSet, DataMatrix, EigenBasis, PairFeature, eigen_basis, load_csv, pair_feature, save_csv
from .vb import PriorConfig, VariationalPosterior, fit

__version__ = "0.1.0"

__all__ = [
    "ConstraintSet",
    "DataMatrix",
    "EigenBasis",
    "ExperimentConfig",
    "MetricModel",
    "MleSolution",
    "PairFeature",
    "PairPool",
    "PairScore",
    "PriorConfig",
    "ResultRecord",
    "Scorer",
    "SynthSpec",
    "VariationalPosterior",
    "accuracy",
    "active",
    "distance",
    "eigen_basis",
    "entropy",
    "euclidean_knn",
    "fit",
    "from_mle",
    "from_posterior",
    "harness",
    "kernels",
    "knn_classify",
    "laplace_posterior",
    "load_csv",
    "metric",
    "mle",
    "mle_fit",
    "pair_feature",
    "plugin_posterior",
    "report",
    "run_active_loop",
    "save_csv",
    "score_pairs",
    "select",
    "spectral",
    "synth_data",
    "vb",
    "__version__",
]
