"""Distance metric learning from pairwise constraints.

A Mahalanobis metric is parametrized over the top eigenvectors of the
data and learned from equivalence/inequivalence pair constraints, either
as a variational Gaussian posterior or as a penalized point estimate.
Unlabeled pairs can then be ranked by predictive entropy for active
acquisition, and metrics evaluated with a 1NN harness.

``import bdml`` loads no submodule, and so no numpy.  Each name below is
imported from its home module on first use (a PEP 562 module
``__getattr__``), so a process pays only for the modules it touches:
``bdml eval`` loads ``spectral``, ``kernels`` and ``metric`` (besides
``cli`` and its numpy-free ``config``), and none of ``harness``,
``active``, ``vb`` and ``mle``.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("active", "config", "harness", "kernels", "metric", "mle", "spectral", "vb")
_HOMES = {
    "active": ("PairPool", "PairScore", "Scorer", "entropy", "laplace_posterior",
               "plugin_posterior", "score_pairs", "select"),
    "config": ("ExperimentConfig", "SynthSpec"),
    "harness": ("ResultRecord", "report", "run_active_loop", "synth_data"),
    "metric": ("MetricModel", "accuracy", "distance", "euclidean_knn", "from_mle",
               "from_posterior", "knn_classify"),
    "mle": ("MleSolution", "mle_fit"),
    "spectral": ("ConstraintSet", "DataMatrix", "EigenBasis", "PairFeature", "eigen_basis",
                 "load_csv", "pair_feature", "save_csv"),
    "vb": ("PriorConfig", "VariationalPosterior", "fit"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted([*_HOME, *_SUBMODULES]) + ["__version__"]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")  # which binds it here
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
