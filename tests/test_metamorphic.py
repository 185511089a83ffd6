"""The whole active-learning loop is exactly invariant where the method is.

Unstandardized, the eigenbasis of the centered data turns with a rotation
of the features, ignores a shift and reorders with a column permutation,
so every pair feature, fit, selection and 1NN prediction is the same.
Standardized, each column is centered and divided by its spread, which
also cancels a shift, a common scale and a permutation.  Each case runs
every experiment strategy on the transformed CSV and asserts the same
``(strategy, repeat, iteration, accuracy)`` records as on the original
(Segura et al., "A survey on metamorphic testing", IEEE TSE 42(9), 2016).

Two transforms are left out because the method is not invariant under
them: a scale unstandardized moves the squared projections against the
fixed prior, so the fits and the picks change, and a rotation
standardized mixes the columns before they are scaled one by one, so the
basis changes.  Seeds and transforms were fixed before the first run.
"""

import numpy as np
import pytest

from bdml.config import EXPERIMENT_STRATEGIES
from bdml.harness import (
    ExperimentConfig,
    SynthSpec,
    run_active_loop,
    synth_data,
)
from bdml.spectral import DataMatrix, save_csv

DATA = synth_data(SynthSpec(classes=3, per_class=20, dim=6, spread=0.4), seed=0)
ROTATION = np.linalg.qr(np.random.default_rng(1).normal(size=(6, 6)))[0]
PERMUTATION = np.random.default_rng(2).permutation(6)
TRANSFORMS = {
    "rotation": lambda x: x @ ROTATION.T,
    "shift": lambda x: x + 5.0,
    "permutation": lambda x: x[:, PERMUTATION],
    "scale": lambda x: x * 7.0,
}
CASES = [(name, False) for name in ("rotation", "shift", "permutation")] + [
    (name, True) for name in ("shift", "scale", "permutation")]


def _records(path, x, standardize):
    save_csv(DataMatrix(x, DATA.labels), path)
    config = ExperimentConfig(
        data_csv=str(path), pool_size=20, n_test=20, initial_pairs=5, batch_size=5,
        iterations=2, repeats=2, k=3, seed=0, standardize=standardize,
        strategies=EXPERIMENT_STRATEGIES,
    )
    return [(r.strategy, r.repeat, r.iteration, r.accuracy) for r in run_active_loop(config)]


@pytest.mark.parametrize(("transform", "standardize"), CASES,
                         ids=[f"{t}-{'std' if s else 'raw'}" for t, s in CASES])
def test_the_loop_gives_the_same_records_on_transformed_data(transform, standardize, tmp_path):
    want = _records(tmp_path / "original.csv", DATA.x, standardize)
    got = _records(tmp_path / "transformed.csv", TRANSFORMS[transform](DATA.x), standardize)
    assert len(want) == len(EXPERIMENT_STRATEGIES) * 2 * 3
    assert got == want
