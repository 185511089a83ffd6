"""Both fits recover a planted metric from labels drawn by its own likelihood.

Each constraint row is (-1, chi2_1 * s) with one scale s per basis
coordinate, and its label is +1 with probability sigma(-gamma*.w), the
``p_plus`` every scorer gives a pair at gamma*.  The seeds, sizes and the
5 sd bound were fixed before any fit was run against them.
"""

import numpy as np
import pytest
from scipy.special import expit

from bdml import mle, vb

SEEDS = (0, 1, 2, 3, 4)
SCALES = np.linspace(0.2, 1.5, 5)
GAMMA = np.array([2.0, 3.0, 1.0, 0.0, 0.5, 0.0])  # threshold first, then the k=5 weights
SMALL, LARGE = 250, 4000  # the small problem is the first SMALL rows of the large one
BOUND_SD = 5.0


def _problems():
    """(seeds, LARGE, 6) feature rows and their ±1 labels, one problem per seed."""
    w, y = [], []
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        chi2 = rng.chisquare(1.0, (LARGE, SCALES.size))
        rows = np.column_stack([-np.ones(LARGE), chi2 * SCALES])
        w.append(rows)
        y.append(np.where(rng.random(LARGE) < expit(-(rows @ GAMMA)), 1.0, -1.0))
    return np.stack(w), np.stack(y)


FITS = {  # each fit's estimate of gamma, and the prior precision it adds to the information
    "vb": (lambda w, y: vb.fit_many(w, y, vb.PriorConfig()).mu_raw, vb.PriorConfig().delta),
    "mle": (lambda w, y: mle.fit_many(w, y).gamma, 0.0),
}


@pytest.fixture(scope="module")
def problems():
    return _problems()


@pytest.mark.parametrize("fit", sorted(FITS))
def test_a_large_fit_lies_within_five_sd_of_the_planted_metric(fit, problems):
    estimate, delta = FITS[fit]
    w, y = problems
    gamma = estimate(w, y)
    z = w @ GAMMA
    curvature = expit(z) * expit(-z)
    information = np.einsum("rm,rmi,rmj->rij", curvature, w, w) + delta * np.eye(GAMMA.size)
    sd = np.sqrt(np.diagonal(np.linalg.inv(information), axis1=-2, axis2=-1))
    assert np.all(np.abs(gamma - GAMMA) <= BOUND_SD * sd), (gamma - GAMMA) / sd


@pytest.mark.parametrize("fit", sorted(FITS))
def test_the_median_error_falls_from_the_small_to_the_large_fit(fit, problems):
    # per seed the fall is not sure: the weakest coordinate (gamma* 3 at scale 0.2) has an
    # sd of about 0.17 at LARGE, and MLE's seed 3 misses it by 0.40 there, for an error of
    # 0.44 against 0.40 at SMALL; scipy's L-BFGS-B finds the same two optima
    estimate, _ = FITS[fit]
    w, y = problems
    small = np.linalg.norm(estimate(w[:, :SMALL], y[:, :SMALL]) - GAMMA, axis=-1)
    large = np.linalg.norm(estimate(w, y) - GAMMA, axis=-1)
    assert np.median(large) < np.median(small), (small, large)
