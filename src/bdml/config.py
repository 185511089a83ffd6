"""What the command line parses into: the strategy table and the run options.

This module imports no numpy, so the parser is built without loading the
fitting code.  The model options are checked by ``vb`` and ``mle``'s own
rules, which are imported when a config is built (see :func:`model_prior`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple


class Strategy(NamedTuple):
    """One row of the strategy table.

    ``fit`` names the estimator: ``"mle"`` runs ``mle.fit_many``,
    ``"vb"`` runs ``vb.fit_many`` and None fits nothing (see ``harness._fit_all``).
    ``scorer`` is the ``Scorer`` tag of the acquisition rule, None for a
    strategy that never acquires.
    """

    fit: str | None
    scorer: str | None


STRATEGY_TABLE = {
    "RANDOM": Strategy(None, "RANDOM"),
    "RANDOM_MLE": Strategy("mle", "RANDOM"),
    "MLE_ACT": Strategy("mle", "MLE_ACT"),
    "BAYES_ACT": Strategy("vb", "BAYES_ACT"),
    "BAYES_VAR": Strategy("vb", "BAYES_VAR"),
    "EUCLID": Strategy(None, None),
}
EXPERIMENT_STRATEGIES = ("RANDOM_MLE", "MLE_ACT", "BAYES_ACT", "BAYES_VAR", "EUCLID")
# the Scorer tags, which are also the strategies score-pairs offers
STRATEGIES = ("RANDOM", "MLE_ACT", "BAYES_ACT", "BAYES_VAR")


def model_prior(gamma0, delta, reg):
    """The VB prior of ``gamma0`` and ``delta``, once they and the MLE ridge
    ``reg`` pass their rules; ``run`` and ``score-pairs`` check all three
    whatever strategies they fit."""
    from . import mle, vb

    prior = vb.PriorConfig(gamma0=gamma0, delta=delta)
    mle._check_reg(reg)
    return prior


@dataclass(frozen=True)
class SynthSpec:
    """Gaussian clusters: class means on unit axes, isotropic spread."""

    classes: int = 3
    per_class: int = 20
    dim: int = 10
    spread: float = 0.4

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError("need at least 2 classes")
        if self.per_class < 2:
            raise ValueError("need at least 2 examples per class")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if not self.spread > 0:
            raise ValueError("spread must be positive")


@dataclass(frozen=True)
class ExperimentConfig:
    data_csv: str | None = None
    synth: SynthSpec | None = None
    pool_size: int = 50
    n_test: int = 100
    initial_pairs: int = 10
    batch_size: int = 20
    iterations: int = 5
    strategies: tuple = EXPERIMENT_STRATEGIES
    gamma0: float = 1.0
    delta: float = 1.0
    k: int | None = None
    energy: float = 0.95
    center: bool = True
    standardize: bool = True
    reg: float = 1e-6
    repeats: int = 10
    seed: int = 0

    def __post_init__(self):
        if (self.data_csv is None) == (self.synth is None):
            raise ValueError("exactly one of data_csv and synth must be given")
        if self.pool_size < 2:
            raise ValueError("pool_size must be at least 2")
        if self.n_test < 1 or self.initial_pairs < 1 or self.batch_size < 1:
            raise ValueError("n_test, initial_pairs and batch_size must be positive")
        if self.iterations < 0 or self.repeats < 1:
            raise ValueError("iterations must be >= 0 and repeats >= 1")
        budget = self.initial_pairs + self.batch_size * self.iterations
        available = self.pool_size * (self.pool_size - 1) // 2
        if budget > available:
            raise ValueError(
                f"label budget {budget} exceeds the {available} pairs "
                f"a pool of {self.pool_size} examples offers"
            )
        strategies = tuple(self.strategies)
        if not strategies:
            raise ValueError("at least one strategy required")
        for s in strategies:
            if s not in EXPERIMENT_STRATEGIES:
                raise ValueError(f"unknown strategy {s!r}")
        if len(set(strategies)) != len(strategies):
            raise ValueError("duplicate strategies")
        object.__setattr__(self, "strategies", strategies)
        model_prior(self.gamma0, self.delta, self.reg)
