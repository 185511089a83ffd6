"""What the command line parses into: the strategy table and the run options.

This module imports no numpy, so the parser is built without loading the
fitting code.  The model options are checked by ``vb`` and ``mle``'s own
rules, which are imported when a config is built (see :func:`model_prior`).
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from typing import NamedTuple


class Strategy(NamedTuple):
    """One row of the strategy table.

    ``fit`` names the estimator: ``"mle"`` fits a stack of problems by ``mle.fit_many``
    into one ``MleSolution``, ``"vb"`` by ``vb.fit_many`` into one
    ``VariationalPosterior`` (see ``harness._fit_all``), and None fits nothing.
    ``scorer`` is the ``Scorer`` tag of the acquisition rule, an ``active.RULES`` key, None
    for a strategy that never acquires; ``score-pairs`` offers this column's tags.
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


def model_prior(gamma0, delta, reg, seed):
    """The VB prior of ``gamma0`` and ``delta``, once they, the MLE ridge ``reg``
    and the ``seed`` pass their rules; ``run`` and ``score-pairs`` check all
    four whatever strategies they fit, before they read any data."""
    from . import mle, vb

    prior = vb.PriorConfig(gamma0=gamma0, delta=delta)
    mle._check_reg(reg)
    if seed < 0:  # numpy's generators refuse it without naming it
        raise ValueError(f"seed must be >= 0, got {seed}")
    return prior


def _check_counts(obj, *names) -> None:
    """Name the first field of ``names`` that is a bool or not an integer, and store
    each as a Python int: a numpy integer passes and is written to JSON as an int."""
    for name in names:
        value = getattr(obj, name)
        try:
            count = operator.index(None if isinstance(value, bool) else value)
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None
        object.__setattr__(obj, name, count)


def _check_scalars(obj, flags=(), numbers=()) -> None:
    """Name the first field that is not what JSON writes: each of ``flags`` must be a
    Python bool, each of ``numbers`` a Python int or float and no bool.  A numpy bool
    or float32 is refused, not converted; an np.float64 is a float and passes."""
    for name in (*flags, *numbers):
        value = getattr(obj, name)
        if isinstance(value, bool) != (name in flags) or not isinstance(value, (int, float)):
            kind = "a bool" if name in flags else "an int or float"
            raise ValueError(f"{name} must be {kind}, got {value!r}")


@dataclass(frozen=True)
class SynthSpec:
    """Gaussian clusters: class means on unit axes, isotropic spread."""

    classes: int = 3
    per_class: int = 20
    dim: int = 10
    spread: float = 0.4

    def __post_init__(self):
        _check_counts(self, "classes", "per_class", "dim")
        _check_scalars(self, numbers=("spread",))
        if self.classes < 2:
            raise ValueError("need at least 2 classes")
        if self.per_class < 2:
            raise ValueError("per_class must be at least 2 (examples per class)")
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if not 0 < self.spread < float("inf"):
            raise ValueError(f"spread must be positive and finite, got {self.spread}")


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
        if self.data_csv is not None:  # a path object is kept as its str, which JSON can write
            object.__setattr__(self, "data_csv", os.fspath(self.data_csv))
        _check_counts(self, "pool_size", "n_test", "initial_pairs", "batch_size", "iterations",
                      "repeats", "seed", *(("k",) if self.k is not None else ()))
        _check_scalars(self, ("center", "standardize"), ("gamma0", "delta", "energy", "reg"))
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
        model_prior(self.gamma0, self.delta, self.reg, self.seed)
