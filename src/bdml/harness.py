"""Experiment orchestration: datasets, oracle, active loop, reporting.

A run compares acquisition strategies under a paired design: within a
repeat, every strategy sees the same test split, the same candidate
pool and the same initial labeled pairs, and differs only in which
pairs it asks the oracle about afterwards.
"""

from __future__ import annotations

import csv
import json
import time
import zlib
from collections import Counter
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import metric, mle, vb
from .active import PairPool, Scorer, select
from .spectral import DataMatrix, EigenBasis, eigen_basis, load_csv


class Strategy(NamedTuple):
    """One row of the strategy table.

    ``fit`` names the estimator: ``"mle"`` runs ``mle.mle_fit``, ``"vb"``
    runs ``vb.fit`` and None fits nothing.  ``scorer`` is the ``Scorer``
    tag of the acquisition rule, None for a strategy that never acquires.
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
RESULT_COLUMNS = ("strategy", "repeat", "iteration", "n_pairs", "accuracy",
                  "runtime_ms", "seed")


def _seed_ints(*parts) -> list:
    """Stable integer entropy from mixed int/str parts (no builtin hash)."""
    out = []
    for p in parts:
        if isinstance(p, (int, np.integer)):
            out.append(int(p))
        else:
            out.append(zlib.crc32(str(p).encode("utf-8")))
    return out


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
    measure_runtime: bool = False

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
        vb.PriorConfig(gamma0=self.gamma0, delta=self.delta)
        if not self.reg >= 0:
            raise ValueError(f"reg must be >= 0, got {self.reg}")


@dataclass(frozen=True)
class ResultRecord:
    strategy: str
    repeat: int
    iteration: int
    n_pairs: int
    accuracy: float
    runtime_ms: float
    seed: int

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must lie in [0, 1], got {self.accuracy}")
        if self.repeat < 0 or self.iteration < 0 or self.n_pairs < 0:
            raise ValueError("indices and counts must be nonnegative")

    def to_dict(self) -> dict:
        return {c: getattr(self, c) for c in RESULT_COLUMNS}


def synth_data(spec: SynthSpec, seed) -> DataMatrix:
    """Draw the Gaussian-cluster dataset; byte-identical per seed.

    Class c gets its mean on coordinate axis c mod dim, pushed one unit
    further out for every wrap, so all class means are distinct for any
    class count.
    """
    rng = np.random.default_rng(seed)
    means = np.zeros((spec.classes, spec.dim))
    for c in range(spec.classes):
        means[c, c % spec.dim] = 1.0 + c // spec.dim
    labels = np.repeat(np.arange(spec.classes, dtype=np.int64), spec.per_class)
    x = means[labels] + spec.spread * rng.standard_normal((labels.size, spec.dim))
    return DataMatrix(x, labels)


def oracle_label(data: DataMatrix, i: int, j: int) -> int:
    """Ground-truth pair label: +1 same class, -1 different."""
    if data.labels is None:
        raise ValueError("oracle needs labeled data")
    n = data.n
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"pair ({i}, {j}) out of bounds for {n} rows")
    if i == j:
        raise ValueError("self-pair has no oracle label")
    return 1 if data.labels[i] == data.labels[j] else -1


def build_pool(data: DataMatrix, pool_size: int, seed):
    """Stratified example sample plus the complete pair pool over it.

    Allocation is round-robin across classes, so per-class counts differ
    by at most one whenever availability allows; the partial last round
    goes to seeded-random classes.  Returns the pool examples as their
    own DataMatrix and a PairPool of all m(m-1)/2 local pairs.
    """
    if data.labels is None:
        raise ValueError("stratified pool needs labeled data")
    if not 2 <= pool_size <= data.n:
        raise ValueError(f"pool_size must lie in [2, {data.n}], got {pool_size}")
    rng = np.random.default_rng(seed)
    classes = np.unique(data.labels)
    rows_by_class = {int(c): np.flatnonzero(data.labels == c) for c in classes}
    alloc = {int(c): 0 for c in classes}
    remaining = pool_size
    while remaining:
        eligible = [c for c in alloc if alloc[c] < rows_by_class[c].size]
        if len(eligible) <= remaining:
            for c in eligible:
                alloc[c] += 1
            remaining -= len(eligible)
        else:
            for pick in rng.permutation(len(eligible))[:remaining]:
                alloc[eligible[int(pick)]] += 1
            remaining = 0
    chosen = [
        rng.choice(rows_by_class[c], size=alloc[c], replace=False)
        for c in alloc
        if alloc[c]
    ]
    rows = np.sort(np.concatenate(chosen))
    pairs = np.column_stack(np.triu_indices(pool_size, 1))
    return data.subset(rows), PairPool(candidates=pairs)


def label_initial_pairs(pool: PairPool, data: DataMatrix, n: int, seed) -> PairPool:
    """Have the oracle label ``n`` candidates of ``pool``, drawn without replacement."""
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool.candidates), size=n, replace=False)
    pairs = pool.candidates[picks].tolist()
    return pool.with_labels((i, j, oracle_label(data, i, j)) for i, j in pairs)


def fit_strategy(name, constraints, data, basis, prior, reg):
    """Run the fit of strategy ``name`` and build its scorer.

    Returns ``(model, scorer, estimate)``: the metric model, the scorer,
    and the fit's own result (an ``MleSolution`` or a
    ``VariationalPosterior``).  Each is None where the strategy's table
    row has no fit or no scorer.  ``prior`` is read by the ``vb``
    fit only, ``reg`` by the ``mle`` fit only.  The fits are looked up
    on their modules at call time, so a wrapped ``vb.fit`` or
    ``mle.mle_fit`` is the one that runs.
    """
    fit, tag = STRATEGY_TABLE[name]
    model = estimate = gamma = sigma = None
    if fit == "mle":
        estimate = mle.mle_fit(constraints, data, basis, reg=reg)
        model, gamma = metric.from_mle(estimate, basis), estimate.gamma
    elif fit == "vb":
        estimate = vb.fit(constraints, data, basis, prior)
        model, gamma = metric.from_posterior(estimate, basis), estimate.mu
        sigma = estimate.sigma if tag == "BAYES_VAR" else None
    if tag is None:
        return model, None, estimate
    if tag == "RANDOM":
        return model, Scorer.random(), estimate
    return model, Scorer(tag, data, basis, gamma, sigma), estimate


@dataclass(frozen=True)
class _RepeatState:
    train: DataMatrix
    test: DataMatrix
    basis: EigenBasis
    pool_data: DataMatrix
    pool: PairPool


def _repeat_data(config: ExperimentConfig, fixed: DataMatrix | None, repeat: int) -> DataMatrix:
    """CSV data is fixed across repeats; synthetic data is redrawn."""
    if fixed is not None:
        return fixed
    return synth_data(config.synth, _seed_ints(config.seed, repeat, "data"))


def _prepare_repeat(config: ExperimentConfig, data: DataMatrix, repeat: int) -> _RepeatState:
    n = data.n
    rng_split = np.random.default_rng(_seed_ints(config.seed, repeat, "split"))
    test_rows = np.sort(rng_split.choice(n, size=config.n_test, replace=False))
    train_rows = np.setdiff1d(np.arange(n), test_rows)
    train = data.subset(train_rows)
    test = data.subset(test_rows)
    basis = eigen_basis(
        train, k=config.k, energy=config.energy,
        center=config.center, standardize=config.standardize,
    )
    pool_data, pool = build_pool(
        train, config.pool_size, _seed_ints(config.seed, repeat, "pool")
    )
    pool = label_initial_pairs(
        pool, pool_data, config.initial_pairs, _seed_ints(config.seed, repeat, "init")
    )
    return _RepeatState(
        train=train, test=test, basis=basis, pool_data=pool_data, pool=pool
    )


def _run_strategy(config, state, strategy, repeat, prior, fit_tally) -> list:
    record_seed = zlib.crc32(f"{config.seed}|{strategy}|{repeat}".encode("utf-8"))
    pool = state.pool
    records = []
    for t in range(config.iterations + 1):
        try:
            started = time.perf_counter() if config.measure_runtime else 0.0
            model, scorer, estimate = fit_strategy(
                strategy, pool.labeled, state.pool_data, state.basis, prior, config.reg
            )
            if estimate is not None:
                fit_tally[STRATEGY_TABLE[strategy].fit, estimate.converged] += 1
            if model is not None:
                predictions = metric.knn_classify(model, state.train, state.test)
            elif t == 0:  # no model, so every iteration has the same Euclidean 1NN
                predictions = metric.euclidean_knn(state.train, state.test)
            acc = metric.accuracy(predictions, state.test.labels)
            elapsed = (
                (time.perf_counter() - started) * 1000.0
                if config.measure_runtime
                else 0.0
            )
            records.append(
                ResultRecord(
                    strategy=strategy,
                    repeat=repeat,
                    iteration=t,
                    n_pairs=config.initial_pairs + t * config.batch_size,
                    accuracy=acc,
                    runtime_ms=elapsed,
                    seed=record_seed,
                )
            )
            if t < config.iterations and scorer is not None:
                chosen = select(
                    pool,
                    scorer,
                    config.batch_size,
                    _seed_ints(config.seed, strategy, repeat, "select", t),
                )
                pool = pool.with_labels(
                    (i, j, oracle_label(state.pool_data, i, j))
                    for i, j in chosen.tolist()
                )
        except Exception as exc:
            raise RuntimeError(
                f"strategy={strategy} repeat={repeat} iteration={t}: {exc}"
            ) from exc
    return records


def run_active_loop(config: ExperimentConfig, fit_tally: Counter | None = None) -> list:
    """Run every strategy for every repeat; one record per iteration.

    Repeats over a CSV dataset reshuffle only the splits; repeats over a
    synthetic spec also redraw the sample, so the averages cover sampling
    noise as well as split noise.  A ``fit_tally`` counter, if given,
    gains one count per fit under ``(fit, converged)``, where ``fit`` is
    the strategy table's ``"mle"`` or ``"vb"``.
    """
    if fit_tally is None:
        fit_tally = Counter()
    fixed = load_csv(config.data_csv) if config.data_csv is not None else None
    if fixed is not None and fixed.labels is None:
        raise ValueError("the experiment oracle needs labeled data")
    n = fixed.n if fixed is not None else config.synth.classes * config.synth.per_class
    if config.pool_size + config.n_test > n:
        raise ValueError(
            f"pool_size + n_test = {config.pool_size + config.n_test} "
            f"exceeds the {n} available examples"
        )
    prior = vb.PriorConfig(gamma0=config.gamma0, delta=config.delta)
    records = []
    for repeat in range(config.repeats):
        state = _prepare_repeat(config, _repeat_data(config, fixed, repeat), repeat)
        for strategy in config.strategies:
            records.extend(
                _run_strategy(config, state, strategy, repeat, prior, fit_tally)
            )
    return records


def convergence_warnings(fit_tally: Counter) -> list:
    """One warning per fit kind of a :func:`run_active_loop` tally that failed to converge."""
    lines = []
    for fit in ("mle", "vb"):
        failed = fit_tally[fit, False]
        if failed:
            total = failed + fit_tally[fit, True]
            lines.append(f"warning: {failed} of {total} {fit} fits did not converge")
    return lines


def report(records) -> list:
    """Aggregate records into one row per (strategy, iteration).

    Mean and sample standard deviation across repeats; a single repeat
    reports a standard deviation of exactly 0.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to report on")
    groups: dict = {}
    for r in records:
        groups.setdefault((r.strategy, r.iteration), []).append(r)
    summary = []
    for (strategy, iteration), grp in groups.items():
        accs = np.array([g.accuracy for g in grp])
        std = float(np.std(accs, ddof=1)) if accs.size > 1 else 0.0
        summary.append(
            {
                "strategy": strategy,
                "iteration": iteration,
                "n_pairs": grp[0].n_pairs,
                "repeats": accs.size,
                "mean_accuracy": float(accs.mean()),
                "std_accuracy": std,
            }
        )
    return summary


def format_report(summary) -> str:
    """Human-readable table, accuracy as mean +/- sample std."""
    lines = [f"{'strategy':<12} {'iteration':>9} {'n_pairs':>8} {'accuracy':>16}"]
    for row in summary:
        acc = f"{row['mean_accuracy']:.3f} ± {row['std_accuracy']:.3f}"
        lines.append(
            f"{row['strategy']:<12} {row['iteration']:>9} "
            f"{row['n_pairs']:>8} {acc:>16}"
        )
    return "\n".join(lines)


def write_results_csv(records, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for r in records:
            writer.writerow(
                [r.strategy, r.repeat, r.iteration, r.n_pairs,
                 repr(r.accuracy), repr(r.runtime_ms), r.seed]
            )


def write_summary_csv(summary, path) -> None:
    cols = ("strategy", "iteration", "n_pairs", "repeats",
            "mean_accuracy", "std_accuracy")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in summary:
            writer.writerow(
                [row["strategy"], row["iteration"], row["n_pairs"],
                 row["repeats"], repr(row["mean_accuracy"]),
                 repr(row["std_accuracy"])]
            )


def write_results_json(records, config: ExperimentConfig, path) -> None:
    doc = {"config": asdict(config), "records": [r.to_dict() for r in records]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
