"""Experiment orchestration: datasets, oracle, active loop, reporting.

A run compares acquisition strategies under a paired design: within a
repeat, every strategy sees the same test split, the same candidate
pool and the same initial labeled pairs, and differs only in which
pairs it asks the oracle about afterwards.  The (repeat, strategy) runs
advance in lockstep, so each iteration's variational and MLE fits can be
solved as stacks (see :func:`run_active_loop`).
"""

from __future__ import annotations

import csv
import json
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from . import metric, mle, vb
from .active import PairPool, Scorer, select
from .spectral import DataMatrix, EigenBasis, _freeze, eigen_basis, feature_matrix, load_csv


class Strategy(NamedTuple):
    """One row of the strategy table.

    ``fit`` names the estimator: ``"mle"`` runs ``mle.fit_many``,
    ``"vb"`` runs ``vb.fit_many`` and None fits nothing (see :func:`_fit_all`).
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


def oracle_label(data: DataMatrix, i, j):
    """Ground-truth pair label: +1 same class, -1 different; for index arrays, one per pair."""
    if data.labels is None:
        raise ValueError("oracle needs labeled data")
    i, j = np.broadcast_arrays(i, j)
    outside = np.flatnonzero((np.minimum(i, j) < 0) | (np.maximum(i, j) >= data.n))
    if outside.size:
        a, b = i.flat[outside[0]], j.flat[outside[0]]
        raise IndexError(f"pair ({a}, {b}) out of bounds for {data.n} rows")
    if np.any(i == j):
        raise ValueError("self-pair has no oracle label")
    y = np.where(data.labels[i] == data.labels[j], 1, -1)
    return int(y) if y.ndim == 0 else y


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
    picks = np.random.default_rng(seed).choice(len(pool.candidates), size=n, replace=False)
    return pool.with_labels_at(picks, oracle_label(data, *pool.candidates[picks].T))


def fit_strategy(name, constraints, data, basis, prior, reg):
    """Run the fit of strategy ``name`` and build its scorer.

    Returns ``(model, scorer, estimate)``: the metric model, the scorer,
    and the fit's own result (an ``MleSolution`` or a
    ``VariationalPosterior``).  Each is None where the strategy's table
    row has no fit or no scorer.  ``prior`` is read by the ``vb``
    fit only, ``reg`` by the ``mle`` fit only.
    """
    problem = (feature_matrix(data, basis, constraints.pairs), constraints.labels)
    [estimate] = _fit_all(STRATEGY_TABLE[name].fit, [problem], prior, reg)
    return (*_model_and_scorer(name, estimate, data, basis), estimate)


def _fit_all(fit, problems, prior, reg):
    """One estimate per ``(features, labels)`` problem, by fit kind.

    ``"mle"`` fits the problems as one :func:`mle.fit_many` stack, ``"vb"``
    as one :func:`vb.fit_many` stack (so they must share their shape), and
    None fits nothing.  The fits are looked up on their modules at call
    time, so a wrapped one is the one that runs.
    """
    if fit is None:
        return [None] * len(problems)
    stacks = (np.stack(a) for a in zip(*problems))
    if fit == "mle":
        return mle.fit_many(*stacks, reg=reg)
    return vb.fit_many(*stacks, prior)


def _model_and_scorer(name, estimate, data, basis):
    """``(model, scorer)`` of strategy ``name`` given its fit's ``estimate``."""
    fit, tag = STRATEGY_TABLE[name]
    model = gamma = sigma = None
    if fit == "mle":
        model, gamma = metric.from_mle(estimate, basis), estimate.gamma
    elif fit == "vb":
        model, gamma = metric.from_posterior(estimate, basis), estimate.mu
        sigma = estimate.sigma if tag == "BAYES_VAR" else None
    if tag is None:
        return model, None
    if tag == "RANDOM":
        return model, Scorer.random()
    return model, Scorer(tag, data, basis, gamma, sigma)


@dataclass(frozen=True)
class _RepeatState:
    """One repeat's split, basis, initial pool and the feature table of its candidates."""

    train: DataMatrix
    test: DataMatrix
    basis: EigenBasis
    pool_data: DataMatrix
    pool: PairPool
    features: np.ndarray


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
    features = _freeze(feature_matrix(pool_data, basis, pool.candidates))
    return _RepeatState(train, test, basis, pool_data, pool, features)


@dataclass
class _Run:
    """One strategy on one repeat: its labeled pool grows, its records accrue."""

    strategy: str
    repeat: int
    state: _RepeatState
    pool: PairPool
    seed: int
    records: list = field(default_factory=list)
    predictions: np.ndarray | None = None  # EUCLID's, kept from iteration 0

    def problem(self):
        """The run's labeled rows of the feature table and their labels, in candidate order."""
        at = self.pool.labels != 0
        return self.state.features[at], self.pool.labels[at].astype(np.float64)


@contextmanager
def _blamed_on(run: _Run, t: int):
    """Re-raise any error as a RuntimeError naming the run and iteration."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(
            f"strategy={run.strategy} repeat={run.repeat} iteration={t}: {exc}"
        ) from exc


def _fit_iteration(runs, t, prior, reg):
    """Every run's fit at iteration ``t``.

    Runs sharing the fit kind and the shape of their problem (constraint
    count, basis size) are fitted by one :func:`_fit_all` call.
    """
    problems = [run.problem() for run in runs]
    groups = {}
    for n, (run, (w, _)) in enumerate(zip(runs, problems)):
        groups.setdefault((STRATEGY_TABLE[run.strategy].fit, w.shape), []).append(n)
    estimates = [None] * len(runs)
    for (fit, _), members in groups.items():
        try:
            fitted = _fit_all(fit, [problems[n] for n in members], prior, reg)
        except Exception:
            for n in members:  # refit one by one, so the error names its run
                with _blamed_on(runs[n], t):
                    _fit_all(fit, [problems[n]], prior, reg)
            raise
        for n, estimate in zip(members, fitted):
            estimates[n] = estimate
    return estimates


def _advance(config, run: _Run, t, estimate, fit_tally) -> None:
    """Record the accuracy of the run's fit at iteration ``t``, then label its next batch."""
    state = run.state
    if estimate is not None:
        fit_tally[STRATEGY_TABLE[run.strategy].fit, estimate.converged] += 1
    model, scorer = _model_and_scorer(run.strategy, estimate, state.pool_data, state.basis)
    if model is not None:
        run.predictions = metric.knn_classify(model, state.train, state.test)
    elif t == 0:  # no model, so every iteration has the same Euclidean 1NN
        run.predictions = metric.euclidean_knn(state.train, state.test)
    acc = metric.accuracy(run.predictions, state.test.labels)
    n_pairs = config.initial_pairs + t * config.batch_size
    run.records.append(
        ResultRecord(run.strategy, run.repeat, t, n_pairs, acc, 0.0, run.seed)
    )
    if t < config.iterations and scorer is not None:
        seed = _seed_ints(config.seed, run.strategy, run.repeat, "select", t)
        chosen = select(run.pool, state.features, scorer, config.batch_size, seed)
        answers = oracle_label(state.pool_data, *run.pool.candidates[chosen].T)
        run.pool = run.pool.with_labels_at(chosen, answers)


def run_active_loop(config: ExperimentConfig, fit_tally: Counter | None = None) -> list:
    """Run every strategy for every repeat; one record per iteration.

    Repeats over a CSV dataset reshuffle only the splits; repeats over a
    synthetic spec also redraw the sample, so the averages cover sampling
    noise as well as split noise.  A ``fit_tally`` counter, if given,
    gains one count per fit under ``(fit, converged)``, where ``fit`` is
    the strategy table's ``"mle"`` or ``"vb"``.

    The runs move in lockstep: every repeat is prepared first, then all
    (repeat, strategy) runs take iteration 0, then iteration 1, and so
    on.  Within an iteration the fits of runs that share a fit kind,
    constraint count and basis size go through one :func:`_fit_all`
    call, which solves them as one ``vb.fit_many`` or ``mle.fit_many``
    stack; selection (from the repeat's feature table) and 1NN run per
    run.  Every seed derives from (seed, strategy, repeat,
    iteration), so the order changes no result, and the records come
    out ordered by repeat, strategy and iteration.  ``runtime_ms`` is
    always 0.0.
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
    runs = []
    for repeat in range(config.repeats):
        state = _prepare_repeat(config, _repeat_data(config, fixed, repeat), repeat)
        runs.extend(
            _Run(strategy, repeat, state, state.pool,
                 zlib.crc32(f"{config.seed}|{strategy}|{repeat}".encode("utf-8")))
            for strategy in config.strategies
        )
    for t in range(config.iterations + 1):
        estimates = _fit_iteration(runs, t, prior, config.reg)
        for run, estimate in zip(runs, estimates):
            with _blamed_on(run, t):
                _advance(config, run, t, estimate, fit_tally)
    return [record for run in runs for record in run.records]


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
