"""Experiment orchestration: datasets, oracle, active loop, reporting.

A run compares acquisition strategies under a paired design: within a
repeat, every strategy sees the same test split, the same candidate
pool and the same initial labeled pairs, and differs only in which
pairs it asks the oracle about afterwards.  The (repeat, strategy) runs
advance in lockstep: each iteration fits, evaluates, selects and labels
for all of them as stacks (see :func:`run_active_loop`).
"""

from __future__ import annotations

import json
import zlib
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import metric, mle, spectral, vb
from .active import READS_SIGMA, PairPool, Scorer, label_many, select_many
from .config import (  # the run options and strategy table, kept importable from here
    EXPERIMENT_STRATEGIES, STRATEGY_TABLE, ExperimentConfig, Strategy, SynthSpec,
)
from .spectral import DataMatrix, EigenBasis, _freeze, eigen_basis, feature_matrix, load_csv


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


RESULT_COLUMNS = tuple(f.name for f in fields(ResultRecord))


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


def oracle_label(data, i, j):
    """Ground-truth pair label: +1 same class, -1 different; for index arrays, one per pair.
    ``data`` is a DataMatrix or a stack's (r, n) class labels, with i and j of shape (r, b)."""
    classes = data.labels if isinstance(data, DataMatrix) else data
    if classes is None:
        raise ValueError("oracle needs labeled data")
    i, j = np.broadcast_arrays(i, j)
    spectral._check_pairs(i, j, classes.shape[-1], "oracle label")
    at = classes.shape[:-1] + (-1,)
    same = (np.take_along_axis(classes, i.reshape(at), -1)
            == np.take_along_axis(classes, j.reshape(at), -1))
    y = np.where(same, 1, -1).reshape(i.shape)
    return int(y) if y.ndim == 0 else y


def build_pool(data: DataMatrix, pool_size: int, seed):
    """The stratified sample of :func:`_pool_rows` as its own DataMatrix, and the
    PairPool of all its m(m-1)/2 local pairs."""
    return data.subset(_pool_rows(data, pool_size, seed)), _all_pairs(pool_size)


def _all_pairs(m: int) -> PairPool:
    """The unlabeled PairPool of every pair of ``m`` examples, in canonical order."""
    return PairPool(candidates=np.column_stack(np.triu_indices(m, 1)))


def _pool_rows(data: DataMatrix, pool_size: int, seed) -> np.ndarray:
    """The sorted rows of ``data`` drawn as a stratified pool of ``pool_size``.

    Allocation water-fills the classes: with L the largest level where
    sum(min(size_c, L)) <= pool_size, class c takes min(size_c, L) rows, so
    per-class counts differ by at most one whenever availability allows, and
    the rows left go one each to seeded-random classes larger than L.
    """
    if data.labels is None:
        raise ValueError("stratified pool needs labeled data")
    if not 2 <= pool_size <= data.n:
        raise ValueError(f"pool_size must lie in [2, {data.n}], got {pool_size}")
    rng = np.random.default_rng(seed)
    class_of = np.unique(data.labels, return_inverse=True)[1]
    sizes = np.bincount(class_of)
    # L is the largest of (pool_size - the i smallest sizes) // (the classes left)
    ordered = np.sort(sizes)
    level = ((pool_size - np.cumsum(ordered) + ordered) // np.arange(len(sizes), 0, -1)).max()
    alloc, eligible = np.minimum(sizes, level), np.flatnonzero(sizes > level)
    if remaining := pool_size - alloc.sum():
        alloc[eligible[rng.permutation(len(eligible))[:remaining]]] += 1
    chosen = [rng.choice(np.flatnonzero(class_of == c), size=alloc[c], replace=False)
              for c in np.flatnonzero(alloc)]
    return np.sort(np.concatenate(chosen))


def label_initial_pairs(pool: PairPool, data: DataMatrix, n: int, seed) -> PairPool:
    """Have the oracle label ``n`` candidates of ``pool``, drawn without replacement."""
    picks = np.random.default_rng(seed).choice(len(pool.candidates), size=n, replace=False)
    return pool.with_labels_at(picks, oracle_label(data, *pool.candidates[picks].T))


def fit_strategy(name, constraints, data, basis, prior, reg):
    """Run the fit of strategy ``name`` and build its scorer.

    Returns ``(model, scorer, estimate)``: the metric model, the scorer,
    and the fit's own result, an ``MleSolution`` or a ``VariationalPosterior``
    of one problem: ``row(0)`` of the checked stack of one.  Each is None
    where the strategy's table row has no fit or no scorer.  ``prior`` is read by
    the ``vb`` fit only, ``reg`` by the ``mle`` fit only, sigma by a rule reading it.
    """
    fit, tag = STRATEGY_TABLE[name]
    model = scorer = estimate = gamma = sigma = None
    if fit is not None:
        w = feature_matrix(data, basis, constraints.pairs)
        fitted = _fit_all(fit, w[None], constraints.labels[None], prior, reg)
        estimate = fitted.row(0)
        model = metric.from_augmented(fitted.weights[0], basis)
        gamma, sigma = fitted.weights[0], fitted.sigma[0] if tag in READS_SIGMA else None
    if tag is not None:  # the scorer reads what its rule needs
        scorer = Scorer(tag, data, basis, gamma, sigma)
    return model, scorer, estimate


def _fit_all(fit, features, labels, prior, reg):
    """The checked stacked fit of (r, m, k+1) ``features`` and (r, m) ``labels``
    by ``"mle"``'s :func:`mle.fit_many` or ``"vb"``'s :func:`vb.fit_many`, looked
    up on their modules at call time, so a wrapped one is the one that runs."""
    if fit == "mle":
        return mle.fit_many(features, labels, reg=reg)
    return vb.fit_many(features, labels, prior)


@dataclass(frozen=True)
class _RepeatState:
    """One repeat's split, basis and initial pool, the feature table of its
    candidates and the basis projections of its train and test rows."""

    train: DataMatrix
    test: DataMatrix
    basis: EigenBasis
    pool_data: DataMatrix
    pool: PairPool
    features: np.ndarray
    train_proj: np.ndarray
    test_proj: np.ndarray


def _repeat_data(config: ExperimentConfig, fixed: DataMatrix | None, repeat: int) -> DataMatrix:
    """CSV data is fixed across repeats; synthetic data is redrawn."""
    if fixed is not None:
        return fixed
    return synth_data(config.synth, _seed_ints(config.seed, repeat, "data"))


def _prepare_repeat(config: ExperimentConfig, data: DataMatrix, repeat: int,
                    pool: PairPool) -> _RepeatState:
    """One repeat's state; ``pool`` is the run's unlabeled pool of all
    ``pool_size`` pairs, whose read-only candidates every repeat shares."""
    n = data.n
    rng_split = np.random.default_rng(_seed_ints(config.seed, repeat, "split"))
    test_rows = np.sort(rng_split.choice(n, size=config.n_test, replace=False))
    in_train = np.ones(n, dtype=bool)
    in_train[test_rows] = False
    train_rows = np.flatnonzero(in_train)
    train = data.subset(train_rows)
    test = data.subset(test_rows)
    basis = eigen_basis(
        train, k=config.k, energy=config.energy,
        center=config.center, standardize=config.standardize,
    )
    pool_data = train.subset(
        _pool_rows(train, config.pool_size, _seed_ints(config.seed, repeat, "pool"))
    )
    pool = label_initial_pairs(
        pool, pool_data, config.initial_pairs, _seed_ints(config.seed, repeat, "init")
    )
    features = _freeze(feature_matrix(pool_data, basis, pool.candidates))
    return _RepeatState(train, test, basis, pool_data, pool, features,
                        _freeze(basis.project(train.x)), _freeze(basis.project(test.x)))


@dataclass(frozen=True)
class _Run:
    """One strategy on one repeat; its pool labels and predictions are rows of the loop's."""

    strategy: str
    repeat: int
    state: _RepeatState
    seed: int


@contextmanager
def _blamed_on(run: _Run, t: int):
    """Re-raise any error as a RuntimeError naming the run and iteration."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(
            f"strategy={run.strategy} repeat={run.repeat} iteration={t}: {exc}"
        ) from exc


def _groups(keys):
    """Positions of ``keys`` grouped by key, in first-seen order; a None key joins no group."""
    groups = {}
    for n, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(n)
    return groups


# elements of one stacked temporary of an iteration step (runs x rows x columns), 128 kB
STACK_ELEMS = 1 << 14


def _stacks(count, per_run):
    """Slices cutting ``count`` runs into consecutive stacks of at most
    ``STACK_ELEMS`` elements, at ``per_run`` elements a run and one run at least."""
    size = max(1, STACK_ELEMS // max(1, per_run))
    return [slice(a, a + size) for a in range(0, count, size)]


def _step(config, runs, labels, t, prior, previous):
    """Iteration ``t`` of ``runs``, whose pool labels and 1NN predictions at
    iteration t-1 are the rows of ``labels`` and ``previous``.

    Runs sharing the fit kind and basis size form a fit group, and the step
    takes each group in one pass.  One :func:`_fit_all` call fits it on the
    rows of its members' feature tables that their rows of ``labels`` mark
    labeled, with those labels, in candidate order (every run has labeled
    ``initial_pairs + t * batch_size``).  Its ``weights`` rows replace the
    members' predictions by stacked 1NN searches and, before the last
    iteration, the members sharing an acquisition rule pass their feature
    tables, fit rows and seeds as one stack to :func:`select_many`, which
    reads what the rule needs.  A run without a fit joins no group and
    selects nothing; it keeps its predictions of t-1, or at iteration 0 takes
    EUCLID's raw 1NN.  Stacks are cut at ``STACK_ELEMS`` elements; every
    repeat has the same train and test sizes.

    Returns the ``(fit, stack)`` pairs of the groups' fit kinds and fits, the
    (runs, n_test) predictions, the positions in ``labels`` of the runs that
    acquire, and their rows with the batch each selects labeled by the
    oracle.  Nothing is written.
    """
    predictions = previous.copy()
    kinds = [STRATEGY_TABLE[run.strategy] for run in runs]
    for n, run in enumerate(runs):
        if kinds[n].fit is None and t == 0:
            predictions[n] = metric.euclidean_knn(run.state.train, run.state.test)
    fits, at, picks = [], [], []
    groups = _groups([kind.fit and (kind.fit, run.state.features.shape[1])
                      for kind, run in zip(kinds, runs)])
    for (fit, _), members in groups.items():
        labeled = labels[members] != 0
        w = np.stack([runs[n].state.features[a] for n, a in zip(members, labeled)])
        y = labels[members][labeled].reshape(len(members), -1).astype(np.float64)
        fitted = _fit_all(fit, w, y, prior, config.reg)
        del labeled, w, y  # freed before the selections, where the step peaks in memory
        fits.append((fit, fitted))
        first = runs[members[0]].state
        for part in _stacks(len(members), first.train.n * first.test.n):
            states = [runs[n].state for n in members[part]]
            predictions[members[part]] = metric.knn_many(
                fitted.weights[part], np.stack([s.train_proj for s in states]),
                np.stack([s.test_proj for s in states]),
                np.stack([s.train.labels for s in states]))
        if t == config.iterations:
            continue
        for tag, tagged in _groups([kinds[n].scorer for n in members]).items():
            for part in _stacks(len(tagged), first.features.size):
                stack = [members[i] for i in tagged[part]]
                features = (np.stack([runs[n].state.features for n in stack]) if len(stack) > 1
                            else runs[stack[0]].state.features[None])  # a view, not a copy
                sigma = fitted.sigma[tagged[part]] if tag in READS_SIGMA else None
                seeds = [_seed_ints(config.seed, runs[n].strategy, runs[n].repeat, "select", t)
                         for n in stack]
                picks.append(select_many(tag, labels[stack], features, fitted.weights[tagged[part]],
                                         sigma, config.batch_size, seeds))
                at.extend(stack)
    relabeled = labels[at]
    if at:
        candidates = runs[0].state.pool.candidates  # every repeat shares them
        picks = np.concatenate(picks)
        classes = np.stack([runs[n].state.pool_data.labels for n in at])
        answers = oracle_label(classes, candidates[picks, 0], candidates[picks, 1])
        label_many(relabeled, picks, answers, candidates)
    return fits, predictions, at, relabeled


def run_active_loop(config: ExperimentConfig, fit_tally: Counter | None = None) -> list:
    """Run every strategy for every repeat; one record per iteration.

    Repeats over a CSV dataset reshuffle only the splits; repeats over a
    synthetic spec also redraw the sample, so the averages cover sampling
    noise as well as split noise.  A ``fit_tally`` counter, if given,
    gains one count per fit under ``(fit, converged)``, where ``fit`` is
    the strategy table's ``"mle"`` or ``"vb"``.

    The runs move in lockstep: every repeat is prepared first, then all
    (repeat, strategy) runs take iteration 0, then 1, and so on, each in
    one :func:`_step`, which fits, searches and selects one fit group at a
    time as stacks and builds no per-run object.  A run is immutable; the
    loop keeps the pool labels as one int8 (runs, m) matrix, the last
    (runs, n_test) predictions and one accuracy row per iteration, and
    after each step writes its labels and tallies its fits' ``converged``
    flags.  Seeds derive from (seed, strategy, repeat, iteration), so the
    order changes no result.  The records are built after the last
    iteration, ordered by repeat, strategy and iteration.  A failed step,
    fit included, is retaken run by run: its error names the first run, in
    run order, that fails alone.  ``runtime_ms`` is always 0.0.
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
    pool = _all_pairs(config.pool_size)
    states = [_prepare_repeat(config, _repeat_data(config, fixed, repeat), repeat, pool)
              for repeat in range(config.repeats)]
    runs = [_Run(strategy, repeat, state,
                 zlib.crc32(f"{config.seed}|{strategy}|{repeat}".encode("utf-8")))
            for repeat, state in enumerate(states) for strategy in config.strategies]
    labels = np.stack([run.state.pool.labels for run in runs])
    truth = np.stack([run.state.test.labels for run in runs])
    predictions = np.zeros_like(truth)  # iteration 0 writes every row
    accuracies = []
    for t in range(config.iterations + 1):
        try:
            fits, predictions, at, relabeled = _step(config, runs, labels, t, prior, predictions)
        except Exception:
            for n, run in enumerate(runs):  # retake it run by run, so the error names its run
                with _blamed_on(run, t):
                    _step(config, [run], labels[n : n + 1], t, prior, predictions[n : n + 1])
            raise
        accuracies.append(np.mean(predictions == truth, axis=1))
        for fit, fitted in fits:
            fit_tally.update((fit, c) for c in fitted.converged.tolist())
        labels[at] = relabeled
    return [ResultRecord(run.strategy, run.repeat, t, config.initial_pairs + t * config.batch_size,
                         acc, 0.0, run.seed)
            for run, row in zip(runs, np.stack(accuracies, axis=1).tolist())
            for t, acc in enumerate(row)]


def convergence_warnings(fit_tally: Counter) -> list:
    """One warning per fit kind of a :func:`run_active_loop` tally that failed to converge."""
    lines = []
    for fit in ("mle", "vb"):
        failed = fit_tally[fit, False]
        if failed:
            total = failed + fit_tally[fit, True]
            lines.append(f"warning: {failed} of {total} {fit} fits did not converge")
    return lines


_SUMMARY_COLUMNS = ("strategy", "iteration", "n_pairs", "repeats", "mean_accuracy", "std_accuracy")


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
        values = (strategy, iteration, grp[0].n_pairs, accs.size, float(accs.mean()), std)
        summary.append(dict(zip(_SUMMARY_COLUMNS, values)))
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
    records = list(records)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        spectral._write_rows(fh, RESULT_COLUMNS,
                             *([getattr(r, c) for r in records] for c in RESULT_COLUMNS))


def write_summary_csv(summary, path) -> None:
    summary = list(summary)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        spectral._write_rows(fh, _SUMMARY_COLUMNS,
                             *([row[c] for row in summary] for c in _SUMMARY_COLUMNS))


def write_results_json(records, config: ExperimentConfig, path) -> None:
    """The config and one object per record, its fields read, not deep-copied by ``asdict``."""
    _write_json({"config": asdict(config),
                 "records": [{c: getattr(r, c) for c in RESULT_COLUMNS} for r in records]}, path)


def _write_json(doc, path) -> None:
    """Write ``results.json`` or a saved model: indent 2 and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
