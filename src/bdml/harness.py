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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import metric, mle, spectral, vb
from .active import PairPool, Scorer, label_many, select_many
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

    def to_dict(self) -> dict:
        return {c: getattr(self, c) for c in RESULT_COLUMNS}


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


def oracle_label(data: DataMatrix, i, j):
    """Ground-truth pair label: +1 same class, -1 different; for index arrays, one per pair."""
    if data.labels is None:
        raise ValueError("oracle needs labeled data")
    y = _oracle(data.labels, i, j)
    return int(y) if y.ndim == 0 else y


def _oracle(classes, i, j) -> np.ndarray:
    """:func:`oracle_label` over the class labels of one dataset, (n,), or of
    each of a stack, (r, n), with i and j of shape (r, b)."""
    i, j = np.broadcast_arrays(i, j)
    spectral._check_pairs(i, j, classes.shape[-1], "oracle label")
    at = classes.shape[:-1] + (-1,)
    same = (np.take_along_axis(classes, i.reshape(at), -1)
            == np.take_along_axis(classes, j.reshape(at), -1))
    return np.where(same, 1, -1).reshape(i.shape)


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
    ordered = np.sort(data.labels)
    classes = ordered[np.insert(ordered[1:] != ordered[:-1], 0, True)]
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
    fit, tag = STRATEGY_TABLE[name]
    problem = (feature_matrix(data, basis, constraints.pairs), constraints.labels)
    [estimate] = _fit_all(fit, [problem], prior, reg)
    gamma = _weights(fit, estimate)
    model = None if gamma is None else metric.from_augmented(gamma, basis)
    scorer = None
    if tag == "RANDOM":
        scorer = Scorer.random()
    elif tag is not None:
        scorer = Scorer(tag, data, basis, gamma, estimate.sigma if tag == "BAYES_VAR" else None)
    return model, scorer, estimate


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


def _weights(fit, estimate):
    """The augmented weight vector of a fit's ``estimate``, None for no fit."""
    if fit == "mle":
        return estimate.gamma
    return estimate.mu if fit == "vb" else None


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


def _prepare_repeat(config: ExperimentConfig, data: DataMatrix, repeat: int) -> _RepeatState:
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
    pool_data, pool = build_pool(
        train, config.pool_size, _seed_ints(config.seed, repeat, "pool")
    )
    pool = label_initial_pairs(
        pool, pool_data, config.initial_pairs, _seed_ints(config.seed, repeat, "init")
    )
    features = _freeze(feature_matrix(pool_data, basis, pool.candidates))
    return _RepeatState(train, test, basis, pool_data, pool, features,
                        _freeze(basis.project(train.x)), _freeze(basis.project(test.x)))


@dataclass
class _Run:
    """One strategy on one repeat: its labeled pool grows, its records accrue.

    ``labels`` is the run's row of the loop's int8 (runs, m) label matrix:
    0 for an open candidate of its repeat's pool, the oracle's ±1 for a
    labeled one.
    """

    strategy: str
    repeat: int
    state: _RepeatState
    seed: int
    labels: np.ndarray | None = None
    records: list = field(default_factory=list)
    predictions: np.ndarray | None = None  # EUCLID's, kept from iteration 0

    def problem(self):
        """The run's labeled rows of the feature table and their labels, in candidate order."""
        at = self.labels != 0
        return self.state.features[at], self.labels[at].astype(np.float64)


@contextmanager
def _blamed_on(run: _Run, t: int):
    """Re-raise any error as a RuntimeError naming the run and iteration."""
    try:
        yield
    except Exception as exc:
        raise RuntimeError(
            f"strategy={run.strategy} repeat={run.repeat} iteration={t}: {exc}"
        ) from exc


def _fit_iteration(runs, prior, reg):
    """Every run's fit estimate, None for a run without a fit.

    Runs sharing the fit kind and the shape of their problem (constraint
    count, basis size) are fitted by one :func:`_fit_all` call.
    """
    problems = [run.problem() for run in runs]
    estimates = [None] * len(runs)
    keys = [(STRATEGY_TABLE[run.strategy].fit, w.shape) for run, (w, _) in zip(runs, problems)]
    for (fit, _), members in _groups(keys).items():
        for n, estimate in zip(members, _fit_all(fit, [problems[n] for n in members], prior, reg)):
            estimates[n] = estimate
    return estimates


def _groups(keys):
    """Positions of ``keys`` grouped by key, in first-seen order; a None key joins no group."""
    groups = {}
    for n, key in enumerate(keys):
        if key is not None:
            groups.setdefault(key, []).append(n)
    return groups


# elements of one stacked temporary of an iteration step (runs x rows x columns), 128 kB
STACK_ELEMS = 1 << 14


def _stacks(members, per_run):
    """``members`` cut into consecutive stacks of at most ``STACK_ELEMS``
    elements, at ``per_run`` elements a run and one run at least."""
    size = max(1, STACK_ELEMS // max(1, per_run))
    return [members[a : a + size] for a in range(0, len(members), size)]


def _step(config, runs, labels, t, prior):
    """Iteration ``t`` of ``runs``, whose pool labels are the rows of ``labels``.

    Returns every run's fit estimate and 1NN predictions, the positions in
    ``labels`` of the runs that acquire, and their rows with the batch each
    selects labeled by the oracle (none after the last).  Nothing is written.
    """
    estimates = _fit_iteration(runs, prior, config.reg)
    weights = [_weights(STRATEGY_TABLE[run.strategy].fit, e) for run, e in zip(runs, estimates)]
    predictions = _predict(runs, t, weights)
    at, picks = _select(config, runs, labels, t, weights, estimates)
    relabeled = labels[at]
    if at:
        candidates = runs[0].state.pool.candidates  # every repeat's pool has all pool_size pairs
        picks = np.concatenate(picks)
        classes = np.stack([runs[n].state.pool_data.labels for n in at])
        answers = _oracle(classes, candidates[picks, 0], candidates[picks, 1])
        label_many(relabeled, picks, answers, candidates)
    return estimates, predictions, at, relabeled


def _predict(runs, t, weights):
    """Every run's 1NN predictions at iteration ``t``: under the metric of its
    fitted ``weights``, or, for a run without a fit, EUCLID's raw 1NN of
    iteration 0.  Runs with the same train and test shapes search as one
    stack."""
    predictions = [run.predictions for run in runs]
    for n, (run, w) in enumerate(zip(runs, weights)):
        if w is None and t == 0:  # no model, so every iteration has the same Euclidean 1NN
            predictions[n] = metric.euclidean_knn(run.state.train, run.state.test)
    groups = _groups([None if w is None else (run.state.train.n, run.state.test_proj.shape)
                      for run, w in zip(runs, weights)])
    for (n_train, (n_test, _)), members in groups.items():
        for stack in _stacks(members, n_train * n_test):
            states = [runs[n].state for n in stack]
            predicted = metric.knn_many(np.stack([weights[n] for n in stack]),
                                        np.stack([s.train_proj for s in states]),
                                        np.stack([s.test_proj for s in states]),
                                        np.stack([s.train.labels for s in states]))
            for n, p in zip(stack, predicted):
                predictions[n] = p
    return predictions


def _select(config, runs, labels, t, weights, estimates):
    """The batch each acquiring run selects at iteration ``t``, none after the last.

    Returns the runs' positions and a list of (stack, batch) arrays of
    their picks, in that order.  Runs with the same acquisition rule and
    basis size select as one stack from their repeats' whole feature
    tables; each has labeled ``initial_pairs + t * batch_size`` of them.
    """
    tags = [STRATEGY_TABLE[run.strategy].scorer for run in runs] if t < config.iterations else []
    groups = _groups([tag and (tag, run.state.features.shape[1]) for tag, run in zip(tags, runs)])
    at, picks = [], []
    for (tag, width), members in groups.items():
        for stack in _stacks(members, labels.shape[1] * width):
            features = gamma = sigma = seeds = None
            if tag == "RANDOM":
                seeds = [_seed_ints(config.seed, runs[n].strategy, runs[n].repeat, "select", t)
                         for n in stack]
            else:
                features = np.stack([runs[n].state.features for n in stack])
                gamma = np.stack([weights[n] for n in stack])
            if tag == "BAYES_VAR":
                sigma = np.stack([estimates[n].sigma for n in stack])
            picks.append(select_many(tag, labels[stack], features, gamma, sigma,
                                     config.batch_size, seeds))
            at.extend(stack)
    return at, picks


def run_active_loop(config: ExperimentConfig, fit_tally: Counter | None = None) -> list:
    """Run every strategy for every repeat; one record per iteration.

    Repeats over a CSV dataset reshuffle only the splits; repeats over a
    synthetic spec also redraw the sample, so the averages cover sampling
    noise as well as split noise.  A ``fit_tally`` counter, if given,
    gains one count per fit under ``(fit, converged)``, where ``fit`` is
    the strategy table's ``"mle"`` or ``"vb"``.

    The runs move in lockstep: every repeat is prepared first, then all
    (repeat, strategy) runs take iteration 0, then 1, and so on, with
    their pool labels as one int8 (runs, m) matrix.  Within an iteration
    the fits of runs that share a fit kind, constraint count and basis
    size go through one :func:`_fit_all` call, which solves them as one
    ``vb.fit_many`` or ``mle.fit_many`` stack.  The 1NN evaluations of
    runs with the same basis size run as one stacked search, and the
    selections of runs with the same acquisition rule as one stacked
    scoring of their feature tables; then the oracle answers and the
    labels are written for all runs at once.  Stacks are cut at
    ``STACK_ELEMS`` elements.  Seeds derive from (seed, strategy,
    repeat, iteration), so the order changes no result; records come out
    ordered by repeat, strategy and iteration.  A failed iteration, fit
    included, is retaken run by run: its error names the first run, in
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
    runs = []
    for repeat in range(config.repeats):
        state = _prepare_repeat(config, _repeat_data(config, fixed, repeat), repeat)
        runs.extend(
            _Run(strategy, repeat, state,
                 zlib.crc32(f"{config.seed}|{strategy}|{repeat}".encode("utf-8")))
            for strategy in config.strategies
        )
    labels = np.stack([run.state.pool.labels for run in runs])
    for run, row in zip(runs, labels):
        run.labels = row
    truth = np.stack([run.state.test.labels for run in runs])
    for t in range(config.iterations + 1):
        try:
            estimates, predictions, at, relabeled = _step(config, runs, labels, t, prior)
        except Exception:
            for n, run in enumerate(runs):  # retake it run by run, so the error names its run
                with _blamed_on(run, t):
                    _step(config, runs[n : n + 1], labels[n : n + 1], t, prior)
            raise
        accuracies = np.mean(np.stack(predictions) == truth, axis=1).tolist()
        n_pairs = config.initial_pairs + t * config.batch_size
        for run, estimate, p, acc in zip(runs, estimates, predictions, accuracies):
            if estimate is not None:
                fit_tally[STRATEGY_TABLE[run.strategy].fit, estimate.converged] += 1
            run.predictions = p
            run.records.append(
                ResultRecord(run.strategy, run.repeat, t, n_pairs, acc, 0.0, run.seed)
            )
        labels[at] = relabeled
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
    _write_json({"config": asdict(config), "records": [r.to_dict() for r in records]}, path)


def _write_json(doc, path) -> None:
    """Write ``results.json`` or a saved model: indent 2 and a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
