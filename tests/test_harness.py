import dataclasses
import json
import re
import subprocess
import sys
import zlib
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bdml
from bdml import active, cli, harness, metric, mle, vb
from bdml.active import READS_SIGMA, STRATEGIES, Scorer, score_pairs, select
from bdml.config import EXPERIMENT_STRATEGIES, Strategy
from bdml.harness import (
    RESULT_COLUMNS,
    STRATEGY_TABLE,
    ExperimentConfig,
    ResultRecord,
    SynthSpec,
    _repeat_data,
    _seed_ints,
    build_pool,
    convergence_warnings,
    label_initial_pairs,
    format_report,
    oracle_label,
    report,
    run_active_loop,
    synth_data,
    write_results_csv,
    write_results_json,
    write_summary_csv,
)
from bdml.spectral import DataMatrix, eigen_basis, feature_matrix, load_csv, save_csv


def _small_config(**overrides):
    base = dict(
        synth=SynthSpec(classes=3, per_class=8, dim=5, spread=0.3),
        pool_size=12,
        n_test=6,
        initial_pairs=4,
        batch_size=3,
        iterations=1,
        strategies=("EUCLID", "RANDOM_MLE", "MLE_ACT", "BAYES_ACT", "BAYES_VAR"),
        k=2,
        standardize=False,
        repeats=2,
        seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def _prepared(config, repeat):
    """Repeat ``repeat`` of a synthetic ``config`` as the loop prepares it."""
    return harness._prepare_repeat(config, _repeat_data(config, None, repeat), repeat,
                                   harness._all_pairs(config.pool_size))


# ---------------------------------------------------------------------------
# synthetic data and oracle


def test_synth_spec_validation():
    with pytest.raises(ValueError, match="classes"):
        SynthSpec(classes=1)
    with pytest.raises(ValueError, match="per class"):
        SynthSpec(per_class=1)
    with pytest.raises(ValueError, match="dim"):
        SynthSpec(dim=0)
    for spread in (0.0, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="spread"):
            SynthSpec(spread=spread)
    for field, bad in (("classes", 2.5), ("per_class", 3.0), ("dim", True)):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {bad}$"):
            SynthSpec(**{field: bad})
    assert SynthSpec(classes=np.int64(2)).classes == 2


def test_synth_data_is_seed_deterministic():
    spec = SynthSpec(classes=3, per_class=5, dim=4, spread=0.5)
    a = synth_data(spec, seed=3)
    b = synth_data(spec, seed=3)
    npt.assert_array_equal(a.x, b.x)
    npt.assert_array_equal(a.labels, b.labels)
    c = synth_data(spec, seed=4)
    assert not np.array_equal(a.x, c.x)


def test_synth_data_layout():
    spec = SynthSpec(classes=4, per_class=3, dim=2, spread=1e-9)
    data = synth_data(spec, seed=0)
    assert data.n == 12 and data.d == 2
    npt.assert_array_equal(data.labels, np.repeat([0, 1, 2, 3], 3))
    # means wrap around the axes, one unit further out per lap
    expected_means = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 2.0]])
    for c in range(4):
        npt.assert_allclose(data.x[3 * c], expected_means[c], atol=1e-6)


def test_synth_clusters_separate_when_spread_is_small():
    data = synth_data(SynthSpec(classes=3, per_class=6, dim=4, spread=0.01), seed=1)
    for i in range(data.n):
        gaps = ((data.x - data.x[i]) ** 2).sum(axis=1)
        gaps[i] = np.inf
        assert data.labels[int(np.argmin(gaps))] == data.labels[i]


def test_oracle_label():
    data = DataMatrix(np.zeros((4, 2)), labels=[0, 0, 1, 1])
    assert oracle_label(data, 0, 1) == 1
    assert oracle_label(data, 1, 2) == -1
    with pytest.raises(ValueError, match="self-pair"):
        oracle_label(data, 2, 2)
    with pytest.raises(IndexError):
        oracle_label(data, 0, 4)
    with pytest.raises(ValueError, match="labeled"):
        oracle_label(DataMatrix(np.zeros((4, 2))), 0, 1)


def test_oracle_label_answers_index_arrays_by_the_same_rule():
    data = DataMatrix(np.zeros((4, 2)), labels=[0, 0, 1, 1])
    i, j = np.array([0, 1, 3, 2]), np.array([1, 2, 2, 0])
    got = oracle_label(data, i, j)
    npt.assert_array_equal(got, [oracle_label(data, a, b) for a, b in zip(i, j)])
    npt.assert_array_equal(got, [1, -1, 1, -1])
    with pytest.raises(ValueError, match="self-pair"):
        oracle_label(data, i, np.array([1, 2, 3, 2]))
    with pytest.raises(IndexError, match=r"pair \(3, 4\) out of bounds for 4 rows"):
        oracle_label(data, i, np.array([1, 2, 4, 0]))
    with pytest.raises(ValueError, match=r"^self-pair \(2, 2\) has no oracle label$"):
        oracle_label(data, np.array([0, 2, 3]), np.array([1, 2, 3]))
    with pytest.raises(IndexError, match=r"^pair \(1, 4\) out of bounds for 4 rows$"):
        oracle_label(data, np.array([2, 1]), np.array([2, 4]))
    # the (r, n) class labels of a stack, asked with (r, b) index arrays: row by row
    classes = np.array([[0, 0, 1, 1], [0, 1, 0, 1], [2, 2, 2, 5]])
    si, sj = np.array([[0, 1, 3], [0, 2, 1], [3, 0, 1]]), np.array([[1, 2, 2], [2, 3, 3], [2, 2, 2]])
    got = oracle_label(classes, si, sj)
    assert got.shape == (3, 3)
    for row, c, a, b in zip(got, classes, si, sj):
        npt.assert_array_equal(row, oracle_label(DataMatrix(np.zeros((4, 2)), labels=c), a, b),
                               strict=True)
    npt.assert_array_equal(got, [[1, -1, 1], [1, -1, 1], [-1, 1, 1]])
    with pytest.raises(ValueError, match=r"^self-pair \(2, 2\) has no oracle label$"):
        oracle_label(classes, si, np.array([[1, 2, 2], [2, 2, 3], [2, 2, 2]]))
    with pytest.raises(IndexError, match=r"^pair \(1, 4\) out of bounds for 4 rows$"):
        oracle_label(classes, si, np.array([[1, 2, 2], [2, 3, 4], [2, 2, 2]]))


# ---------------------------------------------------------------------------
# pool construction


def test_build_pool_enumerates_every_pair():
    data = synth_data(SynthSpec(classes=3, per_class=20, dim=4, spread=0.5), seed=2)
    pool_data, pool = build_pool(data, pool_size=50, seed=0)
    assert pool_data.n == 50
    assert len(pool.candidates) == 1225
    small_data, small = build_pool(data, pool_size=4, seed=0)
    npt.assert_array_equal(
        small.candidates, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)], strict=True
    )


def test_build_pool_stratifies_evenly():
    data = synth_data(SynthSpec(classes=3, per_class=10, dim=3, spread=0.5), seed=3)
    for pool_size in (6, 7, 11):
        pool_data, _ = build_pool(data, pool_size, seed=1)
        counts = np.bincount(pool_data.labels, minlength=3)
        assert counts.sum() == pool_size
        assert counts.max() - counts.min() <= 1


def test_build_pool_handles_scarce_classes():
    labels = np.array([0] * 12 + [1] * 2, dtype=np.int64)
    data = DataMatrix(np.random.default_rng(4).normal(size=(14, 2)), labels=labels)
    pool_data, _ = build_pool(data, pool_size=10, seed=0)
    counts = np.bincount(pool_data.labels, minlength=2)
    assert counts[1] == 2  # the small class is exhausted, the rest tops up
    assert counts[0] == 8


def test_build_pool_is_seed_deterministic():
    data = synth_data(SynthSpec(classes=3, per_class=10, dim=3, spread=0.5), seed=5)
    a, _ = build_pool(data, pool_size=9, seed=42)
    b, _ = build_pool(data, pool_size=9, seed=42)
    npt.assert_array_equal(a.x, b.x)


def test_build_pool_validation():
    data = DataMatrix(np.zeros((4, 2)), labels=[0, 0, 1, 1])
    with pytest.raises(ValueError, match="labeled"):
        build_pool(DataMatrix(np.zeros((4, 2))), 2, seed=0)
    with pytest.raises(ValueError, match=r"\[2, 4\]"):
        build_pool(data, 5, seed=0)


def _round_robin_pool_rows(data, pool_size, seed):
    """The stratified rows as a per-round loop drew them: each round gives every class
    with rows left one more, and a partial round goes to seeded-random classes."""
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
    return np.sort(np.concatenate(chosen))


def test_pool_rows_draw_the_rows_the_round_robin_drew():
    # imbalanced classes with scattered labels and rows, every pool size, several seeds
    rng = np.random.default_rng(35)
    for _ in range(40):
        sizes = rng.integers(1, 12, size=rng.integers(2, 6))
        labels = rng.permutation(np.repeat(rng.choice(50, sizes.size, replace=False) - 20, sizes))
        data = DataMatrix(np.zeros((labels.size, 1)), labels=labels)
        for pool_size in range(2, data.n + 1):
            for seed in (0, 7, [3, 1, 4]):
                want = _round_robin_pool_rows(data, pool_size, seed)
                got = harness._pool_rows(data, pool_size, seed)
                npt.assert_array_equal(got, want, strict=True, err_msg=f"{sizes} {pool_size}")
    data = DataMatrix(np.zeros((4, 2)), labels=[0, 0, 1, 1])
    for args in ((DataMatrix(np.zeros((4, 2))), 2, 0), (data, 1, 0), (data, 5, 0)):
        with pytest.raises(ValueError) as want:
            _round_robin_pool_rows(*args)
        with pytest.raises(ValueError, match=f"^{re.escape(str(want.value))}$"):
            harness._pool_rows(*args)


# ---------------------------------------------------------------------------
# configuration


def test_config_requires_exactly_one_source(tmp_path):
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig()
    with pytest.raises(ValueError, match="exactly one"):
        ExperimentConfig(data_csv="x.csv", synth=SynthSpec())


def test_config_validates_budget_and_strategies():
    spec = SynthSpec()
    with pytest.raises(ValueError, match="label budget"):
        ExperimentConfig(synth=spec, pool_size=5, initial_pairs=5,
                         batch_size=10, iterations=1)
    with pytest.raises(ValueError, match="^pool_size must be at least 2$"):
        ExperimentConfig(synth=spec, pool_size=1, initial_pairs=1, iterations=0)
    with pytest.raises(ValueError, match="^unknown strategy 'NOPE'$"):
        ExperimentConfig(synth=spec, strategies=("EUCLID", "NOPE"))
    with pytest.raises(ValueError, match="^run cannot use strategy 'RANDOM': "):
        ExperimentConfig(synth=spec, strategies=("RANDOM",))
    with pytest.raises(ValueError, match="duplicate"):
        ExperimentConfig(synth=spec, strategies=("EUCLID", "EUCLID"))
    with pytest.raises(ValueError, match="at least one"):
        ExperimentConfig(synth=spec, strategies=())
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig(synth=spec, n_test=0)
    with pytest.raises(ValueError, match="repeats"):
        ExperimentConfig(synth=spec, repeats=0)
    # a count that is no integer is named before any rule compares it
    for field, bad in (("batch_size", 2.5), ("iterations", 1.5), ("repeats", 2.0),
                       ("pool_size", 10.0), ("n_test", np.float64(5)), ("initial_pairs", True),
                       ("k", 2.0), ("seed", 1.5), ("seed", True)):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(bad))}$"):
            ExperimentConfig(synth=spec, **{field: bad})
    assert ExperimentConfig(synth=spec, pool_size=np.int64(50), k=np.int32(3)).k == 3
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="delta must be finite and > 0"):
            ExperimentConfig(synth=spec, delta=bad)
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="gamma0 must be finite and >= 0"):
            ExperimentConfig(synth=spec, gamma0=bad)
    for bad in (-1e-9, np.nan):
        with pytest.raises(ValueError, match="reg must be >= 0"):
            ExperimentConfig(synth=spec, reg=bad)
    with pytest.raises(ValueError, match="reg must be finite, got inf"):
        ExperimentConfig(synth=spec, reg=np.inf)
    # the prior is checked whatever strategies run, before any fit
    with pytest.raises(ValueError, match="delta"):
        ExperimentConfig(synth=spec, strategies=("EUCLID",), delta=0.0)


@pytest.mark.parametrize("overrides, message", [
    (dict(k=0), "k must be at least 1, got 0"),
    (dict(k=-3), "k must be at least 1, got -3"),
    (dict(energy=1.5), "energy fraction must be in (0, 1], got 1.5"),
    (dict(energy=0.0), "energy fraction must be in (0, 1], got 0.0"),
    (dict(energy=np.nan), "energy fraction must be in (0, 1], got nan"),
])
def test_config_refuses_a_basis_no_data_allows(overrides, message):
    # refused when built, as seed and pool_size are, not by the first repeat's eigen_basis
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(synth=SynthSpec(), **overrides)
    # energy is unread once k is given
    assert ExperimentConfig(synth=SynthSpec(), k=2, energy=7.0).energy == 7.0


@pytest.mark.parametrize("source, overrides", [
    ("csv", dict(seed=5)),
    ("synth", dict(seed=np.int64(3))),
    ("synth", dict(synth=SynthSpec(classes=3, per_class=np.int64(8), dim=5, spread=0.3))),
    ("synth", dict(gamma0=2, delta=np.float64(0.5))),
], ids=["path", "numpy_seed", "numpy_per_class", "int_gamma0"])
def test_config_values_the_loop_accepts_are_written_to_json(source, overrides, tmp_path):
    # a path object and numpy integers are stored as the str and ints JSON can write
    path = tmp_path / "data.csv"
    if source == "csv":
        save_csv(synth_data(SynthSpec(classes=3, per_class=8, dim=5, spread=0.3), seed=1), path)
        overrides = dict(overrides, synth=None, data_csv=path)
    config = _small_config(repeats=1, **overrides)
    assert type(config.seed) is int
    assert config.data_csv == str(path) if source == "csv" else type(config.synth.per_class) is int
    write_results_json(run_active_loop(config), config, tmp_path / "results.json")
    doc = json.loads((tmp_path / "results.json").read_text(encoding="utf-8"))
    assert doc["config"] == dataclasses.asdict(config) | {"strategies": list(config.strategies)}
    assert type(doc["config"]["gamma0"]) is type(config.gamma0)  # an int gamma0 is written 2, not 2.0


@pytest.mark.parametrize("field, bad", [
    ("center", np.True_), ("standardize", np.False_), ("gamma0", np.float32(1.0)),
    ("delta", np.float32(1.0)), ("energy", np.float32(0.9)), ("reg", np.float32(1e-6)),
    ("spread", np.float32(0.3)),
])
def test_config_refuses_values_json_cannot_write(field, bad):
    # refused when built, naming the field, not after the loop by write_results_json
    kind = "a bool" if field in ("center", "standardize") else "an int or float"
    build = SynthSpec if field == "spread" else _small_config
    with pytest.raises(ValueError, match=f"^{field} must be {kind}, got {re.escape(repr(bad))}$"):
        build(**{field: bad})
    good = build(**{field: bool(bad) if kind == "a bool" else np.float64(bad)})
    assert json.loads(json.dumps(dataclasses.asdict(good)))[field] == getattr(good, field)


def test_config_accepts_exactly_the_experiment_strategies():
    accepted = set()
    for name in STRATEGY_TABLE:
        try:
            ExperimentConfig(synth=SynthSpec(), strategies=(name,))
        except ValueError:
            continue
        accepted.add(name)
    assert accepted == set(EXPERIMENT_STRATEGIES) == {
        "RANDOM_MLE", "MLE_ACT", "BAYES_ACT", "BAYES_VAR", "EUCLID",
    }


def test_a_new_table_row_joins_run_without_joining_the_default(monkeypatch, tmp_path):
    # one STRATEGY_TABLE row is all a strategy needs; the default stays the paper's five
    monkeypatch.setitem(STRATEGY_TABLE, "RANDOM_VB", Strategy("vb", "RANDOM"))
    config = _small_config(strategies=("RANDOM_VB", "EUCLID"), repeats=1)
    records = run_active_loop(config)
    assert {r.strategy for r in records} == {"RANDOM_VB", "EUCLID"}
    assert [r.n_pairs for r in records if r.strategy == "RANDOM_VB"] == [4, 7]
    assert cli.main(["run", "--synth", "classes=3,per_class=8,dim=5,spread=0.3",
                     "--pool-size", "12", "--test-size", "6", "--initial-pairs", "4",
                     "--batch", "3", "--iterations", "1", "--repeats", "1", "--k", "2",
                     "--no-standardize", "--strategies", "RANDOM_VB,EUCLID",
                     "--out", str(tmp_path / "out")]) == 0
    assert "RANDOM_VB" in (tmp_path / "out" / "results.csv").read_text(encoding="utf-8")
    assert ExperimentConfig(synth=SynthSpec()).strategies == (
        "RANDOM_MLE", "MLE_ACT", "BAYES_ACT", "BAYES_VAR", "EUCLID")
    with pytest.raises(ValueError, match="^run cannot use strategy 'RANDOM': it acquires pairs "
                       "without fitting a model; choose from RANDOM_MLE, MLE_ACT, BAYES_ACT, "
                       "BAYES_VAR, EUCLID, RANDOM_VB$"):
        ExperimentConfig(synth=SynthSpec(), strategies=("RANDOM",))


# ---------------------------------------------------------------------------
# the strategy table


# each strategy's fit kind and scorer, written out over the one-problem API (mle.mle_fit,
# vb.fit and the Scorer classmethods), so the checks below share no dispatch with bdml's
_ONE_PROBLEM = {
    "RANDOM": (None, lambda data, basis, estimate: Scorer.random()),
    "RANDOM_MLE": ("mle", lambda data, basis, sol: Scorer.random()),
    "MLE_ACT": ("mle", lambda data, basis, sol: Scorer.mle_act(data, basis, sol.gamma)),
    "BAYES_ACT": ("vb", Scorer.bayes_act),
    "BAYES_VAR": ("vb", Scorer.bayes_var),
    "EUCLID": (None, None),
}


def _fit_one(name, constraints, data, basis, prior, reg):
    """``(model, scorer, estimate)`` of strategy ``name`` by :data:`_ONE_PROBLEM`, each None
    where the strategy has no fit or no scorer."""
    fit, make_scorer = _ONE_PROBLEM[name]
    model = estimate = None
    if fit == "mle":
        estimate = mle.mle_fit(constraints, data, basis, reg=reg)
        model = metric.from_mle(estimate, basis)
    elif fit == "vb":
        estimate = vb.fit(constraints, data, basis, prior)
        model = metric.from_posterior(estimate, basis)
    return model, make_scorer and make_scorer(data, basis, estimate), estimate


# score-pairs options that give _fit_inputs' basis, initial pairs, prior and reg
_FIT_FLAGS = ["--initial-pairs", "8", "--seed", "3", "--k", "2", "--no-standardize",
              "--gamma0", "0.5", "--delta", "2.0", "--reg", "0.3"]


def _fit_inputs(tmp_path):
    """A labeled dataset read back from its CSV at ``tmp_path``, its basis, and the pool of
    all its pairs with 8 labeled, as ``score-pairs`` builds them under ``_FIT_FLAGS``."""
    path = tmp_path / "data.csv"
    save_csv(synth_data(SynthSpec(classes=3, per_class=6, dim=4, spread=0.3), seed=11), path)
    data = load_csv(path)
    basis = eigen_basis(data, k=2, standardize=False)
    _, pool = build_pool(data, data.n, seed=0)
    return data, basis, label_initial_pairs(pool, data, 8, seed=3)


def _score_pairs(tmp_path, tag, *extra):
    """``score-pairs --strategy tag`` on :func:`_fit_inputs`' CSV under ``_FIT_FLAGS``."""
    return cli.main(["score-pairs", "--data", str(tmp_path / "data.csv"), "--strategy", tag,
                     *_FIT_FLAGS, *extra])


@pytest.mark.parametrize("tag", sorted(STRATEGIES))
def test_score_pairs_follows_the_table(tag, tmp_path, capsys, monkeypatch):
    # score-pairs writes the written-out fit's model and its scorer's scores, most uncertain
    # first, ties to the lowest (i, j), with the fit looked up on its module at call time;
    # the written-out fits are the table's, the rows score-pairs does not offer included
    assert {name: fit for name, (fit, _) in _ONE_PROBLEM.items()} == {
        name: row.fit for name, row in STRATEGY_TABLE.items()}
    data, basis, pool = _fit_inputs(tmp_path)
    prior = vb.PriorConfig(gamma0=0.5, delta=2.0)
    fit = _ONE_PROBLEM[tag][0]
    model, scorer, estimate = _fit_one(tag, pool.labeled, data, basis, prior, 0.3)
    ranked = sorted(score_pairs(scorer, pool.unlabeled), key=lambda s: (-s.entropy, s.pair))
    want = "i,j,p_plus,entropy,strategy\r\n" + "".join(
        f"{i},{j},{s.p_plus!r},{s.entropy!r},{tag}\r\n" for s in ranked for i, j in [s.pair])

    calls = []
    for module in (mle, vb):
        def counted(*args, _fn=module.fit_many, _name=module.__name__, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, "fit_many", counted)
    out, saved = tmp_path / "scores.csv", tmp_path / "model.json"
    assert _score_pairs(tmp_path, tag, "--out", str(out),
                        *(["--save-model", str(saved)] if fit else [])) == 0
    assert calls == ([f"bdml.{fit}"] if fit else [])
    assert out.read_bytes().decode("utf-8") == want
    if fit:
        assert json.loads(saved.read_text(encoding="utf-8")) == model.to_dict()
    assert capsys.readouterr().err == ("" if estimate is None or estimate.converged else
                                       f"warning: {fit} fit did not converge after "
                                       f"{estimate.iterations} iterations\n")


def test_random_mle_fits_an_mle_model_and_scores_every_pair_indifferently(tmp_path, capsys):
    # the loop's RANDOM_MLE predicts by the MLE model; RANDOM, its rule, scores every open
    # pair at 0.5 and log 2, through score_pairs and through score-pairs in canonical order
    config = _small_config(strategies=("RANDOM_MLE",), iterations=0, repeats=1)
    fit_tally = Counter()
    [record] = run_active_loop(config, fit_tally)
    state = _prepared(config, 0)
    sol = mle.mle_fit(state.pool.labeled, state.pool_data, state.basis, reg=config.reg)
    predictions = metric.knn_classify(metric.from_mle(sol, state.basis), state.train, state.test)
    assert record.accuracy == metric.accuracy(predictions, state.test.labels)
    assert fit_tally == Counter({("mle", sol.converged): 1})

    _, _, pool = _fit_inputs(tmp_path)
    log2 = float(np.log(2.0))
    scores = score_pairs(Scorer.random(), pool.unlabeled)
    assert [s.pair for s in scores] == list(map(tuple, pool.unlabeled.tolist()))
    assert {(s.p_plus, s.entropy) for s in scores} == {(0.5, log2)}
    assert _score_pairs(tmp_path, "RANDOM") == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"{i},{j},0.5,{log2!r},RANDOM" for i, j in pool.unlabeled.tolist()]


def test_label_initial_pairs_draws_without_replacement_and_asks_the_oracle():
    data = synth_data(SynthSpec(classes=3, per_class=4, dim=3, spread=0.3), seed=2)
    _, pool = build_pool(data, data.n, seed=0)
    labeled = label_initial_pairs(pool, data, 10, seed=[5, 6])
    assert len(labeled.labeled) == 10
    for i, j, y in labeled.labeled.items.tolist():
        assert y == oracle_label(data, i, j)
    picks = np.random.default_rng([5, 6]).choice(len(pool.candidates), 10, replace=False)
    npt.assert_array_equal(labeled.labeled.pairs, pool.candidates[np.sort(picks)])
    again = label_initial_pairs(pool, data, 10, seed=[5, 6])
    npt.assert_array_equal(again.candidates, labeled.candidates, strict=True)
    npt.assert_array_equal(again.labeled.items, labeled.labeled.items, strict=True)


def test_result_record_validation():
    with pytest.raises(ValueError, match="accuracy"):
        ResultRecord("EUCLID", 0, 0, 1, 1.5, 0.0, 0)
    with pytest.raises(ValueError, match="nonnegative"):
        ResultRecord("EUCLID", -1, 0, 1, 0.5, 0.0, 0)


# ---------------------------------------------------------------------------
# the loop


def test_repeat_data_fixed_versus_redrawn():
    config = _small_config()
    fixed = synth_data(config.synth, seed=99)
    assert _repeat_data(config, fixed, 0) is fixed
    assert _repeat_data(config, fixed, 1) is fixed
    r0 = _repeat_data(config, None, 0)
    r1 = _repeat_data(config, None, 1)
    assert not np.array_equal(r0.x, r1.x)
    npt.assert_array_equal(r0.x, _repeat_data(config, None, 0).x)


def test_loop_record_shape_and_pair_accounting():
    config = _small_config(iterations=2, repeats=2)
    records = run_active_loop(config)
    assert len(records) == 2 * 5 * 3  # repeats x strategies x (iterations+1)
    for r in records:
        assert r.strategy in EXPERIMENT_STRATEGIES
        assert r.n_pairs == config.initial_pairs + r.iteration * config.batch_size
        assert r.runtime_ms == 0.0
        assert r.seed == zlib.crc32(
            f"{config.seed}|{r.strategy}|{r.repeat}".encode("utf-8")
        )


def test_loop_zero_iterations_records_once_per_strategy():
    config = _small_config(iterations=0, repeats=3)
    records = run_active_loop(config)
    assert len(records) == 3 * 5
    assert all(r.iteration == 0 for r in records)


def test_loop_pairs_strategies_at_iteration_zero():
    records = run_active_loop(_small_config())
    by = {(r.strategy, r.repeat, r.iteration): r.accuracy for r in records}
    for rep in (0, 1):
        assert by[("RANDOM_MLE", rep, 0)] == by[("MLE_ACT", rep, 0)]
        assert by[("BAYES_ACT", rep, 0)] == by[("BAYES_VAR", rep, 0)]
        assert by[("EUCLID", rep, 0)] == by[("EUCLID", rep, 1)]


def test_loop_classifies_euclid_once_per_repeat(monkeypatch):
    calls = []

    def counted(*args, _fn=metric.euclidean_knn, **kwargs):
        calls.append(1)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(metric, "euclidean_knn", counted)
    records = run_active_loop(_small_config(iterations=3, repeats=2))
    assert len(calls) == 2
    euclid = [r for r in records if r.strategy == "EUCLID"]
    assert [(r.repeat, r.iteration) for r in euclid] == [
        (rep, t) for rep in (0, 1) for t in range(4)
    ]
    for rep in (0, 1):
        assert len({r.accuracy for r in euclid if r.repeat == rep}) == 1


def test_loop_tallies_every_fit_by_kind_and_convergence():
    tally = Counter()
    run_active_loop(_small_config(), tally)
    # RANDOM_MLE and MLE_ACT fit by mle, the two BAYES strategies by vb, EUCLID not at all
    assert tally == Counter({("mle", True): 8, ("vb", True): 8})
    assert convergence_warnings(tally) == []


def test_convergence_warnings_name_each_fit_kind_that_failed():
    tally = Counter({("mle", True): 3, ("mle", False): 2, ("vb", True): 5})
    assert convergence_warnings(tally) == ["warning: 2 of 5 mle fits did not converge"]
    tally["vb", False] += 1
    assert convergence_warnings(tally)[1] == "warning: 1 of 6 vb fits did not converge"


def test_loop_is_deterministic():
    config = _small_config()
    assert run_active_loop(config) == run_active_loop(config)


def test_loop_over_csv_keeps_the_sample_fixed(tmp_path):
    data = synth_data(SynthSpec(classes=3, per_class=8, dim=5, spread=0.3), seed=8)
    path = tmp_path / "data.csv"
    save_csv(data, path)
    config = _small_config(synth=None, data_csv=str(path), repeats=2)
    records = run_active_loop(config)
    assert len(records) == 2 * 5 * 2


def test_loop_rejects_unlabeled_csv(tmp_path):
    path = tmp_path / "plain.csv"
    save_csv(DataMatrix(np.random.default_rng(0).normal(size=(30, 3))), path)
    with pytest.raises(ValueError, match="labeled"):
        run_active_loop(_small_config(synth=None, data_csv=str(path)))


def test_loop_rejects_oversized_splits():
    with pytest.raises(ValueError, match="exceeds the 24 available"):
        run_active_loop(_small_config(pool_size=20, n_test=12))


def test_loop_fits_gather_the_rows_feature_matrix_gives(monkeypatch):
    # every fit gets, bit for bit, the feature rows and labels of its run's labeled pairs
    want, got = [], []

    def step(config, runs, labels, *args, _fn=harness._step):
        for run, row in zip(runs, labels):  # the run's row of the loop's label matrix
            if STRATEGY_TABLE[run.strategy].fit:
                at = row != 0
                pairs = run.state.pool.candidates[at]
                w = feature_matrix(run.state.pool_data, run.state.basis, pairs)
                want.append(w.tobytes() + row[at].astype(np.float64).tobytes())
        return _fn(config, runs, labels, *args)

    for module in (mle, vb):
        def fit_many(w, y, *args, _fn=module.fit_many, **kwargs):
            got.extend(a.tobytes() + b.tobytes() for a, b in zip(w, y))
            return _fn(w, y, *args, **kwargs)
        monkeypatch.setattr(module, "fit_many", fit_many)

    monkeypatch.setattr(harness, "_step", step)
    run_active_loop(_small_config(iterations=2, repeats=2))
    assert len(want) == 2 * 4 * 3  # repeats x fitting strategies x (iterations+1)
    assert sorted(got) == sorted(want)


def test_loop_repeats_share_one_read_only_candidate_array(monkeypatch):
    # the run builds its all-pairs pool once; every repeat labels a row of its own
    states = []

    def step(config, runs, *args, _fn=harness._step):
        if not states:
            states.extend({id(run.state): run.state for run in runs}.values())
        return _fn(config, runs, *args)

    monkeypatch.setattr(harness, "_step", step)
    run_active_loop(_small_config(repeats=3))
    assert len(states) == 3
    candidates = states[0].pool.candidates
    assert all(state.pool.candidates is candidates for state in states)
    labels = [state.pool.labels for state in states]
    assert [int(np.count_nonzero(row)) for row in labels] == [4, 4, 4]
    assert not any(np.shares_memory(labels[a], labels[b]) for a in range(3) for b in range(a))
    with pytest.raises(ValueError, match="read-only"):
        candidates[0, 0] = 1


def test_loop_wraps_failures_with_context(monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(mle, "fit_many", boom)
    with pytest.raises(RuntimeError, match=r"strategy=RANDOM_MLE repeat=0 iteration=0"):
        run_active_loop(_small_config(strategies=("RANDOM_MLE",), repeats=1))


@pytest.mark.parametrize("strategy, partner, message", [
    ("MLE_ACT", "BAYES_VAR", "synthetic failure"),
    ("BAYES_VAR", "RANDOM_MLE", "all xi must be strictly positive"),
    ("MLE_ACT", "EUCLID", "synthetic failure"),
], ids=["MLE_ACT", "BAYES_VAR", "EUCLID_partner"])
def test_loop_blames_a_failed_stacked_fit_on_its_run(strategy, partner, message, monkeypatch):
    # the partner fits by the other kind or not at all, so only the fits of ``strategy``
    # fail; EUCLID's retake at iteration 1 reads its iteration-0 predictions
    config = _small_config(strategies=(partner, strategy), repeats=3, iterations=2)
    state = _prepared(config, 1)
    marker = feature_matrix(state.pool_data, state.basis, state.pool.labeled.pairs)[0]
    real_m_step, real_fit_many = vb.m_step, mle.fit_many

    def hit(w):  # repeat 1's features once its first batch is labeled
        return np.all(w == marker, axis=-1).any(axis=-1) & (w.shape[-2] > 4)

    def m_step(w, mu, sigma):
        return np.where(hit(w)[:, None], 0.0, real_m_step(w, mu, sigma))

    def fit_many(w, y, **kwargs):
        if hit(w).any():
            raise ValueError(message)
        return real_fit_many(w, y, **kwargs)

    if STRATEGY_TABLE[strategy].fit == "vb":
        monkeypatch.setattr(vb, "m_step", m_step)
    else:
        monkeypatch.setattr(mle, "fit_many", fit_many)
    with pytest.raises(
        RuntimeError, match=rf"^strategy={strategy} repeat=1 iteration=1: {message}$"
    ):
        run_active_loop(config)


@pytest.mark.parametrize("k", [2, None])
def test_loop_records_of_a_strategy_do_not_depend_on_the_others(k, monkeypatch):
    # the README synth spec and splits; with k=None its repeats select k = 8, 8, 8, 9
    config = ExperimentConfig(
        synth=SynthSpec(classes=3, per_class=20, dim=10, spread=0.3),
        pool_size=40, n_test=20, initial_pairs=10, batch_size=20, iterations=2,
        strategies=EXPERIMENT_STRATEGIES, k=k, standardize=False, reg=5.0,
        repeats=4, seed=0,
    )
    stacks = []

    def fit_many(features, *args, _fn=vb.fit_many, **kwargs):
        stacks.append([features.shape[-1] - 1])  # the stack's basis size k
        return _fn(features, *args, **kwargs)

    monkeypatch.setattr(vb, "fit_many", fit_many)
    full = run_active_loop(config)
    # one stack per (iteration, k): the k=None run solves its two sizes apart
    assert stacks == ([[2]] * 3 if k == 2 else [[8], [9]] * 3)
    for strategy in config.strategies:
        alone = run_active_loop(dataclasses.replace(config, strategies=(strategy,)))
        assert [r for r in full if r.strategy == strategy] == alone


def test_loop_fits_each_iterations_mle_runs_as_one_stack(monkeypatch):
    # the README bdml run: each iteration's 20 repeats x (RANDOM_MLE, MLE_ACT)
    # reach mle.fit_many as one call of 40 problems
    config = ExperimentConfig(
        synth=SynthSpec(classes=3, per_class=20, dim=10, spread=0.3),
        pool_size=40, n_test=20, initial_pairs=10, batch_size=20, iterations=2,
        strategies=EXPERIMENT_STRATEGIES, k=2, standardize=False, reg=5.0,
        repeats=20, seed=0,
    )
    stacks = []

    def fit_many(features, labels, *args, _fn=mle.fit_many, **kwargs):
        stacks.append((features.shape, labels.shape, kwargs.get("reg")))
        return _fn(features, labels, *args, **kwargs)

    monkeypatch.setattr(mle, "fit_many", fit_many)
    run_active_loop(config)
    assert stacks == [((40, m, 3), (40, m), 5.0) for m in (10, 30, 50)]


def test_the_loop_builds_no_per_run_posterior_or_solution(monkeypatch, tmp_path, capsys):
    # the README bdml run builds one checked stack per fit group and iteration and
    # reads no row of it; score-pairs builds one stack of one and reads no row either
    config = ExperimentConfig(
        synth=SynthSpec(classes=3, per_class=20, dim=10, spread=0.3),
        pool_size=40, n_test=20, initial_pairs=10, batch_size=20, iterations=5,
        strategies=EXPERIMENT_STRATEGIES, k=2, standardize=False, reg=5.0,
        repeats=20, seed=0,
    )
    built, rows = Counter(), Counter()
    for cls in (vb.VariationalPosterior, mle.MleSolution):
        def counted(self, _fn=cls.__post_init__, _name=cls.__name__):
            built[_name] += 1
            _fn(self)

        def row(self, n, _fn=cls.row, _name=cls.__name__):
            rows[_name] += 1
            return _fn(self, n)
        monkeypatch.setattr(cls, "__post_init__", counted)
        monkeypatch.setattr(cls, "row", row)
    fit_tally = Counter()
    run_active_loop(config, fit_tally)
    assert sum(fit_tally.values()) == 480  # 20 repeats x 4 fitting strategies x 6 iterations
    assert built == Counter({"MleSolution": 6, "VariationalPosterior": 6})  # one per iteration
    assert rows == Counter()

    _fit_inputs(tmp_path)  # writes the CSV that score-pairs reads
    for tag in ("MLE_ACT", "BAYES_VAR", "RANDOM"):
        assert _score_pairs(tmp_path, tag) == 0
    assert built == Counter({"MleSolution": 7, "VariationalPosterior": 7})
    assert rows == Counter()


def test_covariances_reach_only_the_rules_that_read_them(monkeypatch, tmp_path, capsys):
    # both hand-offs, the loop's stacked selections and score-pairs' scoring
    seen = []

    def select_many(strategy, labels, features, gamma, sigma, *args, _fn=harness.select_many):
        seen.append((strategy, sigma is None or sigma.shape))
        return _fn(strategy, labels, features, gamma, sigma, *args)

    monkeypatch.setattr(harness, "select_many", select_many)
    config = _small_config()
    run_active_loop(config)
    assert sorted(set(seen)) == [("BAYES_ACT", True), ("BAYES_VAR", (2, 3, 3)),
                                 ("MLE_ACT", True), ("RANDOM", True)]
    scored = []

    def score_rows(strategy, gamma, sigma, w, _fn=active._score_rows):
        scored.append((strategy, sigma))
        return _fn(strategy, gamma, sigma, w)

    monkeypatch.setattr(active, "_score_rows", score_rows)
    data, basis, pool = _fit_inputs(tmp_path)
    post = vb.fit(pool.labeled, data, basis, vb.PriorConfig(gamma0=0.5, delta=2.0))
    for tag in ("BAYES_ACT", "BAYES_VAR"):
        assert _score_pairs(tmp_path, tag) == 0
    assert [strategy for strategy, _ in scored] == ["BAYES_ACT", "BAYES_VAR"]
    for strategy, sigma in scored:
        assert (sigma is not None) == (strategy in READS_SIGMA)
        if sigma is not None:
            assert np.array_equal(sigma, post.sigma)


def test_a_one_run_stack_selects_from_its_table_itself(monkeypatch):
    # at pool 100 and k=3 a table holds 4,950 x 4 > STACK_ELEMS elements, so each
    # entropy stack holds one run, whose table reaches select_many uncopied
    config = ExperimentConfig(
        synth=SynthSpec(classes=3, per_class=40, dim=5, spread=0.3), pool_size=100, n_test=20,
        initial_pairs=10, batch_size=5, iterations=1, strategies=("MLE_ACT", "BAYES_VAR"),
        k=3, standardize=False, repeats=2, seed=3,
    )
    assert 4950 * 4 > harness.STACK_ELEMS
    runs, seen = [], []

    def step(config, loop_runs, *args, _fn=harness._step):
        runs[:] = loop_runs
        return _fn(config, loop_runs, *args)

    def select_many(strategy, labels, features, *args, _fn=harness.select_many):
        # a repeat's runs share its table; the tag tells them apart
        [run] = [run for run in runs
                 if run.strategy == strategy and np.shares_memory(features, run.state.features)]
        seen.append((features.shape, run.strategy, run.repeat))
        return _fn(strategy, labels, features, *args)

    monkeypatch.setattr(harness, "_step", step)
    monkeypatch.setattr(harness, "select_many", select_many)
    run_active_loop(config)
    assert sorted(seen) == [((1, 4950, 4), s, r) for s in ("BAYES_VAR", "MLE_ACT") for r in (0, 1)]


def _reference_advance(config, run, t, prior) -> None:
    """Iteration ``t`` of one run alone, as the loop took its runs before it
    stacked them: fit, model and scorer by :data:`_ONE_PROBLEM`, then
    ``knn_classify``, ``select``, ``oracle_label`` and ``with_labels_at``."""
    state = run.state
    model, scorer, _ = _fit_one(run.strategy, run.pool.labeled, state.pool_data, state.basis,
                                prior, config.reg)
    if model is not None:
        run.predictions = metric.knn_classify(model, state.train, state.test)
    elif t == 0:  # no model, so every iteration has the same Euclidean 1NN
        run.predictions = metric.euclidean_knn(state.train, state.test)
    acc = metric.accuracy(run.predictions, state.test.labels)
    n_pairs = config.initial_pairs + t * config.batch_size
    run.records.append(ResultRecord(run.strategy, run.repeat, t, n_pairs, acc, 0.0, run.seed))
    if t < config.iterations and scorer is not None:
        seed = _seed_ints(config.seed, run.strategy, run.repeat, "select", t)
        chosen = select(run.pool, state.features, scorer, config.batch_size, seed)
        answers = oracle_label(state.pool_data, *run.pool.candidates[chosen].T)
        run.pool = run.pool.with_labels_at(chosen, answers)


def _reference_loop(config):
    """The runs of :func:`run_active_loop`, advanced one at a time by
    :func:`_reference_advance`; errors name the run as the loop does."""
    prior = vb.PriorConfig(gamma0=config.gamma0, delta=config.delta)
    runs = []
    for repeat in range(config.repeats):
        state = _prepared(config, repeat)
        runs.extend(
            SimpleNamespace(strategy=strategy, repeat=repeat, state=state, pool=state.pool,
                            seed=zlib.crc32(f"{config.seed}|{strategy}|{repeat}".encode()),
                            records=[], predictions=None)
            for strategy in config.strategies
        )
    for t in range(config.iterations + 1):
        for run in runs:
            try:
                _reference_advance(config, run, t, prior)
            except Exception as exc:
                raise RuntimeError(
                    f"strategy={run.strategy} repeat={run.repeat} iteration={t}: {exc}"
                ) from exc
    return runs


@st.composite
def _loop_configs(draw):
    pool_size = draw(st.integers(4, 10))
    initial, batch = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    room = (pool_size * (pool_size - 1) // 2 - initial) // batch
    return ExperimentConfig(
        synth=SynthSpec(classes=3, per_class=6, dim=4, spread=0.3),
        pool_size=pool_size, n_test=draw(st.integers(1, 18 - pool_size)),
        initial_pairs=initial, batch_size=batch,
        iterations=draw(st.integers(0, min(3, room))),
        strategies=tuple(draw(st.lists(st.sampled_from(EXPERIMENT_STRATEGIES),
                                       min_size=1, unique=True))),
        k=draw(st.sampled_from([1, 2, 3, None])), standardize=draw(st.booleans()),
        repeats=draw(st.integers(1, 3)), seed=draw(st.integers(0, 2**32 - 1)),
    )


@settings(max_examples=40, deadline=None)
@given(config=_loop_configs(), stack_elems=st.sampled_from([1, 60, harness.STACK_ELEMS]))
def test_stacked_step_matches_the_per_run_reference(config, stack_elems):
    # stack_elems 1 cuts every stack to one run, 60 to a few
    runs, labels = [], []

    def step(config, loop_runs, loop_labels, *args, _fn=harness._step):
        runs[:] = loop_runs
        labels[:] = loop_labels  # the label matrix's rows, which end as the loop's final labels
        return _fn(config, loop_runs, loop_labels, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "STACK_ELEMS", stack_elems)
        mp.setattr(harness, "_step", step)
        records = run_active_loop(config)
    reference = _reference_loop(config)
    assert records == [record for run in reference for record in run.records]
    assert [(run.strategy, run.repeat) for run in runs] == \
        [(run.strategy, run.repeat) for run in reference]
    for row, ref in zip(labels, reference):
        npt.assert_array_equal(row, ref.pool.labels, strict=True)


def test_a_failed_step_names_the_first_failing_run_in_run_order(monkeypatch):
    # repeat 0's BAYES_VAR and repeat 1's MLE_ACT fail to select at iteration 0; the
    # MLE_ACT stack is selected first, but repeat 0's BAYES_VAR comes first in run order
    config = _small_config(strategies=("MLE_ACT", "BAYES_VAR"), repeats=3)
    initial = [_prepared(config, r).pool.labels for r in range(3)]
    failing = {("BAYES_VAR", 0), ("MLE_ACT", 1)}

    def select_many(strategy, labels, *args, _fn=harness.select_many):
        for row in labels:  # iteration 0's label rows are the repeats' initial ones
            repeat = next(r for r in range(3) if np.array_equal(row, initial[r]))
            if (strategy, repeat) in failing:
                raise ValueError(f"synthetic failure in {strategy}")
        return _fn(strategy, labels, *args)

    monkeypatch.setattr(harness, "select_many", select_many)
    with pytest.raises(RuntimeError, match=r"^strategy=BAYES_VAR repeat=0 iteration=0: "
                                           r"synthetic failure in BAYES_VAR$"):
        run_active_loop(config)
    failing = {("MLE_ACT", 1)}
    with pytest.raises(RuntimeError, match=r"^strategy=MLE_ACT repeat=1 iteration=0: "):
        run_active_loop(config)


def test_a_failed_fit_does_not_outrank_an_earlier_runs_failed_selection(monkeypatch):
    # repeat 2's MLE_ACT fit and repeat 0's BAYES_VAR selection fail at iteration 0; the
    # stacked fit fails first, but repeat 0's BAYES_VAR comes first in run order
    config = _small_config(strategies=("MLE_ACT", "BAYES_VAR"), repeats=3)
    states = [_prepared(config, r) for r in (0, 2)]
    marker = feature_matrix(states[1].pool_data, states[1].basis, states[1].pool.labeled.pairs)

    def fit_many(w, *args, _fn=mle.fit_many, **kwargs):
        if any(np.array_equal(problem, marker) for problem in w):
            raise ValueError("synthetic fit failure")
        return _fn(w, *args, **kwargs)

    def select_many(strategy, labels, *args, _fn=harness.select_many):
        if strategy == "BAYES_VAR" and any(np.array_equal(row, states[0].pool.labels)
                                           for row in labels):
            raise ValueError("synthetic selection failure")
        return _fn(strategy, labels, *args)

    monkeypatch.setattr(mle, "fit_many", fit_many)
    monkeypatch.setattr(harness, "select_many", select_many)
    with pytest.raises(RuntimeError, match=r"^strategy=BAYES_VAR repeat=0 iteration=0: "
                                           r"synthetic selection failure$"):
        run_active_loop(config)


def test_a_step_that_fails_only_stacked_raises_its_own_error(monkeypatch):
    # every run passes its retake alone, so no run can be blamed: the stacked
    # step's error comes out as it was raised
    def select_many(strategy, labels, *args, _fn=harness.select_many):
        if len(labels) > 1:
            raise ValueError("synthetic stacked failure")
        return _fn(strategy, labels, *args)

    monkeypatch.setattr(harness, "select_many", select_many)
    with pytest.raises(ValueError, match=r"^synthetic stacked failure$"):
        run_active_loop(_small_config(strategies=("MLE_ACT",), repeats=2))


def test_loop_leaves_numpy_ma_unimported():
    # np.unique, np.setdiff1d and np.median import numpy.ma on their first call
    env = {"PYTHONPATH": str(Path(bdml.__file__).resolve().parents[1])}

    def fresh(code):
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True).stdout.strip()

    if fresh("import sys, numpy; print('numpy.ma' in sys.modules)") == "True":
        pytest.skip("this numpy imports numpy.ma with numpy")
    assert fresh(
        "import sys\n"
        "from bdml.harness import ExperimentConfig, SynthSpec, run_active_loop\n"
        "run_active_loop(ExperimentConfig(synth=SynthSpec(classes=3, per_class=8, dim=5),\n"
        "    pool_size=12, n_test=6, initial_pairs=4, batch_size=3, iterations=2, k=2,\n"
        "    repeats=2, seed=5))\n"
        "print('numpy.ma' in sys.modules)"
    ) == "False"


# ---------------------------------------------------------------------------
# reporting


def _record(strategy, repeat, iteration, acc):
    return ResultRecord(strategy, repeat, iteration, 4, acc, 0.0, 0)


def test_report_mean_and_sample_std():
    rows = report([_record("EUCLID", 0, 0, 0.5), _record("EUCLID", 1, 0, 0.7)])
    assert len(rows) == 1
    assert rows[0]["mean_accuracy"] == pytest.approx(0.6)
    assert rows[0]["std_accuracy"] == pytest.approx(np.sqrt(0.02))
    assert rows[0]["repeats"] == 2


def test_report_single_repeat_has_zero_std():
    rows = report([_record("EUCLID", 0, 0, 0.5)])
    assert rows[0]["std_accuracy"] == 0.0


def test_report_groups_by_strategy_and_iteration():
    rows = report([
        _record("EUCLID", 0, 0, 0.5),
        _record("EUCLID", 0, 1, 0.6),
        _record("RANDOM_MLE", 0, 0, 0.7),
    ])
    assert {(r["strategy"], r["iteration"]) for r in rows} == {
        ("EUCLID", 0), ("EUCLID", 1), ("RANDOM_MLE", 0),
    }
    with pytest.raises(ValueError, match="no records"):
        report([])


def test_format_report_layout():
    rows = report([
        _record("RANDOM_MLE", 0, 0, 0.631),
        _record("RANDOM_MLE", 1, 0, 0.661),
    ])
    text = format_report(rows)
    lines = text.splitlines()
    assert lines[0].split() == ["strategy", "iteration", "n_pairs", "accuracy"]
    assert "0.646 ± 0.021" in lines[1]
    assert lines[1].startswith("RANDOM_MLE")


# ---------------------------------------------------------------------------
# persistence


def test_write_results_csv_round_trips(tmp_path):
    records = run_active_loop(_small_config(repeats=1))
    path = tmp_path / "results.csv"
    write_results_csv(records, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(RESULT_COLUMNS)
    assert len(lines) == len(records) + 1
    first = lines[1].split(",")
    assert first[0] == records[0].strategy
    assert float(first[4]) == records[0].accuracy


def test_write_summary_csv_schema(tmp_path):
    rows = report([_record("EUCLID", 0, 0, 0.5), _record("EUCLID", 1, 0, 0.7)])
    path = tmp_path / "summary.csv"
    write_summary_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "strategy,iteration,n_pairs,repeats,mean_accuracy,std_accuracy"
    strategy, it, n_pairs, reps, mean, std = lines[1].split(",")
    assert float(mean) == pytest.approx(0.6)
    assert float(std) == pytest.approx(np.sqrt(0.02))


def test_writes_are_byte_deterministic(tmp_path):
    config = _small_config(repeats=1)
    records = run_active_loop(config)
    paths = [tmp_path / f"r{i}.csv" for i in (0, 1)]
    for p, given in zip(paths, (records, iter(records))):  # any iterable will do
        write_results_csv(given, p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    summaries = [tmp_path / f"s{i}.csv" for i in (0, 1)]
    for p, given in zip(summaries, (report(records), iter(report(records)))):
        write_summary_csv(given, p)
    assert summaries[0].read_bytes() == summaries[1].read_bytes()
    jsons = [tmp_path / f"r{i}.json" for i in (0, 1)]
    for p in jsons:
        write_results_json(records, config, p)
    assert jsons[0].read_bytes() == jsons[1].read_bytes()


def test_write_results_json_echoes_the_config(tmp_path):
    config = _small_config(repeats=1)
    records = run_active_loop(config)
    path = tmp_path / "results.json"
    write_results_json(records, config, path)
    doc = json.loads(path.read_text())
    assert doc["config"]["synth"]["classes"] == 3
    assert doc["config"]["pool_size"] == 12
    assert len(doc["records"]) == len(records)
    assert doc["records"][0]["strategy"] == records[0].strategy


def test_write_results_json_writes_the_bytes_asdict_gave(tmp_path):
    # the records' objects are read field by field; the file is the one asdict and json.dump wrote
    config = _small_config(synth=None, data_csv='da"tä/x.csv', repeats=1)
    records = run_active_loop(_small_config(repeats=1))
    write_results_json(records, config, tmp_path / "results.json")
    with open(tmp_path / "oracle.json", "w", encoding="utf-8") as fh:
        json.dump({"config": dataclasses.asdict(config),
                   "records": [dataclasses.asdict(r) for r in records]}, fh, indent=2)
        fh.write("\n")
    assert (tmp_path / "results.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()
