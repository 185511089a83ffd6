import json
import zlib
from collections import Counter

import numpy as np
import numpy.testing as npt
import pytest

from bdml import harness, metric, mle, vb
from bdml.active import Scorer, rank_pairs
from bdml.harness import (
    EXPERIMENT_STRATEGIES,
    RESULT_COLUMNS,
    STRATEGY_TABLE,
    ExperimentConfig,
    ResultRecord,
    SynthSpec,
    _repeat_data,
    build_pool,
    convergence_warnings,
    fit_strategy,
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
from bdml.spectral import DataMatrix, eigen_basis, save_csv


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


# ---------------------------------------------------------------------------
# synthetic data and oracle


def test_synth_spec_validation():
    with pytest.raises(ValueError, match="classes"):
        SynthSpec(classes=1)
    with pytest.raises(ValueError, match="per class"):
        SynthSpec(per_class=1)
    with pytest.raises(ValueError, match="dim"):
        SynthSpec(dim=0)
    with pytest.raises(ValueError, match="spread"):
        SynthSpec(spread=0.0)


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
    with pytest.raises(ValueError, match="unknown strategy"):
        ExperimentConfig(synth=spec, strategies=("RANDOM",))
    with pytest.raises(ValueError, match="duplicate"):
        ExperimentConfig(synth=spec, strategies=("EUCLID", "EUCLID"))
    with pytest.raises(ValueError, match="at least one"):
        ExperimentConfig(synth=spec, strategies=())
    with pytest.raises(ValueError, match="positive"):
        ExperimentConfig(synth=spec, n_test=0)
    with pytest.raises(ValueError, match="repeats"):
        ExperimentConfig(synth=spec, repeats=0)
    for bad in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="delta must be finite and > 0"):
            ExperimentConfig(synth=spec, delta=bad)
    for bad in (-1.0, np.inf, np.nan):
        with pytest.raises(ValueError, match="gamma0 must be finite and >= 0"):
            ExperimentConfig(synth=spec, gamma0=bad)
    for bad in (-1e-9, np.nan):
        with pytest.raises(ValueError, match="reg must be >= 0"):
            ExperimentConfig(synth=spec, reg=bad)
    # the prior is checked whatever strategies run, before any fit
    with pytest.raises(ValueError, match="delta"):
        ExperimentConfig(synth=spec, strategies=("EUCLID",), delta=0.0)


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


# ---------------------------------------------------------------------------
# the strategy table


def _fit_inputs():
    data = synth_data(SynthSpec(classes=3, per_class=6, dim=4, spread=0.3), seed=11)
    basis = eigen_basis(data, k=2, standardize=False)
    _, pool = build_pool(data, data.n, seed=0)
    pool = label_initial_pairs(pool, data, 8, seed=3)
    return data, basis, pool


@pytest.mark.parametrize("name", sorted(STRATEGY_TABLE))
def test_fit_strategy_follows_the_table(name, monkeypatch):
    data, basis, pool = _fit_inputs()
    constraints = pool.labeled
    prior = vb.PriorConfig(gamma0=0.5, delta=2.0)
    sol = mle.mle_fit(constraints, data, basis, reg=0.3)
    post = vb.fit(constraints, data, basis, prior)
    expected = {
        "RANDOM": (None, Scorer.random()),
        "RANDOM_MLE": (metric.from_mle(sol, basis), Scorer.random()),
        "MLE_ACT": (metric.from_mle(sol, basis), Scorer.mle_act(data, basis, sol.gamma)),
        "BAYES_ACT": (metric.from_posterior(post, basis),
                      Scorer.bayes_act(data, basis, post)),
        "BAYES_VAR": (metric.from_posterior(post, basis),
                      Scorer.bayes_var(data, basis, post)),
        "EUCLID": (None, None),
    }
    assert set(expected) == set(STRATEGY_TABLE)

    # the fits are looked up on their modules at call time
    calls = []
    for module, attr in ((mle, "mle_fit"), (vb, "fit")):
        def counted(*args, _fn=getattr(module, attr), _name=attr, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, attr, counted)
    model, scorer, estimate = fit_strategy(name, constraints, data, basis, prior, 0.3)
    fit = STRATEGY_TABLE[name].fit
    assert calls == ({"mle": ["mle_fit"], "vb": ["fit"]}[fit] if fit else [])
    want_estimate = {"mle": sol, "vb": post}.get(fit)
    if want_estimate is None:
        assert estimate is None
    else:
        assert type(estimate) is type(want_estimate)
        assert estimate.iterations == want_estimate.iterations
        assert estimate.converged == want_estimate.converged

    want_model, want_scorer = expected[name]
    if want_model is None:
        assert model is None
    else:
        assert model.to_dict() == want_model.to_dict()
    if want_scorer is None:
        assert scorer is None
        return
    assert scorer.strategy == want_scorer.strategy == STRATEGY_TABLE[name].scorer
    got = rank_pairs(scorer, pool.unlabeled)
    want = rank_pairs(want_scorer, pool.unlabeled)
    for a, b in zip(got, want):
        npt.assert_array_equal(a, b)


def test_random_mle_fits_an_mle_model_and_scores_every_pair_indifferently():
    data, basis, pool = _fit_inputs()
    constraints = pool.labeled
    model, scorer, _ = fit_strategy("RANDOM_MLE", constraints, data, basis, None, 0.3)
    sol = mle.mle_fit(constraints, data, basis, reg=0.3)
    assert model.to_dict() == metric.from_mle(sol, basis).to_dict()
    pairs, p_plus, h = rank_pairs(scorer, pool.unlabeled)
    assert pairs.shape[0] == len(pool.candidates) - 8
    assert np.all(p_plus == 0.5)
    assert np.all(h == np.log(2.0))


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


def test_loop_runtime_measurement_flag():
    records = run_active_loop(_small_config(measure_runtime=True, repeats=1))
    assert all(r.runtime_ms >= 0.0 for r in records)
    assert any(r.runtime_ms > 0.0 for r in records)


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


def test_loop_wraps_failures_with_context(monkeypatch):
    def boom(*args, **kwargs):
        raise ValueError("synthetic failure")

    monkeypatch.setattr(mle, "mle_fit", boom)
    with pytest.raises(RuntimeError, match=r"strategy=RANDOM_MLE repeat=0 iteration=0"):
        run_active_loop(_small_config(strategies=("RANDOM_MLE",), repeats=1))


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
    for p in paths:
        write_results_csv(records, p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
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
