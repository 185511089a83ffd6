import dataclasses
import gc
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bdml
from bdml import active, harness, mle, vb
from bdml.cli import build_parser, main, parse_synth_spec
from bdml.harness import STRATEGY_TABLE, ExperimentConfig, SynthSpec, synth_data
from bdml.spectral import DataMatrix, load_csv, save_csv


@pytest.fixture
def data_csv(tmp_path):
    data = synth_data(SynthSpec(classes=3, per_class=8, dim=5, spread=0.2), seed=7)
    path = tmp_path / "data.csv"
    save_csv(data, path)
    return str(path)


def _run_args(data_csv, out, extra=()):
    return [
        "run", "--data", data_csv, "--out", str(out),
        "--pool-size", "12", "--test-size", "6",
        "--initial-pairs", "4", "--batch", "3", "--iterations", "1",
        "--repeats", "2", "--k", "2", "--no-standardize",
        "--strategies", "EUCLID,RANDOM_MLE,BAYES_VAR",
    ] + list(extra)


def test_parse_synth_spec():
    spec = parse_synth_spec("classes=4,per_class=6,dim=3,spread=0.25")
    assert spec == SynthSpec(classes=4, per_class=6, dim=3, spread=0.25)
    assert parse_synth_spec("spread=0.1") == SynthSpec(spread=0.1)
    assert parse_synth_spec("per-class=5") == SynthSpec(per_class=5)
    with pytest.raises(ValueError, match="key=value"):
        parse_synth_spec("classes")
    with pytest.raises(ValueError, match="unknown synth spec key"):
        parse_synth_spec("widgets=3")
    with pytest.raises(ValueError, match=r"^synth spec key 'classes' is given twice$"):
        parse_synth_spec("classes=3,classes=4")
    with pytest.raises(ValueError, match=r"^classes must be int, got '3\.5'$"):
        parse_synth_spec("classes=3.5")
    with pytest.raises(ValueError, match=r"^spread must be float, got 'abc'$"):
        parse_synth_spec("spread=abc")
    with pytest.raises(ValueError, match=r"^spread must be positive and finite, got inf$"):
        parse_synth_spec("spread=inf")
    with pytest.raises(ValueError, match=r"^per_class must be at least 2 \(examples per class\)$"):
        parse_synth_spec("per_class=1")


def test_parse_synth_spec_takes_every_synth_spec_field():
    for f in dataclasses.fields(SynthSpec):
        value = f.default + 1
        parsed = getattr(parse_synth_spec(f"{f.name}={value}"), f.name)
        assert parsed == value and type(parsed) is type(f.default)


def test_run_defaults_are_the_config_defaults(tmp_path, monkeypatch):
    class Stop(Exception):
        pass

    seen = []

    def stop(config, fit_tally):
        seen.append(config)
        raise Stop

    monkeypatch.setattr(harness, "run_active_loop", stop)
    args = build_parser().parse_args(["run", "--synth", "", "--out", str(tmp_path)])
    with pytest.raises(Stop):
        args.func(args)
    assert seen == [ExperimentConfig(synth=SynthSpec())]


def test_an_infinite_reg_is_named_before_any_fit(tmp_path, data_csv, capsys):
    for argv in (_run_args(data_csv, tmp_path / "out", ["--reg", "inf"]),
                 ["score-pairs", "--data", data_csv, "--strategy", "MLE_ACT",
                  "--reg", "inf", "--k", "2"]):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
        assert code == 1
        assert caught == []
        printed = capsys.readouterr()
        assert printed.err == "error: reg must be finite, got inf\n"
        assert printed.out == ""


def test_run_names_a_negative_seed_before_writing(tmp_path, data_csv, capsys):
    out = tmp_path / "out"
    assert main(_run_args(data_csv, out, ["--seed", "-1"])) == 1
    printed = capsys.readouterr()
    assert printed.err == "error: seed must be >= 0, got -1\n"
    assert printed.out == ""
    assert not out.exists()


def test_run_writes_the_three_artifacts(tmp_path, data_csv, capsys):
    out = tmp_path / "out"
    assert main(_run_args(data_csv, out)) == 0
    printed = capsys.readouterr().out
    assert "strategy" in printed and "±" in printed
    assert f"results written to {out}" in printed
    for name in ("results.csv", "summary.csv", "results.json"):
        assert (out / name).exists()
    doc = json.loads((out / "results.json").read_text())
    assert doc["config"]["pool_size"] == 12
    assert len(doc["records"]) == 3 * 2 * 2  # strategies x repeats x iterations+1


def test_run_is_byte_deterministic(tmp_path, data_csv):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert main(_run_args(data_csv, out)) == 0
    for name in ("results.csv", "summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_run_reports_non_converged_fits_on_stderr_only(tmp_path, data_csv, capsys, monkeypatch):
    outs = [tmp_path / "plain", tmp_path / "flagged"]
    assert main(_run_args(data_csv, outs[0])) == 0
    plain = capsys.readouterr()
    assert plain.err == ""

    calls = []

    def every_other_unconverged(*args, _fn=mle.fit_many, **kwargs):
        fitted = _fn(*args, **kwargs)
        flags = []
        for converged in fitted.converged.tolist():
            calls.append(1)
            flags.append(len(calls) % 2 == 0 and converged)
        return dataclasses.replace(fitted, converged=np.array(flags))

    monkeypatch.setattr(mle, "fit_many", every_other_unconverged)
    assert main(_run_args(data_csv, outs[1])) == 0
    flagged = capsys.readouterr()
    assert len(calls) == 4  # RANDOM_MLE: 2 repeats x 2 iterations
    assert flagged.err == "warning: 2 of 4 mle fits did not converge\n"
    assert flagged.out.replace(str(outs[1]), str(outs[0])) == plain.out
    for name in ("results.csv", "summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def _cli_process(argv, cwd):
    """``python -m bdml.cli`` with ``argv`` in a fresh interpreter."""
    src = str(Path(bdml.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "bdml.cli", *argv], env=env, cwd=cwd,
                          capture_output=True, text=True)


def test_the_process_entry_writes_what_main_writes(tmp_path, capsys):
    # the entry freezes the heap after main returns; main, called in-process, never does
    argv = ["run", "--synth", "classes=3,per_class=8,dim=4,spread=0.3", "--pool-size", "10",
            "--test-size", "5", "--initial-pairs", "4", "--batch", "3", "--iterations", "1",
            "--repeats", "2", "--k", "2", "--no-standardize",
            "--strategies", "EUCLID,MLE_ACT,BAYES_VAR", "--out"]
    frozen = gc.get_freeze_count()
    assert main([*argv, str(tmp_path / "main")]) == 0
    assert gc.get_freeze_count() == frozen
    printed = capsys.readouterr().out
    proc = _cli_process([*argv, str(tmp_path / "process")], tmp_path)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == printed.replace(str(tmp_path / "main"), str(tmp_path / "process"))
    for name in ("results.csv", "summary.csv", "results.json"):
        assert (tmp_path / "process" / name).read_bytes() == (tmp_path / "main" / name).read_bytes()
    missing = _cli_process(["run", "--data", "missing.csv", "--out", "out"], tmp_path)
    assert missing.returncode == 1 and missing.stderr.startswith("error: ")
    assert _cli_process(["run", "--pool-size", "ten"], tmp_path).returncode == 2


def test_run_accepts_synthetic_source(tmp_path, capsys):
    out = tmp_path / "synth_out"
    code = main([
        "run", "--synth", "classes=3,per_class=8,dim=4,spread=0.3",
        "--out", str(out), "--pool-size", "10", "--test-size", "5",
        "--initial-pairs", "4", "--batch", "3", "--iterations", "0",
        "--repeats", "1", "--k", "2", "--no-standardize",
        "--strategies", "EUCLID",
    ])
    assert code == 0
    assert (out / "results.csv").exists()


def test_score_pairs_stdout(data_csv, capsys):
    code = main([
        "score-pairs", "--data", data_csv, "--strategy", "MLE_ACT",
        "--initial-pairs", "6", "--k", "2", "--no-standardize",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "i,j,p_plus,entropy,strategy"
    assert len(lines) == 1 + (24 * 23) // 2 - 6
    i, j, p_plus, ent, strategy = lines[1].split(",")
    assert 0.0 <= float(p_plus) <= 1.0
    assert strategy == "MLE_ACT"
    # rows arrive most uncertain first
    entropies = [float(line.split(",")[3]) for line in lines[1:]]
    assert entropies == sorted(entropies, reverse=True)


def test_score_pairs_writes_files(tmp_path, data_csv, capsys):
    out = tmp_path / "scores.csv"
    model_path = tmp_path / "model.json"
    code = main([
        "score-pairs", "--data", data_csv, "--strategy", "BAYES_VAR",
        "--initial-pairs", "6", "--k", "2", "--no-standardize",
        "--out", str(out), "--save-model", str(model_path),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert f"written to {out}" in printed
    assert f"model written to {model_path}" in printed
    doc = json.loads(model_path.read_text())
    assert len(doc["weights"]) == 2
    assert doc["threshold"] >= 0


def test_score_pairs_random_cannot_save_a_model(tmp_path, data_csv, capsys):
    scores = tmp_path / "scores.csv"
    code = main([
        "score-pairs", "--data", data_csv, "--strategy", "RANDOM",
        "--initial-pairs", "6", "--save-model", str(tmp_path / "m.json"),
        "--out", str(scores),
    ])
    assert code == 1
    printed = capsys.readouterr()
    assert "error: RANDOM fits no model" in printed.err
    assert printed.out == ""
    assert not scores.exists()
    assert not (tmp_path / "m.json").exists()


def test_score_pairs_names_a_nan_reg(data_csv, capsys):
    code = main([
        "score-pairs", "--data", data_csv, "--strategy", "MLE_ACT",
        "--reg", "nan", "--k", "2",
    ])
    assert code == 1
    printed = capsys.readouterr()
    assert printed.err == "error: reg must be >= 0, got nan\n"
    assert printed.out == ""


@pytest.mark.parametrize("strategy, option, message", [
    ("BAYES_VAR", ["--reg", "inf"], "reg must be finite, got inf"),
    ("MLE_ACT", ["--delta", "0"], "delta must be finite and > 0, got 0.0"),
    ("RANDOM", ["--gamma0", "-1"], "gamma0 must be finite and >= 0, got -1.0"),
])
def test_score_pairs_checks_every_model_option(strategy, option, message, tmp_path, data_csv,
                                               capsys):
    # the rules run applies, whichever strategy fits
    code = main(["score-pairs", "--data", data_csv, "--strategy", strategy, "--k", "2",
                 "--out", str(tmp_path / "s.csv")] + option)
    assert code == 1
    printed = capsys.readouterr()
    assert printed.err == f"error: {message}\n"
    assert printed.out == ""
    assert not (tmp_path / "s.csv").exists()


def test_score_pairs_names_a_negative_seed_before_reading_the_csv(tmp_path, capsys):
    # the CSV does not exist, so any read of it would fail with another message
    out, model = tmp_path / "s.csv", tmp_path / "m.json"
    code = main(["score-pairs", "--data", str(tmp_path / "missing.csv"), "--seed", "-5",
                 "--out", str(out), "--save-model", str(model)])
    assert code == 1
    printed = capsys.readouterr()
    assert printed.err == "error: seed must be >= 0, got -5\n"
    assert printed.out == ""
    assert not out.exists() and not model.exists()


@pytest.mark.parametrize("command", ["run", "score-pairs"])
@pytest.mark.parametrize("flag, value, message", [
    ("--k", "0", "k must be at least 1, got 0"),
    ("--energy", "1.5", "energy fraction must be in (0, 1], got 1.5"),
])
def test_basis_options_are_named_before_reading_the_csv(command, flag, value, message,
                                                        tmp_path, capsys):
    # the CSV does not exist, so any read of it would fail with another message
    out = tmp_path / "out"
    code = main([command, "--data", str(tmp_path / "missing.csv"), flag, value, "--out", str(out)])
    assert code == 1
    printed = capsys.readouterr()
    assert printed.err == f"error: {message}\n"
    assert printed.out == ""
    assert not out.exists()


@pytest.mark.parametrize("strategy, module, attr, tag", [
    ("MLE_ACT", mle, "fit_many", "mle"),
    ("BAYES_VAR", vb, "fit_many", "vb"),
])
def test_score_pairs_warns_when_the_fit_did_not_converge(
        strategy, module, attr, tag, tmp_path, data_csv, capsys, monkeypatch):
    def run(name):
        code = main([
            "score-pairs", "--data", data_csv, "--strategy", strategy,
            "--initial-pairs", "6", "--k", "2", "--no-standardize",
            "--out", str(tmp_path / f"{name}.csv"),
            "--save-model", str(tmp_path / f"{name}.json"),
        ])
        assert code == 0
        return capsys.readouterr()

    converged = run("converged")
    assert converged.err == ""

    def stalled(*args, _fit=getattr(module, attr), **kwargs):
        fitted = _fit(*args, **kwargs)
        return dataclasses.replace(fitted, converged=np.zeros_like(fitted.converged),
                                   iterations=np.full_like(fitted.iterations, 77))

    monkeypatch.setattr(module, attr, stalled)
    printed = run("stalled")
    assert printed.err == f"warning: {tag} fit did not converge after 77 iterations\n"
    assert printed.out == converged.out.replace(
        str(tmp_path / "converged"), str(tmp_path / "stalled"))
    for suffix in (".csv", ".json"):
        assert ((tmp_path / f"stalled{suffix}").read_bytes()
                == (tmp_path / f"converged{suffix}").read_bytes())


@pytest.mark.parametrize("n", [0, 24 * 23 // 2 + 1])
def test_score_pairs_rejects_initial_pairs_out_of_range(data_csv, capsys, n):
    code = main([
        "score-pairs", "--data", data_csv, "--initial-pairs", str(n), "--k", "2",
    ])
    assert code == 1
    printed = capsys.readouterr()
    assert printed.err == f"error: --initial-pairs must lie in [1, 276], got {n}\n"
    assert printed.out == ""


def test_score_pairs_offers_exactly_the_scorer_strategies():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    strategy = next(a for a in sub.choices["score-pairs"]._actions
                    if a.dest == "strategy")
    assert strategy.choices == ["BAYES_ACT", "BAYES_VAR", "MLE_ACT", "RANDOM"]
    # one set of tags: the rule table's, the strategy table's scorer column and these choices
    scorers = {row.scorer for row in STRATEGY_TABLE.values()} - {None}
    assert set(active.RULES) == set(strategy.choices) == scorers
    # score-pairs, smoke.sh and compare_outputs.py look a tag's row up by the tag itself
    for tag in strategy.choices:
        assert STRATEGY_TABLE[tag].scorer == tag


@pytest.mark.parametrize("strategy", sorted(active.RULES))
def test_score_pairs_with_every_pair_labeled_writes_the_header_alone(strategy, tmp_path,
                                                                     data_csv, capsys):
    out, model = tmp_path / "s.csv", tmp_path / "m.json"
    fits = STRATEGY_TABLE[strategy].fit is not None
    code = main(["score-pairs", "--data", data_csv, "--strategy", strategy,
                 "--initial-pairs", "276", "--k", "2", "--out", str(out),
                 *(["--save-model", str(model)] if fits else [])])
    assert code == 0
    printed = capsys.readouterr()
    assert printed.err == ""
    assert printed.out == (f"0 pair scores written to {out}\n"
                           + (f"model written to {model}\n" if fits else ""))
    assert out.read_bytes() == b"i,j,p_plus,entropy,strategy\r\n"
    if fits:
        assert len(json.loads(model.read_text())["weights"]) == 2


def _unlabeled(data_csv, tmp_path):
    path = tmp_path / "unlabeled.csv"
    save_csv(DataMatrix(load_csv(data_csv).x), path)
    return str(path)


def test_score_pairs_names_an_unlabeled_csv(tmp_path, data_csv, capsys):
    code = main(["score-pairs", "--data", _unlabeled(data_csv, tmp_path), "--k", "2"])
    assert code == 1
    printed = capsys.readouterr()
    assert printed.err == "error: score-pairs needs a labeled CSV (oracle labels)\n"
    assert printed.out == ""


def test_eval_round_trip(tmp_path, data_csv, capsys):
    model_path = tmp_path / "model.json"
    main([
        "score-pairs", "--data", data_csv, "--strategy", "BAYES_ACT",
        "--initial-pairs", "8", "--k", "2", "--no-standardize",
        "--save-model", str(model_path), "--out", str(tmp_path / "s.csv"),
    ])
    test_data = synth_data(SynthSpec(classes=3, per_class=4, dim=5, spread=0.2),
                           seed=8)
    test_path = tmp_path / "test.csv"
    save_csv(test_data, test_path)
    capsys.readouterr()
    code = main([
        "eval", "--model", str(model_path),
        "--train", data_csv, "--test", str(test_path),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("accuracy: ")
    assert "(n=12)" in printed
    acc = float(printed.split()[1])
    assert 0.0 <= acc <= 1.0


def test_eval_names_an_unlabeled_train_or_test_csv(tmp_path, data_csv, capsys):
    model_path = tmp_path / "model.json"
    main(["score-pairs", "--data", data_csv, "--strategy", "BAYES_ACT", "--k", "2",
          "--save-model", str(model_path), "--out", str(tmp_path / "s.csv")])
    unlabeled = _unlabeled(data_csv, tmp_path)
    for train, test in ((unlabeled, data_csv), (data_csv, unlabeled)):
        capsys.readouterr()
        code = main(["eval", "--model", str(model_path), "--train", train, "--test", test])
        assert code == 1
        printed = capsys.readouterr()
        assert printed.err == "error: eval needs labeled train and test CSVs\n"
        assert printed.out == ""


def test_eval_names_a_model_basis_of_the_wrong_shape(tmp_path, data_csv, capsys):
    model_path = tmp_path / "model.json"
    main(["score-pairs", "--data", data_csv, "--strategy", "BAYES_ACT", "--k", "2",
          "--save-model", str(model_path), "--out", str(tmp_path / "s.csv")])
    saved = json.loads(model_path.read_text())
    d = len(saved["basis"]["center"])
    bad = (("vectors", [1.0] * d, "vectors must be 2-d (k, d)"),
           ("vectors", [[1.0] + [0.0] * (d - 1)] * (d + 1),
            f"need 1 <= k <= d, got k={d + 1}, d={d}"),
           ("eigenvalues", [1.0], "inconsistent basis shapes"),
           ("center", [0.0] * (d + 1), "inconsistent basis shapes"),
           ("scale", [1.0] * (d - 1), "inconsistent basis shapes"))
    for entry, value, message in bad:
        doc = json.loads(model_path.read_text())
        doc["basis"][entry] = value
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["eval", "--model", str(bad_path), "--train", data_csv, "--test", data_csv])
        assert code == 1, entry
        assert capsys.readouterr().err == f"error: {message}\n", entry


def test_eval_rejects_an_overflowing_weight(tmp_path, data_csv, capsys):
    model_path = tmp_path / "model.json"
    main([
        "score-pairs", "--data", data_csv, "--strategy", "BAYES_ACT",
        "--initial-pairs", "8", "--k", "2", "--no-standardize",
        "--save-model", str(model_path), "--out", str(tmp_path / "s.csv"),
    ])
    doc = json.loads(model_path.read_text())
    doc["weights"][0] = "OVERFLOW"
    model_path.write_text(json.dumps(doc).replace('"OVERFLOW"', "1e400"))
    capsys.readouterr()
    code = main(["eval", "--model", str(model_path),
                 "--train", data_csv, "--test", data_csv])
    assert code == 1
    assert capsys.readouterr().err == "error: weights must be finite\n"


def test_eval_names_what_a_malformed_model_file_lacks(tmp_path, data_csv, capsys):
    model_path = tmp_path / "model.json"
    main([
        "score-pairs", "--data", data_csv, "--strategy", "BAYES_ACT",
        "--initial-pairs", "8", "--k", "2", "--no-standardize",
        "--save-model", str(model_path), "--out", str(tmp_path / "s.csv"),
    ])
    doc = json.loads(model_path.read_text())
    del doc["basis"]["vectors"]
    bad = [(json.dumps(doc), "error: model basis has no 'vectors' entry\n"),
           (json.dumps([doc]), "error: model must be a JSON object\n"),
           ('{\n  "threshold":\n}', f"error: {model_path}: not valid JSON "
                                     "(Expecting value: line 3 column 1 (char 17))\n")]
    doc = json.loads(model_path.read_text())
    for threshold in (None, [0.5], "0.5", True):
        doc["threshold"] = threshold
        bad.append((json.dumps(doc), "error: model 'threshold' entry must be a number, "
                                     f"got {threshold!r}\n"))
    # valid JSON whose 5,001-digit integer Python refuses to convert
    doc["threshold"] = "HUGE"
    content = json.dumps(doc).replace('"HUGE"', "1" + "0" * 5000)
    with pytest.raises(ValueError, match="Exceeds the limit") as limit:
        json.loads(content)
    bad.append((content, f"error: {model_path}: {limit.value}\n"))
    for content, message in bad:
        model_path.write_text(content)
        capsys.readouterr()
        code = main(["eval", "--model", str(model_path),
                     "--train", data_csv, "--test", data_csv])
        assert code == 1
        assert capsys.readouterr().err == message


@pytest.mark.parametrize("entry", ["weights", "vectors", "eigenvalues", "center", "scale"])
@pytest.mark.parametrize("kind", [str, bool])
def test_eval_refuses_a_model_array_holding_a_string_or_bool(entry, kind, tmp_path, data_csv,
                                                              capsys):
    # numpy would convert either, the number as text to itself; the threshold refuses both too
    model_path = tmp_path / "model.json"
    main(["score-pairs", "--data", data_csv, "--strategy", "BAYES_ACT", "--k", "2",
          "--save-model", str(model_path), "--out", str(tmp_path / "s.csv")])
    doc = json.loads(model_path.read_text())
    holder = doc if entry == "weights" else doc["basis"]
    values = holder[entry]
    row = values[-1] if entry == "vectors" else values
    leaf = row[-1] = kind(row[-1])
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["eval", "--model", str(model_path), "--train", data_csv, "--test", data_csv])
    assert code == 1
    where = "'weights'" if entry == "weights" else f"basis {entry!r}"
    assert capsys.readouterr().err == (
        f"error: model {where} entry must hold only numbers, got {leaf!r}\n")


@pytest.mark.parametrize("entry", ["weights", "vectors", "eigenvalues", "center", "scale"])
def test_eval_names_a_ragged_model_array(entry, tmp_path, data_csv, capsys):
    # a basis row one entry short, or a vector's last number nested in a list
    model_path = tmp_path / "model.json"
    main(["score-pairs", "--data", data_csv, "--strategy", "BAYES_ACT", "--k", "2",
          "--save-model", str(model_path), "--out", str(tmp_path / "s.csv")])
    doc = json.loads(model_path.read_text())
    holder = doc if entry == "weights" else doc["basis"]
    if entry == "vectors":
        holder[entry][-1].pop()
    else:
        holder[entry][-1] = [holder[entry][-1]]
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["eval", "--model", str(model_path), "--train", data_csv, "--test", data_csv])
    assert code == 1
    where = "'weights'" if entry == "weights" else f"basis {entry!r}"
    assert capsys.readouterr().err == f"error: model {where} entry is ragged\n"


def test_eval_names_a_threshold_too_large_for_a_float(tmp_path, data_csv, capsys):
    model_path = tmp_path / "model.json"
    main([
        "score-pairs", "--data", data_csv, "--strategy", "BAYES_ACT",
        "--initial-pairs", "8", "--k", "2", "--no-standardize",
        "--save-model", str(model_path), "--out", str(tmp_path / "s.csv"),
    ])
    saved = model_path.read_text()
    # and an integer as large inside an array entry, by the same check
    for where, verb in (("'threshold'", "is"), ("'weights'", "holds"), ("basis 'center'", "holds")):
        doc = json.loads(saved)
        if verb == "is":
            doc["threshold"] = 10**400
        else:
            (doc["basis"]["center"] if "basis" in where else doc["weights"])[0] = 10**400
        model_path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["eval", "--model", str(model_path), "--train", data_csv, "--test", data_csv])
        assert code == 1
        assert (capsys.readouterr().err
                == f"error: model {where} entry {verb} an integer too large for a float\n")


def test_eval_names_a_model_file_that_is_not_utf8(tmp_path, data_csv, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_bytes(b"\xff{}")
    code = main(["eval", "--model", str(model_path), "--train", data_csv, "--test", data_csv])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {model_path}: not UTF-8 text ('utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte)\n")


def test_errors_exit_nonzero(tmp_path, capsys):
    code = main(["eval", "--model", str(tmp_path / "missing.json"),
                 "--train", "x.csv", "--test", "y.csv"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
