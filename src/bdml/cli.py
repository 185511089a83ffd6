"""Command-line entry points.

Three subcommands: ``run`` executes the full strategy-comparison
experiment, ``score-pairs`` dumps per-pair scores for one fitted model,
``eval`` reports 1NN accuracy of a saved model on held-out data.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from collections import Counter
from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import metric
from .config import (STRATEGY_TABLE, ExperimentConfig, SynthSpec, check_basis, model_prior,
                     run_strategies)
from .spectral import _write_rows, eigen_basis, feature_matrix, load_csv


def parse_synth_spec(text: str) -> SynthSpec:
    """Parse 'classes=3,per_class=20,dim=10,spread=0.4': any of SynthSpec's fields."""
    types = {f.name: type(f.default) for f in fields(SynthSpec)}
    kwargs = {}
    for chunk in filter(None, map(str.strip, text.split(","))):
        if "=" not in chunk:
            raise ValueError(f"synth spec entries must be key=value, got {chunk!r}")
        key, value = chunk.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in types:
            raise ValueError(f"unknown synth spec key {key!r}")
        if key in kwargs:
            raise ValueError(f"synth spec key {key!r} is given twice")
        try:
            kwargs[key] = types[key](value)
        except ValueError:
            raise ValueError(f"{key} must be {types[key].__name__}, got {value!r}") from None
    return SynthSpec(**kwargs)


def _add_model_flags(p):
    p.add_argument("--k", type=int, help="number of basis vectors (default: energy rule)")
    p.add_argument("--energy", type=float, help="spectral energy fraction for automatic k")
    p.add_argument("--gamma0", type=float, help="prior mean")
    p.add_argument("--delta", type=float, help="prior precision")
    p.add_argument("--no-center", dest="center", action="store_false",
                   help="skip mean-centering before the eigendecomposition")
    p.add_argument("--no-standardize", dest="standardize", action="store_false",
                   help="skip per-column z-scoring before the eigendecomposition")
    p.add_argument("--reg", type=float, help="ridge strength for the point-estimate baseline")


def build_parser() -> argparse.ArgumentParser:
    """An option that sets an ExperimentConfig field has its name as dest and its default."""
    parser = argparse.ArgumentParser(
        prog="bdml",
        description="Distance metric learning from pairwise constraints, "
                    "with active pair selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = {f.name: f.default for f in fields(ExperimentConfig)}

    run = sub.add_parser("run", help="run the strategy-comparison experiment")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", dest="data_csv", metavar="DATA", help="labeled dataset CSV")
    src.add_argument("--synth",
                     help="synthetic spec, e.g. classes=3,per_class=20,dim=10,spread=0.4")
    run.add_argument("--strategies",
                     type=lambda text: tuple(s.strip() for s in text.split(",") if s.strip()),
                     help="comma-separated subset of " + ",".join(run_strategies()))
    run.add_argument("--pool-size", type=int)
    run.add_argument("--test-size", dest="n_test", metavar="TEST_SIZE", type=int)
    run.add_argument("--initial-pairs", type=int)
    run.add_argument("--batch", dest="batch_size", metavar="BATCH", type=int)
    run.add_argument("--iterations", type=int)
    run.add_argument("--repeats", type=int)
    run.add_argument("--seed", type=int)
    _add_model_flags(run)
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=cmd_run, **defaults)

    score = sub.add_parser("score-pairs",
                           help="fit one model and dump scores for all unlabeled pairs")
    score.add_argument("--data", dest="data_csv", metavar="DATA", required=True,
                       help="labeled dataset CSV")
    scorers = sorted({row.scorer for row in STRATEGY_TABLE.values()} - {None})
    score.add_argument("--strategy", default="BAYES_VAR", choices=scorers)
    score.add_argument("--initial-pairs", type=int,
                       help="oracle-labeled pairs the model is fitted on")
    score.add_argument("--seed", type=int)
    _add_model_flags(score)
    score.add_argument("--out", help="scores CSV (default: stdout)")
    score.add_argument("--save-model", help="also write the fitted model JSON here")
    score.set_defaults(func=cmd_score_pairs, **defaults)

    ev = sub.add_parser("eval", help="1NN accuracy of a saved model JSON")
    ev.add_argument("--model", required=True, help="model JSON from score-pairs")
    ev.add_argument("--train", required=True, help="labeled training CSV")
    ev.add_argument("--test", required=True, help="labeled test CSV")
    ev.set_defaults(func=cmd_eval)
    return parser


def cmd_run(args) -> int:
    from . import harness

    if args.synth is not None:
        args.synth = parse_synth_spec(args.synth)
    config = ExperimentConfig(**{f.name: getattr(args, f.name) for f in fields(ExperimentConfig)})
    fit_tally = Counter()
    records = harness.run_active_loop(config, fit_tally)
    summary = harness.report(records)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.write_results_csv(records, out / "results.csv")
    harness.write_summary_csv(summary, out / "summary.csv")
    harness.write_results_json(records, config, out / "results.json")
    print(harness.format_report(summary))
    print(f"results written to {out}")
    for line in harness.convergence_warnings(fit_tally):
        print(line, file=sys.stderr)
    return 0


def cmd_score_pairs(args) -> int:
    """Fit and score as the loop does: one ``_fit_all`` stack of one and ``_score_rows``."""
    from . import harness
    from .active import MAX_ENTROPY, READS_SIGMA, RULES, _score_rows

    fit, tag = STRATEGY_TABLE[args.strategy]
    if args.save_model and fit is None:
        raise ValueError(f"{args.strategy} fits no model, nothing to save")
    prior = model_prior(args.gamma0, args.delta, args.reg, args.seed)
    check_basis(args.k, args.energy)
    data = load_csv(args.data_csv)
    if data.labels is None:
        raise ValueError("score-pairs needs a labeled CSV (oracle labels)")
    pool = harness._all_pairs(data.n)
    if not 1 <= args.initial_pairs <= len(pool.candidates):
        raise ValueError(
            f"--initial-pairs must lie in [1, {len(pool.candidates)}], "
            f"got {args.initial_pairs}"
        )
    basis = eigen_basis(data, k=args.k, energy=args.energy,
                        center=args.center, standardize=args.standardize)
    pool = harness.label_initial_pairs(pool, data, args.initial_pairs, args.seed)
    if fit is not None:
        labeled = pool.labels != 0
        w = feature_matrix(data, basis, pool.candidates[labeled])
        fitted = harness._fit_all(fit, [w], pool.labels[labeled][None], prior, args.reg)
        if not fitted.converged[0]:
            print(f"warning: {fit} fit did not converge after "
                  f"{fitted.iterations[0]} iterations", file=sys.stderr)

    pairs = pool.unlabeled
    if RULES[tag] is None:
        p_plus, h = np.full(len(pairs), 0.5), np.full(len(pairs), MAX_ENTROPY)
    else:
        sigma = fitted.sigma[0] if tag in READS_SIGMA else None
        w = feature_matrix(data, basis, pairs)
        p_plus, h = _score_rows(tag, fitted.weights[0], sigma, w)
    order = np.argsort(-h, kind="stable")  # stable on sorted pairs: ties to the lowest (i, j)
    with (open(args.out, "w", newline="", encoding="utf-8") if args.out
          else nullcontext(sys.stdout)) as fh:
        _write_rows(fh, ("i", "j", "p_plus", "entropy", "strategy"), *pairs[order].T.tolist(),
                    p_plus[order].tolist(), h[order].tolist(), [args.strategy] * len(pairs))
    if args.out:
        print(f"{len(pairs)} pair scores written to {args.out}")

    if args.save_model:
        model = metric.from_augmented(fitted.weights[0], basis)
        harness._write_json(model.to_dict(), args.save_model)
        print(f"model written to {args.save_model}")
    return 0


def cmd_eval(args) -> int:
    try:
        with open(args.model, encoding="utf-8") as fh:
            doc = json.load(fh)
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.model}: not UTF-8 text ({exc})") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{args.model}: not valid JSON ({exc})") from None
    except ValueError as exc:  # valid JSON Python will not read: an int past 4,300 digits
        raise ValueError(f"{args.model}: {exc}") from None
    model = metric.MetricModel.from_dict(doc)
    train = load_csv(args.train)
    test = load_csv(args.test)
    if train.labels is None or test.labels is None:
        raise ValueError("eval needs labeled train and test CSVs")
    predictions = metric.knn_classify(model, train, test)
    acc = metric.accuracy(predictions, test.labels)
    print(f"accuracy: {acc:.4f} (n={test.n})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> int:
    """The ``bdml`` script and ``python -m bdml.cli``: :func:`main`'s exit status, with the
    heap frozen after it, so the collections at interpreter exit skip every object made
    since start-up.  ``main`` freezes nothing, since tests call it in-process."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(entry())
