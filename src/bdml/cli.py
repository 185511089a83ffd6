"""Command-line entry points.

Three subcommands: ``run`` executes the full strategy-comparison
experiment, ``score-pairs`` dumps per-pair scores for one fitted model,
``eval`` reports 1NN accuracy of a saved model on held-out data.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import harness, metric, vb
from .active import STRATEGIES as SCORER_STRATEGIES
from .active import PairPool, rank_pairs
from .harness import EXPERIMENT_STRATEGIES, STRATEGY_TABLE, ExperimentConfig, SynthSpec
from .spectral import eigen_basis, load_csv


def parse_synth_spec(text: str) -> SynthSpec:
    """Parse 'classes=3,per_class=20,dim=10,spread=0.4' (any subset)."""
    kwargs = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"synth spec entries must be key=value, got {chunk!r}")
        key, value = chunk.split("=", 1)
        key = key.strip().replace("-", "_")
        if key in ("classes", "per_class", "dim"):
            kwargs[key] = int(value)
        elif key == "spread":
            kwargs[key] = float(value)
        else:
            raise ValueError(f"unknown synth spec key {key!r}")
    return SynthSpec(**kwargs)


def _add_model_flags(p):
    p.add_argument("--k", type=int, default=None,
                   help="number of basis vectors (default: energy rule)")
    p.add_argument("--energy", type=float, default=0.95,
                   help="spectral energy fraction for automatic k")
    p.add_argument("--gamma0", type=float, default=1.0, help="prior mean")
    p.add_argument("--delta", type=float, default=1.0, help="prior precision")
    p.add_argument("--no-center", action="store_true",
                   help="skip mean-centering before the eigendecomposition")
    p.add_argument("--no-standardize", action="store_true",
                   help="skip per-column z-scoring before the eigendecomposition")
    p.add_argument("--reg", type=float, default=1e-6,
                   help="ridge strength for the point-estimate baseline")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdml",
        description="Distance metric learning from pairwise constraints, "
                    "with active pair selection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the strategy-comparison experiment")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--data", help="labeled dataset CSV")
    src.add_argument("--synth",
                     help="synthetic spec, e.g. classes=3,per_class=20,dim=10,spread=0.4")
    run.add_argument("--strategies", default=",".join(EXPERIMENT_STRATEGIES),
                     help="comma-separated subset of " + ",".join(EXPERIMENT_STRATEGIES))
    run.add_argument("--pool-size", type=int, default=50)
    run.add_argument("--test-size", type=int, default=100)
    run.add_argument("--initial-pairs", type=int, default=10)
    run.add_argument("--batch", type=int, default=20)
    run.add_argument("--iterations", type=int, default=5)
    run.add_argument("--repeats", type=int, default=10)
    run.add_argument("--seed", type=int, default=0)
    _add_model_flags(run)
    run.add_argument("--out", required=True, help="output directory")
    run.set_defaults(func=cmd_run)

    score = sub.add_parser("score-pairs",
                           help="fit one model and dump scores for all unlabeled pairs")
    score.add_argument("--data", required=True, help="labeled dataset CSV")
    score.add_argument("--strategy", default="BAYES_VAR",
                       choices=sorted(SCORER_STRATEGIES))
    score.add_argument("--initial-pairs", type=int, default=10,
                       help="oracle-labeled pairs the model is fitted on")
    score.add_argument("--seed", type=int, default=0)
    _add_model_flags(score)
    score.add_argument("--out", help="scores CSV (default: stdout)")
    score.add_argument("--save-model", help="also write the fitted model JSON here")
    score.set_defaults(func=cmd_score_pairs)

    ev = sub.add_parser("eval", help="1NN accuracy of a saved model JSON")
    ev.add_argument("--model", required=True, help="model JSON from score-pairs")
    ev.add_argument("--train", required=True, help="labeled training CSV")
    ev.add_argument("--test", required=True, help="labeled test CSV")
    ev.set_defaults(func=cmd_eval)
    return parser


def cmd_run(args) -> int:
    config = ExperimentConfig(
        data_csv=args.data,
        synth=None if args.synth is None else parse_synth_spec(args.synth),
        pool_size=args.pool_size,
        n_test=args.test_size,
        initial_pairs=args.initial_pairs,
        batch_size=args.batch,
        iterations=args.iterations,
        strategies=tuple(s.strip() for s in args.strategies.split(",") if s.strip()),
        gamma0=args.gamma0,
        delta=args.delta,
        k=args.k,
        energy=args.energy,
        center=not args.no_center,
        standardize=not args.no_standardize,
        reg=args.reg,
        repeats=args.repeats,
        seed=args.seed,
    )
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
    fit = STRATEGY_TABLE[args.strategy].fit
    if args.save_model and fit is None:
        raise ValueError(f"{args.strategy} fits no model, nothing to save")
    prior = vb.PriorConfig(gamma0=args.gamma0, delta=args.delta) if fit == "vb" else None
    data = load_csv(args.data)
    if data.labels is None:
        raise ValueError("score-pairs needs a labeled CSV (oracle labels)")
    pool = PairPool(candidates=np.column_stack(np.triu_indices(data.n, 1)))
    if not 1 <= args.initial_pairs <= len(pool.candidates):
        raise ValueError(
            f"--initial-pairs must lie in [1, {len(pool.candidates)}], "
            f"got {args.initial_pairs}"
        )
    basis = eigen_basis(data, k=args.k, energy=args.energy,
                        center=not args.no_center,
                        standardize=not args.no_standardize)
    pool = harness.label_initial_pairs(pool, data, args.initial_pairs, args.seed)
    model, scorer, estimate = harness.fit_strategy(
        args.strategy, pool.labeled, data, basis, prior, args.reg
    )
    if estimate is not None and not estimate.converged:
        print(f"warning: {fit} fit did not converge after "
              f"{estimate.iterations} iterations", file=sys.stderr)

    ranked, p_plus, h = rank_pairs(scorer, pool.unlabeled)
    rows = [["i", "j", "p_plus", "entropy", "strategy"]]
    rows += [[i, j, repr(p), repr(e), args.strategy]
             for (i, j), p, e in zip(ranked.tolist(), p_plus.tolist(), h.tolist())]
    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(rows)
        print(f"{len(ranked)} pair scores written to {args.out}")
    else:
        writer = csv.writer(sys.stdout)
        writer.writerows(rows)

    if args.save_model:
        with open(args.save_model, "w", encoding="utf-8") as fh:
            json.dump(model.to_dict(), fh, indent=2)
            fh.write("\n")
        print(f"model written to {args.save_model}")
    return 0


def cmd_eval(args) -> int:
    with open(args.model, encoding="utf-8") as fh:
        model = metric.MetricModel.from_dict(json.load(fh))
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


if __name__ == "__main__":
    sys.exit(main())
