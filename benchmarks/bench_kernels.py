"""Time the numeric kernels, both 1NN searches, the stacked VB and MLE fits,
the stacked iteration step and both CSV readers.

Run as a script: ``PYTHONPATH=src python3 benchmarks/bench_kernels.py
[--json PATH]``.  With ``--json`` it also writes every number it prints to
PATH, with the environment: the python and numpy versions, numpy's BLAS,
the usable CPU count and the BLAS/OpenMP thread variables.
The first table times each public kernel at a fixed size.  The second
times ``nn1_exhaustive`` against ``nn1_many`` of one search, the search
pruned by kd leaves, at four shapes: the ``knn_eval``
benchmark search, a README ``bdml run`` search (40 training rows, at most
``LEAF_ROWS``, so ``nn1_many`` hands it to ``nn1_exhaustive`` and the leaves
column reads 0), a large training set with few queries, and raw d=20
features, as EUCLID searches them at scale, where the boxes prune
least.  The two searches must return identical indices at every shape,
or the script fails.  The third and fourth time each iteration's stacked
fits of the README ``bdml run``, one ``fit_many`` call against 40
``fit_many`` calls of one problem each: the VB stack (20 repeats of
BAYES_ACT and BAYES_VAR) through ``vb.fit_many`` and the MLE stack (20
repeats of RANDOM_MLE and MLE_ACT) through ``mle.fit_many``.  Each
returns one checked stacked result, row n for problem n (a
``vb.VariationalPosterior`` or an ``mle.MleSolution`` holding a stack
along a leading axis); row n of every stacked fit must equal row 0
of the problem's one-problem fit bit for bit (the raw means and bound
trajectories of VB, the weights, objective, iterations and converged
flag of MLE), or the script fails.  The fifth table times the stacks of the same run's
iteration steps, the 1NN searches (``kernels.nn1_many``), the pair
scorings (``active._score_rows``), the selections (``select_many``) and
the oracle (``oracle_label`` of the stacked class labels), against the
same work run by run: each search must give every run the indices of
``nn1_exhaustive``, each Laplace scoring the probabilities of
``laplace_posterior_batch``, each plug-in scoring those of
``expit(-(w @ g))``, each selection the picks of ``active.select`` on the
run's own pool and scorer, and each stacked oracle call the labels of
``oracle_label`` on the run's own pool data, bit for bit, or the script
fails.  The last table times ``load_csv`` against its row loop
alone on a 20,000-row file shaped like ``knn_eval``'s train set (d=20
plus a label) and on a copy holding one ``1_0`` token: the plain file
must take numpy's C reader and the copy the row loop (``load_csv`` runs
with its row loop patched to raise, so the loader itself says which ran),
and both readers must give the same ``x`` bytes, label bytes and label
dtype, or the script fails.  Each number is the best of several samples.
"""

import argparse
import csv
import json
import os
import platform
import tempfile
import timeit
from pathlib import Path
from unittest import mock

import numpy as np

from bdml import active, harness, kernels, mle, spectral, vb

SIZES = {
    "pair_sq_proj": dict(n=400, k=10, m=5000),
    # one search, as a stack of one
    "nn1_many": dict(n_train=2000, n_query=500, k=10),
    # the margins of a README MLE stack: 40 problems of 110 constraints
    "mat_vec": dict(r=40, m=110, k=3),
    # one margin or probability per pair of a 100-example pool
    "expit": dict(m=5000),
    "log_expit": dict(m=5000),
    "xlogx": dict(m=5000),
}

# (label, n_train, n_query, k)
NN1_SHAPES = (
    ("knn_eval", 20000, 5000, 5),
    ("readme_run", 40, 20, 2),
    ("few queries", 1 << 16, 8, 5),
    ("raw d=20", 20000, 1000, 20),
)


def make_inputs(rng):
    s = SIZES
    proj = kernels.as_f64(rng.normal(size=(s["pair_sq_proj"]["n"],
                                           s["pair_sq_proj"]["k"])))
    ii = rng.integers(0, proj.shape[0], size=s["pair_sq_proj"]["m"])
    jj = (ii + 1 + rng.integers(0, proj.shape[0] - 1, size=ii.size)) % proj.shape[0]
    train = kernels.as_f64(rng.normal(size=(1, s["nn1_many"]["n_train"], s["nn1_many"]["k"])))
    queries = kernels.as_f64(rng.normal(size=(1, s["nn1_many"]["n_query"], s["nn1_many"]["k"])))
    r, m, k = (s["mat_vec"][key] for key in ("r", "m", "k"))
    stack = kernels.as_f64(rng.normal(size=(r, m, k)))
    vectors = kernels.as_f64(rng.normal(size=(r, k)))
    margins = kernels.as_f64(rng.normal(scale=10.0, size=s["expit"]["m"]))
    log_margins = kernels.as_f64(rng.normal(scale=10.0, size=s["log_expit"]["m"]))
    probs = kernels.expit(rng.normal(scale=10.0, size=s["xlogx"]["m"]))
    return {
        "pair_sq_proj": (proj, ii, jj),
        "nn1_many": (train, queries),
        "mat_vec": (stack, vectors),
        "expit": (margins,),
        "log_expit": (log_margins,),
        "xlogx": (probs,),
    }


README_CONFIG = harness.ExperimentConfig(
    synth=harness.SynthSpec(classes=3, per_class=20, dim=10, spread=0.3),
    pool_size=40, n_test=20, initial_pairs=10, batch_size=20, iterations=5,
    repeats=20, k=2, standardize=False, reg=5.0,
)


def readme_stacks() -> dict:
    """The arguments of each call of one README ``bdml run`` to the stacked
    fits and to the stacked search, scoring, selection and oracle of its
    iteration steps, in order, by recorded function."""
    sites = ((vb, "fit_many"), (mle, "fit_many"), (kernels, "nn1_many"),
             (active, "_score_rows"), (harness, "select_many"), (harness, "oracle_label"))
    stacks = {site: [] for site in sites}

    def recorder(site, fn):
        def recorded(*args, **kwargs):
            stacks[site].append(args)
            return fn(*args, **kwargs)
        return recorded

    originals = {site: getattr(*site) for site in sites}
    for site, fn in originals.items():
        setattr(*site, recorder(site, fn))
    try:
        harness.run_active_loop(README_CONFIG)
    finally:
        for site, fn in originals.items():
            setattr(*site, fn)
    return stacks


def _score(*args):
    return active._score_rows(*args)[0]


def _runs(args):
    """Each run's arguments of a stacked call: its slice of every array."""
    count = next(len(a) for a in args if isinstance(a, np.ndarray))
    return [[a[n] if isinstance(a, np.ndarray) else a for a in args] for n in range(count)]


def _select_runs(args):
    """Each run's arguments of ``active.select`` for a stacked ``select_many``
    call: its own pool, feature table, scorer, batch and seed.  ``select``
    reads the scorer's tag, weights and covariance; the README-sized basis
    the scorer carries is only checked against the weights' length."""
    tag, labels, features, gamma, sigma, batch, seeds = args
    candidates = np.column_stack(np.triu_indices(README_CONFIG.pool_size, 1))
    data = harness.synth_data(README_CONFIG.synth, 0)
    basis = spectral.eigen_basis(data, k=gamma.shape[-1] - 1,
                                 standardize=README_CONFIG.standardize)
    runs = []
    for n, row in enumerate(labels):
        at = np.flatnonzero(row)
        scorer = active.Scorer(tag, data, basis, gamma[n], None if sigma is None else sigma[n])
        runs.append((active.PairPool(candidates).with_labels_at(at, row[at]), features[n],
                     scorer, batch, seeds[n]))
    return runs


def _oracle_runs(args):
    """Each run's arguments of ``oracle_label`` for a stacked call: a
    DataMatrix of its pool's class labels and its pairs."""
    return [(spectral.DataMatrix(np.zeros((c.size, 1)), c), a, b) for c, a, b in zip(*args)]


# (label, recorded site, which of its calls, the stacked call, one run's call,
# each run's arguments of that call)
STEP_SITES = (
    ("1NN", (kernels, "nn1_many"), lambda args: True,
     kernels.nn1_many, kernels.nn1_exhaustive, _runs),
    ("Laplace scoring", (active, "_score_rows"), lambda args: args[0] == "BAYES_VAR",
     _score, lambda tag, g, sigma, w: active.laplace_posterior_batch(g, sigma, w), _runs),
    ("plug-in scoring", (active, "_score_rows"), lambda args: args[0] != "BAYES_VAR",
     _score, lambda tag, g, sigma, w: kernels.expit(-(w @ g)), _runs),
    ("selection", (harness, "select_many"), lambda args: True,
     active.select_many, active.select, _select_runs),
    ("oracle", (harness, "oracle_label"), lambda args: isinstance(args[0], np.ndarray),
     harness.oracle_label, harness.oracle_label, _oracle_runs),
)


def step_table(stacks) -> list:
    """Check and time the stacked searches and scorings of the README run's
    iteration steps against the same work one run at a time; one row per site."""
    rows = []
    print()
    print(f"{'README step stacks':<32} {'stacked ms':>14} {'per run ms':>10}")
    for label, site, keep, stacked, alone, split in STEP_SITES:
        calls = [args for args in stacks[site] if keep(args)]
        per_run = [split(args) for args in calls]
        for args, runs in zip(calls, per_run):
            got = stacked(*args)
            if len(got) != len(runs) or any(row.tobytes() != alone(*one).tobytes()
                                            for row, one in zip(got, runs)):
                raise SystemExit(f"{label}: a stacked run differs from the run alone")
        t_stack = sum(best_ms(stacked, args, number=3, repeat=3) for args in calls)
        t_alone = sum(best_ms(lambda: [alone(*one) for one in runs], (), number=3, repeat=3)
                      for runs in per_run)
        runs = sum(map(len, per_run))
        shape = f"{label}: {runs} runs, {len(calls)} stacks"
        print(f"{shape:<32} {t_stack:>14.3f} {t_alone:>10.3f}")
        rows.append({"step": label, "runs": runs, "stacks": len(calls),
                     "stacked_ms": t_stack, "per_run_ms": t_alone})
    return rows


def row_loop(path):
    """``load_csv`` with the row loop alone: the header, then every row
    through ``csv`` and Python's ``float`` and ``int``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        return spectral._read_rows(reader, spectral._read_header(reader, path), path)


class RowLoopRan(Exception):
    """Raised in place of ``load_csv``'s row loop by :func:`takes_c_reader`."""


def takes_c_reader(path) -> bool:
    """Whether ``load_csv`` reads ``path`` by numpy's C reader alone: its row
    loop is patched to raise while ``load_csv`` runs."""
    with mock.patch.object(spectral, "_read_rows", side_effect=RowLoopRan):
        try:
            spectral.load_csv(path)
        except RowLoopRan:
            return False
    return True


def csv_table() -> list:
    """Check and time ``load_csv`` against its row loop, on a plain file
    and on one the C reader must refuse; one row per file."""
    rows = []
    print()
    print(f"{'load_csv file':<32} {'load_csv ms':>14} {'row loop ms':>10} {'C reader':>9}")
    data = harness.synth_data(harness.SynthSpec(classes=5, per_class=4000, dim=20,
                                                spread=0.3), seed=0)
    with tempfile.TemporaryDirectory() as tmp:
        plain, odd = Path(tmp, "plain.csv"), Path(tmp, "odd.csv")
        spectral.save_csv(data, plain)
        lines = plain.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = "1_0" + lines[1][lines[1].index(","):]
        odd.write_text("".join(lines), encoding="utf-8")
        for label, path, c_reader in (("20000x20+label", plain, True),
                                      ("the same, one 1_0 token", odd, False)):
            got, want = spectral.load_csv(path), row_loop(path)
            if (got.x.tobytes(), got.labels.tobytes(), got.labels.dtype) != (
                    want.x.tobytes(), want.labels.tobytes(), want.labels.dtype):
                raise SystemExit(f"{label}: load_csv and its row loop disagree")
            if takes_c_reader(path) != c_reader:
                raise SystemExit(f"{label}: the C reader should {'' if c_reader else 'not '}"
                                 "read this file")
            t_load = best_ms(spectral.load_csv, (path,), number=1, repeat=3)
            t_rows = best_ms(row_loop, (path,), number=1, repeat=3)
            print(f"{label:<32} {t_load:>14.3f} {t_rows:>10.3f} {'yes' if c_reader else 'no':>9}")
            rows.append({"file": label, "load_csv_ms": t_load, "row_loop_ms": t_rows,
                         "c_reader": c_reader})
    return rows


def best_ms(fn, args, number=20, repeat=5):
    return min(timeit.repeat(lambda: fn(*args), number=number, repeat=repeat)) / number * 1e3


THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def environment() -> dict:
    """What the timings depend on besides the code: interpreter, numpy, BLAS, CPUs, threads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # a numpy older than 1.26 only prints its configuration
        blas = None
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "nproc": nproc, "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", metavar="PATH",
                        help="also write the printed numbers and the environment to PATH")
    args = parser.parse_args(argv)
    record = {"unit": "ms, best of several samples", "environment": environment()}
    rng = np.random.default_rng(0)
    print(f"{'kernel':<20} {'ms':>10}")
    record["kernels"] = {}
    for name, inputs in make_inputs(rng).items():
        record["kernels"][name] = best_ms(getattr(kernels, name), inputs)
        print(f"{name:<20} {record['kernels'][name]:>10.3f}")

    print()
    print(f"{'nn1 shape':<32} {'exhaustive ms':>14} {'pruned ms':>10} {'leaves':>7}")
    record["nn1"] = []
    for label, n_train, n_query, k in NN1_SHAPES:
        inputs = (kernels.as_f64(rng.normal(size=(1, n_train, k))),
                  kernels.as_f64(rng.normal(size=(1, n_query, k))))
        if not np.array_equal(kernels.nn1_exhaustive(*inputs), kernels.nn1_many(*inputs)):
            raise SystemExit(f"{label}: exhaustive and pruned searches disagree")
        # the exhaustive knn_eval search takes seconds: time it once per sample
        number = max(1, min(20, (1 << 22) // (n_train * n_query)))
        t_exh = best_ms(kernels.nn1_exhaustive, inputs, number=number, repeat=3)
        t_pruned = best_ms(kernels.nn1_many, inputs, number=number, repeat=3)
        leaves = len(kernels._kd_leaves(inputs[0][0].T)[1]) - 1 if n_train > kernels.LEAF_ROWS else 0
        shape = f"{label} {n_train}x{n_query}x{k}"
        print(f"{shape:<32} {t_exh:>14.3f} {t_pruned:>10.3f} {leaves:>7}")
        record["nn1"].append({"shape": label, "n_train": n_train, "n_query": n_query, "k": k,
                              "exhaustive_ms": t_exh, "pruned_ms": t_pruned, "leaves": leaves})

    prior = vb.PriorConfig(gamma0=README_CONFIG.gamma0, delta=README_CONFIG.delta)
    # each fit kind: its fit of a stack, and what of row n of a stack must agree bit for bit
    fits = {
        vb: (lambda w, y: vb.fit_many(w, y, prior),
             lambda s, n: (s.mu_raw[n].tobytes(),
                           s.bound_trajectory[n, : s.iterations[n] + 1].tobytes())),
        mle: (lambda w, y: mle.fit_many(w, y, reg=README_CONFIG.reg),
              lambda s, n: (s.weights[n].tobytes(), s.objective[n], s.iterations[n],
                            s.converged[n])),
    }
    stacks = readme_stacks()
    for module in (vb, mle):
        fit, bits = fits[module]
        kind = module.__name__.rsplit(".", 1)[-1]
        record[f"readme_{kind}_stacks"] = []
        print()
        print(f"{'README ' + kind + ' stack':<32} {'fit_many ms':>14} {'n x fit ms':>10}")
        for t, (w, y, *_) in enumerate(stacks[module, "fit_many"]):
            singles = [(w[n : n + 1], y[n : n + 1]) for n in range(len(w))]
            stacked = fit(w, y)
            for n, single in enumerate(singles):
                if bits(stacked, n) != bits(fit(*single), 0):
                    raise SystemExit(f"iteration {t}: stacked and single {kind} fits disagree")
            t_stack = best_ms(fit, (w, y), number=3, repeat=3)
            t_alone = best_ms(lambda: [fit(*s) for s in singles], (), number=3, repeat=3)
            r, m, dim = w.shape
            shape = f"iteration {t}: {r} x m={m}, k={dim - 1}"
            print(f"{shape:<32} {t_stack:>14.3f} {t_alone:>10.3f}")
            record[f"readme_{kind}_stacks"].append(
                {"iteration": t, "problems": r, "m": m, "k": dim - 1,
                 "fit_many_ms": t_stack, "one_by_one_ms": t_alone})
    record["readme_step_stacks"] = step_table(stacks)
    record["load_csv"] = csv_table()
    if args.json is not None:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")


if __name__ == "__main__":
    main()
