"""The three workloads: input generation, CLI arguments and output checks.

Each workload turns the benchmark seed into input files, names the
``bdml`` command line of one pass, and checks what a pass wrote.  A check
raises :class:`CheckFailed`; the caller counts that pass as failed.

``score_pool`` and ``knn_eval`` compare against values recorded in
``reference.json`` (see ``record_reference.py``), so their inputs come
from one of ``DATASETS`` recorded data sets, picked by ``seed % DATASETS``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"
DATASETS = 16

P_PLUS_ATOL = 1e-9
ENTROPY_ATOL = 1e-12
SAMPLE_PAIRS = 256
SAMPLE_QUERIES = 256


class CheckFailed(Exception):
    """A pass ran but its output is wrong."""


def clusters(seed, classes, per_class, dim, spread):
    """Gaussian clusters with class means on unit axes, sorted by class."""
    rng = np.random.default_rng(seed)
    means = np.zeros((classes, dim))
    for c in range(classes):
        means[c, c % dim] = 1.0 + c // dim
    labels = np.repeat(np.arange(classes), per_class)
    x = means[labels] + spread * rng.standard_normal((labels.size, dim))
    return x, labels


def write_csv(path, x, labels) -> None:
    """Write the ``f0..f{d-1},label`` schema with round-trip float digits."""
    header = ",".join([f"f{c}" for c in range(x.shape[1])] + ["label"])
    fmt = ",".join(["%r"] * x.shape[1] + ["%d"])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row, label in zip(x.tolist(), labels.tolist()):
            fh.write(fmt % (*row, label) + "\n")


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else Path(part).read_bytes())
    return h.hexdigest()


def binary_entropy(p: float) -> float:
    h = 0.0
    if p > 0.0:
        h -= p * math.log(p)
    if p < 1.0:
        h -= (1.0 - p) * math.log(1.0 - p)
    return h


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """One set of inputs; ``prepare`` once, then ``argv``/``check`` per pass."""

    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def prepare(self, cli) -> None:
        """Write the inputs; ``cli(argv)`` runs an untimed bdml command."""

    def argv(self, out: Path) -> list:
        raise NotImplementedError

    def check(self, out: Path, stdout: str):
        """Validate one pass; return (accuracy, digest of its outputs)."""
        raise NotImplementedError

    def check_run(self) -> None:
        """Checks that need no pass output, made once per run."""


class ReadmeRun(Workload):
    """The README ``bdml run`` command, verbatim except for ``--seed``."""

    name = "readme_run"
    strategies = ("RANDOM_MLE", "MLE_ACT", "BAYES_ACT", "BAYES_VAR", "EUCLID")
    repeats, iterations, initial, batch = 20, 5, 10, 20

    def argv(self, out):
        return [
            "run", "--synth", "classes=3,per_class=20,dim=10,spread=0.3",
            "--pool-size", "40", "--test-size", "20",
            "--initial-pairs", str(self.initial), "--batch", str(self.batch),
            "--iterations", str(self.iterations), "--repeats", str(self.repeats),
            "--k", "2", "--no-standardize", "--reg", "5",
            "--strategies", ",".join(self.strategies),
            "--seed", str(self.seed % 2**32), "--out", str(out),
        ]

    def check(self, out, stdout):
        with open(out / "results.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        expected = len(self.strategies) * self.repeats * (self.iterations + 1)
        if len(rows) != expected:
            raise CheckFailed(f"results.csv has {len(rows)} rows, expected {expected}")
        for row in rows:
            t = int(row["iteration"])
            if int(row["n_pairs"]) != self.initial + t * self.batch:
                raise CheckFailed(f"n_pairs {row['n_pairs']} at iteration {t}")
            if not 0.0 <= float(row["accuracy"]) <= 1.0:
                raise CheckFailed(f"accuracy {row['accuracy']} outside [0, 1]")
        with open(out / "summary.csv", newline="", encoding="utf-8") as fh:
            final = [float(r["mean_accuracy"]) for r in csv.DictReader(fh)
                     if r["strategy"] == "BAYES_VAR"
                     and int(r["iteration"]) == self.iterations]
        if len(final) != 1:
            raise CheckFailed("summary.csv lacks the final BAYES_VAR row")
        return final[0], digest(*(out / f for f in
                                  ("results.csv", "summary.csv", "results.json")))


class ScorePool(Workload):
    """``score-pairs`` over every pair of a 500-row CSV: one fit, one big pool."""

    name = "score_pool"
    classes, per_class, dim, spread = 4, 125, 20, 0.3
    initial = 10

    @property
    def dataset(self) -> int:
        return self.seed % DATASETS

    def prepare(self, cli):
        x, self.labels = clusters([self.dataset, 1], self.classes, self.per_class,
                                  self.dim, self.spread)
        self.data = self.work / "pool.csv"
        write_csv(self.data, x, self.labels)

    def argv(self, out):
        return ["score-pairs", "--data", str(self.data), "--strategy", "BAYES_VAR",
                "--initial-pairs", str(self.initial), "--k", "5",
                "--seed", str(self.dataset), "--out", str(out / "scores.csv")]

    def read_scores(self, out):
        with open(out / "scores.csv", newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader) != ["i", "j", "p_plus", "entropy", "strategy"]:
                raise CheckFailed("unexpected scores.csv header")
            return [(int(i), int(j), float(p), float(h)) for i, j, p, h, _ in reader]

    def check(self, out, stdout):
        scores = self.read_scores(out)
        n = self.labels.size
        ref = load_reference()["score_pool"][str(self.dataset)]
        pairs = {(i, j) for i, j, _, _ in scores}
        if len(pairs) != len(scores):
            raise CheckFailed("duplicate pairs in scores.csv")
        if any(not 0 <= i < j < n for i, j in pairs):
            raise CheckFailed("pair outside 0 <= i < j < n")
        labeled = {tuple(p) for p in ref["labeled"]}
        if len(pairs) != n * (n - 1) // 2 - self.initial or pairs & labeled:
            raise CheckFailed("scored pairs are not all pairs minus the labeled ones")
        key = None
        for i, j, p, h in scores:
            if abs(h - binary_entropy(p)) > ENTROPY_ATOL:
                raise CheckFailed(f"entropy {h!r} of ({i}, {j}) is not H({p!r})")
            if key is not None and (-h, i, j) < key:
                raise CheckFailed(f"({i}, {j}) out of (-entropy, i, j) order")
            key = (-h, i, j)
        p_of = {(i, j): p for i, j, p, _ in scores}
        for i, j, p in ref["sample"]:
            if abs(p_of[(i, j)] - p) > P_PLUS_ATOL:
                raise CheckFailed(f"p_plus of ({i}, {j}) is {p_of[(i, j)]!r}, "
                                  f"reference {p!r}")
        same = self.labels[:, None] == self.labels[None, :]
        agree = sum((p > 0.5) == same[i, j] for i, j, p, _ in scores)
        return agree / len(scores), digest(out / "scores.csv")


class KnnEval(Workload):
    """``eval`` of a K=5 model on 20,000 train rows and 5,000 test rows."""

    name = "knn_eval"
    classes, dim, spread = 5, 20, 0.3
    train_per_class, test_per_class, fit_per_class = 4000, 1000, 60

    @property
    def dataset(self) -> int:
        return self.seed % DATASETS

    def prepare(self, cli):
        d = self.dataset
        self.train = self.work / "train.csv"
        self.test = self.work / "test.csv"
        sample = self.work / "fit.csv"
        self.model = self.work / "model.json"
        for path, tag, per_class in ((self.train, 2, self.train_per_class),
                                     (self.test, 3, self.test_per_class),
                                     (sample, 4, self.fit_per_class)):
            x, labels = clusters([d, tag], self.classes, per_class, self.dim,
                                 self.spread)
            write_csv(path, x, labels)
        cli(["score-pairs", "--data", str(sample), "--strategy", "BAYES_ACT",
             "--initial-pairs", "200", "--k", "5", "--no-standardize",
             "--seed", str(d), "--out", str(self.work / "fit_scores.csv"),
             "--save-model", str(self.model)])

    def argv(self, out):
        return ["eval", "--model", str(self.model), "--train", str(self.train),
                "--test", str(self.test)]

    def check(self, out, stdout):
        found = re.search(r"^accuracy: ([0-9.]+) \(n=(\d+)\)$", stdout, re.M)
        if not found:
            raise CheckFailed("no accuracy line in the eval output")
        expected = load_reference()["knn_eval"][str(self.dataset)]
        if found.group(1) != expected:
            raise CheckFailed(f"accuracy {found.group(1)}, reference {expected}")
        return float(found.group(1)), digest(stdout.encode("utf-8"))

    def check_run(self) -> None:
        """The program's 1NN on a query sample against brute force.

        Brute force runs in the model's projected space, scaled by the
        square roots of the weights; ties go to the lowest train index.
        """
        import bdml

        with open(self.model, encoding="utf-8") as fh:
            doc = json.load(fh)
        model = bdml.MetricModel.from_dict(doc)
        train = bdml.load_csv(self.train)
        test = bdml.load_csv(self.test)
        rng = np.random.default_rng([self.dataset, 5])
        rows = np.sort(rng.choice(test.n, size=SAMPLE_QUERIES, replace=False))
        queries = test.subset(rows)
        got = np.asarray(bdml.knn_classify(model, train, queries))

        basis = doc["basis"]
        vectors = np.array(basis["vectors"])
        center = np.array(basis["center"])
        scale = np.array(basis["scale"])
        root = np.sqrt(np.array(doc["weights"]))
        t = ((train.x - center) / scale) @ vectors.T * root
        q = ((queries.x - center) / scale) @ vectors.T * root
        for row, label in zip(q, got):
            d2 = ((t - row) ** 2).sum(axis=1)
            best = int(np.flatnonzero(d2 == d2.min())[0])
            if train.labels[best] != label:
                raise CheckFailed("1NN prediction differs from brute force")


WORKLOADS = {w.name: w for w in (ReadmeRun, ScorePool, KnnEval)}
