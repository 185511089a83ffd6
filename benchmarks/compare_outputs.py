"""Check that the command line writes the same bytes as at a git revision.

Usage::

    python3 benchmarks/compare_outputs.py REV [--seeds 0,7,13,99,2026]

REV is unpacked with ``git archive`` into a temporary directory.  Under
that tree and under this checkout, each in a directory of its own with
``PYTHONPATH`` pointing at the tree's ``src`` and BLAS pinned to one
thread, the script runs:

- the README ``bdml run`` command once per seed;
- ``score-pairs`` per seed for each scorer strategy on a generated
  labeled CSV, with ``--save-model`` for every strategy that fits one
  (RANDOM fits none, so it writes the scores only);
- ``eval`` of one saved model per seed.

It compares every file the commands wrote, and each command's exit
code, standard output and standard error.  It prints one line per
difference and exits 1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCORERS = ("RANDOM", "MLE_ACT", "BAYES_ACT", "BAYES_VAR")
README_RUN = (
    "run", "--synth", "classes=3,per_class=20,dim=10,spread=0.3",
    "--pool-size", "40", "--test-size", "20", "--initial-pairs", "10",
    "--batch", "20", "--iterations", "5", "--repeats", "20", "--k", "2",
    "--no-standardize", "--reg", "5",
    "--strategies", "RANDOM_MLE,MLE_ACT,BAYES_ACT,BAYES_VAR,EUCLID",
)
SCORE_FLAGS = ("--initial-pairs", "10", "--k", "2", "--no-standardize")


def unpack(rev: str, dest: Path) -> None:
    with subprocess.Popen(["git", "archive", "--format=tar", rev],
                          cwd=ROOT, stdout=subprocess.PIPE) as proc:
        with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
            tar.extractall(dest, filter="data")
    if proc.returncode:
        raise SystemExit(f"git archive {rev} failed")


def write_clusters(path: Path, seed: int, per_class: int) -> None:
    """Three Gaussian clusters in 5 dimensions, in the ``f0..f4,label`` schema."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(3), per_class)
    x = np.eye(3, 5)[labels] + 0.3 * rng.standard_normal((labels.size, 5))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("f0,f1,f2,f3,f4,label\n")
        for row, label in zip(x.tolist(), labels.tolist()):
            fh.write(",".join(map(repr, row)) + f",{label}\n")


def commands(seeds, inputs: Path) -> list:
    data, test = str(inputs / "data.csv"), str(inputs / "test.csv")
    cmds = []
    for seed in seeds:
        cmds.append(README_RUN + ("--seed", str(seed), "--out", f"run_{seed}"))
        for name in SCORERS:
            cmd = ("score-pairs", "--data", data, "--strategy", name,
                   "--seed", str(seed), *SCORE_FLAGS, "--out", f"scores_{name}_{seed}.csv")
            if name != "RANDOM":
                cmd += ("--save-model", f"model_{name}_{seed}.json")
            cmds.append(cmd)
        cmds.append(("eval", "--model", f"model_BAYES_VAR_{seed}.json",
                     "--train", data, "--test", test))
    return cmds


def run_all(tree: Path, work: Path, cmds) -> list:
    """Run each command under ``tree``'s sources in ``work``; return what it printed."""
    work.mkdir()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    printed = []
    for cmd in cmds:
        proc = subprocess.run([sys.executable, "-m", "bdml.cli", *cmd], cwd=work,
                              env=env, capture_output=True)
        printed.append((proc.returncode, proc.stdout, proc.stderr))
    return printed


def files(work: Path) -> dict:
    return {p.relative_to(work).as_posix(): p.read_bytes()
            for p in sorted(work.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare this checkout against")
    parser.add_argument("--seeds", default="0,7,13,99,2026",
                        help="comma-separated seeds for run, score-pairs and eval")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    with tempfile.TemporaryDirectory(prefix="bdml-compare-") as tmp:
        tmp = Path(tmp)
        unpack(args.rev, tmp / "rev")
        inputs = tmp / "inputs"
        inputs.mkdir()
        write_clusters(inputs / "data.csv", seed=1, per_class=10)
        write_clusters(inputs / "test.csv", seed=2, per_class=5)
        cmds = commands(seeds, inputs)
        old = run_all(tmp / "rev", tmp / "old", cmds)
        new = run_all(ROOT, tmp / "new", cmds)
        old_files, new_files = files(tmp / "old"), files(tmp / "new")

    differences = []
    for cmd, a, b in zip(cmds, old, new):
        for what, x, y in zip(("exit code", "stdout", "stderr"), a, b):
            if x != y:
                differences.append(f"{what} differs: bdml {' '.join(cmd)}")
        if a[0]:
            print(f"note: exit code {a[0]} at {args.rev}: bdml {' '.join(cmd)}")
    for name in sorted(old_files.keys() | new_files.keys()):
        if old_files.get(name) != new_files.get(name):
            differences.append(f"file differs: {name}")
    for line in differences:
        print(line)
    print(f"{len(old_files)} files and {len(cmds)} commands compared against "
          f"{args.rev} on seeds {','.join(map(str, seeds))}: "
          f"{len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
