"""Check that the command line writes the same bytes as at a git revision.

Usage::

    python3 benchmarks/compare_outputs.py REV [--seeds 0,7,13,99,2026]

REV is unpacked with ``git archive`` into a temporary directory.  Under
that tree and under this checkout, each in a directory of its own with
``PYTHONPATH`` pointing at the tree's ``src`` and BLAS pinned to one
thread, the script runs:

- the README ``bdml run`` command once per seed;
- ``score-pairs`` per seed on a generated labeled CSV, for each strategy
  that either tree's ``score-pairs --strategy`` offers (read from its
  ``--help``), with ``--save-model`` where the strategy's row in either
  tree's ``bdml.config.STRATEGY_TABLE`` fits a model; the others write
  the scores only, and a strategy one tree lacks fails there, so it
  shows as a difference;
- ``eval`` of one saved model per seed.

It compares every file the commands wrote, and each command's exit
code, standard output and standard error.  It prints one line per
difference and exits 1 if there is any, 0 otherwise.

Under the line of a CSV or JSON file that differs and exists on both
sides, it also prints the largest absolute and relative change of its
numbers and the values that differ.  A CSV row is matched by its fields
that are not floats (in a score file the pair and the strategy), so rows
that only moved in the ranking still pair up; a JSON value by its key
path.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
README_RUN = (
    "run", "--synth", "classes=3,per_class=20,dim=10,spread=0.3",
    "--pool-size", "40", "--test-size", "20", "--initial-pairs", "10",
    "--batch", "20", "--iterations", "5", "--repeats", "20", "--k", "2",
    "--no-standardize", "--reg", "5",
    "--strategies", "RANDOM_MLE,MLE_ACT,BAYES_ACT,BAYES_VAR,EUCLID",
)
SCORE_FLAGS = ("--initial-pairs", "10", "--k", "2", "--no-standardize")
SHOWN = 10  # differing values listed per differing file
# prints the names of the strategy-table rows that fit a model, as JSON
FITTED = ("import json, sys; from bdml.config import STRATEGY_TABLE as table; "
          "json.dump(sorted(name for name, row in table.items() if row.fit), sys.stdout)")


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


def environment(tree: Path) -> dict:
    """Run ``tree``'s sources with BLAS pinned to one thread."""
    return dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def strategy_choices(tree: Path) -> tuple:
    """``tree``'s ``score-pairs --strategy`` choices, read from its ``--help``, and
    the names of its strategy-table rows that fit a model and so can save one."""
    def output(*args):
        return subprocess.run([sys.executable, *args], cwd=tree, env=environment(tree),
                              capture_output=True, text=True, check=True).stdout
    usage = output("-m", "bdml.cli", "score-pairs", "--help")
    choices = re.search(r"--strategy \{([^}]*)\}", usage).group(1).split(",")
    return sorted(choices), json.loads(output("-c", FITTED))


def commands(seeds, inputs: Path, scorers, fitted) -> list:
    """The commands run under both trees: ``score-pairs`` for each of ``scorers``,
    with ``--save-model`` for those among ``fitted``."""
    data, test = str(inputs / "data.csv"), str(inputs / "test.csv")
    cmds = []
    for seed in seeds:
        cmds.append(README_RUN + ("--seed", str(seed), "--out", f"run_{seed}"))
        for name in scorers:
            cmd = ("score-pairs", "--data", data, "--strategy", name,
                   "--seed", str(seed), *SCORE_FLAGS, "--out", f"scores_{name}_{seed}.csv")
            if name in fitted:
                cmd += ("--save-model", f"model_{name}_{seed}.json")
            cmds.append(cmd)
        cmds.append(("eval", "--model", f"model_BAYES_VAR_{seed}.json",
                     "--train", data, "--test", test))
    return cmds


def run_all(tree: Path, work: Path, cmds) -> list:
    """Run each command under ``tree``'s sources in ``work``; return what it printed."""
    work.mkdir()
    env = environment(tree)
    printed = []
    for cmd in cmds:
        proc = subprocess.run([sys.executable, "-m", "bdml.cli", *cmd], cwd=work,
                              env=env, capture_output=True)
        printed.append((proc.returncode, proc.stdout, proc.stderr))
    return printed


def files(work: Path) -> dict:
    return {p.relative_to(work).as_posix(): p.read_bytes()
            for p in sorted(work.rglob("*")) if p.is_file()}


def _is_float(field: str) -> bool:
    """True for a float field such as ``0.5`` or ``1e-06``; False for ints and text."""
    try:
        float(field)
    except ValueError:
        return False
    try:
        int(field)
    except ValueError:
        return True
    return False


def values(name: str, data: bytes) -> dict:
    """Every value of a CSV or JSON file under a key that says where it sits."""
    text = data.decode("utf-8")
    found = {}
    if name.endswith(".json"):
        def walk(node, path):
            if isinstance(node, dict):
                for key, value in node.items():
                    walk(value, f"{path}.{key}" if path else key)
            elif isinstance(node, list):
                for i, value in enumerate(node):
                    walk(value, f"{path}[{i}]")
            else:
                found[path] = node
        walk(json.loads(text), "")
        return found
    rows = list(csv.reader(io.StringIO(text)))
    header, seen = rows[0], {}
    for row in rows[1:]:
        ident = ",".join(field for field in row if not _is_float(field))
        seen[ident] = seen.get(ident, 0) + 1
        if seen[ident] > 1:
            ident += f"#{seen[ident]}"
        for column, field in zip(header, row):
            if _is_float(field):
                found[f"{ident} {column}"] = float(field)
    return found


def number_diff(name: str, old: bytes, new: bytes):
    """Compare the values of two versions of a CSV or JSON file.

    Returns ``(max_abs, max_rel, changed)``: the largest absolute and
    relative (to the larger magnitude) change over the numbers present
    in both, and one ``(key, old, new)`` per value that differs, with None
    where a key is missing on one side.
    """
    a, b = values(name, old), values(name, new)
    max_abs = max_rel = 0.0
    changed = []
    for key in list(a) + [k for k in b if k not in a]:
        x, y = a.get(key), b.get(key)
        if x == y or (x != x and y != y):
            continue
        changed.append((key, x, y))
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        if numeric:
            delta = abs(x - y)
            max_abs = max(max_abs, delta)
            max_rel = max(max_rel, delta / max(abs(x), abs(y)))
    return max_abs, max_rel, changed


def describe_diff(name: str, old: bytes, new: bytes) -> list:
    max_abs, max_rel, changed = number_diff(name, old, new)
    lines = [f"  {len(changed)} values differ, max abs {max_abs:.3g}, max rel {max_rel:.3g}"]
    lines += [f"  {key}: {x!r} -> {y!r}" for key, x, y in changed[:SHOWN]]
    if len(changed) > SHOWN:
        lines.append(f"  ... and {len(changed) - SHOWN} more")
    return lines


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
        old_scorers, old_fitted = strategy_choices(tmp / "rev")
        new_scorers, new_fitted = strategy_choices(ROOT)
        cmds = commands(seeds, inputs, sorted({*old_scorers, *new_scorers}),
                        {*old_fitted, *new_fitted})
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
    details = {}
    for name in sorted(old_files.keys() | new_files.keys()):
        a, b = old_files.get(name), new_files.get(name)
        if a != b:
            differences.append(f"file differs: {name}")
            if a is not None and b is not None and name.endswith((".csv", ".json")):
                details[differences[-1]] = describe_diff(name, a, b)
    for line in differences:
        print(line)
        for detail in details.get(line, ()):
            print(detail)
    print(f"{len(old_files)} files and {len(cmds)} commands compared against "
          f"{args.rev} on seeds {','.join(map(str, seeds))}: "
          f"{len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
