"""Record the reference values the score_pool and knn_eval checks compare to.

Usage: ``python3 perfbench/record_reference.py`` from the repository root.

For each of the ``workloads.DATASETS`` data sets it runs the workload's
command once and stores, in ``reference.json``:

- score_pool: the pairs the CLI labeled (all pairs minus those scored)
  and ``p_plus`` of a seeded sample of unlabeled pairs;
- knn_eval: the printed accuracy.

Re-record only when a change is meant to alter these results, and say so
with the change.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import run
import workloads


def record_score_pool(runner, out) -> dict:
    wl = runner.workload
    scores = wl.read_scores(out)
    n = wl.labels.size
    scored = {(i, j) for i, j, _, _ in scores}
    labeled = [[i, j] for i in range(n) for j in range(i + 1, n) if (i, j) not in scored]
    ordered = sorted(scores)
    rng = np.random.default_rng([wl.dataset, 6])
    picks = np.sort(rng.choice(len(ordered), size=workloads.SAMPLE_PAIRS, replace=False))
    return {"labeled": labeled,
            "sample": [[ordered[k][0], ordered[k][1], ordered[k][2]] for k in picks]}


def record_knn_eval(runner, out) -> str:
    stdout = (out / "stdout.txt").read_text()
    return stdout.split("accuracy: ", 1)[1].split()[0]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    env = run.pass_env()
    reference = {"score_pool": {}, "knn_eval": {}}
    recorders = {"score_pool": record_score_pool, "knn_eval": record_knn_eval}
    run.WORK.mkdir(exist_ok=True)
    for name, recorder in recorders.items():
        for dataset in range(workloads.DATASETS):
            work = Path(tempfile.mkdtemp(prefix=f"ref-{name}-", dir=run.WORK))
            try:
                runner = run.Runner(workloads.WORKLOADS[name](dataset, work), env)
                runner.workload.prepare(runner.cli)
                out = work / "pass0"
                out.mkdir()
                code, wall, _ = run.spawn(
                    [sys.executable, "-m", "bdml.cli", *runner.workload.argv(out)],
                    env, out, out / "stdout.txt", out / "stderr.txt")
                if code != 0:
                    raise RuntimeError((out / "stderr.txt").read_text())
                reference[name][str(dataset)] = recorder(runner, out)
                print(f"{name} data set {dataset}: {wall:.2f} s", flush=True)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
