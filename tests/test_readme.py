"""The README's Python examples run as written, and its `bdml run` command is
the one the output checks and the benchmark run."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from conftest import benchmark_module

ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_blocks_run(tmp_path):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)
    assert len(blocks) >= 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c", "\n\n".join(blocks)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def _without_seed_and_out(argv):
    """``argv`` without ``--seed`` and ``--out`` and their values."""
    argv = list(argv)
    for flag in ("--seed", "--out"):
        if flag in argv:
            del argv[argv.index(flag):argv.index(flag) + 2]
    return argv


def test_the_readme_run_command_has_one_meaning():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    cli = text[text.index("\n## CLI\n"):]
    readme = re.search(r"^```sh\nbdml (run .*?)^```", cli, flags=re.S | re.M).group(1)
    smoke = (ROOT / ".github" / "smoke.sh").read_text(encoding="utf-8")
    readme_pass = re.search(r'^readme_pass\(\) \{.*?"\$@" (run .*?)^\}', smoke,
                            flags=re.S | re.M).group(1)
    workloads = benchmark_module("workloads", ROOT / "perfbench")
    copies = {
        "README.md": shlex.split(readme.replace("\\\n", " ")),
        "compare_outputs.README_RUN": benchmark_module("compare_outputs").README_RUN,
        "smoke.sh readme_pass": shlex.split(readme_pass.replace("\\\n", " ")),
        "perfbench ReadmeRun": workloads.ReadmeRun(7, Path("work")).argv(Path("out")),
    }
    want = _without_seed_and_out(copies["README.md"])
    assert want[:2] == ["run", "--synth"] and "--strategies" in want
    for where, argv in copies.items():
        assert _without_seed_and_out(argv) == want, where
