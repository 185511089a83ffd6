import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bdml.harness import SynthSpec, synth_data
from bdml.spectral import eigen_basis

ACCEPTANCE_VERDICTS: list = []
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def pytest_terminal_summary(terminalreporter):
    """Echo one line per acceptance criterion after the run."""
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture
def clusters():
    """Three well-separated Gaussian clusters, 8 points each, d=5."""
    return synth_data(SynthSpec(classes=3, per_class=8, dim=5, spread=0.15), seed=7)


@pytest.fixture
def clusters_basis(clusters):
    return eigen_basis(clusters, k=3, standardize=False)


def random_features(rng, m, k):
    """Constraint feature rows: leading -1, nonnegative body."""
    body = rng.gamma(shape=1.5, scale=1.0, size=(m, k))
    return np.column_stack([-np.ones(m), body])


def random_labels(rng, m):
    return rng.choice([-1.0, 1.0], size=m)


def benchmark_module(name, directory=BENCHMARKS):
    """Import ``<directory>/<name>.py``; ``benchmarks`` and ``perfbench`` are not packages."""
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
