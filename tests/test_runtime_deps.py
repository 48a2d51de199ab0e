"""numpy is the runtime's only third-party dependency: every module under
``repro`` imports, and the graph generators run, with scipy unimportable.
And the runtime does not load ``repro.analysis``: checkers and the lint
are tools, armed from outside."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).parents[1]

_PROBE = textwrap.dedent(
    """
    import importlib
    import pkgutil
    import sys


    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ImportError(f"{name} is test-only")
            return None


    sys.meta_path.insert(0, NoScipy())

    import repro
    from repro.workloads.graphs import kronecker_graph, uniform_random_graph

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    uniform_random_graph(64, degree=4, seed=1, with_values=True)
    kronecker_graph(6, edge_factor=4, seed=2, with_values=True)
    assert "scipy" not in sys.modules
    print("ok")
    """
)


def test_runtime_imports_and_builds_graphs_without_scipy():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )}
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


#: Modules that build hosts and run experiments.
RUNTIME = (
    "repro.core",
    "repro.serve.tenancy",
    "repro.serve.writepath",
    "repro.workloads.dlrm",
    "repro.bench.figures",
)


@pytest.mark.parametrize("module", RUNTIME)
def test_runtime_does_not_load_analysis(module):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )}
    probe = (
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.analysis')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
