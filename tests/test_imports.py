"""The package is pure NumPy: importing it loads no third-party module, and
no part of numpy that ``import numpy`` alone leaves unloaded."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Modules loaded before the import, such as those of interpreter start-up
# hooks, do not count.  numpy loads some of its parts, such as numpy.random,
# only when first used, and loading one costs every process its time.
_LOADED = """
import json, sys
before = set(sys.modules)
import numpy
with_numpy = set(sys.modules)
import unlearn_lab, unlearn_lab.experiments, unlearn_lab.cli
print(json.dumps({
    "top": sorted({name.partition(".")[0] for name in set(sys.modules) - before}),
    "numpy": sorted(name for name in set(sys.modules) - with_numpy if name.startswith("numpy.")),
}))
"""


def _loaded() -> dict:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))
    done = subprocess.run([sys.executable, "-c", _LOADED], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return json.loads(done.stdout)


def test_importing_the_package_its_runner_and_its_cli_loads_only_numpy_and_the_stdlib():
    loaded = set(_loaded()["top"])
    assert "unlearn_lab" in loaded
    assert loaded - set(sys.stdlib_module_names) - {"numpy", "unlearn_lab"} == set()


def test_importing_the_package_its_runner_and_its_cli_loads_no_more_of_numpy():
    assert _loaded()["numpy"] == []
