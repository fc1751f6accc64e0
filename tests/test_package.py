import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ordersix
from ordersix.modeq import NORMALIZATION_NOTES


def test_every_exported_name_resolves():
    """Each name in a module's __all__ exists, so deleting code cannot leave
    a stale export behind.  ordersix.__main__ runs the command line on
    import, and ordersix.cli declares no __all__."""
    modules = [ordersix] + [
        importlib.import_module(f"ordersix.{info.name}")
        for info in pkgutil.iter_modules(ordersix.__path__)
        if info.name != "__main__"
    ]
    exporting = [m for m in modules if hasattr(m, "__all__")]
    assert len(exporting) == len(modules) - 1 == 8
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_schema_lists_the_normalization_notes():
    schema = json.loads((Path(__file__).parents[1] / "docs" / "output-schema.json").read_text())
    modeq_result = schema["properties"]["result"]["oneOf"][2]
    assert modeq_result["title"] == "modeq"
    assert tuple(modeq_result["properties"]["normalization"]["enum"]) == NORMALIZATION_NOTES


def _blas_probe(**env_extra):
    """Run a fresh interpreter that imports ordersix, then numpy, and does one
    float64 matrix product; return its OPENBLAS_NUM_THREADS and task count.
    The variable is removed from the inherited environment first, since this
    process has set it by importing ordersix."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_extra)
    code = (
        "import os, ordersix, numpy as np\n"
        "a = np.ones((256, 256)); a @ a\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    value, tasks = out.stdout.split()
    return value, int(tasks)


needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="no /proc/self/task here")


@needs_proc_tasks
def test_import_pins_openblas_to_one_thread():
    assert _blas_probe() == ("1", 1)


@needs_proc_tasks
def test_explicit_openblas_thread_count_wins():
    value, _ = _blas_probe(OPENBLAS_NUM_THREADS="2")
    assert value == "2"
