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
    assert len(exporting) == len(modules) - 1 == 9
    for module in exporting:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_schema_lists_the_normalization_notes():
    schema = json.loads((Path(__file__).parents[1] / "docs" / "output-schema.json").read_text())
    modeq_result = schema["properties"]["result"]["oneOf"][2]
    assert modeq_result["title"] == "modeq"
    assert tuple(modeq_result["properties"]["normalization"]["enum"]) == NORMALIZATION_NOTES


def _run_fresh(code, *args, **env_extra):
    """Run ``code`` in a fresh interpreter with ``args`` as its argv and
    return its stdout.  OPENBLAS_NUM_THREADS is removed from the inherited
    environment first, since this process has set it by importing ordersix."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_extra)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def _blas_probe(**env_extra):
    """Import ordersix, then numpy, and do one float64 matrix product in a
    fresh interpreter; return its OPENBLAS_NUM_THREADS and task count."""
    code = (
        "import os, ordersix, numpy as np\n"
        "a = np.ones((256, 256)); a @ a\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))\n"
    )
    value, tasks = _run_fresh(code, **env_extra).split()
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


# Runs each command of the JSON argv list through cli.main and prints, as
# JSON, whether numpy is loaded after the import and after each command,
# with each command's exit code and stderr.
_NUMPY_PROBE = """\
import contextlib, io, json, os, sys
import ordersix.cli as cli
seen = ['numpy' in sys.modules]
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seen.append([code, err.getvalue(), 'numpy' in sys.modules])
print(json.dumps(seen))
"""


def test_commands_that_do_not_solve_never_load_numpy(tmp_path):
    """numpy stays unloaded after `import ordersix.cli`, through every
    command that does not solve, a validated cache hit among them, and
    through solves whose power table is shorter than modp._NUMPY_LENGTH:
    `verify all`, levels 7, 13 and 19, the levels of the benchmark, and
    level 23, the last level below it (23 * 25 = 575 coefficients)."""
    cache = str(tmp_path)
    subprocess.run([sys.executable, "-m", "ordersix", "modeq", "5", "--cache-dir", cache],
                   capture_output=True, check=True)
    assert os.path.exists(os.path.join(cache, "modeq-level5.json"))
    commands = [
        ["expand", "--name", "w", "--prec", "40"],
        ["cusps", "90", "--divisor", "w"],
        ["verify", "identities"],
        ["verify", "cusps"],
        ["modeq", "5", "--cache-dir", cache],
        ["modeq", "7", "--no-cache"],
        ["modeq", "13", "--no-cache"],
        ["modeq", "19", "--no-cache"],
        ["modeq", "23", "--no-cache"],
        ["verify", "all"],
    ]
    seen = json.loads(_run_fresh(_NUMPY_PROBE, json.dumps(commands)))
    assert seen == [False] + [[0, "", False]] * len(commands)


def test_importing_modp_does_not_load_numpy():
    code = "import sys, ordersix.modp\nprint('numpy' in sys.modules)\n"
    assert _run_fresh(code) == "False\n"


@needs_proc_tasks
def test_first_solve_loads_numpy_on_one_openblas_thread():
    """Level 24 is the first level whose power table, 24 * 25 = 600
    coefficients long, reaches modp._NUMPY_LENGTH."""
    code = _NUMPY_PROBE + (
        "print(os.environ['OPENBLAS_NUM_THREADS'], len(os.listdir('/proc/self/task')))\n"
    )
    out = _run_fresh(code, json.dumps([["modeq", "24", "--no-cache"]]))
    seen, threads = out.splitlines()
    assert json.loads(seen) == [False, [0, "", True]]
    assert threads.split() == ["1", "1"]
