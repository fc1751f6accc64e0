import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ordersix
from ordersix import BivarPoly, CoeffPattern, Cusp, EtaQuotient, ModEqResult
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
    environment first, since a solve from level 24 up in this process may
    have set it."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_extra)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


needs_proc_tasks = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task"), reason="no /proc/self/task here")


def test_import_leaves_the_environment_unchanged():
    """Importing the package and every module in it sets no environment
    variable; OPENBLAS_NUM_THREADS is set only when numpy is loaded."""
    code = (
        "import os, pkgutil, importlib\n"
        "before = dict(os.environ)\n"
        "import ordersix\n"
        "for info in pkgutil.iter_modules(ordersix.__path__):\n"
        "    if info.name != '__main__':\n"
        "        importlib.import_module('ordersix.' + info.name)\n"
        "print(dict(os.environ) == before)\n"
    )
    assert _run_fresh(code) == "True\n"


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


def test_explicit_openblas_thread_count_wins():
    """A level-24 solve loads numpy without overriding a thread count the
    caller set."""
    code = _NUMPY_PROBE + "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    out = _run_fresh(code, json.dumps([["modeq", "24", "--no-cache"]]),
                     OPENBLAS_NUM_THREADS="2")
    seen, value = out.splitlines()
    assert json.loads(seen) == [False, [0, "", True]]
    assert value == "2"


# Runs each command of the JSON argv list through cli.main and prints, as
# JSON, which of the modules named in argv[2] that a bare interpreter had
# not loaded are loaded after the import and after each command, with each
# command's exit code and stderr; then where the package's CheckReport and
# run_checks come from.
_IMPORT_PROBE = """\
import contextlib, io, json, sys
guarded = set(json.loads(sys.argv[2])) - set(sys.modules)
import ordersix.cli as cli
seen = [sorted(guarded & set(sys.modules))]
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    seen.append([code, err.getvalue(), sorted(guarded & set(sys.modules))])
from ordersix import CheckReport, run_checks
seen.append([CheckReport.__module__, run_checks.__module__])
print(json.dumps(seen))
"""


def test_only_verify_loads_verify(tmp_path):
    """`import ordersix.cli` and every command but `verify` leave
    ordersix.verify, dataclasses, inspect and hashlib unloaded: the solves
    of the benchmark's levels, a cache miss that writes an entry, the
    validated hit that reads it, `expand` and `cusps`.  `verify all` then
    loads verify and passes, and the package resolves its names."""
    cache = str(tmp_path)
    commands = [
        ["modeq", "7", "--no-cache"],
        ["modeq", "13", "--no-cache"],
        ["modeq", "19", "--no-cache"],
        ["modeq", "5", "--cache-dir", cache],
        ["modeq", "5", "--cache-dir", cache],
        ["expand", "--name", "w", "--prec", "40"],
        ["cusps", "90", "--divisor", "w"],
    ]
    guarded = ["ordersix.verify", "dataclasses", "inspect", "hashlib"]
    seen = json.loads(_run_fresh(_IMPORT_PROBE, json.dumps(commands + [["verify", "all"]]),
                                 json.dumps(guarded)))
    assert os.path.exists(os.path.join(cache, "modeq-level5.json"))
    assert seen[:len(commands) + 1] == [[]] + [[0, "", []]] * len(commands)
    code, err, loaded = seen[-2]
    assert (code, err) == (0, "") and "ordersix.verify" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)
    assert seen[-1] == ["ordersix.verify", "ordersix.verify"]
    # with nothing run first, the package's own lookup loads verify
    code = "from ordersix import CheckReport, run_checks\nprint(run_checks.__module__)\n"
    assert _run_fresh(code) == "ordersix.verify\n"
    with pytest.raises(AttributeError, match="no_such_name"):
        ordersix.no_such_name


def _value_types():
    """(value, field, repr) for each immutable value type of the package;
    the repr strings were recorded while the types were frozen dataclasses."""
    from ordersix.eta import CuspOrder
    from ordersix.modeq import result_for
    from ordersix.verify import CheckReport

    f2 = BivarPoly({(2, 0): 1, (0, 1): -1, (1, 1): 2, (2, 1): -3, (0, 2): 1})
    return [
        (Cusp(-1, 2), "a", "Cusp(a=-1, c=2)"),
        (EtaQuotient(18, {1: 1, 2: -1, 3: 0}), "exponents",
         "EtaQuotient(level=18, exponents={1: 1, 2: -1})"),
        (CuspOrder(Cusp(1, 3), -2), "order", "CuspOrder(cusp=Cusp(a=1, c=3), order=-2)"),
        (BivarPoly({(2, 0): 1, (0, 1): -1, (1, 1): 0}), "coeffs",
         "BivarPoly(coeffs={(2, 0): 1, (0, 1): -1})"),
        (result_for(2, f2), "poly",
         "ModEqResult(level=2, d1=2, d2=2, poly=BivarPoly(coeffs={(2, 0): 1, (0, 1): -1, "
         "(1, 1): 2, (2, 1): -3, (0, 2): 1}), precision_used=5, nullspace_dim=1, "
         "normalization='denominators cleared by 1, content 1 removed, sign flipped', "
         "method='crt')"),
        (CoeffPattern(5, frozenset({(1, 2)}), frozenset({(0, 0)})), "forced_zero",
         "CoeffPattern(level=5, forced_zero=frozenset({(1, 2)}), "
         "forced_nonzero=frozenset({(0, 0)}))"),
        (CheckReport("x", "pass", "detail 'q'", 3), "status",
         "CheckReport(name='x', status='pass', detail=\"detail 'q'\", precision=3)"),
    ]


def test_value_types_are_immutable_with_stable_repr_equality_and_hash():
    values = _value_types()
    types = {type(value).__name__: type(value) for value, _, _ in values}
    for value, field, text in values:
        assert repr(value) == text
        copy = eval(text, types)
        assert copy == value and copy is not value, text
        try:
            hash(value)
        except TypeError:  # a dict field: unhashable, as the dataclasses were
            assert isinstance(value, (EtaQuotient, BivarPoly, ModEqResult)), text
        else:
            assert hash(copy) == hash(value), text
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            value.extra = None
        assert repr(value) == text


def test_value_types_keep_their_constructor_errors():
    with pytest.raises(ValueError, match="infinity is represented as 1/0"):
        Cusp(2, 0)
    with pytest.raises(ValueError, match="not reduced"):
        Cusp(2, 4)
    with pytest.raises(ValueError, match="non-negative"):
        Cusp(1, -2)
    with pytest.raises(ValueError, match="5 does not divide level 18"):
        EtaQuotient(18, {5: 1})
    with pytest.raises(ValueError, match="level must be positive"):
        EtaQuotient(0)
    with pytest.raises(AssertionError, match="overlap"):
        CoeffPattern(5, frozenset({(0, 0)}), frozenset({(0, 0), (1, 1)}))
    # _replace builds through the same checks
    with pytest.raises(ValueError, match="not reduced"):
        Cusp(2, 3)._replace(c=4)
    with pytest.raises(ValueError, match="does not divide"):
        EtaQuotient(18, {2: 1})._replace(exponents={4: 1})
    with pytest.raises(AssertionError, match="overlap"):
        CoeffPattern(5, frozenset(), frozenset({(0, 0)}))._replace(forced_zero={(0, 0)})
    assert BivarPoly({(1, 1): 1})._replace(coeffs={(1, 1): 0}) == BivarPoly()
    # the keyword and positional forms bench/gate.py builds
    assert ModEqResult(level=2, d1=2, d2=2, poly=BivarPoly({(2, 0): 1}), precision_used=9,
                       nullspace_dim=1, normalization="", method="crt").poly.coeffs == {(2, 0): 1}
    assert EtaQuotient(6).exponents == {} and BivarPoly().coeffs == {}
