import importlib
import json
import pkgutil
from pathlib import Path

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
