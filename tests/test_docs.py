"""The README's Python API table against the modules it lists."""

import importlib
import inspect
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def public_names(module):
    """The classes and functions ``module`` defines whose names have no
    leading underscore."""
    return {name for name, obj in vars(module).items()
            if not name.startswith("_") and (inspect.isclass(obj) or inspect.isfunction(obj))
            and obj.__module__ == module.__name__}


def test_api_table_lists_each_public_name():
    # the table is the package's only list of its API; nothing else keeps
    # it in step with the code
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `(ucdispatch\.\w+)` \| (.*) \|$", readme, re.M))
    modules = {f"ucdispatch.{path.stem}" for path in (ROOT / "src" / "ucdispatch").glob("*.py")}
    assert set(rows) == modules - {"ucdispatch.__init__", "ucdispatch.cli"}
    del rows["ucdispatch.errors"]  # its row names the base class of a family
    listed = {module: set(re.findall(r"`([A-Za-z_]\w*)`", names))
              for module, names in rows.items()}
    defined = {module: public_names(importlib.import_module(module)) for module in rows}
    assert listed == defined
