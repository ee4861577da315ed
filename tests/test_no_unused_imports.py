"""Every name a package module imports is used in that module.

The project ships no linter, so this AST check stands in for its unused-
import rule. ``__init__.py`` is exempt: its imports are the package's
public re-exports. So is an import marked ``# noqa: F401`` followed by the
reason (lis.py keeps ``randomized_eig`` in its namespace for code that
wraps it there).
"""

import ast
import re
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "drgmc"
NOQA = re.compile(r"#\s*noqa:\s*F401\s+\S")


def unused_imports(source):
    """(name, line) of every name an import binds that the module never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(NOQA.search(line) for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [(alias.asname or alias.name.split(".")[0], node.lineno)
                     for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in imported if name not in read]


def test_detector_sees_each_kind_of_import():
    source = ("from __future__ import annotations\n"
              "import math\n"
              "import os.path\n"
              "import numpy as np\n"
              "from dataclasses import field, replace\n"
              "from .x import (a,\n"
              "                b)  # noqa: F401  wrapped elsewhere\n"
              "from .y import c  # noqa: F401\n"
              "def f(x: np.ndarray = field()):\n"
              "    import json\n"
              "    return json.dumps(x)\n")
    names = sorted(name for name, _ in unused_imports(source))
    assert names == ["c", "math", "os", "replace"]


def test_package_imports_only_what_it_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    offenders = [f"{path.name}:{line} {name}"
                 for path in modules
                 for name, line in unused_imports(path.read_text())]
    assert not offenders, f"imported but unused: {offenders}"
