"""Every module-level import in the package is used by its module.

No linter is a dependency, so this walks each module's top-level imports
with ``ast`` and fails on a bound name that no expression in the module
reads.  ``__init__.py`` re-exports by design and is skipped, as is
``from __future__ import annotations``; a single name is exempt when its
import line says so with a ``# <name>: re-exported`` comment.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nucsim"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}  # bound name -> line of its import
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            text = "\n".join(lines[node.lineno - 1:node.end_lineno])
            exempt = set(re.findall(r"#\s*(\w+): re-exported", text))
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in exempt:
                    imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_unused_import_check_sees_unused_and_exempt_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from x import a, b as c, d  # d: re-exported\n"
              "print(a)\n")
    assert unused_imports(source) == ["os (line 2)", "c (line 3)"]
