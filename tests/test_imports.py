"""Every module-level import in the package is used by its module, and
every module-level private name is read somewhere in the package.

No linter is a dependency, so this walks each module's top-level imports
with ``ast`` and fails on a bound name that no expression in the module
reads.  ``__init__.py`` re-exports by design and is skipped, as is
``from __future__ import annotations``; a single name is exempt when its
import line says so with a ``# <name>: re-exported`` comment.

A private name (``_x``, not a dunder) bound at module level by a ``def``,
``class`` or assignment is dead code unless some module of the package
reads it outside its own definition.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nucsim"
SOURCES = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
MODULES = sorted(name for name in SOURCES if name != "__init__.py")


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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private names that no module reads outside their own
    definition, as "module: name (line n)"."""
    defined: list[tuple[str, str, int]] = []
    read: set[str] = set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                bound = set()
            defined += [(module, name, node.lineno) for name in sorted(bound)
                        if name.startswith("_") and not name.startswith("__")]
            read |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                     and isinstance(n.ctx, ast.Load) and n.id not in bound}
    return [f"{module}: {name} (line {line})" for module, name, line in defined
            if name not in read]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_import(module):
    assert unused_imports(SOURCES[module]) == []


def test_package_reads_every_private_name():
    assert unread_private_names(SOURCES) == []


def test_unused_import_check_sees_unused_and_exempt_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from x import a, b as c, d  # d: re-exported\n"
              "print(a)\n")
    assert unused_imports(source) == ["os (line 2)", "c (line 3)"]


def test_private_name_check_sees_unread_names():
    sources = {
        "a.py": ("_USED = 1\n"
                 "_UNUSED = 2\n"
                 "__version__ = '1'\n"
                 "def _recursive(n):\n"
                 "    return _recursive(n - 1) if n else _USED\n"
                 "class _Shared:\n"
                 "    _attr = 0\n"
                 "_A, (_B, c) = 1, (2, 3)\n"
                 "x: int = _B\n"),
        "b.py": "from a import _Shared\nprint(_Shared)\n",
    }
    assert unread_private_names(sources) == [
        "a.py: _UNUSED (line 2)", "a.py: _recursive (line 4)", "a.py: _A (line 8)"]
