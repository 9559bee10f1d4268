"""Every public name has a caller: each public module-level function and
class of ``src/hyperfit`` is referenced somewhere a user's path reaches.

A reference is a ``Name``, an ``Attribute`` or an imported name, outside
the name's own definition, in another ``src/hyperfit`` module, the same
module, ``benches/`` or ``perfbench/``.  ``__init__.py`` (which only
re-exports) and ``tests/`` do not count: a name that only its own tests
call serves no command, workload or module.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hyperfit"

#: Names kept without a caller: ``critical_time``, ``simulate_recursion``
#: and ``doubling_time_from_ab`` are what acceptance criteria 5 and 6
#: check, and ``write_fixture_csvs`` regenerates the bundled fixtures.
KEEP = {"critical_time", "simulate_recursion", "doubling_time_from_ab", "write_fixture_csvs"}


def referenced(node: ast.AST) -> set[str]:
    """The identifiers a subtree reads as names, attributes or imports."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
    return names


def test_every_public_name_has_a_caller():
    sources = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    counted = sources + sorted((ROOT / "benches").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    defined = []                           # (name, module, top-level statement)
    refs = defaultdict(set)                # name -> (module, top-level statement) reading it
    for path in counted:
        for k, statement in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            if path in sources and isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                if not statement.name.startswith("_"):
                    defined.append((statement.name, path, k))
            for name in referenced(statement):
                refs[name].add((path, k))
    unused = sorted(f"{path.stem}.{name}" for name, path, k in defined
                    if not refs[name] - {(path, k)} and name not in KEEP)
    assert unused == []
