"""Every public name has a caller: each public module-level function and
class of ``src/hyperfit``, and each public method and property of a public
class, is referenced somewhere a user's path reaches.

A reference is a ``Name``, an ``Attribute`` or an imported name, outside
the name's own definition, in another ``src/hyperfit`` module, the same
module, ``benches/`` or ``perfbench/``; a method or property is reached
only as an ``Attribute`` of its name.  ``__init__.py`` (which only
re-exports) and ``tests/`` do not count: a name that only its own tests
call serves no command, workload or module.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hyperfit"

#: Names kept without a caller: ``critical_time``, ``simulate_recursion``
#: and ``doubling_time_from_ab`` are what acceptance criteria 5 and 6
#: check, and ``write_fixture_csvs`` regenerates the bundled fixtures.
KEEP = {"critical_time", "simulate_recursion", "doubling_time_from_ab", "write_fixture_csvs"}

#: Methods and properties kept without a caller: ``RecursionParams.a1`` and
#: ``RecursionParams.from_continuum`` are how acceptance criteria 5 and 6
#: build the recursion, and ``PriceIndexSeries.index`` is the read-only price
#: index P = exp(p) that the README documents for library users, the
#: quantity a price-index file holds.
KEEP_MEMBERS = {"models.RecursionParams.a1", "models.RecursionParams.from_continuum",
                "series.PriceIndexSeries.index"}


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


SOURCES = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
COUNTED = SOURCES + sorted((ROOT / "benches").glob("*.py")) + sorted(
    (ROOT / "perfbench").glob("*.py"))


def attributes(node: ast.AST) -> Counter:
    """How often a subtree reads each attribute name."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def test_every_public_name_has_a_caller():
    defined = []                           # (name, module, top-level statement)
    refs = defaultdict(set)                # name -> (module, top-level statement) reading it
    for path in COUNTED:
        for k, statement in enumerate(ast.parse(path.read_text(encoding="utf-8")).body):
            if path in SOURCES and isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
                if not statement.name.startswith("_"):
                    defined.append((statement.name, path, k))
            for name in referenced(statement):
                refs[name].add((path, k))
    unused = sorted(f"{path.stem}.{name}" for name, path, k in defined
                    if not refs[name] - {(path, k)} and name not in KEEP)
    assert unused == []


def test_every_public_member_has_a_caller():
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in COUNTED}
    reads = sum((attributes(tree) for tree in trees.values()), Counter())
    unused = sorted(
        f"{path.stem}.{cls.name}.{member.name}"
        for path in SOURCES for cls in trees[path].body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for member in cls.body
        if isinstance(member, ast.FunctionDef) and not member.name.startswith("_")
        and reads[member.name] == attributes(member)[member.name])
    assert unused == sorted(KEEP_MEMBERS)
