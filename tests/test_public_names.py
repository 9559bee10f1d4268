"""Every public name has a caller: each public module-level function and
class of ``src/hyperfit``, and each public method and property of a public
class, is referenced somewhere a user's path reaches.

A reference is a ``Name``, an ``Attribute`` or an imported name, outside
the name's own definition, in another ``src/hyperfit`` module, the same
module, ``benches/`` or ``perfbench/``; a method is reached only as an
``Attribute`` of its name, and a property only as one that is not the
function of a call.  ``__init__.py`` (which only
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


def attributes(node: ast.AST, calls: bool = True) -> Counter:
    """How often a subtree reads each attribute name; without ``calls``, only
    the reads that are not the function of a call."""
    called = set() if calls else {id(sub.func) for sub in ast.walk(node)
                                  if isinstance(sub, ast.Call)}
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute) and id(sub) not in called)


def is_property(member: ast.FunctionDef) -> bool:
    """Whether a method is decorated as a (cached) property."""
    return any(isinstance(d, ast.Name) and d.id in ("property", "cached_property")
               for d in member.decorator_list)


def unread_members(trees: dict, sources: list) -> list[str]:
    """``module.Class.member`` of each public method and property of a public
    class in ``sources`` that no tree of ``trees`` reads outside the member
    itself: a method through any attribute of its name, a property only
    through one that is not the function of a call (``OUTCOMES.index(...)``
    calls a tuple's method, it does not read a property ``index``)."""
    reads = {calls: sum((attributes(tree, calls) for tree in trees.values()), Counter())
             for calls in (True, False)}
    unread = []
    for path in sources:
        for cls in trees[path].body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for member in cls.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    calls = not is_property(member)
                    if reads[calls][member.name] == attributes(member, calls)[member.name]:
                        unread.append(f"{path.stem}.{cls.name}.{member.name}")
    return sorted(unread)


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
    assert unread_members(trees, SOURCES) == sorted(KEEP_MEMBERS)


def test_a_property_called_as_a_method_stays_unread():
    # A call of another object's method of the same name reads no property;
    # a plain attribute does, and a call reads a method.
    source = Path("series.py")
    cls = ast.parse(
        "class Series:\n"
        "    @property\n"
        "    def index(self):\n"
        "        return 1\n"
        "    def period(self):\n"
        "        return 2\n")
    for caller, unread in (("OUTCOMES.index('stalled')\nx.period()", ["series.Series.index"]),
                           ("x.index", ["series.Series.period"]),
                           ("x.index(0)\nx.period", ["series.Series.index"])):
        trees = {source: cls, Path("montecarlo.py"): ast.parse(caller)}
        assert unread_members(trees, [source]) == unread, caller
