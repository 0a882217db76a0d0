"""The runtime needs nothing beyond the standard library: every module of
``pgr`` imports only standard modules and ``pgr`` itself.  A replaced path
kept in ``tests/`` as a reference is run: every ``reference_*`` and
``previous_*`` function, and every ``previous_*`` module, is reached from a
test."""

import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SOURCES = TESTS.parent / "src" / "pgr"


def imported_top_levels(path):
    """The top-level module of each import in a source file; a relative
    import counts as ``pgr``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "pgr" if node.level else node.module.partition(".")[0]


def test_runtime_imports_only_the_standard_library():
    files = sorted(SOURCES.glob("*.py"))
    imports = {path.name: set(imported_top_levels(path)) for path in files}
    foreign = {name: sorted(m for m in modules if m != "pgr" and m not in sys.stdlib_module_names)
               for name, modules in imports.items()}
    assert {name: modules for name, modules in foreign.items() if modules} == {}
    assert len(files) >= 9 and set().union(*imports.values()) >= {"pgr", "functools", "itertools"}


def read_names(node):
    """The names and attribute names that ``node`` mentions."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))}


def test_every_kept_reference_is_run():
    # Reached: mentioned by a test function, by the top level of a test
    # module, or by a function reached; names are matched across modules.
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p))
             for p in sorted(TESTS.glob("*.py"))}
    calls, reached, defined = {}, set(), {}
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                calls.setdefault(node.name, set()).update(read_names(node) - {node.name})
        defined[stem] = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        if stem.startswith("test_"):
            reached |= {name for node in tree.body if not isinstance(node, ast.FunctionDef)
                        for name in read_names(node)} | {n for n in calls if n.startswith("test_")}
    todo = list(reached)
    while todo:
        for name in calls.get(todo.pop(), set()) - reached:
            reached.add(name)
            todo.append(name)
    kept = sorted(n for n in calls if n.startswith(("reference_", "previous_")))
    modules = sorted(stem for stem in trees if stem.startswith("previous_"))
    assert [n for n in kept if n not in reached] == []
    assert [m for m in modules if not defined[m] & reached] == []
    assert {"reference_apply_at", "reference_normalize", "previous_successors"} <= set(kept)
    assert len(modules) >= 3
