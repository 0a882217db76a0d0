"""The runtime needs nothing beyond the standard library: every module of
``pgr`` imports only standard modules and ``pgr`` itself.  A replaced path
kept in ``tests/`` as a reference is run: every ``reference_*`` and
``previous_*`` function, and every ``previous_*`` module, is reached from a
test.  Every property-based test draws the same examples on each run.  The README's commands and library
example run as documented, and its file-format example parses without a warning."""

import ast
import shlex
import sys
import warnings
from pathlib import Path

from pgr.cli import main
from pgr.formats import parse_document
from pgr.rewrite import verify_step

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


def decorator_name(node):
    """The name a decorator calls or is, ``given`` for ``hypothesis.given(...)``."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def applies_property(node):
    """Whether a decorator is ``fixtures.PROPERTY`` or ``settings(PROPERTY, ...)``
    with the seed and the example database left as ``PROPERTY`` sets them."""
    if isinstance(node, ast.Name):
        return node.id == "PROPERTY"
    return (decorator_name(node) == "settings" and isinstance(node, ast.Call)
            and [getattr(a, "id", None) for a in node.args] == ["PROPERTY"]
            and not {k.arg for k in node.keywords} & {"derandomize", "database"})


def test_every_property_test_is_deterministic():
    # Each ``@given`` test, nested ones included, runs under ``PROPERTY``, so
    # it draws the same examples on every run and writes no example database.
    from fixtures import PROPERTY

    assert PROPERTY.derandomize is True and PROPERTY.database is None
    found = {}
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.FunctionDef) and any(
                    decorator_name(d) == "given" for d in node.decorator_list):
                found[f"{path.stem}.{node.name}"] = any(map(applies_property, node.decorator_list))
    assert [name for name, ok in found.items() if not ok] == []
    assert len(found) >= 12


def readme_block(heading, language):
    """The first ``language`` code block under ``## heading`` in the README."""
    text = (TESTS.parent / "README.md").read_text(encoding="utf-8")
    return text.split(f"\n## {heading}\n")[1].split(f"```{language}\n")[1].split("\n```")[0]


def test_readme_commands_run_as_documented(monkeypatch, capsys):
    # From the repo root, each command of the ``## Command line`` block
    # through ``pgr.cli.main``: lines ending in a backslash joined, the
    # leading ``pgr`` and any trailing comment dropped.  A comment that
    # says ``exit n`` names the code; otherwise it is 0.  No command ends
    # in an internal error.
    monkeypatch.chdir(TESTS.parent)
    codes = []
    for line in readme_block("Command line", "sh").replace("\\\n", " ").splitlines():
        command, _, comment = line.partition(" #")
        program, *argv = shlex.split(command)
        words = comment.split()
        expected = int(words[words.index("exit") + 1].rstrip(":")) if "exit" in words else 0
        codes.append(main(argv))
        err = capsys.readouterr().err
        assert (program, codes[-1]) == ("pgr", expected), (line, err)
        assert not any(x.startswith("internal error") for x in err.splitlines()), (line, err)
    assert len(codes) == 8 and codes.count(1) == 1
    namespace = {}
    exec(compile(readme_block("Library", "python"), "README.md", "exec"), namespace)
    assert verify_step(namespace["host"], namespace["result"], namespace["certificate"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        doc = parse_document(readme_block("File format", "text"))
    assert (list(doc.graphs), list(doc.rules), doc.systems) == (["G"], ["r"], {"s": ["r"]})
