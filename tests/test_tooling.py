"""The runtime needs nothing beyond the standard library: every module of
``pgr`` imports only standard modules and ``pgr`` itself."""

import ast
import sys
from pathlib import Path

SOURCES = Path(__file__).resolve().parent.parent / "src" / "pgr"


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
