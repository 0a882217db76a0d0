"""The benchmark's tracer wraps pgr functions by name; every name must exist."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # Resolved as ``Tracer.install`` does: a dotted path goes through the
    # class ``__dict__``, a plain one through the module.
    for module, path, _ in load_tracing().TRACED:
        owner = importlib.import_module(f"pgr.{module}")
        if "." in path:
            cls_name, attr = path.split(".")
            target = vars(getattr(owner, cls_name)).get(attr)
        else:
            target = getattr(owner, path, None)
        assert callable(target), f"{module}.{path}"
