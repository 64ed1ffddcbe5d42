"""fixquant needs numpy and the standard library, nothing else, each of
its modules reads every name it imports, and each binds every name it
exports."""

import ast
import importlib
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "fixquant"


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_every_absolute_import_is_numpy_or_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.Import) for a in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0]
    foreign = sorted({n for n in names if n.split(".")[0] not in sys.stdlib_module_names | {"numpy"}})
    assert foreign == [], f"{path.relative_to(SRC)} imports {foreign}"


# Imported names a module never reads, each with the reason it stays bound.
UNREAD_EXEMPT = {
    ("qat.py", "qdq"): "perfbench/tracer.py patches qdq in every module that binds it",
    ("ptq.py", "qdq"): "perfbench/tracer.py patches qdq in every module that binds it",
    ("range_setting.py", "qdq_tensor"): "perfbench/tracer.py patches this binding to trace qdq_tensor",
}
TRACER = SRC.parent.parent / "perfbench" / "tracer.py"


def bound_and_read(path: Path) -> tuple[set, set]:
    """The names a module's imports bind, and the names it reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound, read


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_every_imported_name_is_read(path):
    rel = str(path.relative_to(SRC))
    if rel == "__init__.py":
        return  # the package's imports are its re-exports
    bound, read = bound_and_read(path)
    unread = sorted(n for n in bound - read if (rel, n) not in UNREAD_EXEMPT)
    assert unread == [], f"{rel} imports {unread} and never reads them"


def patched_bindings() -> set:
    """The (module, name) of every ``(module, "name")`` patch site in the tracer."""
    tree = ast.parse(TRACER.read_text(), filename=str(TRACER))
    return {
        (t.elts[0].id, t.elts[1].value)
        for t in ast.walk(tree)
        if isinstance(t, ast.Tuple) and len(t.elts) == 2 and isinstance(t.elts[0], ast.Name)
        and isinstance(t.elts[1], ast.Constant) and isinstance(t.elts[1].value, str)
    }


@pytest.mark.parametrize("rel, name", sorted(UNREAD_EXEMPT))
def test_every_exemption_is_still_needed(rel, name):
    """An exempt name stays bound and unread, and the tracer still patches
    that binding; otherwise its entry goes."""
    bound, read = bound_and_read(SRC / rel)
    module = Path(rel).stem
    assert name in bound, f"{rel} no longer binds {name}"
    assert name not in read, f"{rel} reads {name} now"
    assert (module, name) in patched_bindings(), f"the tracer no longer patches {module}.{name}"


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC)))
def test_every_exported_name_is_bound(path):
    """A name left in ``__all__`` after its definition went fails here,
    not at a user's ``from fixquant.<module> import *``."""
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    module = importlib.import_module(".".join(parts[:-1] if parts[-1] == "__init__" else parts))
    unbound = sorted(n for n in getattr(module, "__all__", []) if not hasattr(module, n))
    assert unbound == [], f"{path.relative_to(SRC)} exports {unbound} and never binds them"
