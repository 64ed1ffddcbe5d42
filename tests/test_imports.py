"""fixquant needs numpy and the standard library, nothing else."""

import ast
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
