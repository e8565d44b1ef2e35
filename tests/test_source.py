"""Source hygiene of the occkit modules, read with the stdlib ``ast``.

Every module-level import is used by its module, and no module prints:
output goes through return values and the callers' own reporting. No
module scatters with ``np.add.at``: its unbuffered per-element loop was
the hot spot each time it was measured, and ``np.bincount`` or a sort
does the same work in one vectorised pass.
"""

import ast
from pathlib import Path

import pytest

MODULES = sorted((Path(__file__).resolve().parents[1] / "src" / "occkit").glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree: ast.Module):
    """(line, bound name) of each module-level import, ``__future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [(line, name) for line, name in imported_names(tree) if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_print_calls(path):
    prints = [node.lineno for node in ast.walk(parse(path))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "print"]
    assert prints == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_add_at_scatter(path):
    scatters = [node.lineno for node in ast.walk(parse(path))
                if isinstance(node, ast.Attribute) and node.attr == "at"
                and isinstance(node.value, ast.Attribute) and node.value.attr == "add"]
    assert scatters == []
