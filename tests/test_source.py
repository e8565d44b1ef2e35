"""Source hygiene of the occkit modules, read with the stdlib ``ast``.

Every module-level import is used by its module, and no module prints:
output goes through return values and the callers' own reporting. No
module scatters with ``np.add.at``: its unbuffered per-element loop was
the hot spot each time it was measured, and ``np.bincount`` or a sort
does the same work in one vectorised pass.

Every public function has a caller or a stated reason to exist. A public
module-level function, or a public method of a public class, in
``src/occkit`` needs a reference outside its own body: an ``ast.Name`` or
``ast.Attribute`` with its name, in a module of ``src/occkit`` or
``occbench/`` that is not a test. Names in strings do not count. The
others are listed in ``ALLOWLIST`` with their reason; an entry that names
no public function, or whose function has gained a caller, fails too.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "occkit").glob("*.py"))
CALLER_MODULES = MODULES + sorted(p for p in (ROOT / "occbench").glob("*.py")
                                  if not p.name.startswith("test_"))

_FORMAT = "reads or writes a documented file format; tests round-trip it"
_METRIC = "a paper metric or condition map, kept for users of the library"
_ORACLE = "a test oracle"
_VALUE = "a constructor of a value type, kept with the type"

ALLOWLIST: dict[str, str] = {
    **{f"fileio.{name}": _FORMAT for name in (
        "save_bevl", "load_bevl", "save_lpcd", "load_lpcd", "save_cbuf", "load_cbuf",
        "save_plkb", "load_plkb", "dump_json", "load_json", "schema_to_json",
        "schema_from_json", "rules_to_json", "rules_from_json")},
    "render.rig_to_json": _FORMAT,
    "render.rig_from_json": _FORMAT,
    "vae.VaeConfig.to_json": _FORMAT,
    "vae.VaeConfig.from_json": _FORMAT,
    "metrics.binary_iou": _METRIC,
    "core.LabelSchema.agent_channels": _METRIC,
    "metrics.channel_subset_mean": _METRIC,
    "render.plucker_embedding": _METRIC + "; the benchmark traces it by a string name",
    "nn.grad_check": _ORACLE + ": the finite-difference check of every backward pass",
    "render.Camera.project": _ORACLE + ": it checks that raycast hits land on their pixels",
    "core.Se3Pose.identity": _VALUE,
    "core.Se3Pose.from_translation": _VALUE,
    "core.SemanticOccupancyGrid.full_free": _VALUE,
    "vae.VaeConfig.latent_hw": _VALUE,
    "losses.sample_logit_normal": (
        "the only user of the sigmoid import in losses, which the benchmark's "
        "tracer wraps as losses.sigmoid; it goes when the tracer drops that entry"),
}


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


def public_functions(tree: ast.Module, module: str):
    """(qualified name, def node) of each public function and public-class method."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{module}.{node.name}.{item.name}", item


def referenced_names(node: ast.AST) -> list[str]:
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def uncalled_public_functions() -> set[str]:
    refs = Counter(name for path in CALLER_MODULES for name in referenced_names(parse(path)))
    return {qualname for path in MODULES
            for qualname, node in public_functions(parse(path), path.stem)
            if refs[node.name] == referenced_names(node).count(node.name)}


def test_every_public_function_has_a_caller_or_a_reason():
    assert sorted(uncalled_public_functions() - ALLOWLIST.keys()) == []


def test_allowlist_is_not_stale():
    # an entry that names no public function is not among the uncalled ones either
    assert sorted(ALLOWLIST.keys() - uncalled_public_functions()) == []
