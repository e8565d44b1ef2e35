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

Every default is a value some caller changes. Each defaulted parameter of
a public function needs a call in those caller modules, to a function of
the same name, that passes it by keyword, by position or through ``*`` or
``**``. So does each defaulted parameter of a public class's constructor:
of its ``__init__``, or the defaulted fields of a dataclass, at their
position in field order, in calls to the class's name or to ``cls`` in
its classmethods. The others are listed in ``DEFAULTS_ALLOWLIST`` as
``module.function(parameter)`` or ``module.Class(parameter)`` with their
reason; stale entries fail.

Every public name defined more than once has each definition listed in
``SHARED_NAMES``, with the function that calls it or with its reason,
because the caller rule above matches by name and cannot tell them apart.

Importing every occkit module loads no ``scipy`` module: ``scipy.spatial``
(about 37 MB and 0.4 s) loads on the first ``knn_propagate`` or
``densify_rig`` call. Fresh interpreters check both, and that each call works.
"""

import ast
import os
import subprocess
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

import occkit

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "occkit").glob("*.py"))
CALLER_MODULES = MODULES + sorted(p for p in (ROOT / "occbench").glob("*.py")
                                  if not p.name.startswith("test_"))

_METRIC = "a paper metric or condition map, kept for users of the library"
_ORACLE = "a test oracle"
_VALUE = "a constructor of a value type, kept with the type"

ALLOWLIST: dict[str, str] = {
    "metrics.binary_iou": _METRIC,
    "core.LabelSchema.agent_channels": _METRIC,
    "metrics.channel_subset_mean": _METRIC,
    "nn.grad_check": _ORACLE + ": the finite-difference check of every backward pass",
    "render.Camera.project": _ORACLE + ": it checks that raycast hits land on their pixels",
    "core.Se3Pose.identity": _VALUE,
    "core.Se3Pose.from_translation": _VALUE,
    "core.SemanticOccupancyGrid.full_free": _VALUE,
}

# A public name that more than one class or module defines is matched by
# name alone above, so the callers of one definition hide another's lack of
# them. Each such definition is listed with the function that calls it (in a
# caller module; the test checks that it references the name) or its reason.
_CALLED_BY = "called by "

SHARED_NAMES: dict[str, str] = {
    "core.PanopticVoxelGrid.validate": _CALLED_BY + "pipeline.voxelize_majority",
    "render.GeometryBuffers.validate": _CALLED_BY + "bench_workloads.Rig24Render.warmup",
    "core.SemanticOccupancyGrid.validate": ("a user's check of a loaded OCCG grid against "
                                            "a schema; OCCG stores no schema"),
}

_TUNED = "a test tool; the tests tune it"

DEFAULTS_ALLOWLIST: dict[str, str] = {
    **{f"nn.grad_check({name})": _TUNED for name in ("eps", "rng", "max_coords")},
    **{f"vae.VaeConfig({name})": "the benchmark's and the VAE's tests shrink the model with it"
       for name in ("hidden", "attn_heads")},
    "core.panoptic_encode(schema)": "its stuff/free rule depends on the schema",
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


def shared_definitions() -> set[str]:
    """Qualified names of the public functions whose name is defined more than once."""
    defs = defaultdict(list)
    for path in MODULES:
        for qualname, node in public_functions(parse(path), path.stem):
            defs[node.name].append(qualname)
    return {q for qualnames in defs.values() if len(qualnames) > 1 for q in qualnames}


def find_definition(qualname: str) -> ast.AST | None:
    """The def node of ``module.function`` or ``module.Class.method`` in a caller module."""
    module, *names = qualname.split(".")
    body = next((parse(p).body for p in CALLER_MODULES if p.stem == module), [])
    node = None
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == name), None)
        body = node.body if node else []
    return node


def test_every_shared_public_name_is_listed_and_no_entry_is_stale():
    assert sorted(shared_definitions() ^ SHARED_NAMES.keys()) == []


@pytest.mark.parametrize("qualname", [q for q, why in SHARED_NAMES.items()
                                      if why.startswith(_CALLED_BY)])
def test_shared_name_callers_reference_it(qualname):
    caller = find_definition(SHARED_NAMES[qualname].removeprefix(_CALLED_BY))
    assert caller is not None
    assert qualname.rsplit(".", 1)[1] in referenced_names(caller)


def defaulted_parameters(node: ast.FunctionDef, method: bool):
    """(name, index among a call's positional arguments or None) per default."""
    args = node.args
    positional = args.posonlyargs + args.args
    bound = method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                               for d in node.decorator_list)
    for i in range(len(positional) - len(args.defaults), len(positional)):
        yield positional[i].arg, i - bound
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def passes(call: ast.Call, name: str, index: int | None) -> bool:
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return (any(k.arg in (None, name) for k in call.keywords)
            or index is not None and (starred or len(call.args) > index))


def constructor_defaults(node: ast.ClassDef):
    """(name, positional index) per defaulted ``__init__`` parameter or dataclass field."""
    for item in node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            yield from defaulted_parameters(item, method=True)
    if any("dataclass" in referenced_names(d) for d in node.decorator_list):
        fields = [item for item in node.body
                  if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
        for i, field in enumerate(fields):
            if field.value is not None:
                yield field.target.id, i


def defaulted_callables(tree: ast.Module, module: str):
    """(qualified name, called name, defaulted (name, index) pairs) of each
    public function and each public class's constructor."""
    for qualname, node in public_functions(tree, module):
        yield qualname, node.name, defaulted_parameters(node, qualname.count(".") == 2)
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, constructor_defaults(node)


def called_names(tree: ast.Module):
    """(called name, call) of each call; ``cls(...)`` in a classmethod calls its class."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            yield node.func.id, node
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            yield node.func.attr, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef) and item.args.args and any(
                        "classmethod" in referenced_names(d) for d in item.decorator_list)):
                    first = item.args.args[0].arg
                    yield from ((node.name, call) for call in ast.walk(item)
                                if isinstance(call, ast.Call)
                                and isinstance(call.func, ast.Name) and call.func.id == first)


def unpassed_defaults() -> set[str]:
    calls: dict[str, list[ast.Call]] = defaultdict(list)
    for path in CALLER_MODULES:
        for called, node in called_names(parse(path)):
            calls[called].append(node)
    return {f"{qualname}({name})" for path in MODULES
            for qualname, called, defaults in defaulted_callables(parse(path), path.stem)
            for name, index in defaults
            if not any(passes(call, name, index) for call in calls[called])}


def test_every_default_is_passed_by_a_caller_or_has_a_reason():
    assert sorted(unpassed_defaults() - DEFAULTS_ALLOWLIST.keys()) == []


def test_defaults_allowlist_is_not_stale():
    assert sorted(DEFAULTS_ALLOWLIST.keys() - unpassed_defaults()) == []


def test_cls_calls_in_classmethods_call_their_class():
    tree = ast.parse("class A:\n"
                     "    @classmethod\n    def make(cls):\n        return cls(1, b=2)\n"
                     "    def copy(self, cls):\n        return cls(3, 4)\n")
    got = [(name, len(call.args)) for name, call in called_names(tree)]
    assert [n for name, n in got if name == "A"] == [1]


IMPORT_ALL = f"""
import sys
import numpy as np
import {", ".join(f"occkit.{p.stem}" for p in MODULES if p.stem != "__init__")}
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert loaded == [], loaded
"""


def run_fresh(code: str) -> None:
    """Run ``code`` in a new interpreter that imports the occkit under test."""
    env = {**os.environ, "PYTHONPATH": str(Path(occkit.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_scipy_loads_on_first_knn_propagate_not_at_import():
    run_fresh(IMPORT_ALL + """
from occkit.pipeline import LabeledPointCloud, knn_propagate
got = knn_propagate(LabeledPointCloud(np.eye(3), [1001, 1001, 2001]), np.zeros((1, 3)), 3)
assert got.tolist() == [1001] and "scipy.spatial" in sys.modules
""")


def test_densify_rig_in_a_fresh_interpreter():
    run_fresh(IMPORT_ALL + """
from occkit.render import CameraRig, densify_rig, standard_rig
left, right = standard_rig().cameras[:2]          # forward yaws pi/3 and 0
rig = densify_rig(CameraRig([left, right]), 1)
assert [c.role for c in rig.cameras] == ["FL", "virtual", "F", "virtual"]
mid = (left.pose.translation + right.pose.translation) / 2.0
for cam in rig.cameras[1::2]:
    assert np.allclose(cam.pose.rotation[:, 2], [np.cos(np.pi / 6), np.sin(np.pi / 6), 0.0])
    assert np.allclose(cam.pose.translation, mid)
""")
