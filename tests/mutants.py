"""Mutation sweep: how many one-operator mutants of a module the tests kill.

    python tests/mutants.py core --sample 40

Each mutant swaps one operator of ``src/occkit/<module>.py``: ``<`` and
``<=``, ``>`` and ``>=``, ``==`` and ``!=``, ``+`` and ``-``, ``*`` and
``/``, ``&`` and ``|``, ``and`` and ``or``, also in augmented assignments
(``+=`` and ``-=``, ``&=`` and ``|=``, ...), but not in annotations. Up to
``--sample`` sites are taken evenly over the module, in ``ast.walk`` order,
so a re-run on the same source takes the same sites. Each mutant is
written into a temporary copy of ``src/occkit`` and ``pytest -x tests``
runs against it; a mutant survives when the tests pass, and one that runs
past four times the unmutated run's time counts as killed (a mutated loop
may never end). Survivors are listed with their line, then the score.
Stdlib only; pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SLOWDOWN = 4.0  # a mutant's run may take this many times the unmutated one's
SWAP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
        ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Add: ast.Sub, ast.Sub: ast.Add,
        ast.Mult: ast.Div, ast.Div: ast.Mult, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
        ast.And: ast.Or, ast.Or: ast.And}


def hint(node: ast.AST) -> ast.AST | None:
    """The annotation a node carries, if any."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return node.returns
    return getattr(node, "annotation", None)  # ast.arg, ast.AnnAssign


def sites(tree: ast.AST) -> list[tuple[ast.AST, int | None]]:
    """(node, index into Compare.ops or None) for every swappable operator
    outside annotations, which ``from __future__ import annotations`` leaves
    unevaluated (``float | np.ndarray``)."""
    hints = {id(n) for node in ast.walk(tree) if hint(node) for n in ast.walk(hint(node))}
    out = []
    for node in ast.walk(tree):
        if id(node) in hints:
            continue
        if isinstance(node, (ast.BinOp, ast.BoolOp, ast.AugAssign)) and type(node.op) in SWAP:
            out.append((node, None))
        elif isinstance(node, ast.Compare):
            out.extend((node, i) for i, op in enumerate(node.ops) if type(op) in SWAP)
    return out


def mutant(source: str, site: int) -> tuple[int, str, str]:
    """(line, description, mutated source) of one sampled site."""
    tree = ast.parse(source)
    node, i = sites(tree)[site]
    old = node.op if i is None else node.ops[i]
    new = SWAP[type(old)]()
    if i is None:
        node.op = new
    else:
        node.ops[i] = new
    return node.lineno, f"{type(old).__name__} -> {type(new).__name__}", ast.unparse(tree)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("module", help="module name under src/occkit, e.g. core")
    parser.add_argument("--sample", type=int, default=40)
    args = parser.parse_args()
    source = (ROOT / "src" / "occkit" / f"{args.module}.py").read_text()
    n = len(sites(ast.parse(source)))
    picked = [i * n // args.sample for i in range(args.sample)] if n > args.sample \
        else list(range(n))
    survived = []
    with tempfile.TemporaryDirectory() as tmp:
        pkg = Path(tmp) / "occkit"
        env = {**os.environ, "PYTHONPATH": tmp, "PYTHONDONTWRITEBYTECODE": "1"}

        def passes(text: str, timeout: float | None = None) -> bool:
            shutil.rmtree(pkg, ignore_errors=True)
            shutil.copytree(ROOT / "src" / "occkit", pkg)
            (pkg / f"{args.module}.py").write_text(text)
            try:
                # -o pythonpath= drops the ini's src/, which would shadow the copy
                return subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                     "-o", "pythonpath=", "tests"], cwd=ROOT, env=env, capture_output=True,
                    timeout=timeout).returncode == 0
            except subprocess.TimeoutExpired:
                return False

        # a suite that fails unmutated would count every mutant as killed
        start = time.monotonic()
        if not passes(source):
            print("the tests fail on the unmutated source", file=sys.stderr)
            return 1
        timeout = SLOWDOWN * (time.monotonic() - start)
        for site in picked:
            line, what, text = mutant(source, site)
            if passes(text, timeout):
                survived.append((line, what))
                print(f"survived: {args.module}.py:{line} {what}", flush=True)
    print(f"{args.module}: {len(picked) - len(survived)} of {len(picked)} killed "
          f"({n} sites)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
