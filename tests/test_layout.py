"""Source layout: `src/rtslab` holds only code that the package itself uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rtslab"


def test_every_public_definition_is_used_in_src():
    # a top-level public def or class that no module (other than the
    # re-exporting __init__ files) names is test-only or dead code
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "__init__.py"
    ]
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = sorted(
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in used
    )
    assert not unused, f"public definitions no src module uses: {unused}"
