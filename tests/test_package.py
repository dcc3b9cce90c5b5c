"""Package-wide guards on the source tree itself."""

import ast
from pathlib import Path

import valext

SRC = Path(valext.__file__).parent


def test_every_public_function_is_used_in_the_package():
    """A public module-level function must be exported in valext.__all__ or
    be referenced by name somewhere in src/ outside its own body: no library
    code that only the tests call."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    unused = []
    for module, tree in trees.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            own = {id(node) for node in ast.walk(fn)}
            used = any(
                isinstance(node, ast.Name) and node.id == fn.name and id(node) not in own
                for other in trees.values()
                for node in ast.walk(other)
            )
            if not used and fn.name not in valext.__all__:
                unused.append(f"{module}.{fn.name}")
    assert unused == []
