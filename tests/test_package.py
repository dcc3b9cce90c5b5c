"""Package-wide guards on the source tree itself."""

import ast
from pathlib import Path

import valext

SRC = Path(valext.__file__).parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_public_function_is_used_in_the_package():
    """A public module-level function must be exported in valext.__all__ or
    be referenced by name somewhere in src/ outside its own body: no library
    code that only the tests call."""
    unused = []
    for module, tree in TREES.items():
        for fn in tree.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
                continue
            own = {id(node) for node in ast.walk(fn)}
            used = any(
                isinstance(node, ast.Name) and node.id == fn.name and id(node) not in own
                for other in TREES.values()
                for node in ast.walk(other)
            )
            if not used and fn.name not in valext.__all__:
                unused.append(f"{module}.{fn.name}")
    assert unused == []


def test_every_public_method_is_used_in_the_package():
    """A public method or property of a class must be read as an attribute
    somewhere in src/. The check goes by name, so a method counts as used
    when any attribute of the same name is read."""
    read = {
        node.attr
        for tree in TREES.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    unused = [
        f"{module}.{cls.name}.{fn.name}"
        for module, tree in TREES.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for fn in cls.body
        if isinstance(fn, ast.FunctionDef)
        and not fn.name.startswith("_")
        and fn.name not in read
    ]
    assert unused == []


def test_no_function_takes_a_trace_parameter():
    """Trace lines go through valext.events, not a list threaded through
    the signatures."""
    takes_trace = [
        f"{module}.{fn.name}"
        for module, tree in TREES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef)
        and any(
            arg.arg == "trace"
            for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        )
    ]
    assert takes_trace == []
