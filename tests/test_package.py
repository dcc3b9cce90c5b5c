"""Package-wide guards on the source tree itself."""

import ast
import re
from pathlib import Path

import valext

SRC = Path(valext.__file__).parent
TREES = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def test_every_public_function_is_used_in_the_package():
    """A public module-level function or class must be referenced by name
    somewhere in src/ outside its own body, valext/__init__.py not counted:
    no library code that only the tests call, and no export in place of a
    use."""
    library = {module: tree for module, tree in TREES.items() if module != "__init__"}
    unused = []
    for module, tree in library.items():
        for defn in tree.body:
            if not isinstance(defn, (ast.FunctionDef, ast.ClassDef)) or defn.name.startswith("_"):
                continue
            own = {id(node) for node in ast.walk(defn)}
            used = any(
                isinstance(node, ast.Name) and node.id == defn.name and id(node) not in own
                for other in library.values()
                for node in ast.walk(other)
            )
            if not used:
                unused.append(f"{module}.{defn.name}")
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


def _functions(test) -> list[str]:
    """Every function or method in src/ for which test(fn) holds."""
    return [
        f"{module}.{fn.name}"
        for module, tree in TREES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, ast.FunctionDef) and test(fn)
    ]


def _takes(name: str):
    return lambda fn: any(
        arg.arg == name for arg in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
    )


def test_no_function_takes_a_trace_parameter():
    """Trace lines go through valext.events, not a list threaded through
    the signatures."""
    assert _functions(_takes("trace")) == []


def test_no_function_takes_or_builds_a_parser():
    """The CLI parses with cli.PARSER, built once at import, and reports
    usage errors through it: no parser is built per call or threaded
    through the signatures."""
    def builds(fn):
        return any(
            isinstance(node, ast.Attribute) and node.attr == "ArgumentParser"
            for node in ast.walk(fn)
        )

    assert _functions(_takes("parser")) == _functions(builds) == []


def test_readme_library_example_runs(capsys):
    """The README's Library example runs as printed, asserts included."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    example = re.search(r"## Library\n+```python\n(.*?)```", readme, re.S)[1]
    exec(compile(example, "README.md", "exec"), {})
    assert "inf" in capsys.readouterr().out
