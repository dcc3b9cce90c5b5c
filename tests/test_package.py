"""Package-wide guards on the source tree itself."""

import ast
import re
import shlex
from pathlib import Path

import valext
from valext.cli import main

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


def _signature(fn: ast.FunctionDef, skip: int) -> tuple[list[str], set[str]]:
    """The parameters of fn that a call fills by position, its first skip
    dropped, and the names of those parameters that have a default."""
    args = fn.args.posonlyargs + fn.args.args
    first = len(args) - len(fn.args.defaults)
    defaulted = {a.arg for a in args[first:]}
    defaulted |= {a.arg for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d}
    return [a.arg for a in args[skip:]], defaulted


def _callables() -> tuple[dict, dict]:
    """Signatures of the library's functions and classes, called by name,
    and of its methods, called as attributes. A constructor drops self; a
    class without __init__, a dataclass, takes its annotated fields."""
    functions, methods = {}, {}
    for tree in TREES.values():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                functions[node.name] = _signature(node, 0)
            if not isinstance(node, ast.ClassDef):
                continue
            fields = [a for a in node.body if isinstance(a, ast.AnnAssign)]
            functions[node.name] = [a.target.id for a in fields], {a.target.id for a in fields if a.value}
            for fn in node.body:
                if isinstance(fn, ast.FunctionDef) and fn.name == "__init__":
                    functions[node.name] = _signature(fn, 1)
                elif isinstance(fn, ast.FunctionDef):
                    methods[fn.name] = _signature(fn, 1)
    return functions, methods


def test_no_default_that_every_call_sets_to_one_literal():
    """A defaulted parameter that every library call sets to the same
    literal is a second mode that only the tests reach: the library always
    runs the literal's, and the default's runs under test alone. A call
    that leaves the parameter out, or passes anything but a literal, keeps
    the default in use."""
    functions, methods = _callables()
    passed: dict[tuple[str, str], set] = {}
    for tree in TREES.values():
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            if isinstance(call.func, ast.Name):
                name, table = call.func.id, functions
            elif isinstance(call.func, ast.Attribute):
                name = call.func.attr
                table = methods if name in methods else functions
            else:
                continue
            if name not in table:
                continue
            names, defaulted = table[name]
            given = {kw.arg: kw.value for kw in call.keywords} | dict(zip(names, call.args))
            for param in defaulted:
                value = given.get(param)
                literal = ast.dump(value) if isinstance(value, ast.Constant) else None
                passed.setdefault((name, param), set()).add(literal)
    fixed = [f"{name}({param}=...)" for (name, param), values in passed.items()
             if len(values) == 1 and None not in values]
    assert fixed == []


README = (Path(__file__).parents[1] / "README.md").read_text()


def test_readme_cli_examples_run(capsys):
    """Each line of the README's command-line examples exits 0 when run as
    printed; a line that ends in an expected-output comment prints exactly
    that, and the approx line prints the output the README shows for it."""
    examples = re.search(r"Examples:\n+```sh\n(.*?)```", README, re.S)[1]
    shown = re.search(r"The `approx` example prints.*?```text\n(.*?)```", README, re.S)[1]
    lines = examples.splitlines()
    assert sum(line.split()[1] == "approx" for line in lines) == 1
    for line in lines:
        prog, *argv = shlex.split(line, comments=True)
        assert prog == "valext" and main(argv) == 0, line
        out = capsys.readouterr().out
        if "#" in line:
            assert out == line.split("#", 1)[1].strip() + "\n", line
        if argv[0] == "approx":
            assert out == shown, line


def test_readme_library_example_runs(capsys):
    """The README's Library example runs as printed, asserts included."""
    example = re.search(r"## Library\n+```python\n(.*?)```", README, re.S)[1]
    exec(compile(example, "README.md", "exec"), {})
    assert "inf" in capsys.readouterr().out
