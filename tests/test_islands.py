"""Static checks of the source.  Every top-level name in the package is
reached from the package or the benchmark: a function, class or module
constant that only tests call is an island, code that no command runs.
And `src/` holds no assert statement, and no `except` clause that only
re-raises a ValueError as a `CliError`."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "styledialog"
# re-exports and the benchmark's own tests are not uses
NOT_USES = {PACKAGE / "__init__.py", ROOT / "bench" / "test_bench.py"}
# the one module that reaches functions by name (`getattr`), so in it a
# string constant is a use too
BY_NAME = ROOT / "bench" / "layers.py"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions(tree: ast.Module):
    """(name, node) for each top-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _uses(tree: ast.AST, skip=(), strings=False):
    """Names read in `tree` outside the nodes in `skip`: bare names,
    attributes, and with `strings` string constants too."""
    skip_ids = {id(node) for node in skip}
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) in skip_ids:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names


def find_islands():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: _parse(path) for path in sources}
    uses = {path: _uses(tree, strings=path == BY_NAME)
            for path, tree in trees.items() if path not in NOT_USES}
    islands = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(trees[path]):
            # in its own module, a definition's own body does not count
            here = _uses(trees[path], skip=[node]) if path not in NOT_USES else set()
            if name not in here and not any(name in names for other, names in uses.items()
                                            if other != path):
                islands.append(f"{path.name}:{node.lineno}: {name}")
    return islands


def test_no_islands():
    islands = find_islands()
    assert not islands, "reached only from tests:\n" + "\n".join(islands)


def test_no_asserts():
    """`python -O` strips asserts, and an AssertionError would escape
    `cli.main` as a traceback: `src/` raises its exceptions instead."""
    asserts = [f"{path.relative_to(ROOT)}:{node.lineno}"
               for path in sorted((ROOT / "src").rglob("*.py"))
               for node in ast.walk(_parse(path)) if isinstance(node, ast.Assert)]
    assert not asserts, "assert statements:\n" + "\n".join(asserts)


def test_no_value_error_rewraps():
    """`cli.main` turns every ValueError into one `error:` line and exit 2,
    so an `except` clause that catches a ValueError, or a subclass such as
    `json.JSONDecodeError`, only to raise `CliError(str(exc))` adds nothing.
    The clause's exception types are resolved in its own module."""
    rewraps = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = "styledialog" + ("" if path.stem == "__init__" else f".{path.stem}")
        namespace = vars(importlib.import_module(module))
        for node in ast.walk(_parse(path)):
            if not (isinstance(node, ast.ExceptHandler) and len(node.body) == 1
                    and isinstance(node.body[0], ast.Raise) and node.body[0].exc is not None
                    and ast.unparse(node.body[0].exc) == f"CliError(str({node.name}))"):
                continue
            caught = BaseException if node.type is None else eval(ast.unparse(node.type),
                                                                   namespace)
            if any(issubclass(c, ValueError) or issubclass(ValueError, c)
                   for c in (caught if isinstance(caught, tuple) else (caught,))):
                rewraps.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert not rewraps, "clauses that re-raise a ValueError as CliError(str(exc)):\n" + \
        "\n".join(rewraps)
