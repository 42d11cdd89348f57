"""No module of the package imports a name that it never uses: an AST walk
over src/lyfam, standard library only."""
import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "lyfam"


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name bound by an import of source and read
    nowhere in it, as a name or inside a string annotation; imports from
    __future__ bind nothing."""
    tree = ast.parse(source)
    bound, used = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.append((node.lineno, name))
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:  # a quoted annotation such as "Report"
                used.update(n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                            if isinstance(n, ast.Name))
            except SyntaxError:
                pass
    return [(line, name) for line, name in bound if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_walk_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .errors import LyfamError, PreconditionError as PE\n"
              "def f(x) -> \"LyfamError\":\n"
              "    return os\n")
    assert unused_imports(source) == [(3, "PE")]
