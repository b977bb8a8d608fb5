import ast
from pathlib import Path

import ltdl


def test_no_assert_statements_in_the_package():
    # `python -O` drops assert statements, so no correctness gate may be one
    files = sorted(Path(ltdl.__file__).parent.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports():
    # every name a module imports is referenced in that module; __init__.py
    # imports to re-export, so it is skipped
    files = sorted(p for p in Path(ltdl.__file__).parent.glob("*.py")
                   if p.name != "__init__.py")
    assert files
    unused = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []
