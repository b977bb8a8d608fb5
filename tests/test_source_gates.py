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
