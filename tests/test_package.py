import ast
from pathlib import Path

import chipfire

PACKAGE = Path(chipfire.__file__).parent


def test_package_has_no_assert_statements():
    # python -O strips assert, so invariants must raise explicitly
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert list(PACKAGE.glob("*.py")), PACKAGE
    assert found == []
