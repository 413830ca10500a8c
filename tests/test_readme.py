"""The README's Python examples import only names that exist."""

import ast
import os
import re

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def test_readme_imports_resolve():
    with open(README, encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```", fh.read(), flags=re.M | re.S)
    imports = [node for block in blocks for node in ast.parse(block).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert any(isinstance(node, ast.ImportFrom) and node.module.startswith("podwave")
               for node in imports)
    for node in imports:
        exec(compile(ast.Module(body=[node], type_ignores=[]), "<README python block>", "exec"), {})
