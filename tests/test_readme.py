"""README.md's Library example runs as written and gives the values its
comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_gives_the_values_in_its_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    namespace: dict = {}
    values = []
    for node in ast.parse(blocks[0]).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value), README.name, "eval"),
                               namespace))
        else:
            exec(compile(ast.Module([node], []), README.name, "exec"), namespace)
    assert values == [2, "yes", ("yes", 9), True]
