"""Every module-level function and class of the package is used by the
package itself. One that only tests call belongs in tests/, so the package
holds only what a run or a command reaches."""

import ast

from test_benchmark_targets import SRC, used_names


def test_every_module_level_definition_is_used_in_the_package():
    # used_names skips a function's own body; names are matched as text, so a
    # same-named attribute or local elsewhere in the package also counts
    used = used_names()
    unused = [f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and node.name not in used]
    assert unused == [], f"used only outside src/fedlens: {unused}"
