"""Every module-level function and class of the package, and every method
and property of its classes, is used by the package itself. One that only
tests call belongs in tests/, so the package holds only what a run or a
command reaches. Likewise every kind of config domain has a rule."""

import ast

from fedlens.config import _KINDS, RULES

from test_benchmark_targets import SRC, used_names

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_module_level_definition_is_used_in_the_package():
    # used_names skips a function's own body; names are matched as text, so a
    # same-named attribute or local elsewhere in the package also counts
    used = used_names()
    unused = [f"{path.stem}.{node.name}" for path in sorted(SRC.glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, DEFS) and node.name not in used]
    assert unused == [], f"used only outside src/fedlens: {unused}"


def test_every_method_and_property_is_used_in_the_package():
    # dunder methods are called by the language, not by name
    used = used_names()
    unused = [f"{path.stem}.{cls.name}.{node.name}" for path in sorted(SRC.glob("*.py"))
              for cls in ast.parse(path.read_text()).body if isinstance(cls, ast.ClassDef)
              for node in cls.body
              if isinstance(node, DEFS) and not node.name.startswith("__")
              and node.name not in used]
    assert unused == [], f"used only outside src/fedlens: {unused}"


def test_every_domain_kind_has_a_rule():
    # removing a config key can leave its domain kind with no rule to check
    assert sorted({domain.kind for domain in RULES.values()}) == sorted(_KINDS)
