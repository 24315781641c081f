"""Every module-level function and class of the package, and every method
and property of its classes, is used by the package itself. One that only
tests call belongs in tests/, so the package holds only what a run or a
command reaches. Every defaulted parameter of its functions is passed by
some call, and every kind of config domain has a rule."""

import ast
from pathlib import Path

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


def calls_by_name():
    """Each call in the package and the tests, under the bare or attribute name
    it calls: (positional argument count, keyword names), or None where a
    *args or **kwargs argument may pass every parameter."""
    calls = {}
    for path in (*SRC.glob("*.py"), *Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                spread = (any(isinstance(a, ast.Starred) for a in node.args)
                          or any(k.arg is None for k in node.keywords))
                calls.setdefault(name, []).append(
                    None if spread else (len(node.args), {k.arg for k in node.keywords}))
    return calls


def test_every_defaulted_parameter_is_passed_by_some_call():
    # a default that no call overrides is a constant dressed as a parameter;
    # names are matched as text, so a same-named callee elsewhere also counts
    calls = calls_by_name()
    unpassed = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for owner in (tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))):
            for node in owner.body:
                if not isinstance(node, ast.FunctionDef):
                    continue
                args = node.args
                params = [a.arg for a in args.posonlyargs + args.args]
                bound = owner is not tree  # a method's self or cls
                first = len(params) - len(args.defaults)
                defaulted = [(i - bound, params[i]) for i in range(first, len(params))]
                defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                name = owner.name if node.name in ("__init__", "__new__") else node.name
                for index, param in defaulted:
                    if not any(c is None or (index is not None and c[0] > index)
                               or param in c[1] for c in calls.get(name, ())):
                        unpassed.append(f"{path.stem}.{name}({param})")
    assert unpassed == [], f"defaults no call overrides: {unpassed}"


def test_every_domain_kind_has_a_rule():
    # removing a config key can leave its domain kind with no rule to check
    assert sorted({domain.kind for domain in RULES.values()}) == sorted(_KINDS)
