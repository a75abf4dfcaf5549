"""Every public module-level function and class in the package has a caller.

A public `def` or `class` that no other code in `src/flakidock` names is API
nobody uses; delete it rather than keep it alive through its own unit tests.
Click commands are reached through their group and are exempt. Re-exports in
`__init__.py` are not callers, and neither are imports or a definition's
uses of its own name.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flakidock"
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_click_command(node: ast.AST) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name in ("command", "group"):
            return True
    return False


def _public_definitions() -> tuple[dict[str, str], set[str]]:
    """Public module-level def/class name -> module, and the names used anywhere
    in the package outside the definition of the same name."""
    defined: dict[str, str] = {}
    used: set[str] = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = node.name if isinstance(node, _DEFINITIONS) else None
            if own and not own.startswith("_") and not _is_click_command(node):
                defined[own] = path.stem
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return defined, used


def test_every_public_definition_has_a_caller_in_the_package():
    defined, used = _public_definitions()
    unused = sorted(f"{module}.{name}" for name, module in defined.items() if name not in used)
    assert unused == []


def test_guard_sees_the_package():
    defined, _ = _public_definitions()
    assert {"repair_flaky_dockerfile", "load_store", "parse_dockerfile"} <= set(defined)
    assert "main" not in defined and "repair" not in defined  # click commands are exempt
