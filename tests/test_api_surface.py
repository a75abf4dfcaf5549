"""Every public module-level function and class in the package has a caller,
and so does every public method or property of a package class.

A public `def` or `class` that no other code in `src/flakidock` names is API
nobody uses; delete it rather than keep it alive through its own unit tests.
Click commands are reached through their group and are exempt. Re-exports in
`__init__.py` are not callers, and neither are imports or a definition's
uses of its own name. A class member is called by attribute (`x.name`), so
only attribute uses count for members.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "flakidock"
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = _FUNCTIONS + (ast.ClassDef,)


def _modules():
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


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
    for module, tree in _modules():
        for node in tree.body:
            own = node.name if isinstance(node, _DEFINITIONS) else None
            if own and not own.startswith("_") and not _is_click_command(node):
                defined[own] = module
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


def _attribute_uses(node: ast.AST, own: frozenset = frozenset()):
    """Attribute names used under node, except inside a definition of the same name."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Attribute) and child.attr not in own:
            yield child.attr
        yield from _attribute_uses(child, own | {child.name} if isinstance(child, _DEFINITIONS) else own)


def test_every_public_class_member_has_a_caller_in_the_package():
    members: dict[str, str] = {}
    used: set[str] = set()
    for module, tree in _modules():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if isinstance(node, _FUNCTIONS) and not node.name.startswith("_"):
                        members[f"{module}.{cls.name}.{node.name}"] = node.name
        used.update(_attribute_uses(tree))
    assert {"demo_store.DemonstrationIndex.add", "providers.EmbeddingProvider.embed_values"} <= set(members)
    assert sorted(qualified for qualified, name in members.items() if name not in used) == []
