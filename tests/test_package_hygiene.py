"""The package ships only what the pipeline runs: no module imports a name it
never uses, and every module-level function and class of ``src/tagforge`` is
named somewhere in the package or the benchmark besides its own definition.
A helper that only tests call belongs in ``tests/oracles.py``."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tagforge"
BENCHMARK = ROOT / "perfbench"

# The benchmark tracer wraps ``freeform.embed_batch``, a name the module
# never calls.
UNUSED_IMPORTS_ALLOWED = {("freeform", "embed_batch")}
# Acceptance criterion 07 calls ``clustering.k_means``.
UNREFERENCED_ALLOWED = {("clustering", "k_means")}
# Decorators that register the function they wrap (the cli stage bodies).
REGISTERING_DECORATORS = {"_stage"}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _package_modules() -> dict[str, ast.Module]:
    return {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}


def _names_in(node: ast.AST) -> set[str]:
    """Every identifier ``node`` refers to: names, attributes, imported
    names and string constants (the tracer names attributes as strings)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.update(part for part in sub.value.split(".") if part.isidentifier())
    return names


def _unused_imports(tree: ast.Module) -> list[str]:
    loaded = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.partition(".")[0]
                     for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [name for name in bound if name not in loaded]
    return unused


def _registered(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id in REGISTERING_DECORATORS:
            return True
    return False


def test_no_module_imports_a_name_it_never_uses():
    unused = [(module, name) for module, tree in _package_modules().items()
              for name in _unused_imports(tree)]
    assert sorted(set(unused) - UNUSED_IMPORTS_ALLOWED) == []


def test_every_module_level_definition_is_named_elsewhere():
    modules = _package_modules()
    benchmark = set().union(*(_names_in(_parse(path))
                              for path in sorted(BENCHMARK.rglob("*.py"))
                              if "tests" not in path.relative_to(BENCHMARK).parts))
    unreferenced = []
    for module, tree in modules.items():
        others = set().union(benchmark, *(_names_in(other)
                                          for name, other in modules.items()
                                          if name != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name in others or _registered(node):
                continue
            rest = set().union(*(_names_in(sibling) for sibling in tree.body
                                 if sibling is not node))
            if node.name not in rest:
                unreferenced.append((module, node.name))
    assert sorted(set(unreferenced) - UNREFERENCED_ALLOWED) == []
