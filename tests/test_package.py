import ast
import importlib
import inspect
import re
from functools import cached_property
from pathlib import Path

import trotopt

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "trotopt"


def test_every_exported_name_resolves():
    """``from trotopt import *`` breaks on a name left in ``__all__`` after it moved."""
    missing = [name for name in trotopt.__all__ if not hasattr(trotopt, name)]
    assert missing == []
    namespace: dict = {}
    exec("from trotopt import *", namespace)
    assert set(trotopt.__all__) <= namespace.keys()


def referenced_names(path: Path) -> set[str]:
    """Every name a module reads, as a bare name or as an attribute; the
    target of an assignment is a definition, not a read."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def names_users_read(monkeypatch) -> set[str]:
    """Every name read by the pipeline, a demo, the README or the
    benchmark's traced spans."""
    used: set[str] = set()
    for path in [p for p in SRC.glob("*.py") if p.name != "__init__.py"]:
        used |= referenced_names(path)
    for path in (ROOT / "demos").glob("*.py"):
        used |= referenced_names(path)
    used |= set(re.findall(r"\w+", (ROOT / "README.md").read_text(encoding="utf-8")))
    monkeypatch.syspath_prepend(str(ROOT / "trotbench"))
    for _, attr in importlib.import_module("tracing").TRACED:
        used |= set(attr.split("."))
    return used


def test_every_exported_name_has_a_user(monkeypatch):
    """A name stays in ``__all__`` only while it has a user; a definition is
    not a use."""
    assert sorted(set(trotopt.__all__) - names_users_read(monkeypatch)) == []


def test_every_public_method_has_a_user(monkeypatch):
    """A public method or property of an exported class stays only while it
    has a user or the acceptance criteria read it; a definition is not a use."""
    used = names_users_read(monkeypatch) | referenced_names(ROOT / "tests" / "test_acceptance.py")
    unused = []
    for name in trotopt.__all__:
        cls = getattr(trotopt, name)
        if not inspect.isclass(cls):
            continue
        for attr, value in vars(cls).items():
            kinds = (property, cached_property, classmethod, staticmethod)
            if attr.startswith("_") or not (inspect.isfunction(value) or isinstance(value, kinds)):
                continue
            if attr not in used:
                unused.append(f"{name}.{attr}")
    assert unused == []


def test_no_module_imports_a_name_it_never_uses():
    """Imports marked ``# noqa: F401`` are re-exports and exempt; in
    ``__init__.py`` a name listed in ``__all__`` counts as used."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = referenced_names(path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                used |= {element.value for element in node.value.elts}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa: F401" in lines[node.end_lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert unused == []


def test_every_private_function_has_a_caller_in_src():
    """An underscored function or method that nothing in ``src/`` reads is
    dead code kept alive by tests; a definition is not a use."""
    used: set[str] = set()
    defined: list[tuple[str, str]] = []
    for path in sorted(SRC.glob("*.py")):
        used |= referenced_names(path)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((path.name, node.name))
    assert [f"{module}:{name}" for module, name in defined if name not in used] == []
