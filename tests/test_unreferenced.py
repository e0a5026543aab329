"""Every function, class, method and module-level name in qscd is used
somewhere in qscd.

A definition counts as used when its name appears in ``src/qscd`` as an
``ast.Attribute`` or as an ``ast.Name`` that is read; the definition itself
is neither. Module-level functions and classes are checked, every name a
module-level assignment binds, and every method; dunder names are exempt,
since Python reads them itself. A name that only the tests use belongs in
``tests/oracles.py``.

Every name a module-level import binds must be read in its own module, so
an import left behind by a deletion is caught; ``from __future__`` and the
submodule loads of ``__init__.py`` are exempt.

The one exemption is a name that ``perfbench/tracing.py`` lists in
``LAYERS``: every traced run resolves it, so it cannot go before the tracer
drops it. ROADMAP item 13 deletes the four that are kept only for that; once
the tracer no longer lists one, the first test here asks for its deletion.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qscd"
TRACING = ROOT / "perfbench" / "tracing.py"


def traced_names() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return {f"{module}.{attr}" for module, attrs in tracing.LAYERS.items() for attr in attrs}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def unreferenced() -> list[str]:
    """Qualified names (``module.name`` or ``module.Class.method``) that no
    Name or Attribute in the package mentions, sorted."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    defined: list[tuple[str, str]] = []
    referenced: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if isinstance(node, (*functions, ast.ClassDef)):
                defined.append((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined.extend(
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, functions) and not is_dunder(item.name)
                )
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend(
                    (f"{path.stem}.{name.id}", name.id)
                    for target in targets
                    for name in ast.walk(target)
                    if isinstance(name, ast.Name) and not is_dunder(name.id)
                )
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return sorted(qualified for qualified, name in defined if name not in referenced)


def test_every_definition_is_referenced():
    traced = traced_names()
    assert [name for name in unreferenced() if name not in traced] == []


def test_the_tracer_keeps_only_item_13s_names():
    # Names the package no longer uses, kept only because the tracer wraps
    # them. A new one would hide dead code behind the exemption.
    traced = traced_names()
    assert [name for name in unreferenced() if name in traced] == [
        "graphauto.automorphisms",
        "permgroup.perm_pow",
        "qstate.SparseState.controlled_power",
        "qstate.SparseState.fourier_control",
    ]


def unread_imports() -> list[str]:
    """``module.name`` for each name a module-level import binds that no
    Name or Attribute in the same module reads, sorted."""
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and (
                node.module == "__future__" or path.name == "__init__.py" and node.module is None
            ):
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unread.append(f"{path.stem}.{name}")
    return sorted(unread)


def test_every_import_is_read():
    assert unread_imports() == []
