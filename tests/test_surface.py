"""The package holds only the program: every function, class and method in
``src/drinfeld``, private ones included, has a caller in ``src/drinfeld``.
Helpers that only tests call live in ``tests/`` (``oracles.py``,
``sampling.py`` and the test files).  No module reads the process
environment, and no object stands in for a vertex, an edge, a lattice or a
group element."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "drinfeld"

# called by the interpreter, not by the package
_ENTRY_POINTS = {"main"}


def _is_command(node: ast.AST) -> bool:
    """Whether ``node`` is registered in the CLI's command table by
    ``@_command(...)``, which ``cli.main`` calls it from."""
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "_command"
        for d in node.decorator_list
    )


def _covered(name: str) -> bool:
    """Every name but a dunder, which the interpreter calls."""
    return not (name.startswith("__") and name.endswith("__"))


class _Module:
    """One source module: its top-level definitions and what its relative
    imports bind."""

    def __init__(self, path: Path) -> None:
        self.name = path.stem
        self.tree = ast.parse(path.read_text(encoding="utf-8"))
        self.definitions = [
            node for node in self.tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        self.imported: dict[str, tuple[str, str]] = {}  # local name -> (module, name)
        self.modules: dict[str, str] = {}  # local name -> module
        for node in self.tree.body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        self.modules[local] = alias.name
                    else:
                        self.imported[local] = (node.module, alias.name)


def _definitions(modules: list[_Module]):
    """(module, qualified name, node) of each top-level function and class,
    and of each method of a class, dunders left out."""
    for m in modules:
        for node in m.definitions:
            if not _covered(node.name):
                continue
            if node.name not in _ENTRY_POINTS and not _is_command(node):
                yield m.name, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and _covered(item.name):
                        yield m.name, f"{node.name}.{item.name}", item


def _refers_to(m: _Module, ref: ast.AST, module: str, qualname: str) -> bool:
    """Whether ``ref`` in module ``m`` names the definition.  A top-level name
    is resolved through the module's own definitions and its imports; a
    method is reached through any attribute of its name."""
    if "." in qualname:
        return (
            isinstance(ref, ast.Attribute)
            and ref.attr == qualname.split(".")[1]
            and not (isinstance(ref.value, ast.Name) and ref.value.id in m.modules)
        )
    if isinstance(ref, ast.Name):
        return m.imported.get(ref.id, (m.name, ref.id)) == (module, qualname)
    if isinstance(ref, ast.Attribute) and isinstance(ref.value, ast.Name):
        return (m.modules.get(ref.value.id), ref.attr) == (module, qualname)
    return False


def _uncalled() -> list[str]:
    """Definitions with no reference in src/drinfeld outside their own body."""
    modules = [_Module(path) for path in sorted(SRC.glob("*.py"))]
    assert any(m.name == "cli" for m in modules), f"no package source under {SRC}"
    missing = []
    for module, qualname, node in _definitions(modules):
        own = {id(n) for n in ast.walk(node)}
        if not any(
            id(ref) not in own and _refers_to(m, ref, module, qualname)
            for m in modules
            for ref in ast.walk(m.tree)
        ):
            missing.append(f"{module}.{qualname}")
    return missing


def test_every_public_name_in_src_has_a_caller_in_src():
    assert _uncalled() == []


_ENVIRONMENT = {"environ", "environb", "getenv"}


def _environment_reads(path: Path) -> list[str]:
    """Where the module reads the environment through ``os``: an attribute
    ``environ``, ``environb`` or ``getenv`` of a name bound to ``os``, or one
    of those names imported from ``os``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    os_names = set()  # ``import os.path`` binds ``os`` too
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is None and alias.name.split(".")[0] == "os":
                    os_names.add("os")
                elif alias.name == "os":
                    os_names.add(alias.asname)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [alias.name for alias in node.names if alias.name in _ENVIRONMENT]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr in _ENVIRONMENT
            and isinstance(node.value, ast.Name)
            and node.value.id in os_names
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return [f"{path.stem}:{name}" for name in found]


def test_no_module_reads_the_environment():
    reads = [r for path in sorted(SRC.glob("*.py")) for r in _environment_reads(path)]
    assert reads == []


# The objects that once stood for a vertex, an edge, a lattice and a group
# element: the program takes a vertex as its int label (p, m, n, d) or a ball
# index, and a transporter as that label's ints.
_OBJECT_NAMES = {"Vertex", "Edge", "Lattice", "Mat2"}


def _bound_or_named(path: Path) -> set[str]:
    """The names that a module defines, imports (as bound or as imported) or
    refers to."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update({alias.name.split(".")[-1], alias.asname or alias.name})
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def test_no_module_defines_or_imports_a_vertex_edge_or_lattice():
    found = [
        f"{path.stem}:{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in sorted(_bound_or_named(path) & _OBJECT_NAMES)
    ]
    assert found == []
