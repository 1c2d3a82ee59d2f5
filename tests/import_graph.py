"""The static module-level import graph of ``src/repro``.

Only what runs when a module is first imported counts: function bodies and
``if TYPE_CHECKING:`` blocks are skipped.  An import also initialises every
parent package of its target on the way down, so an edge goes to each of
them too — except to the importer's own parents, which Python initialised
before the importer's body ran.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE = Path(repro.__file__).resolve().parent


def module_files() -> dict[str, Path]:
    """Dotted module name -> source file, for every module of ``repro``."""
    files = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
        files[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
    return files


def _is_type_checking(test: ast.expr) -> bool:
    return getattr(test, "id", getattr(test, "attr", None)) == "TYPE_CHECKING"


def top_level_imports(body: list) -> list:
    """The import statements that run at module level."""
    found = []
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found.append(node)
        elif isinstance(node, ast.If) and not _is_type_checking(node.test):
            found += top_level_imports(node.body) + top_level_imports(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, *(h.body for h in node.handlers), node.orelse, node.finalbody):
                found += top_level_imports(block)
    return found


def imported(path: Path, modules: dict) -> set[str]:
    """The ``repro`` modules *path*'s module-level imports name."""
    names = set()
    for node in top_level_imports(ast.parse(path.read_text()).body):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
            continue
        assert not node.level, f"{path}: relative import"
        names.add(node.module)
        names.update(f"{node.module}.{a.name}" for a in node.names if f"{node.module}.{a.name}" in modules)
    return {name for name in names if name.split(".")[0] == "repro"}


def import_graph() -> dict[str, set[str]]:
    """Module -> the modules (parent packages included) its import runs."""
    modules = module_files()
    graph = {}
    for name, path in modules.items():
        own = {name.rsplit(".", i)[0] for i in range(name.count(".") + 1)}
        edges = set()
        for target in imported(path, modules):
            parts = target.split(".")
            edges.update(".".join(parts[:i]) for i in range(1, len(parts) + 1))
        graph[name] = {dep for dep in edges if dep in modules and dep not in own}
    return graph


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One cycle of *graph* as a path ``[a, ..., a]``, or None."""
    state: dict[str, int] = {}  # 1: on the DFS stack, 2: done
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        state[node] = 1
        stack.append(node)
        for dep in sorted(graph[node]):
            if state.get(dep) == 1:
                return stack[stack.index(dep):] + [dep]
            if dep not in state and (cycle := visit(dep)):
                return cycle
        stack.pop()
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state and (cycle := visit(node)):
            return cycle
    return None
