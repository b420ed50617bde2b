#!/usr/bin/env python
"""Fail on runtime import cycles (and layering breaks) inside repro.

The decode path is deliberately layered::

    stages.stats <- stages.context <- stage modules <- pipeline
                                                    <- session_decoder
    session sits beside the stage modules (they reference its classes
    for typing only) and must not import pipeline at module scope.

This script parses every module under ``src/repro`` with ``ast`` and
builds the *runtime* module-scope import graph:

* ``if TYPE_CHECKING:`` blocks are skipped (typing-only imports are
  exactly the sanctioned way to reference an upper layer);
* imports inside function bodies are skipped (they are lazy by
  construction — e.g. the stats-layer import inside
  ``fidelity.merge_fidelity_stats``);
* an import of a submodule counts as a dependency on that submodule,
  not on its ancestor packages (importing your own package's
  ``__init__`` is the normal re-export pattern, handled by Python's
  partial-initialization rules).

Any strongly connected component with more than one module — or a
module importing itself — fails the check, as does any edge on the
explicit forbidden list below.  Run directly or via the pytest wrapper
``tests/tooling/test_import_cycles.py``; CI runs both.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
PACKAGE = "repro"

#: (importer, imported) pairs that must never appear at module scope,
#: even if they do not (yet) close a full cycle.  These pin the decode
#: path's layering.
FORBIDDEN_EDGES: Tuple[Tuple[str, str], ...] = (
    ("repro.core.session", "repro.core.pipeline"),
    ("repro.core.session", "repro.core.session_decoder"),
    ("repro.core.fidelity", "repro.core.pipeline"),
)

#: Module prefixes that must not import these targets at module scope.
FORBIDDEN_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("repro.core.stages.", "repro.core.pipeline"),
    ("repro.core.stages.", "repro.core.session"),
    ("repro.core.stages.", "repro.core.session_decoder"),
    ("repro.core.stages.", "repro.core.engine"),
)

#: (importer, imported) package pairs: nothing under the first may
#: import anything under the second at module scope.  The streaming
#: service is a client of the decoder core's worker primitive and
#: ring, never the reverse, and it reads decode telemetry only through
#: the ``EpochResult`` a decode returns, never from the stage graph.
FORBIDDEN_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.core", "repro.service"),
    ("repro.service", "repro.core.stages"),
)

#: The kernels are the bottom of the compute stack: plain arrays in,
#: plain arrays out.  Nothing under this prefix may import anything
#: from ``repro`` except its own siblings and the entries in the
#: allowlist — a kernel that needs pipeline/stage types is a layering
#: bug.
KERNELS_PREFIX = "repro.core.kernels"
KERNELS_ALLOWED: Tuple[str, ...] = ("repro.errors",)


def iter_modules() -> Iterator[Tuple[str, Path]]:
    for path in sorted((SRC / PACKAGE).rglob("*.py")):
        rel = path.relative_to(SRC)
        parts = list(rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        yield ".".join(parts), path


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return (isinstance(test, ast.Attribute)
            and test.attr == "TYPE_CHECKING")


def _module_scope_nodes(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """Statements executed at import time (recursing into if/try/class
    bodies but not into function bodies or TYPE_CHECKING branches)."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If):
            if _is_type_checking_test(node.test):
                yield from _module_scope_nodes(node.orelse)
                continue
            yield from _module_scope_nodes(node.body)
            yield from _module_scope_nodes(node.orelse)
            continue
        if isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _module_scope_nodes(block)
            for handler in node.handlers:
                yield from _module_scope_nodes(handler.body)
            continue
        if isinstance(node, ast.ClassDef):
            yield from _module_scope_nodes(node.body)
            continue
        yield node


def _resolve_relative(module: str, is_package: bool, level: int,
                      target: str) -> str:
    parts = module.split(".")
    if not is_package:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: len(parts) - (level - 1)]
    return ".".join(parts + ([target] if target else []))


def module_imports(module: str, path: Path,
                   known: Set[str]) -> Set[str]:
    """Runtime module-scope imports of ``module`` within the package."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    is_package = path.name == "__init__.py"
    edges: Set[str] = set()
    for node in _module_scope_nodes(tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                while name:
                    if name in known:
                        edges.add(name)
                        break
                    name = name.rpartition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = (node.module or "")
            if node.level:
                base = _resolve_relative(module, is_package,
                                         node.level, base)
            if not base.startswith(PACKAGE):
                continue
            for alias in node.names:
                deep = f"{base}.{alias.name}"
                target = deep if deep in known else base
                while target and target not in known:
                    target = target.rpartition(".")[0]
                if target:
                    edges.add(target)
    edges.discard(module)
    return edges


def build_graph() -> Dict[str, Set[str]]:
    modules = dict(iter_modules())
    known = set(modules)
    return {name: module_imports(name, path, known)
            for name, path in modules.items()}


def find_cycles(graph: Dict[str, Set[str]]) -> List[List[str]]:
    """Strongly connected components of size > 1 (Tarjan)."""
    index: Dict[str, int] = {}
    low: Dict[str, int] = {}
    on_stack: Set[str] = set()
    stack: List[str] = []
    counter = [0]
    cycles: List[List[str]] = []

    def strongconnect(node: str) -> None:
        index[node] = low[node] = counter[0]
        counter[0] += 1
        stack.append(node)
        on_stack.add(node)
        for dep in sorted(graph.get(node, ())):
            if dep not in index:
                strongconnect(dep)
                low[node] = min(low[node], low[dep])
            elif dep in on_stack:
                low[node] = min(low[node], index[dep])
        if low[node] == index[node]:
            component = []
            while True:
                member = stack.pop()
                on_stack.discard(member)
                component.append(member)
                if member == node:
                    break
            if len(component) > 1:
                cycles.append(sorted(component))

    sys.setrecursionlimit(10_000)
    for node in sorted(graph):
        if node not in index:
            strongconnect(node)
    return cycles


def check() -> List[str]:
    graph = build_graph()
    problems = []
    for cycle in find_cycles(graph):
        problems.append("import cycle: " + " <-> ".join(cycle))
    for importer, imported in FORBIDDEN_EDGES:
        if imported in graph.get(importer, ()):
            problems.append(
                f"forbidden import: {importer} -> {imported}")
    for prefix, imported in FORBIDDEN_PREFIXES:
        for importer, edges in graph.items():
            if importer.startswith(prefix) and imported in edges:
                problems.append(
                    f"forbidden import: {importer} -> {imported}")
    for lower, upper in FORBIDDEN_LAYERS:
        for importer, edges in graph.items():
            if importer.startswith(lower):
                problems.extend(
                    f"forbidden import: {importer} -> {imported}"
                    for imported in sorted(edges)
                    if imported.startswith(upper))
    for importer, edges in graph.items():
        if not importer.startswith(KERNELS_PREFIX):
            continue
        for imported in sorted(edges):
            if imported.startswith(KERNELS_PREFIX) \
                    or imported in KERNELS_ALLOWED:
                continue
            problems.append(
                f"forbidden import: {importer} -> {imported} "
                f"(kernels must stay below the decode layers)")
    return problems


def main() -> int:
    problems = check()
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    n = len(build_graph())
    print(f"import graph clean: {n} modules, no runtime cycles")
    return 0


if __name__ == "__main__":
    sys.exit(main())
