"""REP104 — shard-worker purity: no writes to process-shared state.

Shard tiles advance packets in the calling process.  Tile code keeps
no process-shared state, so tiles stay relocatable: worker-executed
code never writes module-level (process-shared) mutable state — a memo
dict at module scope would be shared by every tile and would silently
couple their decisions.

The worker-reachable set is derived from the engine's entry points
(:data:`Config.rep104_entrypoints`, matched as dotted-qualname
suffixes) over the call graph, traversing weak edges too — for a
reachability property a missed edge hides a real violation, so
over-approximation is the safe direction.  Within reachable functions,
three shapes are flagged:

* a ``global`` declaration (the only way to rebind a module name from a
  function);
* a store or augmented assignment through a module-level name
  (``CACHE[key] = ...``, ``Engine.counter += 1``, ``config.limit = 2``);
* a mutating method call on a module-level name (``CACHE.append(...)``,
  including names imported from sibling modules).

Instance state (``self.anything``) is deliberately exempt: worker
objects are per-process by construction, which is exactly why
``_MemoGPSR`` keeps its memo on ``self``.
"""

from __future__ import annotations

import ast

from repro_lint.analysis.callgraph import CallGraph, FunctionInfo
from repro_lint.config import Config, path_matches
from repro_lint.rules import Violation

__all__ = ["check_shard_purity"]

#: Method names that mutate the common containers in place.
MUTATORS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "clear",
        "remove",
        "discard",
        "appendleft",
        "popleft",
        "sort",
        "reverse",
    }
)


def _entrypoints(graph: CallGraph, config: Config) -> list[str]:
    entries: list[str] = []
    for pattern in config.rep104_entrypoints:
        for qualname in graph.functions:
            if qualname == pattern or qualname.endswith("." + pattern):
                entries.append(qualname)
    return sorted(set(entries))


def _module_level_names(graph: CallGraph, module_name: str) -> set[str]:
    module = graph.project.modules.get(module_name)
    if module is None:
        return set()
    names: set[str] = set()
    for node in module.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Name):
                        names.add(leaf.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
        elif isinstance(node, ast.ClassDef):
            names.add(node.name)
    return names


def _binding_names(target: ast.expr) -> set[str]:
    """Names an assignment target *binds* — ``x``, ``x, y = ...``, not the
    root of an attribute/subscript store (``obj.attr = ...`` binds nothing).
    """
    if isinstance(target, ast.Name):
        return {target.id}
    if isinstance(target, (ast.Tuple, ast.List)):
        bound: set[str] = set()
        for element in target.elts:
            bound |= _binding_names(element)
        return bound
    if isinstance(target, ast.Starred):
        return _binding_names(target.value)
    return set()  # Attribute / Subscript stores bind no local name


def _local_names(func: FunctionInfo) -> set[str]:
    """Names bound inside the function body (they shadow module names)."""
    local: set[str] = set(func.params)
    for node in ast.walk(func.node):
        if node is func.node:
            continue  # the function's own name is a module binding
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
            targets = [node.target]
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            targets = [node.target]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            targets = [
                item.optional_vars
                for item in node.items
                if item.optional_vars is not None
            ]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            local.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            local.add(node.name)
        elif isinstance(node, ast.comprehension):
            targets = [node.target]
        for target in targets:
            local |= _binding_names(target)
    return local


def _chain_root(expr: ast.expr) -> ast.expr:
    while isinstance(expr, (ast.Attribute, ast.Subscript)):
        expr = expr.value
    return expr


def _shared_root(
    graph: CallGraph,
    func: FunctionInfo,
    root: ast.expr,
    module_names: set[str],
    local: set[str],
) -> str | None:
    """The shared-state name a store chain is rooted in, if any.

    ``CACHE[...]`` with module-level ``CACHE`` returns ``"CACHE"``;
    ``othermod.CACHE`` through an import returns ``"othermod.CACHE"``;
    a local or parameter root returns ``None``.
    """
    if not isinstance(root, ast.Name):
        return None
    name = root.id
    if name in local:
        return None
    if name in module_names:
        return name
    aliases = graph.imports.get(func.module, {})
    target = aliases.get(name)
    if target is None:
        return None
    # An imported *module* whose attribute is being written, or an
    # imported module-level binding being mutated in place.
    if target in graph.project.modules:
        return name
    owner, _, symbol = target.rpartition(".")
    if owner in graph.project.modules and symbol in _module_level_names(
        graph, owner
    ):
        return name
    return None


def _check_function(
    graph: CallGraph, func: FunctionInfo, via: str
) -> list[Violation]:
    module_names = _module_level_names(graph, func.module)
    local = _local_names(func)
    reached_note = f" (reachable from shard worker via {via})" if via else ""
    out: list[Violation] = []
    for node in ast.walk(func.node):
        if isinstance(node, ast.Global):
            out.append(
                Violation(
                    func.path,
                    node.lineno,
                    node.col_offset,
                    "REP104",
                    f"{func.name}() declares global "
                    f"{', '.join(repr(n) for n in node.names)} — shard-worker "
                    "code must not write module-level state"
                    + reached_note,
                )
            )
            continue
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        for target in targets:
            if not isinstance(target, (ast.Attribute, ast.Subscript)):
                continue
            shared = _shared_root(
                graph, func, _chain_root(target), module_names, local
            )
            if shared is not None:
                out.append(
                    Violation(
                        func.path,
                        target.lineno,
                        target.col_offset,
                        "REP104",
                        f"{func.name}() writes shared state rooted in "
                        f"module-level '{shared}' — shard workers diverge "
                        "between inline and forked execution" + reached_note,
                    )
                )
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
        ):
            shared = _shared_root(
                graph, func, _chain_root(node.func.value), module_names, local
            )
            if shared is not None:
                out.append(
                    Violation(
                        func.path,
                        node.lineno,
                        node.col_offset,
                        "REP104",
                        f"{func.name}() mutates module-level '{shared}' via "
                        f".{node.func.attr}() — shard workers diverge "
                        "between inline and forked execution" + reached_note,
                    )
                )
    return out


def check_shard_purity(ctx) -> list[Violation]:
    """REP104: worker-reachable code writes process-shared mutable state."""
    graph: CallGraph = ctx.graph
    config: Config = ctx.config
    entries = _entrypoints(graph, config)
    if not entries:
        return []
    reached = graph.reachable_from(entries, weak=True)
    violations: list[Violation] = []
    for qualname, via in sorted(reached.items()):
        func = graph.functions[qualname]
        if not path_matches(func.path, config.rep104_paths):
            continue
        short_via = ".".join(via.split(".")[-2:]) if via else ""
        violations.extend(_check_function(graph, func, short_via))
    return violations
