"""Project-wide symbol table, type inference and call graph.

The graph is deliberately *lightweight but honest* about its resolution
power.  Edges come from, in decreasing confidence:

1. **Direct resolution** — a call to a name bound by an import or a
   module-level ``def``/``class``.
2. **Method resolution** — ``self.m()`` through the class's MRO;
   ``obj.m()`` when ``obj``'s class is known from an annotation, an
   ``AnnAssign``, an assignment from a known constructor, or an
   instance-attribute type inferred from ``__init__``.
3. **Protocol resolution** — a method call on a receiver typed as a
   :class:`typing.Protocol` (e.g. ``StagedQuerySystem``) fans out to
   that method on *every implementing class* — the edge that lets the
   ledger rule see through ``run_staged``-style dispatch.
4. **By-name fallback** (``weak=True``) — a method call on an unknown
   receiver links to every project class declaring that method, but only
   when few classes do (:data:`BY_NAME_LIMIT`); common names like
   ``get``/``close`` stay unresolved rather than connecting everything
   to everything.

Reachability queries (:meth:`CallGraph.reachable_from`) traverse weak
edges by default — there a missed edge hides a real caller; value-flow
rules (ledger conservation) stick to strong edges, where an
over-approximate edge would fabricate a finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from repro_lint.analysis.project import ModuleInfo, Project

__all__ = [
    "FunctionInfo",
    "ClassInfo",
    "CallSite",
    "CallGraph",
    "build_callgraph",
    "dotted_name",
]

#: A by-name fallback edge is added only when at most this many classes
#: declare the method — beyond that the edge set is noise, not signal.
BY_NAME_LIMIT = 3


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One function or method definition."""

    qualname: str  # "module.func" or "module.Class.method"
    module: str
    cls: str | None  # owning class qualname, if a method
    node: ast.FunctionDef | ast.AsyncFunctionDef
    path: str

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def params(self) -> list[str]:
        args = self.node.args
        return [a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)]

    def param_annotation(self, param: str) -> ast.expr | None:
        args = self.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if arg.arg == param:
                return arg.annotation
        return None


@dataclass
class ClassInfo:
    """One class definition with resolved bases and attribute types."""

    qualname: str  # "module.Class"
    module: str
    node: ast.ClassDef
    path: str
    bases: list[str] = field(default_factory=list)  # resolved or raw dotted
    methods: dict[str, str] = field(default_factory=dict)  # name -> func qualname
    is_protocol: bool = False
    #: ``self.attr`` types inferred from ``__init__``/class-level
    #: annotations: attr name -> class qualname.
    attr_types: dict[str, str] = field(default_factory=dict)
    #: Every attribute name the class declares (class body annotations
    #: and ``self.X`` assignments in ``__init__``), typed or not — what
    #: structural protocol matching checks against.
    attr_names: set[str] = field(default_factory=set)
    #: property/method return types: method name -> class qualname.
    return_types: dict[str, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.node.name


@dataclass
class CallSite:
    """One resolved call expression inside a function body."""

    caller: str  # qualname of the enclosing function ("" = module body)
    node: ast.Call
    callees: tuple[str, ...]  # candidate function qualnames
    weak: bool = False  # True for by-name fallback edges


class CallGraph:
    """Symbols plus call edges for one :class:`Project`."""

    def __init__(self, project: Project) -> None:
        self.project = project
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: module name -> {local alias -> fully qualified target}
        self.imports: dict[str, dict[str, str]] = {}
        #: function qualname -> call sites inside it
        self.calls: dict[str, list[CallSite]] = {}
        #: methods by bare name, for the by-name fallback
        self._methods_by_name: dict[str, list[str]] = {}
        #: protocol qualname -> implementing class qualnames
        self.protocol_impls: dict[str, list[str]] = {}

    # ------------------------------------------------------------------ #
    # Lookup helpers                                                     #
    # ------------------------------------------------------------------ #

    def resolve_symbol(self, module: str, dotted: str) -> str | None:
        """Resolve a dotted name used in ``module`` to a known qualname."""
        aliases = self.imports.get(module, {})
        head, _, rest = dotted.partition(".")
        target = aliases.get(head)
        full = f"{target}.{rest}" if target and rest else (target or dotted)
        for candidate in (full, f"{module}.{dotted}", dotted):
            defined = self._defining(candidate)
            if defined is not None:
                return defined
        return None

    def _defining(self, qualname: str) -> str | None:
        """``qualname`` if it is defined, else the definition a package
        re-exports under it (``from repro.exec import SinkTreeSystem``
        names ``repro.exec.stages.SinkTreeSystem``), followed through
        every re-export in between."""
        seen: set[str] = set()
        while qualname not in seen:
            if qualname in self.functions or qualname in self.classes:
                return qualname
            seen.add(qualname)
            package, _, name = qualname.rpartition(".")
            target = self.imports.get(package, {}).get(name)
            if target is None:
                return None
            qualname = target
        return None

    def mro(self, cls: str) -> Iterator[ClassInfo]:
        """The class and its known ancestors, nearest first."""
        seen: set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current in seen:
                continue
            seen.add(current)
            info = self.classes.get(current)
            if info is None:
                continue
            yield info
            stack.extend(info.bases)

    def lookup_method(self, cls: str, method: str) -> str | None:
        """Resolve ``cls().method`` through the MRO."""
        for info in self.mro(cls):
            if method in info.methods:
                return info.methods[method]
        return None

    def is_subclass(self, cls: str, ancestor: str) -> bool:
        return any(info.qualname == ancestor for info in self.mro(cls))

    def implementations(self, protocol: str) -> list[str]:
        """Classes structurally implementing ``protocol``."""
        return self.protocol_impls.get(protocol, [])

    def callees_of(self, qualname: str, *, weak: bool = True) -> set[str]:
        out: set[str] = set()
        for site in self.calls.get(qualname, []):
            if site.weak and not weak:
                continue
            out.update(site.callees)
        return out

    def reachable_from(
        self, entrypoints: list[str], *, weak: bool = True
    ) -> dict[str, str]:
        """Functions reachable from ``entrypoints``: qualname -> one caller."""
        reached: dict[str, str] = {}
        frontier = [(entry, "") for entry in entrypoints if entry in self.functions]
        while frontier:
            current, via = frontier.pop()
            if current in reached:
                continue
            reached[current] = via
            for callee in sorted(self.callees_of(current, weak=weak)):
                if callee in self.functions and callee not in reached:
                    frontier.append((callee, current))
        return reached

    # ------------------------------------------------------------------ #
    # Type inference                                                     #
    # ------------------------------------------------------------------ #

    def annotation_class(self, module: str, annotation: ast.expr | None) -> str | None:
        """The class qualname an annotation names, if resolvable.

        Handles string annotations (``"Network"``), ``Optional``/union
        spellings (``X | None``), and subscripted generics (takes the
        origin).  Returns ``None`` for anything unrecognized.
        """
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(annotation, ast.Subscript):
            annotation = annotation.value
        if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
            left = self.annotation_class(module, annotation.left)
            if left is not None:
                return left
            return self.annotation_class(module, annotation.right)
        name = dotted_name(annotation)
        if name is None or name in ("None",):
            return None
        resolved = self.resolve_symbol(module, name)
        if resolved in self.classes:
            return resolved
        return None

    def infer_receiver_class(
        self,
        func: FunctionInfo,
        expr: ast.expr,
        local_types: dict[str, str],
    ) -> str | None:
        """Best-effort class of ``expr`` inside ``func``'s body."""
        if isinstance(expr, ast.Name):
            if expr.id in local_types:
                return local_types[expr.id]
            if expr.id == "self" and func.cls is not None:
                return func.cls
            annotation = func.param_annotation(expr.id)
            return self.annotation_class(func.module, annotation)
        if isinstance(expr, ast.Attribute):
            base = self.infer_receiver_class(func, expr.value, local_types)
            if base is None:
                return None
            for info in self.mro(base):
                if expr.attr in info.attr_types:
                    resolved = info.attr_types[expr.attr]
                    if resolved in self.classes:
                        return resolved
                if expr.attr in info.return_types:
                    resolved = info.return_types[expr.attr]
                    if resolved in self.classes:
                        return resolved
            return None
        if isinstance(expr, ast.Call):
            callee = dotted_name(expr.func)
            if callee is not None:
                resolved = self.resolve_symbol(func.module, callee)
                if resolved in self.classes:
                    return resolved
                if resolved in self.functions:
                    ret = self.functions[resolved].node.returns
                    return self.annotation_class(
                        self.functions[resolved].module, ret
                    )
            # method call: resolve the method and use its return type
            if isinstance(expr.func, ast.Attribute):
                recv = self.infer_receiver_class(func, expr.func.value, local_types)
                if recv is not None:
                    target = self.lookup_method(recv, expr.func.attr)
                    if target is not None:
                        ret = self.functions[target].node.returns
                        return self.annotation_class(
                            self.functions[target].module, ret
                        )
        return None


# --------------------------------------------------------------------------- #
# Construction                                                                #
# --------------------------------------------------------------------------- #

_PROTOCOL_BASES = {"Protocol", "typing.Protocol", "typing_extensions.Protocol"}


def _module_imports(module: ModuleInfo) -> dict[str, str]:
    aliases: dict[str, str] = {}
    package = module.name.rsplit(".", 1)[0] if "." in module.name else ""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                full = alias.name if alias.asname else alias.name.split(".", 1)[0]
                aliases[local] = full
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                prefix_parts = module.name.split(".")
                # level=1 strips the module itself, deeper levels walk up.
                prefix_parts = prefix_parts[: len(prefix_parts) - node.level]
                base = ".".join(filter(None, [".".join(prefix_parts), base]))
            if not base:
                base = package
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
    return aliases


def _collect_symbols(graph: CallGraph) -> None:
    for module in graph.project.modules.values():
        graph.imports[module.name] = _module_imports(module)
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module.name}.{node.name}"
                graph.functions[qual] = FunctionInfo(
                    qual, module.name, None, node, module.path
                )
            elif isinstance(node, ast.ClassDef):
                _collect_class(graph, module, node)


def _collect_class(graph: CallGraph, module: ModuleInfo, node: ast.ClassDef) -> None:
    qual = f"{module.name}.{node.name}"
    info = ClassInfo(qual, module.name, node, module.path)
    for base in node.bases:
        name = dotted_name(base)
        if isinstance(base, ast.Subscript):  # Protocol[...] / Generic[...]
            name = dotted_name(base.value)
        if name is None:
            continue
        if name in _PROTOCOL_BASES or name.endswith(".Protocol"):
            info.is_protocol = True
            continue
        info.bases.append(name)
    for child in node.body:
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            method_qual = f"{qual}.{child.name}"
            graph.functions[method_qual] = FunctionInfo(
                method_qual, module.name, qual, child, module.path
            )
            info.methods[child.name] = method_qual
        elif isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
            info.attr_types[child.target.id] = _raw_annotation(child.annotation)
            info.attr_names.add(child.target.id)
        elif isinstance(child, ast.Assign):
            for target in child.targets:
                if isinstance(target, ast.Name):
                    info.attr_names.add(target.id)
    graph.classes[qual] = info


def _raw_annotation(annotation: ast.expr) -> str:
    """The dotted spelling of an annotation, unresolved (resolved later)."""
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return ""
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    return dotted_name(annotation) or ""


def _resolve_class_links(graph: CallGraph) -> None:
    """Second pass: bases and attribute/return types to class qualnames."""
    for info in graph.classes.values():
        info.bases = [
            resolved
            for base in info.bases
            if (resolved := graph.resolve_symbol(info.module, base)) is not None
            and resolved in graph.classes
        ]
    for info in graph.classes.values():
        resolved_attrs: dict[str, str] = {}
        for attr, raw in info.attr_types.items():
            resolved = graph.resolve_symbol(info.module, raw) if raw else None
            if resolved in graph.classes:
                resolved_attrs[attr] = resolved  # type: ignore[assignment]
        info.attr_types = resolved_attrs
        # __init__ assignments: self.x = <param annotated C> / KnownClass(...)
        init = info.methods.get("__init__")
        if init is not None:
            _infer_init_attrs(graph, graph.functions[init], info)
        # method/property return annotations
        for name, method_qual in info.methods.items():
            func = graph.functions[method_qual]
            cls = graph.annotation_class(func.module, func.node.returns)
            if cls is not None:
                info.return_types[name] = cls


def _infer_init_attrs(
    graph: CallGraph, init: FunctionInfo, info: ClassInfo
) -> None:
    for node in ast.walk(init.node):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
            value = node.value
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info.attr_names.add(target.attr)
                    cls = graph.annotation_class(init.module, node.annotation)
                    if cls is not None:
                        info.attr_types.setdefault(target.attr, cls)
        if value is None:
            continue
        for target in targets:
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            info.attr_names.add(target.attr)
            inferred: str | None = None
            if isinstance(value, ast.Name):
                inferred = graph.annotation_class(
                    init.module, init.param_annotation(value.id)
                )
            elif isinstance(value, ast.Call):
                callee = dotted_name(value.func)
                if callee is not None:
                    resolved = graph.resolve_symbol(init.module, callee)
                    if resolved in graph.classes:
                        inferred = resolved
            elif isinstance(value, ast.IfExp):
                # `x if cond else Default()` — common for optional deps;
                # take whichever arm resolves.
                for arm in (value.body, value.orelse):
                    if isinstance(arm, ast.Call):
                        callee = dotted_name(arm.func)
                        if callee is not None:
                            resolved = graph.resolve_symbol(init.module, callee)
                            if resolved in graph.classes:
                                inferred = resolved
                                break
                    elif isinstance(arm, ast.Name):
                        inferred = graph.annotation_class(
                            init.module, init.param_annotation(arm.id)
                        )
                        if inferred is not None:
                            break
            if inferred is not None:
                info.attr_types.setdefault(target.attr, inferred)


def _collect_protocol_impls(graph: CallGraph) -> None:
    for proto in graph.classes.values():
        if not proto.is_protocol:
            continue
        required = {
            name
            for name in proto.methods
            if not name.startswith("_")
        }
        if not required:
            continue
        impls: list[str] = []
        for cls in graph.classes.values():
            if cls.qualname == proto.qualname or cls.is_protocol:
                continue
            declared: set[str] = set()
            for ancestor in graph.mro(cls.qualname):
                declared.update(ancestor.methods)
                declared.update(ancestor.attr_names)
            if required <= declared:
                impls.append(cls.qualname)
        graph.protocol_impls[proto.qualname] = sorted(impls)


def _local_types(graph: CallGraph, func: FunctionInfo) -> dict[str, str]:
    """Variable -> class qualname from AnnAssign / constructor assignment."""
    types: dict[str, str] = {}
    for node in ast.walk(func.node):
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            cls = graph.annotation_class(func.module, node.annotation)
            if cls is not None:
                types[node.target.id] = cls
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and isinstance(node.value, ast.Call):
                callee = dotted_name(node.value.func)
                if callee is not None:
                    resolved = graph.resolve_symbol(func.module, callee)
                    if resolved in graph.classes:
                        types[target.id] = resolved
    return types


def _resolve_call(
    graph: CallGraph,
    func: FunctionInfo,
    node: ast.Call,
    local_types: dict[str, str],
) -> CallSite | None:
    qual = func.qualname
    if isinstance(node.func, ast.Name):
        resolved = graph.resolve_symbol(func.module, node.func.id)
        if resolved in graph.functions:
            return CallSite(qual, node, (resolved,))
        if resolved in graph.classes:
            init = graph.lookup_method(resolved, "__init__")
            return CallSite(qual, node, (init,) if init else ())
        return None
    if not isinstance(node.func, ast.Attribute):
        return None
    method = node.func.attr
    receiver = node.func.value
    # Module-level function through an import alias: `mod.func(...)`.
    dotted = dotted_name(node.func)
    if dotted is not None:
        resolved = graph.resolve_symbol(func.module, dotted)
        if resolved in graph.functions:
            return CallSite(qual, node, (resolved,))
        if resolved in graph.classes:
            init = graph.lookup_method(resolved, "__init__")
            return CallSite(qual, node, (init,) if init else ())
    recv_cls = graph.infer_receiver_class(func, receiver, local_types)
    if recv_cls is not None:
        info = graph.classes.get(recv_cls)
        if info is not None and info.is_protocol:
            candidates = []
            for impl in graph.implementations(recv_cls):
                target = graph.lookup_method(impl, method)
                if target is not None:
                    candidates.append(target)
            proto_method = graph.lookup_method(recv_cls, method)
            if proto_method is not None:
                candidates.append(proto_method)
            if candidates:
                return CallSite(qual, node, tuple(sorted(set(candidates))))
        target = graph.lookup_method(recv_cls, method)
        if target is not None:
            return CallSite(qual, node, (target,))
        # A known class without the method (dynamic attr): fall through.
    # super().method(...)
    if (
        isinstance(receiver, ast.Call)
        and isinstance(receiver.func, ast.Name)
        and receiver.func.id == "super"
        and func.cls is not None
    ):
        for info in graph.mro(func.cls):
            if info.qualname == func.cls:
                continue
            if method in info.methods:
                return CallSite(qual, node, (info.methods[method],))
        return None
    # By-name fallback, capped.
    owners = graph._methods_by_name.get(method, [])
    if 0 < len(owners) <= BY_NAME_LIMIT:
        return CallSite(qual, node, tuple(sorted(owners)), weak=True)
    return None


def build_callgraph(project: Project) -> CallGraph:
    """Symbols, types and call edges for ``project``."""
    graph = CallGraph(project)
    _collect_symbols(graph)
    _resolve_class_links(graph)
    _collect_protocol_impls(graph)
    for info in graph.classes.values():
        for name, method_qual in info.methods.items():
            graph._methods_by_name.setdefault(name, []).append(method_qual)
    for func in list(graph.functions.values()):
        local_types = _local_types(graph, func)
        sites: list[CallSite] = []
        for node in ast.walk(func.node):
            if isinstance(node, ast.Call):
                site = _resolve_call(graph, func, node, local_types)
                if site is not None and site.callees:
                    sites.append(site)
        graph.calls[func.qualname] = sites
    return graph
