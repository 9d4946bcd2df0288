"""The five per-file reproduction invariants, as AST rules.

Each rule is a callable ``rule(tree, path, config) -> list[Violation]``; the
registry :data:`ALL_RULES` maps code to implementation.  Rules are pure
functions of the parsed module — no imports are executed, so the linter is
safe to run on any tree (including its own bad-fixture corpus).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Iterator

from repro_lint.config import Config, path_matches

__all__ = ["Violation", "ALL_RULES", "RULE_SUMMARIES"]


@dataclass(frozen=True, order=True)
class Violation:
    """One rule hit, formatted by the CLI as ``path:line:col: CODE message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


RULE_SUMMARIES: dict[str, str] = {
    "REP001": "raw RNG construction outside repro.rng (breaks stream derivation)",
    "REP002": "wall-clock read in a deterministic path (breaks reproducibility)",
    "REP003": "iteration over an unordered set in an order-sensitive package",
    "REP004": "float == / != in a geometric predicate module",
    "REP005": "ledger counters mutated outside the accounting layer",
}


# --------------------------------------------------------------------------- #
# Shared AST helpers                                                          #
# --------------------------------------------------------------------------- #


def _dotted(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> fully qualified name, from top-level-ish imports.

    ``import numpy as np`` maps ``np -> numpy``; ``from numpy import random
    as npr`` maps ``npr -> numpy.random``; ``from time import time`` maps
    ``time -> time.time``.  Wildcards are ignored.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".", 1)[0]
                full = alias.name if alias.asname else alias.name.split(".", 1)[0]
                aliases[local] = full
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def _resolve(dotted: str, aliases: dict[str, str]) -> str:
    """Expand the first segment of ``dotted`` through the import aliases."""
    head, _, rest = dotted.partition(".")
    full = aliases.get(head)
    if full is None:
        return dotted
    return f"{full}.{rest}" if rest else full


def _calls(tree: ast.Module) -> Iterator[tuple[ast.Call, str]]:
    """Every call whose callee is a resolvable dotted name."""
    aliases = _import_aliases(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _dotted(node.func)
            if name is not None:
                yield node, _resolve(name, aliases)


# --------------------------------------------------------------------------- #
# REP001 — raw RNG construction                                               #
# --------------------------------------------------------------------------- #

#: numpy entry points that mint generator state (or poke the legacy global
#: one).  ``SeedSequence`` is deliberately absent: it is seed *material*, not
#: a stream, and repro.rng composes it.
_NUMPY_RNG = frozenset(
    {
        "default_rng",
        "seed",
        "RandomState",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "ranf",
        "sample",
        "choice",
        "shuffle",
        "permutation",
        "bytes",
        "normal",
        "uniform",
        "get_state",
        "set_state",
    }
)


def check_rep001(tree: ast.Module, path: str, config: Config) -> list[Violation]:
    """No raw RNG construction outside :mod:`repro.rng`.

    Stochastic code must take a ``SeedLike`` / ``numpy.random.Generator``
    parameter and go through ``rng.ensure_generator`` / ``rng.derive`` so
    every stream is derivable from the root seed and independent of sibling
    subsystems' draw counts.
    """
    if path_matches(path, config.rep001_allow):
        return []
    out: list[Violation] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "random" or alias.name.startswith("random."):
                    out.append(
                        Violation(
                            path,
                            node.lineno,
                            node.col_offset,
                            "REP001",
                            "stdlib 'random' is process-global state; take a "
                            "SeedLike and use repro.rng.derive instead",
                        )
                    )
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module == "random":
                out.append(
                    Violation(
                        path,
                        node.lineno,
                        node.col_offset,
                        "REP001",
                        "stdlib 'random' is process-global state; take a "
                        "SeedLike and use repro.rng.derive instead",
                    )
                )
    for call, name in _calls(tree):
        parts = name.split(".")
        if (
            len(parts) == 3
            and parts[0] == "numpy"
            and parts[1] == "random"
            and parts[2] in _NUMPY_RNG
        ):
            out.append(
                Violation(
                    path,
                    call.lineno,
                    call.col_offset,
                    "REP001",
                    f"raw numpy.random.{parts[2]} call; accept a SeedLike and "
                    "use repro.rng.ensure_generator / repro.rng.derive",
                )
            )
        elif parts[0] == "random" and len(parts) == 2:
            out.append(
                Violation(
                    path,
                    call.lineno,
                    call.col_offset,
                    "REP001",
                    f"stdlib random.{parts[1]} draws from process-global "
                    "state; use repro.rng.derive",
                )
            )
    return out


# --------------------------------------------------------------------------- #
# REP002 — wall-clock reads                                                   #
# --------------------------------------------------------------------------- #

_WALLCLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.asctime",
        "time.strftime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)
#: fallbacks when the receiver cannot be resolved to the datetime module
#: (e.g. a ``datetime`` class smuggled through an untracked namespace).
_WALLCLOCK_SUFFIXES = ("datetime.now", "datetime.utcnow", "date.today")


def check_rep002(tree: ast.Module, path: str, config: Config) -> list[Violation]:
    """No wall-clock in deterministic paths.

    Simulated experiments must not observe host time: it breaks run-to-run
    reproducibility and differs across ``--jobs`` workers.  For elapsed-time
    measurement use ``time.perf_counter`` (monotonic, allowed everywhere);
    for timestamps, take the value as a parameter.
    """
    if path_matches(path, config.rep002_allow):
        return []
    out: list[Violation] = []
    for call, name in _calls(tree):
        if name in _WALLCLOCK or name.endswith(_WALLCLOCK_SUFFIXES):
            out.append(
                Violation(
                    path,
                    call.lineno,
                    call.col_offset,
                    "REP002",
                    f"wall-clock read ({name}); use time.perf_counter for "
                    "elapsed time or take the timestamp as a parameter",
                )
            )
    return out


# --------------------------------------------------------------------------- #
# REP003 — unordered iteration                                                #
# --------------------------------------------------------------------------- #

_SET_ANNOTATIONS = ("set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet")
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)


def _is_setish(node: ast.expr, set_names: frozenset[str]) -> bool:
    """Whether ``node`` statically looks like a set expression."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return True
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return _is_setish(node.left, set_names) or _is_setish(node.right, set_names)
    if isinstance(node, ast.Name):
        return node.id in set_names
    return False


def _annotation_is_set(annotation: ast.expr) -> bool:
    target = annotation
    if isinstance(target, ast.Subscript):
        target = target.value
    name = _dotted(target)
    return name is not None and name.split(".")[-1] in _SET_ANNOTATIONS


class _Scope:
    """One analysis scope: the module body or one function body.

    Nested function bodies are excluded — they are separate scopes with
    their own name bindings.  Comprehensions share the enclosing scope's
    bindings for our purposes (their iterables are evaluated there).
    """

    def __init__(self, node: ast.Module | ast.FunctionDef | ast.AsyncFunctionDef):
        self.node = node
        self.statements = list(self._walk_shallow(node))

    @staticmethod
    def _walk_shallow(root: ast.AST) -> Iterator[ast.AST]:
        stack: list[ast.AST] = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue  # nested scope
            stack.extend(ast.iter_child_nodes(node))

    def set_names(self) -> frozenset[str]:
        """Names that are only ever bound to set-typed values in this scope.

        Iterated to a fixpoint so one-hop aliases of set-valued names
        (``survivors = failed | extra``) are recognised too.
        """
        params: set[str] = set()
        if isinstance(self.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            arguments = self.node.args
            for arg in (
                *arguments.posonlyargs,
                *arguments.args,
                *arguments.kwonlyargs,
            ):
                if arg.annotation is not None and _annotation_is_set(arg.annotation):
                    params.add(arg.arg)
        known: frozenset[str] = frozenset(params)
        for _ in range(4):  # alias chains deeper than this do not occur
            setish: set[str] = set(params)
            disqualified: set[str] = set()
            for node in self.statements:
                if isinstance(node, ast.AnnAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if _annotation_is_set(node.annotation):
                        setish.add(node.target.id)
                    else:
                        disqualified.add(node.target.id)
                elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        if _is_setish(node.value, known):
                            setish.add(target.id)
                        else:
                            disqualified.add(target.id)
            result = frozenset(setish - disqualified)
            if result == known:
                break
            known = result
        return known


def _iter_scopes(tree: ast.Module) -> Iterator[_Scope]:
    yield _Scope(tree)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield _Scope(node)


def check_rep003(tree: ast.Module, path: str, config: Config) -> list[Violation]:
    """No iteration over unordered sets in order-sensitive packages.

    Set iteration order depends on hashing and insertion history, so any set
    that feeds message emission, storage assignment or export order can
    silently break ``--jobs 1`` vs ``--jobs N`` byte equality.  Iterate
    ``sorted(the_set)`` (deterministic) or keep an ordered container.
    """
    if not path_matches(path, config.rep003_paths):
        return []
    out: list[Violation] = []

    def flag(node: ast.expr, context: str) -> None:
        out.append(
            Violation(
                path,
                node.lineno,
                node.col_offset,
                "REP003",
                f"{context} iterates an unordered set; wrap it in sorted(...) "
                "or use an ordered container",
            )
        )

    for scope in _iter_scopes(tree):
        names = scope.set_names()
        for node in scope.statements:
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if _is_setish(node.iter, names):
                    flag(node.iter, "'for' loop")
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for generator in node.generators:
                    if _is_setish(generator.iter, names):
                        flag(generator.iter, "comprehension")
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                if node.func.id in ("list", "tuple") and len(node.args) == 1:
                    if _is_setish(node.args[0], names):
                        flag(node.args[0], f"{node.func.id}(...) conversion")
    return out


# --------------------------------------------------------------------------- #
# REP004 — float equality                                                     #
# --------------------------------------------------------------------------- #


def _is_floatish(node: ast.expr, float_names: frozenset[str] = frozenset()) -> bool:
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        return _is_floatish(node.operand, float_names)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id == "float":
            return True
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Div):
            return True
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Mod, ast.Pow)):
            return _is_floatish(node.left, float_names) or _is_floatish(
                node.right, float_names
            )
    if isinstance(node, ast.Name):
        return node.id in float_names
    return False


def _float_names(scope: _Scope) -> frozenset[str]:
    """Names statically known to hold floats in ``scope``.

    Sources: parameters and variables annotated ``float``, and variables
    assigned a float-valued expression (fixpoint over one-hop aliases,
    names assigned anything non-float are disqualified).
    """
    params: set[str] = set()
    if isinstance(scope.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        arguments = scope.node.args
        for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs):
            annotation = arg.annotation
            if annotation is not None and _dotted(annotation) == "float":
                params.add(arg.arg)
    known: frozenset[str] = frozenset(params)
    for _ in range(4):
        floatish: set[str] = set(params)
        disqualified: set[str] = set()
        for node in scope.statements:
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _dotted(node.annotation) == "float":
                    floatish.add(node.target.id)
                else:
                    disqualified.add(node.target.id)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    if _is_floatish(node.value, known):
                        floatish.add(target.id)
                    else:
                        disqualified.add(target.id)
        result = frozenset(floatish - disqualified)
        if result == known:
            break
        known = result
    return known


def check_rep004(tree: ast.Module, path: str, config: Config) -> list[Violation]:
    """No float ``==`` / ``!=`` in geometric predicate modules.

    Planarization and face routing make *decisions* from these predicates;
    an exact comparison that flips under rounding produces different graphs
    (and different message counts) across platforms.  Use ``math.isclose``
    or an explicit epsilon helper.  Exact sentinel guards (``denom == 0.0``
    before dividing) stay legal via ``# repro-lint: ignore[REP004]``.
    """
    if not path_matches(path, config.rep004_paths):
        return []
    out: list[Violation] = []
    for scope in _iter_scopes(tree):
        names = _float_names(scope)
        for node in scope.statements:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for index, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[index], operands[index + 1]
                if _is_floatish(left, names) or _is_floatish(right, names):
                    out.append(
                        Violation(
                            path,
                            node.lineno,
                            node.col_offset,
                            "REP004",
                            "exact float comparison in a geometric predicate; "
                            "use math.isclose / an epsilon helper (or ignore "
                            "deliberate sentinel guards)",
                        )
                    )
                    break
    return out


# --------------------------------------------------------------------------- #
# REP005 — ledger mutation                                                    #
# --------------------------------------------------------------------------- #

_LEDGER_ATTRS = frozenset({"_counts", "_log", "_per_node_tx", "_per_node_rx"})
_MUTATORS = frozenset(
    {"update", "clear", "subtract", "pop", "popitem", "setdefault", "__setitem__"}
)


def _ledger_attr(node: ast.expr) -> ast.Attribute | None:
    """The ``<obj>._counts``-style attribute inside a target, if any."""
    if isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in _LEDGER_ATTRS:
        return node
    return None


def check_rep005(tree: ast.Module, path: str, config: Config) -> list[Violation]:
    """Ledger counters are mutated only inside the accounting layer.

    ``MessageStats`` internals (``_counts``, the per-node ``_log`` and
    the ``_per_node_tx``/``_per_node_rx`` counts it folds into) are the
    source of truth for the paper's cost metric; all recording goes
    through ``record`` / ``record_path`` / ``record_tree`` / ``scope`` so
    scoped aggregation and tracer mirroring stay correct.
    """
    if path_matches(path, config.rep005_allow):
        return []
    out: list[Violation] = []

    def flag(node: ast.AST, attr: str) -> None:
        out.append(
            Violation(
                path,
                node.lineno,
                node.col_offset,
                "REP005",
                f"direct mutation of ledger counter '{attr}'; record through "
                "the MessageStats API (record/record_path/record_tree/scope)",
            )
        )

    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign):
            attr = _ledger_attr(node.target)
            if attr is not None:
                flag(node, attr.attr)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                attr = _ledger_attr(target)
                if attr is not None:
                    flag(node, attr.attr)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _ledger_attr(target)
                if attr is not None:
                    flag(node, attr.attr)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                attr = _ledger_attr(node.func.value)
                if attr is not None:
                    flag(node, attr.attr)
    return out


RuleFn = Callable[[ast.Module, str, Config], list[Violation]]

ALL_RULES: dict[str, RuleFn] = {
    "REP001": check_rep001,
    "REP002": check_rep002,
    "REP003": check_rep003,
    "REP004": check_rep004,
    "REP005": check_rep005,
}
