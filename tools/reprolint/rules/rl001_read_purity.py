"""RL001 — read-path purity.

Methods reachable from the declared read API (estimator queries,
``context_for`` / ``audit`` / delta replay, …) may not assign ``self``
attributes on a *shared* class unless the method is a registered
build/edit entry point.  Every violation is a latent race once the read
path fans across a worker pool: two threads racing the same lazy build
write the same attribute concurrently, and a reader can observe the
half-initialized value.

Detected write forms: ``self.attr = …``, ``self.attr[...] = …`` (any
subscript depth), augmented assignments on either, ``del self.attr``,
``object.__setattr__(self, …)`` / ``setattr(self, …)``, and the two slot
writes ``self.attr.set(…)`` / ``self.attr.drop(…)`` — a lazy slot
(``repro.obs.lazy.Lazy``) stores its own builds, so only an explicit
``set`` or ``drop`` rewrites what its owner serves.  Constructors
(``__init__`` / ``__post_init__`` / ``__new__``) are exempt — a not-yet-
shared instance is thread-local by construction.
"""

from __future__ import annotations

import ast

from tools.reprolint.contracts import ContractSet
from tools.reprolint.engine import Finding, Rule
from tools.reprolint.model import ClassInfo, FunctionInfo, Project

_CONSTRUCTORS = frozenset({"__init__", "__post_init__", "__new__"})
#: Lazy-slot methods that write the slot, and how a finding words them.
_SLOT_WRITES = {"set": "sets", "drop": "drops"}


def resolve_read_roots(project: Project, contracts: ContractSet) -> list[FunctionInfo]:
    """The FunctionInfos of the declared read API, overrides included."""
    roots: list[FunctionInfo] = []
    for cls_name, meth in contracts.read_roots:
        if cls_name == "":
            mod_name, _, func = meth.rpartition(".")
            for module in project.modules.values():
                if module.name == mod_name or module.name.endswith("." + mod_name):
                    if func in module.functions:
                        roots.append(module.functions[func])
            continue
        for cls in project.subclasses({cls_name}):
            if meth in cls.methods:
                roots.append(cls.methods[meth])
    return roots


def _subscript_base(node: ast.expr) -> ast.expr:
    while isinstance(node, ast.Subscript):
        node = node.value
    return node


def _self_write_target(node: ast.expr) -> str | None:
    """``"attr"`` when ``node`` writes through ``self.attr``, else None."""
    base = _subscript_base(node)
    if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name):
        if base.value.id == "self":
            return base.attr
    return None


def iter_self_writes(fn_node: ast.AST):
    """Yield ``(lineno, description)`` for every self-attribute write."""
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                parts = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
                for part in parts:
                    attr = _self_write_target(part)
                    if attr is not None:
                        yield node.lineno, f"assigns self.{attr}"
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            attr = _self_write_target(node.target)
            if attr is not None:
                yield node.lineno, f"mutates self.{attr}"
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                attr = _self_write_target(target)
                if attr is not None:
                    yield node.lineno, f"deletes self.{attr}"
        elif isinstance(node, ast.Call):
            func = node.func
            name = None
            if isinstance(func, ast.Attribute):
                name = func.attr
                if name in _SLOT_WRITES:
                    attr = _self_write_target(func.value)
                    if attr is not None:
                        yield node.lineno, f"{_SLOT_WRITES[name]} self.{attr}"
            elif isinstance(func, ast.Name):
                name = func.id
            if name == "__setattr__" or name == "setattr":
                if node.args and isinstance(node.args[0], ast.Name) and node.args[0].id == "self":
                    yield node.lineno, "calls setattr on self"


def _is_allowlisted(fn: FunctionInfo, cls: ClassInfo, project: Project, contracts: ContractSet) -> bool:
    family_names = {c.name for c in project.family(cls)}
    return any((name, fn.name) in contracts.build_methods for name in family_names)


def check(project: Project, contracts: ContractSet) -> list[Finding]:
    shared = project.subclasses(set(contracts.shared_classes))
    roots = resolve_read_roots(project, contracts)
    pred = project.reachable_from(roots)
    findings: list[Finding] = []
    for fn in pred:
        cls = fn.cls
        if cls is None or cls not in shared:
            continue
        if fn.name in _CONSTRUCTORS:
            continue
        if _is_allowlisted(fn, cls, project, contracts):
            continue
        chain = project.chain(pred, fn)
        for lineno, description in iter_self_writes(fn.node):
            findings.append(
                Finding(
                    "RL001",
                    fn.path,
                    lineno,
                    f"read-path write: {fn.qualname} {description} but is reachable "
                    f"from the read API (via {chain}) and is not a registered "
                    "build/edit method",
                )
            )
    return findings


RULE = Rule(
    id="RL001",
    name="read-path-purity",
    description="methods reachable from the read API may not write shared state",
    check=check,
)
