"""The four determinism rules: ``wall-clock``, ``unseeded-random``,
``set-iteration`` and ``float-time``.

``python -m repro.check lint --rules
wall-clock,unseeded-random,set-iteration,float-time`` runs exactly these
rules.  Each keeps the legacy ``# det: allow`` suppression marker
working alongside ``# repro: ignore[rule-id]``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Type

from repro.check.lint.core import Finding, ModuleContext, Rule, register

#: Wall-clock callables, as dotted names rooted at the module.
_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.clock_gettime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

#: ``random`` module attributes that are legitimate without an instance.
_RANDOM_OK = {"Random", "SystemRandom", "getstate", "setstate"}

#: Packages whose time values must stay integer picoseconds.
_HOT_PACKAGES = ("engine", "dram", "channel", "controller")

#: Identifier endings that denote a picosecond quantity.
_PS_SUFFIXES = ("_ps", "_time")
_PS_NAMES = {"now", "clock", "burst", "time_ps", "earliest", "deadline"}

#: Legacy suppression comment (pre-framework syntax), still honoured.
SUPPRESS_MARK = "det: allow"


def dotted_name(node: ast.AST) -> Optional[str]:
    """Resolve ``a.b.c`` attribute chains to a dotted string."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def is_ps_name(node: ast.AST) -> bool:
    """Whether an expression names a picosecond-typed value."""
    if isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.Name):
        name = node.id
    else:
        return False
    if name in _PS_NAMES or name.endswith(_PS_SUFFIXES):
        return True
    # Table 2 timing attributes: tRCD, tRP, tWTR, ... (TimingPs fields).
    return len(name) >= 3 and name[0] == "t" and name[1:].isupper()


class ImportTrackingVisitor(ast.NodeVisitor):
    """NodeVisitor that resolves local aliases to canonical dotted names."""

    def __init__(self) -> None:
        #: local alias -> canonical dotted name (import tracking)
        self.aliases: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module:
            for alias in node.names:
                self.aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )
        self.generic_visit(node)

    def canonical(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a call target, following imports."""
        dotted = dotted_name(node)
        if dotted is None:
            return None
        head, _, rest = dotted.partition(".")
        head = self.aliases.get(head, head)
        return f"{head}.{rest}" if rest else head


class _DeterminismRule(Rule):
    """Shared plumbing: run a visitor class and collect its findings."""

    legacy_suppress = SUPPRESS_MARK
    visitor_cls: Type["_CallRuleVisitor"]

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        assert ctx.tree is not None
        visitor = self.visitor_cls(self, ctx)
        visitor.visit(ctx.tree)
        return visitor.findings


class _CallRuleVisitor(ImportTrackingVisitor):
    def __init__(self, rule: Rule, ctx: ModuleContext) -> None:
        super().__init__()
        self.rule = rule
        self.ctx = ctx
        self.findings: List[Finding] = []


class _WallClockVisitor(_CallRuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        target = self.canonical(node.func)
        if target in _WALL_CLOCK:
            self.findings.append(self.rule.finding(
                self.ctx, node,
                f"call to {target}(): simulator code must use simulated "
                "time, not the host clock",
            ))
        self.generic_visit(node)


@register
class WallClockRule(_DeterminismRule):
    id = "wall-clock"
    description = (
        "calls to time.time()/monotonic()/perf_counter()/datetime.now() "
        "and friends; simulated time is the only clock model code may read"
    )
    visitor_cls = _WallClockVisitor


class _UnseededRandomVisitor(_CallRuleVisitor):
    def visit_Call(self, node: ast.Call) -> None:
        target = self.canonical(node.func)
        if target is not None and target.startswith("random."):
            attr = target.split(".", 1)[1]
            if attr not in _RANDOM_OK and not self.ctx.in_packages("workloads"):
                self.findings.append(self.rule.finding(
                    self.ctx, node,
                    f"module-level random.{attr}() uses hidden global "
                    "state; use an explicit random.Random(seed) instance",
                ))
        self.generic_visit(node)


@register
class UnseededRandomRule(_DeterminismRule):
    id = "unseeded-random"
    description = (
        "module-level random.*() functions share hidden global state; "
        "use an explicit random.Random(seed) instance (workloads' own "
        "seeded generators are exempt)"
    )
    visitor_cls = _UnseededRandomVisitor


class _SetIterationVisitor(_CallRuleVisitor):
    def _check_iterable(self, iterable: ast.AST) -> None:
        is_set = isinstance(iterable, ast.Set) or (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in ("set", "frozenset")
        )
        if is_set:
            self.findings.append(self.rule.finding(
                self.ctx, iterable,
                "iterating a set: order varies with hash seeding; sort it "
                "(or use a list/dict) before anything order-sensitive",
            ))

    def visit_For(self, node: ast.For) -> None:
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_generators(
        self, generators: Sequence[ast.comprehension]
    ) -> None:
        for gen in generators:
            self._check_iterable(gen.iter)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_generators(node.generators)
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_generators(node.generators)
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_generators(node.generators)
        self.generic_visit(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_generators(node.generators)
        self.generic_visit(node)


@register
class SetIterationRule(_DeterminismRule):
    id = "set-iteration"
    description = (
        "iteration directly over a set literal or set()/frozenset() call: "
        "set order varies with hash seeding"
    )
    visitor_cls = _SetIterationVisitor


class _FloatTimeVisitor(_CallRuleVisitor):
    def __init__(self, rule: Rule, ctx: ModuleContext) -> None:
        super().__init__(rule, ctx)
        self._rounded_depth = 0

    def visit_Call(self, node: ast.Call) -> None:
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in ("round", "int")
        ):
            self._rounded_depth += 1
            self.generic_visit(node)
            self._rounded_depth -= 1
            return
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if self._rounded_depth == 0:
            if isinstance(node.op, ast.Div) and is_ps_name(node.left):
                if not is_ps_name(node.right):
                    self.findings.append(self.rule.finding(
                        self.ctx, node,
                        "true division of a picosecond value yields a "
                        "float; the hot path is integer-ps — use // or "
                        "wrap in round()/int() at config time",
                    ))
            elif isinstance(node.op, ast.Mult):
                operands = (node.left, node.right)
                if any(is_ps_name(op) for op in operands) and any(
                    isinstance(op, ast.Constant) and isinstance(op.value, float)
                    for op in operands
                ):
                    self.findings.append(self.rule.finding(
                        self.ctx, node,
                        "float-constant scaling of a picosecond value; "
                        "wrap in round()/int() or precompute an integer",
                    ))
        self.generic_visit(node)


@register
class FloatTimeRule(_DeterminismRule):
    id = "float-time"
    description = (
        "float arithmetic on picosecond values inside the integer-ps hot "
        "path (engine/dram/channel/controller)"
    )
    visitor_cls = _FloatTimeVisitor

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if not ctx.in_packages(*_HOT_PACKAGES):
            return ()
        return super().check_module(ctx)
