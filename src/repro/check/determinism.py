"""Determinism lint — thin shim over the :mod:`repro.check.lint` engine.

The four original rules (``wall-clock``, ``unseeded-random``,
``set-iteration``, ``float-time``) now live on the plugin framework in
:mod:`repro.check.lint.rules.determinism`; this module keeps the PR-1
entry points (``lint_source`` / ``lint_file`` / ``lint_tree``) and their
golden outputs byte-identical for existing callers, CI invocations and
tests.  New code should use the engine directly — it runs these rules
plus the unit-flow, shared-state and strict-typing
analyses (``python -m repro.check lint``).

A finding is suppressed by the legacy ``# det: allow`` line comment or
the framework's ``# repro: ignore[rule-id]`` syntax.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.check.lint.core import Finding, LintEngine, ModuleContext, get_rule
from repro.check.lint.rules.determinism import SUPPRESS_MARK

__all__ = [
    "DETERMINISM_RULE_IDS",
    "LintFinding",
    "SUPPRESS_MARK",
    "lint_file",
    "lint_source",
    "lint_tree",
    "repro_source_root",
]

#: The four ported rules this shim runs, in registration order.
DETERMINISM_RULE_IDS = (
    "wall-clock", "unseeded-random", "set-iteration", "float-time",
)


@dataclass(frozen=True)
class LintFinding:
    """One determinism hazard at a source location (legacy shape)."""

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def _engine() -> LintEngine:
    return LintEngine([get_rule(rule_id) for rule_id in DETERMINISM_RULE_IDS])


def _downgrade(findings: List[Finding]) -> List[LintFinding]:
    return [
        LintFinding(path=f.path, line=f.line, rule=f.rule, message=f.message)
        for f in findings
    ]


def lint_source(
    source: str, path: str = "<string>", module_rel: Optional[str] = None
) -> List[LintFinding]:
    """Lint one module's source text; ``module_rel`` locates it within
    ``repro`` (used for the workloads/hot-path scoping).

    A file that does not parse cannot be vouched for, so a syntax error
    is reported as a finding rather than raised."""
    ctx = ModuleContext(path, module_rel or path, source)
    return _downgrade(_engine().run([ctx]))


def lint_file(path: Union[str, Path],
              root: Optional[Path] = None) -> List[LintFinding]:
    """Lint one file on disk."""
    path = Path(path)
    rel = str(path.relative_to(root)) if root else str(path)
    return lint_source(path.read_text(encoding="utf-8"), str(path), rel)


def lint_tree(root: Union[str, Path]) -> List[LintFinding]:
    """Lint every ``*.py`` file under ``root``, deterministically ordered."""
    root = Path(root)
    findings: List[LintFinding] = []
    for path in sorted(root.rglob("*.py")):
        findings.extend(lint_file(path, root=root))
    return findings


def repro_source_root() -> Path:
    """The installed location of the ``repro`` package sources."""
    import repro

    return Path(repro.__file__).resolve().parent
