"""Static and dynamic correctness checks for the simulator.

Three independent passes (see ``docs/CHECKING.md``):

* :mod:`repro.check.protocol` — validates DDR2 command traces and FB-DIMM
  frame journals against the Table 2 timing constraints;
* :mod:`repro.check.lint` — the static-analysis engine: a plugin rule
  registry running the determinism rules (wall clocks, unseeded
  ``random``, set iteration, float arithmetic on picosecond times) plus
  unit-flow, worker shared-state and strict-typing
  analyses (``docs/STATIC_ANALYSIS.md``);
* :mod:`repro.check.config_audit` — cross-field consistency checks on
  :class:`~repro.config.SystemConfig` with actionable messages.

Run offline with ``python -m repro.check trace.jsonl`` (plus ``lint`` /
``--audit-configs`` / ``--self-test``), or at runtime with
``SystemConfig(check_protocol=True)``.
"""

from repro.check.config_audit import AuditIssue, audit_memory, audit_system
from repro.check.lint import Finding, LintEngine, ProjectRule, Rule, all_rules
from repro.check.protocol import (
    ProtocolChecker,
    ProtocolViolationError,
    Violation,
)
from repro.check.trace import (
    CheckEvent,
    TraceParams,
    load_events,
    save_events,
)

__all__ = [
    "AuditIssue",
    "CheckEvent",
    "Finding",
    "LintEngine",
    "ProjectRule",
    "ProtocolChecker",
    "ProtocolViolationError",
    "Rule",
    "TraceParams",
    "Violation",
    "all_rules",
    "audit_memory",
    "audit_system",
    "load_events",
    "save_events",
]
