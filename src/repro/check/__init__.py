"""Analysis and verification layer for the cache simulator.

Two complementary guards over the BUF↔ACM contract of the paper's
Section 4:

* :mod:`repro.check.invariants` — a **runtime sanitizer**
  (:class:`InvariantChecker`) that re-validates the structural invariants
  of the cache after every BUF operation: list/pool membership, LRU
  ordering, placeholder lifecycle and allocation accounting.  Off by
  default; enabled by ``REPRO_SANITIZE=1`` or ``MachineConfig(sanitize=True)``.
* :mod:`repro.check.lint` — a **static protocol lint** (``repro-lint``)
  with AST rules scoped to this codebase: R001 (only BUF may invoke the
  five ACM procedures), R002 (no wall clock / unseeded RNG in the
  deterministic core), R003 (registry policies implement the eviction
  protocol), R004 (no mutable defaults; config dataclasses frozen),
  R005 (sim ops are interpreted only by the kernel), R006–R009 (layer
  discipline: the kernel gate, typed I/O errors, telemetry, the cluster's
  one daemon factory), R010 (suppression/baseline hygiene) and R014
  (seeded, registered workload generators).  Wire verbs need no rule: the
  protocol declares each once, in one table.
* :mod:`repro.check.flow` — a **flow-sensitive analyzer** over the async
  server/cluster layer: per-function CFGs with ``await`` points as
  interleaving boundaries drive passes F001 (await-atomicity), F002
  (blocking calls in coroutines), F003 (task leaks), F004 (wire-param
  taint) and F005 (lock discipline).
* :mod:`repro.check.manager` — the shared pass manager: one parse per
  file, inline ``# repro: allow(...)`` suppressions, the checked-in
  baseline and the text/github/json output formats.

See ``docs/invariants.md`` for the invariant catalogue and
``docs/static-analysis.md`` for the full rule reference.
"""

from repro.check.invariants import (
    InvariantChecker,
    InvariantViolation,
    install_auto_sanitizer,
    sanitize_enabled,
)
from repro.check.lint import Finding, lint_source, lint_tree, lint_tree_result
from repro.check.manager import LintResult, PassManager

__all__ = [
    "InvariantChecker",
    "InvariantViolation",
    "install_auto_sanitizer",
    "sanitize_enabled",
    "Finding",
    "LintResult",
    "PassManager",
    "lint_source",
    "lint_tree",
    "lint_tree_result",
]
